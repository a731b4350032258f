import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spas import (
    GenParams,
    Instance,
    RawInstance,
    generate,
    serialize_instance,
    validate_raw,
)


def as_raw(instance: Instance) -> RawInstance:
    return RawInstance(
        student_prefs=[list(p) for p in instance.student_prefs],
        project_capacity=list(instance.project_capacity),
        project_owner=list(instance.project_owner),
        lecturer_capacity=list(instance.lecturer_capacity),
        lecturer_prefs=[list(p) for p in instance.lecturer_prefs],
    )


class TestDeterminism:
    def test_same_seed_same_instance(self):
        params = GenParams(students=6, projects=5, lecturers=2, seed=42)
        assert generate(params) == generate(params)

    def test_different_seeds_differ_somewhere(self):
        fixed = dict(students=6, projects=5, lecturers=2, density=0.6)
        instances = {generate(GenParams(seed=s, **fixed)) for s in range(30)}
        assert len(instances) > 1


class TestPinnedOutput:
    """Generated files are part of the recipe: these digests must not move."""

    PINS = [
        (GenParams(students=7, projects=5, lecturers=2, seed=42),
         "accdbc24ac195ff5ad36959e14365a34ed56a4068950a91fda0b1bf496d46844"),
        (GenParams(students=0, projects=3, lecturers=2, seed=1),
         "a1c861b60f606c053e14f47b27421637828140d733ee1bf45bdc3ea0c69be6ed"),
        (GenParams(students=60, projects=12, lecturers=5, pref_len=(0, 5),
                   project_cap=(1, 3), seed=2024, density=0.9),
         "bac638d5aef3c0197623fe1ad27a770f374e42209c35738c640eb5396019001f"),
        (GenParams(students=250, projects=62, lecturers=12, pref_len=(3, 6),
                   project_cap=(1, 4), seed=10_257, density=4.5 / 62),
         "54c34e2bfe50a920bb447c3b0d119a678da911cbbcf3d4923749c4e37e60ff4c"),
    ]

    @pytest.mark.parametrize("params,digest", PINS)
    def test_serialized_output_digest(self, params, digest):
        text = serialize_instance(generate(params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestValidity:
    def test_500_seed_sweep_validates(self):
        for seed in range(1, 501):
            instance = generate(GenParams(
                students=1 + seed % 6, projects=1 + (seed * 7) % 5,
                lecturers=1 + seed % min(3, 1 + (seed * 7) % 5),
                seed=seed, density=0.1 + (seed % 9) / 10))
            assert validate_raw(as_raw(instance)).ok

    @given(
        students=st.integers(0, 8),
        projects=st.integers(1, 7),
        lecturers=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
        density=st.floats(0.0, 1.0),
        lo=st.integers(0, 3),
        extra=st.integers(0, 4),
        cap_hi=st.integers(1, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_generated_instances_always_validate(
        self, students, projects, lecturers, seed, density, lo, extra, cap_hi
    ):
        if lecturers > projects:
            return
        instance = generate(GenParams(
            students=students, projects=projects, lecturers=lecturers,
            pref_len=(lo, lo + extra), project_cap=(1, cap_hi),
            seed=seed, density=density))
        assert validate_raw(as_raw(instance)).ok
        # d_k inside the feasible band by construction
        for k in instance.lecturers():
            caps = [instance.project_capacity[p - 1]
                    for p in instance.lecturer_projects[k - 1]]
            assert max(caps) <= instance.lecturer_capacity[k - 1] <= sum(caps)

    def test_zero_students(self):
        instance = generate(GenParams(students=0, projects=3, lecturers=2, seed=1))
        assert instance.num_students == 0
        assert all(instance.lecturer_prefs[k - 1] == ()
                   for k in instance.lecturers())

    def test_empty_instance(self):
        instance = generate(GenParams(students=0, projects=0, lecturers=0, seed=1))
        assert instance.num_projects == 0


class TestInfeasibleParams:
    def test_more_lecturers_than_projects(self):
        with pytest.raises(ValueError):
            generate(GenParams(students=2, projects=1, lecturers=2, seed=0))

    def test_projects_without_lecturers(self):
        with pytest.raises(ValueError):
            generate(GenParams(students=2, projects=1, lecturers=0, seed=0))

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            generate(GenParams(students=-1, projects=1, lecturers=1, seed=0))

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            generate(GenParams(2, 2, 1, pref_len=(3, 1), seed=0))
        with pytest.raises(ValueError):
            generate(GenParams(2, 2, 1, project_cap=(0, 1), seed=0))
        with pytest.raises(ValueError):
            generate(GenParams(2, 2, 1, density=1.5, seed=0))

    # each recipe used to fail with a stray TypeError, or a ValueError from
    # unpacking, instead of one naming its field
    @pytest.mark.parametrize("field, value", [
        ("students", 2.5), ("students", "3"), ("students", True),
        ("projects", 2.0), ("lecturers", None),
        ("pref_len", (1.5, 3)), ("pref_len", 5), ("pref_len", (1,)),
        ("pref_len", (1, 2, 3)), ("project_cap", ("1", 2)),
        ("density", "x"), ("density", None),
        # None seeds from the OS, and True equals 1
        ("seed", None), ("seed", True), ("seed", 1.5), ("seed", "x"),
    ], ids=lambda x: x if isinstance(x, str) and x.isidentifier() else repr(x))
    def test_malformed_values_name_their_field(self, field, value):
        recipe = {"students": 3, "projects": 2, "lecturers": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            generate(GenParams(**recipe))
