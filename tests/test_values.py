"""Value semantics of the package's nine record classes: constructors and
defaults, equality within one class only, hashing as the tuple of fields,
exact ``repr``, frozen fields, and round trips through ``copy``,
``deepcopy`` and ``pickle``."""

import copy
import pickle
from itertools import combinations

import pytest

from known_instances import INSTANCE_A, INSTANCE_B
from spas import (
    GenParams,
    HasseDiagram,
    Instance,
    Matching,
    PropertyReport,
    RawInstance,
    StableSet,
    ValidationReport,
    Violation,
    enumerate_all,
    join,
    meet,
    solve_lecturer_optimal,
    solve_student_optimal,
)

V = Violation("capacity-bound", "l1", "too small")
M = Matching(((1, 3),))

# class, a value, its fields in order, and its exact repr
FROZEN = {
    "Violation": (
        Violation, V, ("capacity-bound", "l1", "too small"),
        "Violation(rule='capacity-bound', subject='l1', message='too small')",
    ),
    "ValidationReport": (
        ValidationReport, ValidationReport((V,)), ((V,), ()),
        "ValidationReport(violations=(Violation(rule='capacity-bound', "
        "subject='l1', message='too small'),), warnings=())",
    ),
    "Instance": (
        Instance, INSTANCE_A,
        (INSTANCE_A.student_prefs, INSTANCE_A.project_capacity,
         INSTANCE_A.project_owner, INSTANCE_A.lecturer_capacity,
         INSTANCE_A.lecturer_prefs),
        "Instance(students=5, projects=5, lecturers=2)",
    ),
    "Matching": (Matching, M, (((1, 3),),), "Matching(pairs=((1, 3),))"),
    "StableSet": (
        StableSet, StableSet((M,)), ((M,),),
        "StableSet(matchings=(Matching(pairs=((1, 3),)),))",
    ),
    "HasseDiagram": (
        HasseDiagram, HasseDiagram((M, Matching()), ((0, 1),)),
        ((M, Matching()), ((0, 1),)),
        "HasseDiagram(nodes=(Matching(pairs=((1, 3),)), Matching(pairs=())), "
        "edges=((0, 1),))",
    ),
    "PropertyReport": (
        PropertyReport, PropertyReport("lemma", False, ("s1",)),
        ("lemma", False, ("s1",)),
        "PropertyReport(name='lemma', passed=False, failures=('s1',))",
    ),
    "GenParams": (
        GenParams, GenParams(4, 3, 2, seed=7), (4, 3, 2, (1, 4), (1, 2), 7, 0.5),
        "GenParams(students=4, projects=3, lecturers=2, pref_len=(1, 4), "
        "project_cap=(1, 2), seed=7, density=0.5)",
    ),
}

FIELD_NAMES = {
    Violation: ("rule", "subject", "message"),
    ValidationReport: ("violations", "warnings"),
    RawInstance: ("student_prefs", "project_capacity", "project_owner",
                  "lecturer_capacity", "lecturer_prefs"),
    Instance: ("student_prefs", "project_capacity", "project_owner",
               "lecturer_capacity", "lecturer_prefs"),
    Matching: ("pairs",),
    StableSet: ("matchings",),
    HasseDiagram: ("nodes", "edges"),
    PropertyReport: ("name", "passed", "failures"),
    GenParams: ("students", "projects", "lecturers", "pref_len",
                "project_cap", "seed", "density"),
}


def raw() -> RawInstance:
    return RawInstance([[1]], [1], [1], [1], [[1]])


def lookalike(cls, value, names):
    """An instance of a subclass of ``cls`` with the same field values."""
    return type(f"Other{cls.__name__}", (cls,), {})(
        **{name: getattr(value, name) for name in names})


@pytest.mark.parametrize("name", sorted(FROZEN))
class TestFrozen:
    def test_fields_in_constructor_order(self, name):
        cls, value, fields, _ = FROZEN[name]
        names = FIELD_NAMES[cls]
        assert cls.__match_args__ == names
        assert tuple(getattr(value, f) for f in names) == fields

    def test_equality_within_the_class_only(self, name):
        cls, value, fields, _ = FROZEN[name]
        names = FIELD_NAMES[cls]
        twin = cls(**dict(zip(names, fields)))
        assert twin == value and twin is not value
        assert not twin != value
        other = lookalike(cls, value, names)
        assert other != value and value != other
        assert value.__eq__(other) is NotImplemented
        assert value.__eq__(fields) is NotImplemented
        assert value != fields

    def test_hash_is_the_hash_of_the_fields(self, name):
        _, value, fields, _ = FROZEN[name]
        assert hash(value) == hash(fields)
        assert {value: 1}[copy.copy(value)] == 1

    def test_repr(self, name):
        _, value, _, text = FROZEN[name]
        assert repr(value) == text

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        cls, value, _, _ = FROZEN[name]
        for field in FIELD_NAMES[cls]:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("roundtrip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_roundtrip(self, name, roundtrip):
        cls, value, _, text = FROZEN[name]
        back = roundtrip(value)
        assert type(back) is cls
        assert back == value
        assert hash(back) == hash(value)
        assert repr(back) == text


class TestConstructors:
    def test_defaults(self):
        assert ValidationReport() == ValidationReport((), ())
        assert PropertyReport("x", True) == PropertyReport("x", True, ())
        assert Matching() == Matching(()) == Matching(pairs=())
        assert GenParams(1, 2, 3) == GenParams(
            students=1, projects=2, lecturers=3, pref_len=(1, 4),
            project_cap=(1, 2), seed=0, density=0.5)

    @pytest.mark.parametrize("cls", [Violation, Instance, StableSet,
                                     HasseDiagram, GenParams])
    def test_fields_without_default_are_required(self, cls):
        with pytest.raises(TypeError):
            cls()

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            Matching(pairs=(), extra=1)

    def test_instance_keeps_a_dict_for_its_tables(self):
        built = Instance(*(getattr(INSTANCE_A, f) for f in FIELD_NAMES[Instance]))
        assert built == INSTANCE_A
        assert "lecturer_projects" not in built.__dict__
        assert built.lecturer_projects == INSTANCE_A.lecturer_projects
        assert "lecturer_projects" in built.__dict__
        assert hash(built) == hash(INSTANCE_A)


class TestRawInstance:
    def test_defaults_are_fresh_lists(self):
        first, second = RawInstance(), RawInstance()
        for field in FIELD_NAMES[RawInstance]:
            assert getattr(first, field) == []
            assert getattr(first, field) is not getattr(second, field)

    def test_given_values_are_kept_as_they_are(self):
        prefs = [[1]]
        assert RawInstance(prefs).student_prefs is prefs
        assert RawInstance(student_prefs=None).student_prefs is None

    def test_mutable_and_unhashable(self):
        value = raw()
        value.student_prefs = [[1], []]
        value.project_capacity.append(2)
        assert value.student_prefs == [[1], []]
        assert value.project_capacity == [1, 2]
        del value.lecturer_prefs
        assert not hasattr(value, "lecturer_prefs")
        with pytest.raises(TypeError):
            hash(raw())

    def test_equality_and_repr(self):
        assert raw() == raw()
        assert raw() != RawInstance()
        other = lookalike(RawInstance, raw(), FIELD_NAMES[RawInstance])
        assert other != raw() and raw().__eq__(other) is NotImplemented
        assert repr(raw()) == (
            "RawInstance(student_prefs=[[1]], project_capacity=[1], "
            "project_owner=[1], lecturer_capacity=[1], lecturer_prefs=[[1]])")

    @pytest.mark.parametrize("roundtrip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_roundtrip(self, roundtrip):
        back = roundtrip(raw())
        assert type(back) is RawInstance and back == raw()


def test_results_equal_and_hash_like_the_public_constructor(corpus7):
    """Solvers, enumeration, meet and join build their results without the
    constructor's check and sort; those results must still be canonical."""
    checked = 0
    stable_sets = [(i, enumerate_all(i)) for i in (INSTANCE_A, INSTANCE_B)]
    for instance, stable in stable_sets + [(i, s) for _, i, s in corpus7[:150]]:
        results = [solve_student_optimal(instance),
                   solve_lecturer_optimal(instance), *stable]
        for first, second in combinations(stable, 2):
            results += [meet(instance, first, second),
                        join(instance, first, second)]
        for m in results:
            public = Matching(m.pairs)
            assert type(m.pairs) is tuple
            assert all(type(pair) is tuple for pair in m.pairs)
            assert m.pairs == public.pairs
            assert m == public and public == m
            assert hash(m) == hash(public)
            checked += 1
    assert checked > 500

