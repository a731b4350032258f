"""Seeded pseudo-random instance generator for property testing and sweeps.

All draws come from one ``random.Random(seed)`` (Mersenne Twister) in a
fixed order, so a parameter set is a pure recipe: identical parameters
give identical instances on every platform and run.  Lecturer lists are
derived from the student lists rather than sampled, which satisfies the
acceptability correspondence by construction, and lecturer capacities are
drawn inside the feasible band, so every generated instance validates.
The drawn lists go straight to the :class:`Instance` constructor, which
checks them and stores them as tuples; an invalid draw would raise its
``ValueError``.
"""

from __future__ import annotations

import random

from .model import Instance, _Frozen


class GenParams(_Frozen):
    """Generation recipe; the seed is part of the identity of the output.

    ``density`` is the probability that any given project enters a
    student's candidate list before the length range is applied.  The two
    ranges, when given as lists, are stored as tuples, so such a recipe
    hashes, and equals the same recipe given tuples.  :func:`generate`
    checks the recipe.
    """

    __match_args__ = ("students", "projects", "lecturers", "pref_len",
                      "project_cap", "seed", "density")

    def __init__(
        self,
        students: int,
        projects: int,
        lecturers: int,
        pref_len: tuple[int, int] = (1, 4),
        project_cap: tuple[int, int] = (1, 2),
        seed: int = 0,
        density: float = 0.5,
    ) -> None:
        self.__dict__.update(
            students=students, projects=projects, lecturers=lecturers,
            pref_len=_pair(pref_len), project_cap=_pair(project_cap), seed=seed,
            density=density,
        )


def _pair(value: object) -> object:
    """``value`` as a tuple when it is a list or a tuple, else as given."""
    return tuple(value) if isinstance(value, (list, tuple)) else value


def _validate_params(params: GenParams) -> None:
    """Raise ``ValueError`` naming the first field of ``params`` that is
    malformed or out of range; counts and range ends are plain ``int``s
    (a ``bool`` or a float is not), as model ids are."""
    for field in ("students", "projects", "lecturers"):
        if type(value := getattr(params, field)) is not int:
            raise ValueError(f"{field} must be an integer, got {value!r}")
    for field in ("pref_len", "project_cap"):
        value = getattr(params, field)
        if not (type(value) is tuple and len(value) == 2
                and {int}.issuperset(map(type, value))):
            raise ValueError(f"{field} must be a pair of integers, got {value!r}")
    if type(params.density) not in (int, float):
        raise ValueError(f"density must be a number, got {params.density!r}")
    if min(params.students, params.projects, params.lecturers) < 0:
        raise ValueError("entity counts must be non-negative")
    lo, hi = params.pref_len
    if lo < 0 or lo > hi:
        raise ValueError(f"empty preference-length range {params.pref_len}")
    clo, chi = params.project_cap
    if clo < 1 or clo > chi:
        raise ValueError(f"empty capacity range {params.project_cap}")
    if not 0.0 <= params.density <= 1.0:
        raise ValueError(f"density {params.density} outside [0, 1]")
    if params.projects > 0 and params.lecturers == 0:
        raise ValueError("projects need an owning lecturer")
    if params.lecturers > params.projects:
        raise ValueError(
            "more lecturers than projects: every lecturer must offer at "
            "least one project"
        )


def generate(params: GenParams) -> Instance:
    """A valid instance, a pure function of ``params`` including the seed."""
    _validate_params(params)
    rng = random.Random(params.seed)
    n1, n2, n3 = params.students, params.projects, params.lecturers

    # partition projects among lecturers, each lecturer getting at least one
    owner = [0] * n2
    perm = list(range(1, n2 + 1))
    rng.shuffle(perm)
    for k, p in enumerate(perm[:n3], start=1):
        owner[p - 1] = k
    for p in perm[n3:]:
        owner[p - 1] = rng.randint(1, n3)

    clo, chi = params.project_cap
    capacity = [rng.randint(clo, chi) for _ in range(n2)]

    lo = min(params.pref_len[0], n2)
    hi = min(params.pref_len[1], n2)
    student_prefs: list[list[int]] = []
    draw, density, ids = rng.random, params.density, range(1, n2 + 1)
    for _ in range(n1):
        cands = [p for p in ids if draw() < density]
        if len(cands) < lo:
            drawn = set(cands)
            missing = [p for p in ids if p not in drawn]
            cands.extend(rng.sample(missing, lo - len(cands)))
        if len(cands) > hi:
            cands = rng.sample(cands, hi)
        rng.shuffle(cands)
        student_prefs.append(cands)

    # each lecturer ranks, in shuffled order, the students who rank one of
    # their projects; one pass gathers them in ascending student order
    lecturer_prefs: list[list[int]] = [[] for _ in range(n3)]
    for s, prefs in enumerate(student_prefs, start=1):
        for p in prefs:
            ranked = lecturer_prefs[owner[p - 1] - 1]
            if not ranked or ranked[-1] != s:
                ranked.append(s)
    offered_caps: list[list[int]] = [[] for _ in range(n3)]
    for p, k in enumerate(owner, start=1):
        offered_caps[k - 1].append(capacity[p - 1])
    lecturer_capacity: list[int] = []
    for ranked, caps in zip(lecturer_prefs, offered_caps):
        rng.shuffle(ranked)
        lecturer_capacity.append(rng.randint(max(caps), sum(caps)))

    return Instance(student_prefs, capacity, owner, lecturer_capacity,
                    lecturer_prefs)
