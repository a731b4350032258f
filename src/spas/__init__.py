"""Student-project allocation with lecturer preferences over students.

Stability checking, student/lecturer-optimal solvers, exhaustive
enumeration of the stable set, and the distributive lattice it forms
under the student-oriented dominance order.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A submodule is imported on
# the first access to one of its names (PEP 562), so ``import spas`` loads
# no layer, and each CLI command pays start-up only for the layers it runs.
_SUBMODULE = {
    "BlockingPair": "stability",
    "DEFAULT_SIZE_GUARD": "enumeration",
    "EMPTY_MATCHING": "model",
    "GenParams": "generator",
    "HasseDiagram": "lattice",
    "Instance": "model",
    "LecturerComparison": "lattice",
    "Matching": "model",
    "ParseError": "fileio",
    "PropertyReport": "verification",
    "RawInstance": "model",
    "SizeGuardError": "enumeration",
    "ValidationReport": "model",
    "Violation": "model",
    "build_hasse": "lattice",
    "build_instance": "model",
    "check_lattice_axioms": "verification",
    "check_lemma_pref_reversal": "verification",
    "check_lemma_rank_boundaries": "verification",
    "check_lemma_same_lecturer": "verification",
    "check_prop_full_project": "verification",
    "check_unpopular_projects": "verification",
    "emit_dot": "fileio",
    "enumerate_all": "enumeration",
    "find_blocking_pairs": "stability",
    "generate": "generator",
    "is_stable": "stability",
    "is_valid_matching": "model",
    "join": "lattice",
    "join_all": "lattice",
    "lecturer_compare": "lattice",
    "lecturer_dominates": "lattice",
    "meet": "lattice",
    "meet_all": "lattice",
    "parse_instance_file": "fileio",
    "parse_matching_file": "fileio",
    "parse_raw_instance": "fileio",
    "run_all_checks": "verification",
    "serialize_instance": "fileio",
    "serialize_matching": "fileio",
    "solve_lecturer_optimal": "solvers",
    "solve_student_optimal": "solvers",
    "stable_pairs": "enumeration",
    "student_dominates": "lattice",
    "validate_raw": "model",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str) -> object:
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
