"""Student-project allocation with lecturer preferences over students.

Stability checking, student/lecturer-optimal solvers, exhaustive
enumeration of the stable set, and the distributive lattice it forms
under the student-oriented dominance order.
"""

from .enumeration import (
    DEFAULT_SIZE_GUARD,
    SizeGuardError,
    StableSet,
    enumerate_all,
    stable_pairs,
)
from .fileio import (
    ParseError,
    emit_dot,
    parse_instance_file,
    parse_matching_file,
    parse_raw_instance,
    serialize_instance,
    serialize_matching,
)
from .generator import GenParams, generate
from .lattice import (
    HasseDiagram,
    LecturerComparison,
    build_hasse,
    join,
    join_all,
    lecturer_compare,
    lecturer_dominates,
    meet,
    meet_all,
    student_dominates,
)
from .model import (
    EMPTY_MATCHING,
    Instance,
    Matching,
    RawInstance,
    ValidationReport,
    Violation,
    build_instance,
    is_valid_matching,
    validate_raw,
)
from .solvers import solve_lecturer_optimal, solve_student_optimal
from .stability import BlockingPair, find_blocking_pairs, is_stable
from .verification import (
    PropertyReport,
    check_lattice_axioms,
    check_lemma_pref_reversal,
    check_lemma_rank_boundaries,
    check_lemma_same_lecturer,
    check_prop_full_project,
    check_unpopular_projects,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BlockingPair",
    "DEFAULT_SIZE_GUARD",
    "EMPTY_MATCHING",
    "GenParams",
    "HasseDiagram",
    "Instance",
    "LecturerComparison",
    "Matching",
    "ParseError",
    "PropertyReport",
    "RawInstance",
    "SizeGuardError",
    "StableSet",
    "ValidationReport",
    "Violation",
    "build_hasse",
    "build_instance",
    "check_lattice_axioms",
    "check_lemma_pref_reversal",
    "check_lemma_rank_boundaries",
    "check_lemma_same_lecturer",
    "check_prop_full_project",
    "check_unpopular_projects",
    "emit_dot",
    "enumerate_all",
    "find_blocking_pairs",
    "generate",
    "is_stable",
    "is_valid_matching",
    "join",
    "join_all",
    "lecturer_compare",
    "lecturer_dominates",
    "meet",
    "meet_all",
    "parse_instance_file",
    "parse_matching_file",
    "parse_raw_instance",
    "run_all_checks",
    "serialize_instance",
    "serialize_matching",
    "solve_lecturer_optimal",
    "solve_student_optimal",
    "stable_pairs",
    "student_dominates",
    "validate_raw",
]
