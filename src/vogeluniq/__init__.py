"""Exact universal (quantum) dimension formulas on Vogel's plane and the
machinery around their non-uniqueness factors: identity checking on
distinguished lines, constraint-system searches, and point-line
configuration tools."""

from .plane import (
    AlgebraPoint,
    Basis,
    BasisMismatchError,
    DegenerateInputError,
    LinearForm,
    Perm3,
    ProjPoint,
    act,
    convert,
    distinguished_lines,
    family_line,
    incident,
    line_through,
    meet,
    to_primed,
    to_unprimed,
    vogel_point,
)
from .formula import (
    EvalResult,
    FactorProduct,
    SingularPointError,
    adjoint_formula,
    cancel,
    classical_limit,
    convert_product,
    empty_product,
    eval_classical,
    eval_quantum,
    multiply,
    ratio,
    x2k_adn_formula,
)
from .identity import (
    IdentityReport,
    LineParam,
    check_on_lines,
    check_symmetric,
    is_one_on_line,
    numeric_crosscheck,
    restrict,
)
from .qsearch import (
    ConstraintSystem,
    MultiplierAssignment,
    PermTriple,
    SolutionFamily,
    SurveyStats,
    build_system,
    builtin_q33,
    builtin_q_prop4,
    enumerate_families,
    is_nontrivial,
    solve_quantum,
    survey_k3_classical,
    verify_solution,
)
from .configs import (
    Coloring,
    ConfigurationTable,
    IncidenceSketch,
    N3Stats,
    canonical_form,
    emit_svg,
    enumerate_n3,
    extract_permutations,
    find_coloring,
    isomorphic,
    sketch_from_q,
    validate_table,
)

__version__ = "0.1.0"
