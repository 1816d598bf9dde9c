"""tnormlab: t-norms under the scaling equation T(l*x, l*y) = F(l, T(x, y)).

Exact evaluation of the six-family catalog and its companions, a numerical
verification engine (axioms, residual sweeps, diagonal scans,
counterexample search), and a classifier with parameter estimation.
"""

from .analysis import (
    GridSpec,
    Report,
    Witness,
    check_archimedean,
    check_axioms,
    check_continuity_equivalence,
    check_gph,
    check_pseudo_homogeneous,
    check_tm_equivalences,
    check_unit_scale,
    find_gph_counterexample,
    scan_diagonal,
)
from .classify import (
    ClassificationResult,
    FitError,
    PreconditionError,
    classify,
)
from .core import (
    Canonical,
    Catalog,
    CompanionF,
    CShelf,
    DomainError,
    Drastic,
    Expr,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
    StructuralError,
    Summand,
    TNormSpec,
    diagonal_pseudo_inverse,
    eval_companion,
    eval_tnorm,
    t_power,
)
from .dsl import EvalError, Expression, ParseError, eval_expr, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "Report", "Witness", "check_archimedean", "check_axioms",
    "check_continuity_equivalence", "check_gph", "check_pseudo_homogeneous",
    "check_tm_equivalences", "check_unit_scale", "find_gph_counterexample",
    "scan_diagonal",
    "ClassificationResult", "FitError", "PreconditionError", "classify",
    "Canonical", "Catalog", "CompanionF", "CShelf", "DomainError", "Drastic",
    "Expr", "Lukasiewicz", "Minimum", "OrdinalSum", "Product",
    "SchweizerSklar", "StructuralError", "Summand", "TNormSpec",
    "diagonal_pseudo_inverse", "eval_companion", "eval_tnorm", "t_power",
    "EvalError", "Expression", "ParseError", "eval_expr", "parse",
    "serialize",
    "__version__",
]
