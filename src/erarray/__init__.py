"""Exact exponential Riordan arrays over the rational functions in z.

The library builds [g, f] arrays to a finite truncation order, computes
their group structure and production (Stieltjes) matrices, connects
tridiagonal production matrices to orthogonal-polynomial moment sequences,
and evaluates Hankel transforms exactly.  Everything is carried out over
Q(z) with arbitrary-precision rationals; there is no floating point.
"""

from .expr import (
    EvalError,
    ParseError,
    eval_scalar,
    eval_series,
    parse,
    parse_scalar,
    parse_series,
    render,
)
from .hankel import (
    binomial_transform,
    det_bareiss,
    det_scalar,
    hankel_det,
    hankel_from_betas,
    hankel_matrix,
    hankel_transform,
)
from .orthopoly import (
    JacobiParams,
    JacobiRecovery,
    MomentSequence,
    coeff_array_from_jacobi,
    invert_lower_triangular,
    jacobi_from_moments,
    jfraction_expand,
    moments_from_jacobi,
)
from .riordan import (
    ERArray,
    ProductionMatrix,
    er_apply,
    er_build,
    er_inverse,
    er_mul,
    er_power,
    extract_jacobi,
    identity,
    production_cr,
    production_direct,
    production_from_pair,
)
from .scalars import ONE, POLY_ONE, POLY_Z, POLY_ZERO, ZERO, PolyZ, Rational, Scalar, Z
from .sequences import (
    NAMED_PAIR_NAMES,
    IntTriangle,
    bell_poly,
    eulerian,
    eulerian_poly,
    eulerian_triangle,
    named_pair,
    stirling2,
    stirling_triangle,
)
from .series import Series, divide

__version__ = "0.1.0"

__all__ = [
    "ERArray",
    "EvalError",
    "IntTriangle",
    "JacobiParams",
    "JacobiRecovery",
    "MomentSequence",
    "ONE",
    "POLY_ONE",
    "POLY_Z",
    "POLY_ZERO",
    "ParseError",
    "PolyZ",
    "ProductionMatrix",
    "Rational",
    "Scalar",
    "Series",
    "Z",
    "ZERO",
    "NAMED_PAIR_NAMES",
    "bell_poly",
    "binomial_transform",
    "coeff_array_from_jacobi",
    "det_bareiss",
    "det_scalar",
    "divide",
    "er_apply",
    "er_build",
    "er_inverse",
    "er_mul",
    "er_power",
    "eulerian",
    "eulerian_poly",
    "eulerian_triangle",
    "eval_scalar",
    "eval_series",
    "extract_jacobi",
    "hankel_det",
    "hankel_from_betas",
    "hankel_matrix",
    "hankel_transform",
    "identity",
    "invert_lower_triangular",
    "jacobi_from_moments",
    "jfraction_expand",
    "moments_from_jacobi",
    "named_pair",
    "parse",
    "parse_scalar",
    "parse_series",
    "production_cr",
    "production_direct",
    "production_from_pair",
    "render",
    "stirling2",
    "stirling_triangle",
    "__version__",
]
