"""circkr: direct factorization of symmetric circulant tridiagonal systems.

The package factorizes matrices with constant diagonal c, constant sub- and
superdiagonal a, and matching corner entries (the circulant closure), into
structured triangular factors driven by a single scalar recurrence.  The
factorization costs O(n), solving costs O(n) per right-hand side, and the
dense inverse assembles in O(n^2).  A permissive mode admits ratios beyond
the strict dominance bound |c| > 2|a| at the caller's risk; every failure
mode surfaces as a structured error, never as silent NaN output.
"""

from .decomposition import decompose, decompose_tridiagonal, reconstruct
from .errors import (
    CircKRError,
    DimensionMismatchError,
    GrowthOverflowError,
    InconsistencyError,
    InvalidSpecError,
    SingularEigenvalueError,
    SingularMatrixError,
    SingularPivotError,
    SizeGuardError,
    UsageError,
    VariantMismatchError,
    ZeroPivotError,
)
from .factors import (
    CIRCULANT,
    DENSE_ORDER_LIMIT,
    TRIDIAGONAL,
    Factorization,
    apply_k,
    apply_k_inverse,
    apply_r,
    apply_r_inverse,
    materialize,
)
from .inverse import inverse_dense, inverse_first_row
from .oracle import build_dense, dense_solve, spectral_inverse_first_row, spectral_solve
from .recurrence import SystemSpec, compute_g, generate_f, generate_r, growth_ratio
from .solver import count_operations, solve, solve_many

__version__ = "0.1.0"

__all__ = [
    "CIRCULANT",
    "TRIDIAGONAL",
    "DENSE_ORDER_LIMIT",
    "CircKRError",
    "DimensionMismatchError",
    "Factorization",
    "GrowthOverflowError",
    "InconsistencyError",
    "InvalidSpecError",
    "SingularEigenvalueError",
    "SingularMatrixError",
    "SingularPivotError",
    "SizeGuardError",
    "SystemSpec",
    "UsageError",
    "VariantMismatchError",
    "ZeroPivotError",
    "apply_k",
    "apply_k_inverse",
    "apply_r",
    "apply_r_inverse",
    "build_dense",
    "compute_g",
    "count_operations",
    "decompose",
    "decompose_tridiagonal",
    "dense_solve",
    "generate_f",
    "generate_r",
    "growth_ratio",
    "inverse_dense",
    "inverse_first_row",
    "materialize",
    "reconstruct",
    "solve",
    "solve_many",
    "spectral_inverse_first_row",
    "spectral_solve",
]
