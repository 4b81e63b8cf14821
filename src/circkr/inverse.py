"""Dense and first-row inverses, each written into a single n x n buffer.

The inverse of a symmetric circulant matrix is again symmetric circulant,
so the circulant variant's dense inverse is the cyclic expansion of its
first row, which one O(n) structured solve yields.  The tridiagonal
variant's inverse is the symmetric semiseparable matrix with entries
-f_min(i,j) * G_max(i,j) / a: one outer product, its lower triangle
rewritten row by row with the mirrored products.  Neither path needs a
general matrix multiply or any n x n scratch array beyond the result.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GrowthOverflowError, VariantMismatchError
from .factors import CIRCULANT, Factorization, _guard_dense, _solve_a1_transpose_unit
from .solver import solve


def inverse_dense(fct: Factorization) -> np.ndarray:
    """Full inverse in O(n^2), exactly symmetric by construction.

    Circulant variant: the first row v from ``inverse_first_row`` is made
    exactly palindromic (v_j and v_{n+2-j}, 1-based, replaced by their
    mean, a roundoff-level change) and expanded cyclically, row i being v
    rolled right by i.

    Tridiagonal variant: writing G_m = f_m * sum_{k=m}^{n} 1/(f_k f_{k+1}),
    entry (i, j) is -f_min(i,j) * G_max(i,j) / a.  G solves A1^T G = -1, so
    it comes from the solver's back substitution.  GrowthOverflowError is
    raised before the fill if the largest entry leaves the 64-bit range.

    Capped at order 10**4.
    """
    n = fct.spec.n
    _guard_dense(n)
    if fct.variant == CIRCULANT:
        v = inverse_first_row(fct)
        v[1:] = (v[1:] + v[:0:-1]) / 2.0
        # Window s of (v_1 .. v_{n-1}, v_0 .. v_{n-1}) is v rolled right by n-1-s.
        return sliding_window_view(np.concatenate((v[1:], v)), n)[::-1].copy()
    G = _solve_a1_transpose_unit(fct, np.full(n, -1.0))
    minus_f = -fct.f[1 : n + 1]
    # Largest entry: |f_i| max_{j>=i} |G_j| / |a|; a float division gives inf silently.
    peak = np.max(np.abs(minus_f) * np.maximum.accumulate(np.abs(G)[::-1])[::-1])
    if not np.isfinite(float(peak) / abs(fct.spec.a)):
        raise GrowthOverflowError("the tridiagonal inverse leaves the 64-bit range")
    out = np.multiply.outer(minus_f, G)
    for i in range(1, n):
        np.multiply(minus_f[:i], G[i], out[i, :i])
    out /= fct.spec.a
    return out


def inverse_first_row(fct: Factorization) -> np.ndarray:
    """First row of the inverse in O(n), circulant variant only.

    One structured solve against the first unit vector.  Because the
    inverse of a symmetric circulant matrix is again symmetric circulant,
    this row generates the whole inverse by cyclic shifts and satisfies
    the palindrome property v_j = v_{n+2-j}.
    """
    if fct.variant != CIRCULANT:
        raise VariantMismatchError(
            "the first-row shortcut relies on circulant structure; "
            "use inverse_dense for the tridiagonal variant"
        )
    e1 = np.zeros(fct.spec.n)
    e1[0] = 1.0
    return solve(fct, e1)
