"""Dense and first-row inverses, each written into a single n x n buffer.

The inverse of a symmetric circulant matrix is again symmetric circulant,
so the circulant variant's dense inverse is the cyclic expansion of its
first row, which one O(n) structured solve yields.  The tridiagonal
variant's inverse is the symmetric semiseparable matrix with entries
-f_min(i,j) * G_max(i,j) / a, filled as one outer product whose upper
triangle is mirrored into the lower one.  Neither path needs a general
matrix multiply or any n x n scratch array beyond the result.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import VariantMismatchError
from .factors import CIRCULANT, Factorization, _guard_dense
from .solver import solve


def inverse_dense(fct: Factorization) -> np.ndarray:
    """Full inverse in O(n^2), exactly symmetric by construction.

    Circulant variant: the first row v from ``inverse_first_row`` is made
    exactly palindromic (v_j and v_{n+2-j}, 1-based, replaced by their
    mean, a roundoff-level change) and expanded cyclically, row i being v
    rolled right by i.

    Tridiagonal variant: writing G_m = f_m * sum_{k=m}^{n} 1/(f_k f_{k+1})
    (computed by the stable downward recursion
    G_m = 1/f_{m+1} + (f_m/f_{m+1}) G_{m+1} so that no intermediate product
    can overflow or underflow), entry (i, j) is -f_min(i,j) * G_max(i,j) / a.

    Capped at order 10**4.
    """
    n = fct.spec.n
    _guard_dense(n)
    if fct.variant == CIRCULANT:
        v = inverse_first_row(fct)
        v[1:] = (v[1:] + v[:0:-1]) / 2.0
        # Window s of (v_1 .. v_{n-1}, v_0 .. v_{n-1}) is v rolled right by n-1-s.
        return sliding_window_view(np.concatenate((v[1:], v)), n)[::-1].copy()
    f = fct.f
    suffix = np.zeros(n + 2)
    for m in range(n, 0, -1):
        suffix[m] = 1.0 / f[m + 1] + (f[m] / f[m + 1]) * suffix[m + 1]
    out = np.multiply.outer(-f[1 : n + 1], suffix[1 : n + 1])
    for i in range(1, n):
        out[i, :i] = out[:i, i]
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
