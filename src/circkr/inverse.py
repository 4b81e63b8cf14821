"""Dense and first-row inverses, read off the recurrence in closed form.

Both inverses follow from one identity of the recurrence,
f_{p+1} f_{q+1} - f_p f_q = f_{p+q+1}.  It makes the circulant inverse's
first row v_j = (f_j + f_{n-j}) / (a g), j = 0 .. n-1, and telescopes the
tridiagonal suffix sums to sum_{k=m}^{n} 1/(f_k f_{k+1}) = f_{n+1-m} /
(f_m f_{n+1}).  The inverse of a symmetric circulant matrix is again
symmetric circulant, so the circulant variant's dense inverse is the
cyclic expansion of that row.  The tridiagonal variant's inverse is the
symmetric semiseparable matrix with entries -f_min(i,j) * G_max(i,j) / a:
one outer product, its lower triangle rewritten row by row with the
mirrored products.  Neither path runs a solve, a general matrix multiply
or any n x n scratch array beyond the result.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GrowthOverflowError, SingularPivotError, VariantMismatchError
from .factors import CIRCULANT, Factorization, _guard_dense


def inverse_dense(fct: Factorization) -> np.ndarray:
    """Full inverse in O(n^2), exactly symmetric by construction.

    Circulant variant: the first row v from ``inverse_first_row``, exactly
    palindromic already, expanded cyclically, row i being v rolled right
    by i.

    Tridiagonal variant: writing G_m = f_m * sum_{k=m}^{n} 1/(f_k f_{k+1}),
    entry (i, j) is -f_min(i,j) * G_max(i,j) / a.  The sum telescopes, so
    G_m = f_{n+1-m} / f_{n+1}, one division per entry.  GrowthOverflowError
    is raised before the fill if the largest entry leaves the 64-bit range.

    Capped at order 10**4.
    """
    n = fct.spec.n
    _guard_dense(n)
    if fct.variant == CIRCULANT:
        v = inverse_first_row(fct)
        # Window s of (v_1 .. v_{n-1}, v_0 .. v_{n-1}) is v rolled right by n-1-s.
        return sliding_window_view(np.concatenate((v[1:], v)), n)[::-1].copy()
    G = fct.f[n:0:-1] / fct.f[n + 1]
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

    v_j = (f_j + f_{n-j}) / (a g) for j = 0 .. n-1, with g the
    factorization's closure scalar.  Because the inverse of a symmetric
    circulant matrix is again symmetric circulant, this row generates the
    whole inverse by cyclic shifts, and v_j and v_{n-j} are the same sum,
    so the row is exactly palindromic.  GrowthOverflowError is raised
    before the division by a if the largest entry leaves the 64-bit range.
    """
    if fct.variant != CIRCULANT:
        raise VariantMismatchError(
            "the first-row shortcut relies on circulant structure; "
            "use inverse_dense for the tridiagonal variant"
        )
    if fct.g == 0.0:
        raise SingularPivotError("closure scalar g = 0: the matrix is singular")
    n = fct.spec.n
    v = (fct.f[:n] + fct.f[n:0:-1]) / fct.g
    # Largest entry: max |v_j| / |a|; a float division gives inf silently.
    if not np.isfinite(float(np.max(np.abs(v))) / abs(fct.spec.a)):
        raise GrowthOverflowError("the circulant inverse leaves the 64-bit range")
    return np.divide(v, fct.spec.a, v)
