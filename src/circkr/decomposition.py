"""Factorize a system description and rebuild the dense matrix from it.

The circulant variant satisfies  A = a * K^-1 * R^-1 * A1^T  and the
tridiagonal variant drops R entirely:  A = a * K^-1 * A1^T  with the
bidiagonal core.  Factor storage is O(n); only reconstruction is dense.
"""

import numpy as np

from .errors import GrowthOverflowError
from .factors import (
    CIRCULANT,
    TRIDIAGONAL,
    Factorization,
    materialize,
)
from .recurrence import SystemSpec, compute_g, generate_f, generate_r


def _f_for_order(spec):
    # The core factor's last diagonal (tridiagonal) and the closure scalar
    # (circulant) both need f_{n+1}, so generation always runs to n + 1.
    try:
        return generate_f(spec, spec.n + 1)
    except GrowthOverflowError as err:
        max_safe_n = err.max_safe_m - 1
        raise GrowthOverflowError(
            f"order n = {spec.n} needs f_0..f_{spec.n + 1}, but f_{err.failing_index} "
            f"exceeds the 64-bit range for d = {spec.d}; max safe n = {max_safe_n}",
            failing_index=err.failing_index,
            growth_ratio=err.growth_ratio,
            max_safe_n=max_safe_n,
        ) from None


def decompose(spec: SystemSpec) -> Factorization:
    """Factorize the circulant variant of ``spec`` in O(n) time and storage."""
    f = _f_for_order(spec)
    r = generate_r(f, spec.n)
    g = compute_g(f, r, spec.n)
    return Factorization(spec=spec, f=f, r=r, g=g, variant=CIRCULANT)


def decompose_tridiagonal(spec: SystemSpec) -> Factorization:
    """Factorize the plain tridiagonal variant (no corners, R = I)."""
    f = _f_for_order(spec)
    return Factorization(spec=spec, f=f, r=np.empty(0), g=None, variant=TRIDIAGONAL)


def reconstruct(fct: Factorization) -> np.ndarray:
    """Rebuild the dense matrix from its factors (verification path).

    Applies R^-1 (one rank-one row update) and K^-1 (a first-difference
    sweep) row by row to A1^T in place, then scales by a: O(n^2) and one
    n x n buffer after the core factor is materialized.  Capped at 10**4.
    """
    n = fct.spec.n
    out = materialize(fct, "A1").T
    if fct.variant == CIRCULANT:
        out[n - 1] -= fct.r @ out[: n - 1]
    for i in range(n - 1, 0, -1):
        out[i] -= out[i - 1]
    out /= fct.f[1 : n + 1][:, None]
    out *= fct.spec.a
    return out
