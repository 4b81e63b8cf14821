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
    _r_pass,
    materialize,
)
from .recurrence import SystemSpec, _compute_g, _generate_r, generate_f


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
    n = spec.n
    f = _f_for_order(spec)
    # generate_f returns f_0 .. f_{n+1} with no zero pivot, which is all
    # that generate_r and compute_g check of their inputs.  A strict f has
    # |f_i| >= 1 and overflows neither; a permissive pivot can be tiny.
    if spec.strict:
        r = _generate_r(f, n)
        g = _compute_g(f, r, n)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            r = _generate_r(f, n)
            g = _compute_g(f, r, n)
    return Factorization._from_checked(spec, f, r, g, CIRCULANT)


def decompose_tridiagonal(spec: SystemSpec) -> Factorization:
    """Factorize the plain tridiagonal variant (no corners, R = I)."""
    f = _f_for_order(spec)
    return Factorization._from_checked(spec, f, np.empty(0), None, TRIDIAGONAL)


def reconstruct(fct: Factorization) -> np.ndarray:
    """Rebuild the dense matrix from its factors (verification path).

    Applies R^-1 (the solver's R pass) and K^-1 (a first-difference sweep)
    to A1^T in place, then scales by a: O(n^2) and one n x n buffer after
    the core factor is materialized.  Capped at 10**4.
    """
    n = fct.spec.n
    core = materialize(fct, "A1")
    out = core.T
    if fct.variant == CIRCULANT:
        _r_pass(fct, core, -1.0)
    # K^-1 subtracts from each row of out the original row above it: a first
    # difference along each row of the contiguous core, taken in place for
    # blocks of its rows.  numpy's copy of the overlapping right-hand side and
    # its iterator buffers take up to 3 * rows * n doubles, at most 3/16 n^2;
    # apply_k_inverse's vector form would need an n x n temporary here.
    rows = min(16, max(1, n // 16))
    for lo in range(0, n, rows):
        core[lo : lo + rows, 1:] -= core[lo : lo + rows, :-1]
    out /= fct.f[1 : n + 1][:, None]
    out *= fct.spec.a
    return out
