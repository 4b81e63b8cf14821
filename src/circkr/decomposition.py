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
    _a1_rows,
    _block_rows,
    _guard_dense,
    _r_pass,
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


def _reconstruct_rows(fct, lo, out):
    """Rows lo .. lo + len(out) - 1 of reconstruct's core, written into the
    C-contiguous block ``out``: columns lo .. of the rebuilt matrix.

    The core is (a K^-1 R^-1 A1^T)^T.  Each row is a row of A1, then R^-1
    (the solver's R pass) adds -r . x[:n-1] to its last entry, K^-1 takes a
    first difference along it and divides entry j by f_{j+1}, and the row
    is scaled by a.  Every entry is formed by the same operations whatever
    the block, so any split into blocks gives the same bytes.
    """
    n = fct.spec.n
    out.fill(0.0)
    _a1_rows(fct, lo, out)
    if fct.variant == CIRCULANT:
        _r_pass(fct, out, -1.0)
    # One difference over the flattened block: its only scratch is numpy's
    # copy of the overlapping input, where a 2-D difference also takes up
    # to 16384 doubles of iterator buffers.  The first entry of each row,
    # from which it subtracted the previous row's last, is put back.
    first = out[:, 0].copy()
    flat = out.reshape(-1)
    flat[1:] -= flat[:-1]
    out[:, 0] = first
    out /= fct.f[1 : n + 1]
    out *= fct.spec.a
    return out


def reconstruct(fct: Factorization) -> np.ndarray:
    """Rebuild the dense matrix from its factors (verification path).

    Applies R^-1 (the solver's R pass) and K^-1 (a first-difference sweep)
    to A1^T, then scales by a: O(n^2).  The result's transpose is filled
    in blocks of 2**14 // n rows (2**14 entries, 128 KiB), each written as
    rows of A1 and transformed while it is still in cache, so the only
    scratch beside the n x n result is numpy's copy of one block.  The
    CLI's ``check`` runs the same row-block kernel into one scratch block
    instead.  Capped at 10**4.
    """
    n = fct.spec.n
    _guard_dense(n)
    core = np.empty((n, n))
    rows = _block_rows(n)
    for lo in range(0, n, rows):
        _reconstruct_rows(fct, lo, core[lo : lo + rows])
    return core.T
