"""O(n) direct solve against a factorized system.

A x = b with A = a K^-1 R^-1 A1^T is solved by a fixed sequence of
vectorized passes over one output buffer, for one right-hand side or a
block of k of them (held as the rows of a (k, n) buffer):

    b / 2**(e + s)            exact rescale; b / 2**e lies in [-1, 1)
    y = K (b / 2**(e + s))    ``_k_pass``: one prefix sum of f_i b_i
    y = R y                   ``_r_pass``: y_n += r . y[:n-1] (circulant only)
    A1^T x = y                ``_solve_a1_transpose``: one reversed prefix sum
    x * 2**(e + s) / a        exact rescale, a's mantissa applied on the way

The back substitution needs no per-element loop: with u_i = x_i / f_i,

    u_i = x_n / f_n + sum_{k=i}^{n-1} (x_n - y_k) / (f_k f_{k+1}),
    x_n = y_n / g,

and the tridiagonal variant drops x_n and runs the sum to k = n.  The
shift 2**s, near sqrt|f_{n+1}|, keeps every intermediate in the normal
64-bit range however close |f_{n+1}| comes to the largest double.
"""

import math

import numpy as np

from .errors import DimensionMismatchError, GrowthOverflowError
from .factors import (
    CIRCULANT,
    Factorization,
    _check_vector,
    _k_pass,
    _r_pass,
    _solve_a1_transpose,
    count_operations,
)

__all__ = ["count_operations", "solve", "solve_many"]


def _not_finite(b, where=""):
    bad = int(np.argmin(np.isfinite(b)))
    return GrowthOverflowError(
        f"{where}right-hand side entry {bad + 1} is not finite ({b[bad]})"
    )


def _solve(fct, rhs, e, top, out=None):
    """x for right-hand sides ``rhs`` of shape (n,) or (k, n), into ``out``.

    ``e`` holds each right-hand side's power-of-two exponent and ``top``
    the largest of them.  The passes run on b / 2**(e + s), an exact
    rescale that keeps every product f_i b_i in range however large or
    small b is.  The back substitution also divides by the mantissa of a,
    and one exact rescale at the end restores 2**e and the exponent of a.
    """
    plan = fct._plan
    out = np.ldexp(rhs, -(e + plan.shift), out)
    _k_pass(fct, out)
    if fct.variant == CIRCULANT:
        _r_pass(fct, out)
    _solve_a1_transpose(fct, out, plan.a_scale)
    # Only an upward rescale can leave the range; numpy would warn about it
    # before the check below raises.  A per-call errstate costs 1-2 us.
    if top + plan.a_unshift > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            return _unscale(out, e + plan.a_unshift)
    return _unscale(out, e + plan.a_unshift)


def _unscale(out, exponent):
    np.ldexp(out, exponent, out)
    # A sum is non-finite whenever an entry is; only then look entry by entry.
    total = np.add.reduce(out, None)
    if not math.isfinite(total) and not np.isfinite(out).all():
        raise GrowthOverflowError("back substitution left the 64-bit range")
    return out


def solve(fct: Factorization, b) -> np.ndarray:
    """Solve A x = b for one right-hand side in O(n).

    The right-hand side must be finite everywhere; NaN or infinity is
    rejected eagerly rather than silently propagated.
    """
    b = _check_vector(fct, b, name="right-hand side")
    # NaN and infinity propagate into peak.
    peak = max(np.maximum.reduce(b), -np.minimum.reduce(b))
    if not math.isfinite(peak):
        raise _not_finite(b)
    e = math.frexp(peak)[1]
    return _solve(fct, b, e, e)


def solve_many(fct: Factorization, block) -> np.ndarray:
    """Solve one factorization against every column of ``block`` in O(n k).

    Returns an (n, k) array, empty for k = 0.  All columns run through the
    same vectorized passes at once, and column j of the result is
    bit-identical to ``solve(fct, block[:, j])``.  Non-finite entries are
    looked for before any work is done, and the error names the first
    column holding one.
    """
    block = np.asarray(block, dtype=float)
    n = fct.spec.n
    if block.ndim != 2 or block.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side block must have shape ({n}, k), got {block.shape}"
        )
    columns = block.T
    peak = np.maximum(
        np.maximum.reduce(columns, axis=1), -np.minimum.reduce(columns, axis=1)
    )
    # NaN and infinity propagate into top; only then look column by column.
    top = float(peak.max(initial=0.0))
    if not math.isfinite(top):
        j = int(np.argmin(np.isfinite(peak)))
        raise _not_finite(columns[j], f"right-hand side column {j + 1}: ")
    # The kernel works on one (k, n) buffer whose rows are the columns.
    out = columns.copy()
    e = np.frexp(peak)[1][:, None]
    return _solve(fct, out, e, math.frexp(top)[1], out=out).T
