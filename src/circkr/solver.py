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


def _solve(fct, rhs, e, out=None):
    """x for right-hand sides ``rhs`` of shape (n,) or (k, n), into ``out``.

    ``e`` holds each right-hand side's power-of-two exponent.  The passes
    run on b / 2**(e + s), an exact rescale that keeps every product
    f_i b_i in range however large or small b is.  The back substitution
    also divides by the mantissa of a, and one exact rescale at the end
    restores 2**e and the exponent of a.
    """
    plan = fct._plan
    out = np.ldexp(rhs, -(e + plan.shift), out)
    _k_pass(fct, out)
    if fct.variant == CIRCULANT:
        _r_pass(fct, out)
    _solve_a1_transpose(fct, out, plan.a_scale)
    np.ldexp(out, e + plan.a_unshift, out)
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
    b = _check_vector(fct, b, name="b")
    # NaN and infinity propagate into peak.
    peak = max(np.maximum.reduce(b), -np.minimum.reduce(b))
    if not math.isfinite(peak):
        raise _not_finite(b)
    return _solve(fct, b, math.frexp(peak)[1])


def solve_many(fct: Factorization, block) -> np.ndarray:
    """Solve one factorization against every column of ``block`` in O(n k).

    Returns an (n, k) array; k = 0 returns an empty solution block
    immediately.  All columns run through the same vectorized passes at
    once, and column j of the result is bit-identical to
    ``solve(fct, block[:, j])``.  Non-finite entries are looked for before
    any work is done, and the error names the first column holding one.
    """
    block = np.asarray(block, dtype=float)
    n = fct.spec.n
    if block.ndim != 2 or block.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side block must have shape ({n}, k), got {block.shape}"
        )
    if block.shape[1] == 0:
        return np.empty_like(block)
    columns = block.T
    peak = np.maximum(
        np.maximum.reduce(columns, axis=1), -np.minimum.reduce(columns, axis=1)
    )
    finite = np.isfinite(peak)
    if not finite.all():
        j = int(np.argmin(finite))
        raise _not_finite(columns[j], f"right-hand side column {j + 1}: ")
    # The kernel works on one (k, n) buffer whose rows are the columns.
    out = columns.copy()
    return _solve(fct, out, np.frexp(peak)[1][:, None], out=out).T
