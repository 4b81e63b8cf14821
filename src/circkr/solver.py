"""O(n) direct solve against a factorized system.

A x = b with A = a K^-1 R^-1 A1^T is solved by a fixed sequence of
vectorized passes over one output buffer, for one right-hand side or a
block of k of them (held as the rows of a (k, n) buffer):

    b / 2**(e + s)            exact rescale; b / 2**e lies in [-1, 1)
    y = K (b / 2**(e + s))    ``_k_pass``: one prefix sum of f_i b_i
    y = R y                   ``_r_pass``: y_n += r . y[:n-1] (circulant only)
    A1^T x = y                back substitution: one reversed prefix sum
    x * 2**(e + s) / a        exact rescale, a's mantissa applied on the way

The back substitution needs no per-element loop.  Row i of A1^T x = y reads
f_i x_{i+1} - f_{i+1} x_i = y_i - x_n, so u_i = x_i / f_i obeys

    u_i = x_n / f_n + sum_{k=i}^{n-1} (x_n - y_k) / (f_k f_{k+1}),
    x_n = y_n / g,

and the tridiagonal variant drops x_n and runs the sum to k = n.  Each
term is formed as ((x_n - y_k) / f_k * t) / f_{k+1}, with t = 4**s over
the mantissa of a.  The shift 2**s, with s = (e_{n+1} - 1) // 2 for
|f_{n+1}| = m 2**e_{n+1}, is near sqrt|f_{n+1}|, so 4**s is at most
2**1022.  That keeps f_i b_i / 2**s and every term within about 2**+-520
however close |f_{n+1}| comes to the largest double.  Each solve works out
s and the mantissa and exponent of a afresh; the factorization holds only
the flag ``_unit_pivots``, which says whether the divisions need
``np.errstate``.

A block is first copied into the (k, n) buffer, the one copy the kernel
needs.  Each column's exponent e is read from that contiguous copy, so
non-finite entries are looked for after the copy, before any pass runs.
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
    _require_finite,
    _tally,
    count_operations,
)

__all__ = ["count_operations", "solve", "solve_many"]


def _not_finite(b, where=""):
    bad = int(np.argmin(np.isfinite(b)))
    return GrowthOverflowError(
        f"{where}right-hand side entry {bad + 1} is not finite ({b[bad]})"
    )


def _solve(fct, rhs, e, top, out=None, quiet=False):
    """x for right-hand sides ``rhs`` of shape (n,) or (k, n), into ``out``.

    ``e`` holds each right-hand side's power-of-two exponent (an int, or a
    (k, 1) array) and ``top`` the largest of them.  The passes run on
    b / 2**(e + s), and one exact rescale at the end restores 2**e, 2**s
    and the exponent of a.
    """
    n = fct.spec.n
    f = fct.f
    s = (math.frexp(f[n + 1])[1] - 1) // 2
    mantissa, exponent = math.frexp(fct.spec.a)
    # With every |f_i| >= 1 only an upward rescale can leave the range; a
    # smaller pivot can overflow a division mid-solve.  numpy would warn
    # before the final check raises, so such a solve re-enters itself under
    # np.errstate before any pass runs.  A per-call errstate costs 1-2 us,
    # and choosing a contextlib.nullcontext instead 0.2-0.4 us.
    if not (quiet or fct._unit_pivots and top <= s + exponent):
        with np.errstate(over="ignore", invalid="ignore"):
            return _solve(fct, rhs, e, top, out, quiet=True)
    circulant = fct.variant == CIRCULANT
    m = n - 1 if circulant else n  # unknowns whose rows carry an x_n term
    out = np.ldexp(rhs, -s - e, out)
    _k_pass(fct, out)
    corner = out.T  # entry j: a scalar, or the k right-hand sides' entries
    x_n = 0.0
    if circulant:
        _r_pass(fct, out)
        corner[m] /= fct.g
        x_n = corner[m]  # x_n / 2**s
    body = out[..., :m]
    np.subtract(x_n, body.T, body.T)  # x_n broadcasts along the k axis
    np.divide(body, f[1 : m + 1], body)
    np.multiply(out, math.ldexp(1.0 / mantissa, 2 * s), out)
    np.divide(body, f[2 : m + 2], body)
    if circulant:
        corner[m] /= f[n]  # scale x_n / (2**s f_n), the last u
    backward = out[..., ::-1]
    np.add.accumulate(backward, -1, None, backward)
    np.multiply(out, f[1 : n + 1], out)
    _tally(out)
    np.ldexp(out, e - (s + exponent), out)  # e may be a (k, 1) array
    return _require_finite(out, "back substitution left the 64-bit range")


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
    bit-identical to ``solve(fct, block[:, j])``.  ``block`` is never
    written to.  Non-finite entries are looked for after the one copy the
    kernel needs, before any pass runs, and the error names the first
    column holding one.
    """
    block = np.asarray(block, dtype=float)
    n = fct.spec.n
    if block.ndim != 2 or block.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side block must have shape ({n}, k), got {block.shape}"
        )
    # The kernel works on one (k, n) buffer whose rows are the columns; the
    # peaks are read from that contiguous copy, not from the strided block.
    out = block.T.copy()
    peak = np.maximum(
        np.maximum.reduce(out, axis=1), -np.minimum.reduce(out, axis=1)
    )
    # NaN and infinity propagate into top; only then look column by column.
    top = float(peak.max(initial=0.0))
    if not math.isfinite(top):
        j = int(np.argmin(np.isfinite(peak)))
        raise _not_finite(out[j], f"right-hand side column {j + 1}: ")
    e = np.frexp(peak)[1][:, None]
    return _solve(fct, out, e, math.frexp(top)[1], out=out).T
