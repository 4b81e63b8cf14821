"""O(n) direct solve against a factorized system.

A x = b with A = a K^-1 R^-1 A1^T is solved by a fixed sequence of
vectorized passes over one output buffer, for one right-hand side or a
block of k of them (held as the rows of a (k, n) buffer, or of the (k, n)
view of a zero-padded (k, n + 1) one):

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

A block is first copied into the rows of a zero-padded (k, n + 1) buffer,
which the passes then transform into the result; its (k, n) view, taken
without the pad column, is the result.  The pad keeps numpy from merging
the two axes of the view, so a pass that broadcasts f or the (k, 1)
exponents along the rows needs no iterator buffer.  The three passes that
broadcast nothing (the scalar multiply by 4**s over the mantissa, the
tridiagonal 0 - y_k and the final finiteness check) run on the whole
padded buffer, which is contiguous and needs none either; its pad stays a
signed zero.  A small block, and one of four or more short rows, for which
numpy would fill iterator buffers on the padded view as well, gets no pad:
its contiguous (k, n) buffer is the view (see ``_PAD_ENTRIES`` and
``_SHORT_ROW``).  Each column's exponent e is read from the contiguous
rows of the copy, so non-finite entries are looked for after the copy,
before any pass runs.  A block of more than ``_TILE_ENTRIES`` entries is
copied in row tiles of at most that many entries, so that both sides of
each tile stay in cache during the transposing copy.
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

# Entries of a row tile (1 MiB of doubles) in which a block larger than
# this is copied into its buffer.
_TILE_ENTRIES = 2**17

# A block of up to this many entries is solved without a pad column: the
# iterator buffers numpy fills for it take at most 8 KiB, and cost less time
# than the padded view's per-row calls.
_PAD_ENTRIES = 2**10
# Nor is a block of four or more rows of up to this many entries, a quarter
# of numpy's default buffer: numpy would buffer all three operands of each
# pass over its padded view, where on a contiguous block it buffers only f.
_SHORT_ROW = 2048


def _not_finite(b, where=""):
    bad = int(np.argmin(np.isfinite(b)))
    return GrowthOverflowError(
        f"{where}right-hand side entry {bad + 1} is not finite ({b[bad]})"
    )


def _solve(fct, b, e, top, quiet=False):
    """x for one right-hand side ``b`` of shape (n,), or a block in place.

    A block ``b`` is a (k, n) buffer, or a (k, n + 1) one whose last column
    is zero, whose rows are the right-hand sides; its (k, n) view is solved
    in place and returned.  ``e`` holds each right-hand side's power-of-two
    exponent (an int, or a (k, 1) array) and ``top`` the largest of them.
    The passes run on b / 2**(e + s), and one exact rescale at the end
    restores 2**e, 2**s and the exponent of a.
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
            return _solve(fct, b, e, top, quiet=True)
    # The passes that broadcast nothing run on the whole buffer, pad
    # included; the others on the (k, n) view (see the module docstring).
    many = b.ndim == 2
    if many:
        whole, out = b, b[:, :n]
        np.ldexp(out, -s - e, out)
    else:
        out = whole = np.ldexp(b, -s - e)
    circulant = fct.variant == CIRCULANT
    _k_pass(fct, out)
    if circulant:
        m = n - 1  # unknowns whose rows carry an x_n term
        body = out[..., :m]
        _r_pass(fct, out)
        # x_n / 2**s.  A block's column of them is divided in place; a
        # vector's entry is a numpy scalar, cheaper than a view.
        if many:
            x_n = out[:, m]
            np.divide(x_n, fct.g, x_n)
        else:
            x_n = out[m] = out[m] / fct.g
        np.subtract(x_n, body.T, body.T)  # x_n broadcasts along the k axis
    else:  # no row carries an x_n term: 0 - y_k
        m, body = n, out
        np.subtract(0.0, whole, whole)
    np.divide(body, f[1 : m + 1], body)
    np.multiply(whole, math.ldexp(1.0 / mantissa, 2 * s), whole)
    np.divide(body, f[2 : m + 2], body)
    if circulant:  # scale x_n / (2**s f_n), the last u
        if many:
            np.divide(x_n, f[n], x_n)
        else:
            out[m] /= f[n]
    backward = out[..., ::-1]
    np.add.accumulate(backward, -1, None, backward)
    np.multiply(out, f[1 : n + 1], out)
    _tally(out)
    np.ldexp(out, e - (s + exponent), out)  # e may be a (k, 1) array
    _require_finite(whole, "back substitution left the 64-bit range")
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

    Returns an (n, k) array, empty for k = 0: the transposed (k, n) view of
    one buffer into whose rows the columns are copied, with a zero pad
    column where that spares numpy's iterator buffers.  That buffer is the
    only block-sized array the solver allocates, and all columns run
    through the same vectorized passes at once.  Column j of the result is
    bit-identical to ``solve(fct, block[:, j])``, except that the circulant
    R pass may round its closure sum differently once that sum is longer
    than the chunks numpy's einsum sums the rows of a block in (8192 terms
    on numpy 2.4, whatever ``np.setbufsize`` says); a single vector's, and
    a one-column block's, is always summed in one run.  ``block`` is never
    written to.  Non-finite entries are looked for in the copy, before any
    pass runs, and the error names the first column holding one.
    """
    block = np.asarray(block, dtype=float)
    n = fct.spec.n
    if block.ndim != 2 or block.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side block must have shape ({n}, k), got {block.shape}"
        )
    k = block.shape[1]
    pad = k * n > _PAD_ENTRIES and (k < 4 or n > _SHORT_ROW)
    buf = np.empty((k, n + 1 if pad else n))
    if pad:
        buf[:, n] = 0.0  # the copy below writes every other entry
    out = buf[:, :n]
    if k * n > _TILE_ENTRIES:
        # A transposing copy in row tiles of at most _TILE_ENTRIES entries
        # keeps both sides of each tile in cache.
        rows = max(1, _TILE_ENTRIES // k)
        for i in range(0, n, rows):
            out.T[i : i + rows] = block[i : i + rows]
    else:
        out.T[...] = block
    # The peaks are read from the contiguous rows of the copy, not
    # from the strided block; a zero pad leaves max(max, -min) unchanged.
    peak = np.maximum(
        np.maximum.reduce(buf, axis=1), -np.minimum.reduce(buf, axis=1)
    )
    # NaN and infinity propagate into top; only then look column by column.
    top = float(peak.max(initial=0.0))
    if not math.isfinite(top):
        j = int(np.argmin(np.isfinite(peak)))
        raise _not_finite(out[j], f"right-hand side column {j + 1}: ")
    e = np.frexp(peak)[1][:, None]
    return _solve(fct, buf, e, math.frexp(top)[1]).T
