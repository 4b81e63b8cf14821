"""O(n) direct solve against a factorized system.

Forward pass: y = R K (b / a) costs two structured sweeps.  Backward pass:
the transposed core A1^T is upper triangular with three nonzero bands
(diagonal, superdiagonal, last column), so back substitution is a single
scan.  For the circulant variant the unknowns come out as

    x_n = y_n / g
    x_{n-1} = (y_{n-1} - (f_{n-1} + 1) x_n) / (-f_n)
    x_i = (y_i - f_i x_{i+1} - x_n) / (-f_{i+1})        i = n-2 .. 1

and the tridiagonal variant uses the pure bidiagonal core (last pivot
-f_{n+1}, no x_n coupling term).  The scan is shared with
``a1_inverse_last_row``, which solves the same system against e_n.
"""

import contextlib
import math

import numpy as np

from .errors import (
    CircKRError,
    DimensionMismatchError,
    GrowthOverflowError,
)
from .factors import CIRCULANT, Factorization, _check_vector, _solve_a1_transpose


class OperationCounter:
    """Accumulates the scalar-arithmetic work a solve actually performs."""

    def __init__(self):
        self.total = 0

    def add(self, amount):
        self.total += int(amount)


_counter = None


@contextlib.contextmanager
def count_operations():
    """Context manager instrumenting solve() calls made inside it.

    Yields an OperationCounter whose ``total`` grows with every vector
    sweep (by its length) and every back-substitution step.  Used to check
    that the solve does O(n) work.
    """
    global _counter
    previous = _counter
    _counter = counter = OperationCounter()
    try:
        yield counter
    finally:
        _counter = previous


def _tally(amount):
    if _counter is not None:
        _counter.add(amount)


def solve(fct: Factorization, b) -> np.ndarray:
    """Solve A x = b for one right-hand side in O(n).

    The right-hand side must be finite everywhere; NaN or infinity is
    rejected eagerly rather than silently propagated.
    """
    b = _check_vector(fct, b, name="b")
    peak = max(b.max(), -b.min())  # NaN and infinity propagate into peak
    if not math.isfinite(peak):
        bad = int(np.nonzero(~np.isfinite(b))[0][0])
        raise GrowthOverflowError(
            f"right-hand side entry {bad + 1} is not finite ({b[bad]})"
        )
    n = fct.spec.n
    # Solve against b / 2**e, an exact rescale into [-1, 1), so that f * b
    # cannot overflow merely because b is large; x is scaled back at the end.
    e = math.frexp(peak)[1]
    scaled = np.ldexp(b, -e)
    scaled /= fct.spec.a
    y = np.cumsum(fct.f[1 : n + 1] * scaled)
    _tally(3 * n)
    if not np.isfinite(y[-1]):
        raise GrowthOverflowError("prefix accumulation left the 64-bit range")
    if fct.variant == CIRCULANT:
        y[n - 1] += float(fct.r @ y[: n - 1])
        _tally(2 * n + 5 * (n - 2))
    else:
        _tally(4 * (n - 1))
    x = _solve_a1_transpose(fct, y)
    np.ldexp(x, e, out=x)
    if not np.isfinite(x).all():
        raise GrowthOverflowError("back substitution left the 64-bit range")
    return x


def solve_many(fct: Factorization, block) -> np.ndarray:
    """Solve one factorization against every column of ``block``.

    Returns an (n, k) array; k = 0 returns an empty solution block
    immediately.  A failure on any column re-raises the same structured
    error with the offending column named.  Columns are independent, so
    callers may freely split them across workers; this implementation
    keeps them sequential for determinism.
    """
    block = np.asarray(block, dtype=float)
    n = fct.spec.n
    if block.ndim != 2 or block.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side block must have shape ({n}, k), got {block.shape}"
        )
    out = np.empty_like(block)
    for j in range(block.shape[1]):
        try:
            out[:, j] = solve(fct, block[:, j])
        except CircKRError as err:
            wrapped = type(err)(f"right-hand side column {j + 1}: {err.detail}")
            wrapped.__dict__.update(err.__dict__)
            wrapped.detail = f"right-hand side column {j + 1}: {err.detail}"
            raise wrapped from None
    return out
