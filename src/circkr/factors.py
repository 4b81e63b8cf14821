"""Triangular factors built from the recurrence, and their fast actions.

The decomposition of the normalized matrix uses three structured factors,
all functions of the ratio d alone (the scalar a is reapplied exactly once,
at reconstruction or solve time):

    K      lower triangular, column j constant equal to f_j::

               | f_1               |
               | f_1  f_2          |
               | f_1  f_2  f_3     |
               | ...               |

    K^-1   lower bidiagonal, row i holds (-1/f_i, 1/f_i) so applying it is
           a first-difference sweep.

    R      identity except for the last row (r_1, ..., r_{n-1}, 1); its
           inverse just flips the sign of the r block.  Only the circulant
           variant has a nontrivial R.

    A1     the lower triangular core.  Circulant variant::

               | -f_2                               |
               |  f_1  -f_3                         |
               |        f_2  -f_4                   |
               |             ...                    |
               |  1     1    ...   f_{n-1}+1   g    |

           (ones across the last row up to column n-2).  Tridiagonal
           variant: pure lower bidiagonal with diagonal (-f_2 .. -f_{n+1})
           and subdiagonal (f_1 .. f_{n-1}).

Applying K, K^-1, R or R^-1 to a vector costs O(n); K and R are one
in-place pass each, shared by the solver and reconstruct.  Solving
A1^T x = y is O(n) too: row i divided by f_i f_{i+1} reads
u_i = u_{i+1} - (y_i - x_n) / (f_i f_{i+1}) for u_i = x_i / f_i, one
reversed prefix sum.  Materialization (for verification) is capped at 10**4.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    SingularPivotError,
    SizeGuardError,
    VariantMismatchError,
)
from .recurrence import SystemSpec

CIRCULANT = "circulant"
TRIDIAGONAL = "tridiagonal"
VARIANTS = (CIRCULANT, TRIDIAGONAL)

# Largest order for which dense n x n materialization is allowed.
DENSE_ORDER_LIMIT = 10_000

FACTOR_NAMES = ("K", "K_inv", "R", "R_inv", "A1", "A1_inv")


@dataclass(frozen=True)
class Factorization:
    """Immutable bundle of everything the structured operations need.

    Fields
    ------
    spec : SystemSpec
    f : ndarray, length n + 2, with f[i] = f_i
    r : ndarray, length n - 1 (empty for the tridiagonal variant)
    g : float or None (None for the tridiagonal variant)
    variant : "circulant" or "tridiagonal"

    The arrays are stored read-only; no public operation mutates a
    Factorization after construction.  A float64 array that is already
    read-only and owns its memory (as ``decompose`` hands over) is kept as
    is; anything else is copied, never frozen in place.
    """

    spec: SystemSpec
    f: np.ndarray
    r: np.ndarray
    g: float | None
    variant: str = CIRCULANT

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        n = self.spec.n
        f = _read_only(self.f)
        r = _read_only(self.r)
        if f.shape != (n + 2,):
            raise DimensionMismatchError(
                f"f must hold f_0..f_{{n+1}} (shape ({n + 2},)), got {f.shape}"
            )
        if self.variant == CIRCULANT:
            if r.shape != (n - 1,):
                raise DimensionMismatchError(
                    f"r must have shape ({n - 1},), got {r.shape}"
                )
            if self.g is None:
                raise ValueError("circulant factorization requires the closure scalar g")
            object.__setattr__(self, "g", float(self.g))
        else:
            if r.size != 0:
                raise ValueError("tridiagonal factorization carries no r coefficients")
            if self.g is not None:
                raise ValueError("tridiagonal factorization carries no closure scalar")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r", r)

    @property
    def n(self):
        return self.spec.n

    @cached_property
    def _plan(self):
        n = self.spec.n
        f = self.f
        s = (math.frexp(f[n + 1])[1] - 1) // 2
        m = n - 1 if self.variant == CIRCULANT else n
        mantissa, exponent = math.frexp(self.spec.a)
        return _SolvePlan(
            s, m, f[1 : n + 1], f[1 : m + 1], f[2 : m + 2],
            np.float64(math.ldexp(1.0 / mantissa, 2 * s)), -(s + exponent),
        )


class _SolvePlan(NamedTuple):
    """Scalars and views of f that every solve against one factorization uses.

    The solve works on y / 2**s, with 2**s near sqrt|f_{n+1}| and 4**s at
    most 2**1022.  That keeps f_i b_i / 2**s and every term of the back
    substitution within about 2**+-520 even when |f_{n+1}| nears the
    largest double.
    """

    shift: int  # s
    coupled: int  # unknowns whose rows carry an x_n term: n - 1, or n if none
    pivots: np.ndarray  # f_1 .. f_n
    lower: np.ndarray  # f_1 .. f_coupled
    upper: np.ndarray  # f_2 .. f_{coupled + 1}
    a_scale: float  # 4**s / m for a = m 2**p, 1/2 <= |m| < 1
    a_unshift: int  # -(s + p)


def _read_only(x):
    if (
        isinstance(x, np.ndarray)
        and x.dtype == np.float64
        and x.base is None
        and not x.flags.writeable
    ):
        return x
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


class OperationCounter:
    """Accumulates the elements that the factor passes transform."""

    def __init__(self):
        self.total = 0


# Each thread (and asyncio task) sees only the counter its own scope opened.
_counter = contextvars.ContextVar("circkr_operation_counter", default=None)


@contextlib.contextmanager
def count_operations():
    """Context manager instrumenting solves made inside it.

    Yields an OperationCounter whose ``total`` grows by the size of the
    buffer each K, R or A1^T pass transforms, so a block of k columns
    counts k times.  Used to check that the solve does O(n) work.  The
    scope is per context: solves on other threads are not counted.
    """
    counter = OperationCounter()
    token = _counter.set(counter)
    try:
        yield counter
    finally:
        _counter.reset(token)


def _tally(buffer):
    counter = _counter.get()
    if counter is not None:
        counter.total += buffer.size


def _check_vector(fct, x, name="x"):
    x = np.asarray(x, dtype=float)
    n = fct.spec.n
    if x.ndim != 1 or x.shape[0] != n:
        raise DimensionMismatchError(
            f"{name} must be a vector of length {n}, got shape {x.shape}"
        )
    return x


def _require_circulant(fct, what):
    if fct.variant != CIRCULANT:
        raise VariantMismatchError(
            f"{what} exists only for the circulant variant; "
            f"the tridiagonal variant has R = I"
        )


def _guard_dense(n):
    if n > DENSE_ORDER_LIMIT:
        raise SizeGuardError(
            f"dense materialization is capped at order {DENSE_ORDER_LIMIT}, got n = {n}"
        )


def _k_pass(fct, out):
    """y = K x in place along the last axis: one prefix sum of f_i x_i."""
    np.multiply(out, fct._plan.pivots, out)
    np.add.accumulate(out, -1, None, out)
    _tally(out)
    return out


def _r_pass(fct, out, sign=1.0):
    """y_n += sign * r . y[:n-1] in place along the last axis: R or R^-1."""
    head = out[..., :-1]
    # einsum sums in numpy's own loop; a BLAS dot may wake worker threads.
    out.T[-1] += sign * np.einsum("...i,i->...", head, fct.r)
    _tally(head)
    return out


def apply_k(fct, x):
    """y = K x, y_i = sum_{j<=i} f_j x_j: one prefix accumulation, O(n)."""
    return _k_pass(fct, _check_vector(fct, x).copy())


def apply_k_inverse(fct, y):
    """x = K^-1 y via a first-difference sweep, O(n).

    x_1 = y_1 / f_1 and x_i = (y_i - y_{i-1}) / f_i.
    """
    y = _check_vector(fct, y, name="y")
    n = fct.spec.n
    x = np.empty(n)
    x[0] = y[0] / fct.f[1]
    x[1:] = (y[1:] - y[:-1]) / fct.f[2 : n + 1]
    return x


def apply_r(fct, x):
    """y = R x: identity except y_n = sum_j r_j x_j + x_n.  Circulant only."""
    _require_circulant(fct, "the corner factor R")
    return _r_pass(fct, _check_vector(fct, x).copy())


def apply_r_inverse(fct, x):
    """y = R^-1 x: the same rank-one update with the r block negated."""
    _require_circulant(fct, "the corner factor R")
    return _r_pass(fct, _check_vector(fct, x).copy(), -1.0)


def _solve_a1_transpose(fct, out, scale):
    """Solve A1^T x = y in place, for y of shape (n,) or (k, n), in O(n k).

    ``out`` holds y / 2**s on entry (s from the solve plan) and
    x * scale / 2**s on return, where ``scale`` is 4**s or within a factor
    of two of it.  Row i of A1^T x = y reads
    f_i x_{i+1} - f_{i+1} x_i = y_i - x_n, so u_i = x_i / f_i obeys

        u_i = x_n / f_n + sum_{k=i}^{n-1} (x_n - y_k) / (f_k f_{k+1}),
        x_n = y_n / g:

    one reversed prefix sum.  The tridiagonal variant has no x_n coupling,
    and its sum of -y_k / (f_k f_{k+1}) runs to k = n.  The terms are
    formed as ((x_n - y_k) / f_k * scale) / f_{k+1}, so that none of them
    leaves the normal range.
    """
    plan = fct._plan
    m = plan.coupled
    corner = out.T  # entry j: a scalar, or the k right-hand sides' entries
    circulant = fct.variant == CIRCULANT
    if circulant:
        if fct.g == 0.0:
            raise SingularPivotError("closure scalar g = 0: the matrix is singular")
        corner[m] /= fct.g
        x_n = corner[m]  # x_n / 2**s
    else:
        x_n = 0.0
    body = out[..., :m]
    np.subtract(x_n, body.T, body.T)  # x_n broadcasts along the k axis
    np.divide(body, plan.lower, body)
    np.multiply(out, scale, out)
    np.divide(body, plan.upper, body)
    if circulant:
        corner[m] /= plan.pivots[m]  # scale x_n / (2**s f_n), the last u
    backward = out[..., ::-1]
    np.add.accumulate(backward, -1, None, backward)
    np.multiply(out, plan.pivots, out)
    _tally(out)
    return out


def a1_inverse_last_row(fct):
    """Last row of A1^-1 for the circulant variant, by substitution in O(n).

    The printed closed form for this row does not hold; solving
    A1^T m = e_n (from the corner pivot g upward) does, and is what the
    dense A1^-1 uses.  e_n enters only through m_n = 1 / g, and |g| is of
    the order of 4**s, so the pass runs on 4**s e_n (handed over as
    2**s e_n, the kernel's y / 2**s) at the scale 4**s, which keeps the
    row near unit size; the 8**s multiple it returns is scaled back
    exactly.
    """
    _require_circulant(fct, "the closure row of A1^-1")
    s = fct._plan.shift
    out = np.zeros(fct.spec.n)
    out[-1] = math.ldexp(1.0, s)
    _solve_a1_transpose(fct, out, math.ldexp(1.0, 2 * s))
    return np.ldexp(out, -3 * s, out)


def _dense_k(fct):
    n = fct.spec.n
    out = np.zeros((n, n))
    for i in range(n):
        out[i, : i + 1] = fct.f[1 : i + 2]
    return out


def _dense_k_inverse(fct):
    n = fct.spec.n
    out = np.zeros((n, n))
    diag = 1.0 / fct.f[1 : n + 1]
    np.fill_diagonal(out, diag)
    out[np.arange(1, n), np.arange(0, n - 1)] = -diag[1:]
    return out


def _dense_r(fct, inverse=False):
    _require_circulant(fct, "the corner factor R")
    n = fct.spec.n
    out = np.eye(n)
    out[n - 1, : n - 1] = -fct.r if inverse else fct.r
    return out


def _dense_a1(fct):
    n = fct.spec.n
    f = fct.f
    out = np.zeros((n, n))
    if fct.variant == CIRCULANT:
        out[np.arange(n - 1), np.arange(n - 1)] = -f[2 : n + 1]
        out[n - 1, n - 1] = fct.g
        out[np.arange(1, n - 1), np.arange(0, n - 2)] = f[1 : n - 1]
        out[n - 1, n - 2] = f[n - 1] + 1.0
        out[n - 1, : n - 2] = 1.0
    else:
        out[np.arange(n), np.arange(n)] = -f[2 : n + 2]
        out[np.arange(1, n), np.arange(0, n - 1)] = f[1:n]
    return out


def _dense_a1_inverse(fct):
    # Lower block: entry (i, j) = -f_j / (f_i f_{i+1}) for j <= i, grouped
    # as ((1 / f_i) f_j) / -f_{i+1} so no intermediate product overflows.
    n = fct.spec.n
    f = fct.f
    rows = n - 1 if fct.variant == CIRCULANT else n
    out = np.zeros((n, n))
    inv = 1.0 / f[1 : rows + 1]
    for i in range(rows):
        out[i, : i + 1] = inv[i] * f[1 : i + 2] / -f[i + 2]
    if fct.variant == CIRCULANT:
        out[n - 1] = a1_inverse_last_row(fct)
    return out


def materialize(fct, which):
    """Dense n x n form of one factor, for verification and reporting.

    ``which`` is one of ``K``, ``K_inv``, ``R``, ``R_inv``, ``A1``,
    ``A1_inv``.  Factors are normalized (pure functions of d); multiply by
    the scalar a externally when comparing against the unnormalized matrix.
    Capped at order 10**4; requesting R or R_inv for the tridiagonal
    variant raises VariantMismatchError.
    """
    _guard_dense(fct.spec.n)
    if which == "K":
        return _dense_k(fct)
    if which == "K_inv":
        return _dense_k_inverse(fct)
    if which == "R":
        return _dense_r(fct)
    if which == "R_inv":
        return _dense_r(fct, inverse=True)
    if which == "A1":
        return _dense_a1(fct)
    if which == "A1_inv":
        return _dense_a1_inverse(fct)
    raise ValueError(f"unknown factor {which!r}; expected one of {FACTOR_NAMES}")
