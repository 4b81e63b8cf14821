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

Applying K, K^-1, R or R^-1 to a vector costs O(n): each action runs one
in-place pass over a copy of the vector, and the K and R passes are shared
by the solver and reconstruct.  An action whose result is not finite
raises GrowthOverflowError instead of returning it.
The closure row of A1^-1 is the closed form m_i = (f_i + f_{n-i}) / (f_n g)
and runs no pass.  Materialization (for verification) is capped at 10**4.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GrowthOverflowError,
    SingularPivotError,
    SizeGuardError,
    VariantMismatchError,
    ZeroPivotError,
)
from .recurrence import SystemSpec

CIRCULANT = "circulant"
TRIDIAGONAL = "tridiagonal"
VARIANTS = (CIRCULANT, TRIDIAGONAL)

# Largest order for which dense n x n materialization is allowed.
DENSE_ORDER_LIMIT = 10_000

# 2**14 entries (128 KiB) per row block of the verification kernels: with
# numpy's copy of a block in its first difference, or its buffer of a
# broadcast f (up to 8192 doubles), a block's scratch stays in L2.
_BLOCK_ENTRIES = 2**14

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

    A circulant g = 0 (a singular matrix) raises SingularPivotError here,
    so no solve or inverse checks it again.  The arrays are stored
    read-only; nothing writes to a Factorization after construction.  The
    constructor always copies f and r and freezes the copies; the caller's
    arrays are never frozen in place or shared.  The values are checked
    too: a zero among f_1 .. f_{n+1}, which the kernels divide by, raises
    ZeroPivotError, and a non-finite f, r or g raises GrowthOverflowError.
    One derived flag is held besides the fields, set at construction:
    ``_unit_pivots`` records whether |f_1| .. |f_{n+1}| are all at least 1,
    and only then may a solve run its divisions with no ``np.errstate``.
    Nothing else is cached; each solve works out its own scaling.
    ``decompose`` and ``decompose_tridiagonal`` build theirs through
    ``_from_checked``, which runs none of these checks.
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
            g = float(self.g)
            if g == 0.0:
                raise SingularPivotError("closure scalar g = 0: the matrix is singular")
            object.__setattr__(self, "g", g)
        else:
            if r.size != 0:
                raise ValueError("tridiagonal factorization carries no r coefficients")
            if self.g is not None:
                raise ValueError("tridiagonal factorization carries no closure scalar")
        _check_values(f, r, self.g)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_unit_pivots", bool(np.abs(f[1:]).min() >= 1.0))

    @classmethod
    def _from_checked(cls, spec, f, r, g, variant):
        # The fields as given, with no __post_init__: the caller built f and
        # r as float64 arrays of the variant's shapes that nothing else
        # holds, and checked every value, and g is a nonzero finite float
        # (None for the tridiagonal variant).  The arrays are frozen here.
        # An f generated from a strict spec has |f_1| .. |f_{n+1}| >= 1.
        f.setflags(write=False)
        r.setflags(write=False)
        fct = object.__new__(cls)
        fct.__dict__.update(
            spec=spec, f=f, r=r, g=g, variant=variant, _unit_pivots=spec.strict
        )
        return fct

    @property
    def n(self):
        return self.spec.n


def _read_only(x):
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def _check_values(f, r, g):
    # The kernels divide by f_1 .. f_{n+1}.
    for name, x, first in (("f", f, 0), ("r", r, 1)):
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            i = int(bad[0]) + first
            raise GrowthOverflowError(f"{name}_{i} = {x[i - first]} is not finite", failing_index=i)
    if g is not None and not math.isfinite(g):
        raise GrowthOverflowError(f"closure scalar g = {g} is not finite")
    zeros = np.flatnonzero(f[1:] == 0.0)
    if zeros.size:
        i = int(zeros[0]) + 1
        raise ZeroPivotError(f"pivot f_{i} = 0: the solve and inverses divide by it", index=i)


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
    buffer each pass transforms: the K and R passes here, and the A1^T back
    substitution in ``solver._solve``.  A block of k columns counts k
    times.  Used to check that the solve does O(n) work.  The scope is per
    context: solves on other threads are not counted.
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


def _block_rows(n):
    # Rows per block of the O(n^2) verification kernels (reconstruct and
    # check's two residuals): _BLOCK_ENTRIES entries, at least one row.
    return min(n, max(1, _BLOCK_ENTRIES // n))


def _k_pass(fct, out):
    """y = K x in place along the last axis: one prefix sum of f_i x_i."""
    np.multiply(out, fct.f[1 : fct.spec.n + 1], out)
    np.add.accumulate(out, -1, None, out)
    _tally(out)
    return out


def _r_pass(fct, out, sign=1.0):
    """y_n += sign * r . y[:n-1] in place along the last axis: R or R^-1."""
    head = out[..., :-1]
    # einsum sums in numpy's own loop; a BLAS dot may wake worker threads.
    update = np.einsum("...i,i->...", head, fct.r)
    if sign != 1.0:  # 1.0 * u is u
        update = sign * update
    if out.ndim == 1:
        out[-1] += update
    else:  # in place on the last column, with no copy back onto itself
        last = out[:, -1]
        np.add(last, update, last)
    _tally(head)
    return out


def _require_finite(out, message):
    # out as it is, or GrowthOverflowError(message) if an entry is not
    # finite.  Where out may hold one, run this under np.errstate, so that
    # numpy does not warn ahead of the error.  A sum is non-finite whenever
    # an entry is; only then look entry by entry.
    total = np.add.reduce(out, None)
    if not math.isfinite(total) and not np.isfinite(out).all():
        raise GrowthOverflowError(message)
    return out


def _guarded(fct, x, name, action_pass, message, *args):
    # One factor action: check x, copy it, run the in-place pass on the copy
    # quietly, and return it, or raise GrowthOverflowError(message) if an
    # entry is not finite.
    x = _check_vector(fct, x, name)
    with np.errstate(over="ignore", invalid="ignore"):
        return _require_finite(action_pass(fct, x.copy(), *args), message)


def _k_inverse_pass(fct, out):
    # x = K^-1 y in place: first differences, then division by f_1 .. f_n.
    # A temporary difference costs less than the copy numpy makes when a
    # ufunc's output overlaps its input: 1.8 against 3.3 us at n = 16.
    out[1:] = out[1:] - out[:-1]
    np.divide(out, fct.f[1 : fct.spec.n + 1], out)
    return out


def apply_k(fct, x):
    """y = K x, y_i = sum_{j<=i} f_j x_j: one prefix accumulation, O(n)."""
    return _guarded(fct, x, "x", _k_pass, "K x left the 64-bit range, or x is not finite")


def apply_k_inverse(fct, y):
    """x = K^-1 y via a first-difference sweep, O(n).

    x_1 = y_1 / f_1 and x_i = (y_i - y_{i-1}) / f_i.
    """
    message = "K^-1 y left the 64-bit range, or y is not finite"
    return _guarded(fct, y, "y", _k_inverse_pass, message)


def apply_r(fct, x):
    """y = R x: identity except y_n = sum_j r_j x_j + x_n.  Circulant only."""
    _require_circulant(fct, "the corner factor R")
    return _guarded(fct, x, "x", _r_pass, "R x left the 64-bit range, or x is not finite")


def apply_r_inverse(fct, x):
    """y = R^-1 x: the same rank-one update with the r block negated."""
    _require_circulant(fct, "the corner factor R")
    message = "R^-1 x left the 64-bit range, or x is not finite"
    return _guarded(fct, x, "x", _r_pass, message, -1.0)


def a1_inverse_last_row(fct):
    """Last row of A1^-1 for the circulant variant, in closed form, O(n).

    m_i = (f_i + f_{n-i}) / (f_n g) for i = 1 .. n.  This row solves
    A1^T m = e_n: the suffix sums of 1 / (f_k f_{k+1}) in the back
    substitution telescope by f_{p+1} f_{q+1} - f_p f_q = f_{p+q+1}.
    For |d| > 2, |f_k| is convex in k, so |f_i + f_{n-i}| <= |f_n|:
    dividing by f_n before g leaves no intermediate above 1 in magnitude.
    """
    _require_circulant(fct, "the closure row of A1^-1")
    n = fct.spec.n
    return (fct.f[1 : n + 1] + fct.f[n - 1 :: -1]) / fct.f[n] / fct.g


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


def _a1_rows(fct, lo, out):
    """Rows lo .. lo + len(out) - 1 of the dense A1, written into the zeroed,
    C-contiguous ``out``.

    Row i holds f_i at column i - 1 (from row 1 on) and -f_{i+2} at i; the
    circulant closure row n - 1 is (1, ..., 1, f_{n-1} + 1, g) instead.
    """
    n, f = fct.spec.n, fct.f
    hi = lo + len(out)
    # In the flattened C-contiguous block, entry (i, i) of row i = lo + k
    # sits at lo + k (n + 1): each diagonal is one strided slice.
    flat = out.reshape(-1)
    flat[lo :: n + 1] = -f[lo + 2 : hi + 2]
    flat[lo - 1 if lo else n :: n + 1] = f[max(lo, 1) : hi]
    if fct.variant == CIRCULANT and hi == n:
        out[-1, : n - 2] = 1.0
        out[-1, n - 2] = f[n - 1] + 1.0
        out[-1, n - 1] = fct.g
    return out


def _dense_a1(fct):
    n = fct.spec.n
    return _a1_rows(fct, 0, np.zeros((n, n)))


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
