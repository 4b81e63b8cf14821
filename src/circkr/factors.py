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

Applying K, K^-1, R, R^-1 to a vector costs O(n).  Materialization is for
verification and reporting; it is capped at order 10**4.
"""

from dataclasses import dataclass

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

    The arrays are defensively copied and marked read-only; no public
    operation mutates a Factorization after construction.
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
        f = np.array(self.f, dtype=float)
        r = np.array(self.r, dtype=float)
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
        f.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r", r)

    @property
    def n(self):
        return self.spec.n


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


def apply_k(fct, x):
    """y = K x via one running prefix accumulation, O(n).

    y_i = sum_{j<=i} f_j x_j.
    """
    x = _check_vector(fct, x)
    n = fct.spec.n
    return np.cumsum(fct.f[1 : n + 1] * x)


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
    x = _check_vector(fct, x)
    y = x.copy()
    y[-1] = float(fct.r @ x[:-1]) + x[-1]
    return y


def apply_r_inverse(fct, x):
    """y = R^-1 x: the same rank-one update with the r block negated."""
    _require_circulant(fct, "the corner factor R")
    x = _check_vector(fct, x)
    y = x.copy()
    y[-1] = x[-1] - float(fct.r @ x[:-1])
    return y


def _solve_a1_transpose(fct, y):
    """x with A1^T x = y, by one back-substitution scan from the corner up."""
    n = fct.spec.n
    f = fct.f
    x = np.empty(n)
    if fct.variant == CIRCULANT:
        if fct.g == 0.0:
            raise SingularPivotError("closure scalar g = 0: the matrix is singular")
        x_n = y[n - 1] / fct.g
        x[n - 1] = x_n
        x[n - 2] = (y[n - 2] - (f[n - 1] + 1.0) * x_n) / (-f[n])
        for i in range(n - 3, -1, -1):
            x[i] = (y[i] - f[i + 1] * x[i + 1] - x_n) / (-f[i + 2])
    else:
        x[n - 1] = y[n - 1] / (-f[n + 1])
        for i in range(n - 2, -1, -1):
            x[i] = (y[i] - f[i + 1] * x[i + 1]) / (-f[i + 2])
    return x


def a1_inverse_last_row(fct):
    """Last row of A1^-1 for the circulant variant, by substitution in O(n).

    The printed closed form for this row does not hold; solving
    A1^T m = e_n row by row (from the corner pivot g upward) does, and is
    what the dense A1^-1 uses.
    """
    _require_circulant(fct, "the closure row of A1^-1")
    e_n = np.zeros(fct.spec.n)
    e_n[-1] = 1.0
    return _solve_a1_transpose(fct, e_n)


def _dense_k(fct):
    n = fct.spec.n
    return np.tril(np.broadcast_to(fct.f[1 : n + 1], (n, n)))


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
