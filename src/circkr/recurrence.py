"""Scalar recurrence driving the circulant tridiagonal factorization.

A symmetric circulant tridiagonal matrix is fixed by three numbers: the
order ``n``, the diagonal value ``c``, and the off-diagonal/corner value
``a``.  Everything structural about its triangular factorization depends
only on the normalized ratio ``d = c / a`` through one sequence::

    f_0 = 0,   f_1 = 1,   f_{i+1} = -d * f_i - f_{i-1}

For ``|d| > 2`` (the strictly diagonally dominant case) the sequence grows
geometrically with per-step ratio ``(|d| + sqrt(d^2 - 4)) / 2``, so the
generator checks for 64-bit range exhaustion and reports the largest usable
index instead of letting infinities propagate downstream.

From ``f`` two recurrence-level quantities follow: the corner coupling
coefficients ``r_j = f_n * f_1 / (f_{j+1} * f_j)`` and the closure scalar
``g``, the final pivot of the triangular core factor.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GrowthOverflowError,
    InconsistencyError,
    InvalidSpecError,
    SingularPivotError,
    ZeroPivotError,
)

# Two algebraically identical evaluations of g must agree this tightly.
G_AGREEMENT_RTOL = 1e-12

# Steps between checks in generate_f.  Infinity and NaN propagate through
# the recurrence, so a finite last value clears the whole chunk.
_CHECK_EVERY = 512


@dataclass(frozen=True)
class SystemSpec:
    """Description of one symmetric circulant (or plain) tridiagonal system.

    Parameters
    ----------
    n : int
        Matrix order, at least 3 (the smallest order where the circulant
        tridiagonal pattern is well formed).
    c : float
        Diagonal value.
    a : float
        Off-diagonal value, also placed in the (1, n) and (n, 1) corners
        for the circulant variant.  Must be nonzero.
    strict : bool, optional
        When True (default), require strict diagonal dominance
        ``|c| > 2 |a|``, which guarantees nonsingularity and geometric
        growth of the recurrence.  Permissive construction
        (``strict=False``) relaxes only this bound; the factorization then
        proceeds at the caller's risk and fails with a structured error as
        soon as a pivot degenerates.

    Raises
    ------
    InvalidSpecError
        If any precondition fails.
    """

    n: int
    c: float
    a: float
    strict: bool = True

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise InvalidSpecError(f"order n must be an integer, got {self.n!r}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "strict", bool(self.strict))
        if self.n < 3:
            raise InvalidSpecError(f"order n must be at least 3, got {self.n}")
        if not (math.isfinite(self.c) and math.isfinite(self.a)):
            raise InvalidSpecError(f"c and a must be finite, got c = {self.c}, a = {self.a}")
        if self.a == 0.0:
            raise InvalidSpecError("off-diagonal value a must be nonzero")
        if self.strict and not (abs(self.c) > 2.0 * abs(self.a)):
            raise InvalidSpecError(
                f"strict diagonal dominance requires |c| > 2|a|; "
                f"got |{self.c}| <= 2*|{self.a}| (d = {self.c / self.a})"
            )

    @property
    def d(self):
        """Normalized diagonal ratio c / a."""
        return self.c / self.a


def growth_ratio(d):
    """Asymptotic per-step growth factor of |f_i| for ratio ``d``.

    Equals ``(|d| + sqrt(d^2 - 4)) / 2`` when ``|d| > 2``; below that the
    sequence does not grow geometrically and the value is not meaningful.
    """
    d = float(d)
    return (abs(d) + math.sqrt(max(d * d - 4.0, 0.0))) / 2.0


def generate_f(source, m):
    """Generate the recurrence values ``f_0 .. f_m``.

    Parameters
    ----------
    source : SystemSpec or float
        Either a full system description (its ``d`` is used) or the
        normalized ratio directly.
    m : int
        Largest index to generate, at least 1.

    Returns
    -------
    numpy.ndarray
        Vector of length ``m + 1`` with ``out[i] = f_i``.  Generation is
        deterministic: identical inputs give bit-identical outputs.

    Raises
    ------
    GrowthOverflowError
        If some ``f_i`` leaves the finite 64-bit range.  The error carries
        ``failing_index``, the asymptotic ``growth_ratio``, and
        ``max_safe_m`` (the largest index that is still finite), and never
        returns a vector containing non-finite values.
    ZeroPivotError
        If some ``f_i`` with ``i >= 1`` is exactly zero, which can happen
        only for permissive ratios ``|d| <= 2``.  Zero entries would later
        be used as divisors, so generation refuses eagerly.  Either error
        stops generation within 512 steps, however large ``m`` is.

    Examples
    --------
    >>> generate_f(2.5, 6)  # doctest: +NORMALIZE_WHITESPACE
    array([  0.     ,   1.     ,  -2.5    ,   5.25   , -10.625  ,
            21.3125 , -42.65625])
    """
    d = source.d if isinstance(source, SystemSpec) else float(source)
    if not math.isfinite(d):
        raise InvalidSpecError(f"ratio d must be finite, got {d}")
    m = operator.index(m)
    if m < 1:
        raise InvalidSpecError(f"sequence length m must be at least 1, got {m}")
    values = _f_values(d)
    out = None
    if m > _CHECK_EVERY + 1:
        size = m + 1
        if abs(d) > 2.0:
            # |f_i| >= rho**(i - 1), so f overflows by i = 2 + 1024 / log2(rho)
            # and the loop stops at the end of that chunk; the 1025 and the
            # second chunk are margin for rounding.
            size = min(size, int(1025 / math.log2(growth_ratio(d))) + 2 * _CHECK_EVERY)
        out = np.empty(size)
    start, stop = 0, 2  # f_0 and f_1 ride with the first chunk of steps
    while start <= m:
        stop = min(stop + _CHECK_EVERY, m + 1)
        chunk = np.fromiter(values, float, stop - start)
        if out is None:
            out = chunk
        else:
            out[start:stop] = chunk
        # Only |d| <= 2 can reach a zero past f_0: above 2, rounding is
        # monotone, so |f_{i+1}| >= 2|f_i| - |f_{i-1}| >= |f_i| >= 1.
        has_zero = abs(d) <= 2.0 and np.count_nonzero(chunk) + (start == 0) < chunk.size
        if has_zero or not math.isfinite(chunk[-1]):
            break
        start = stop
    else:
        return out
    # Cold path: raise for the first value past f_0 that is non-finite or zero.
    i = 1 + int(np.argmin(np.isfinite(out[1:stop]) & (out[1:stop] != 0.0)))
    if out[i] == 0.0:
        raise ZeroPivotError(
            f"f_{i} = 0 for d = {d}; the factorization needs every "
            f"f_i with i >= 1 as a nonzero pivot",
            index=i,
        )
    raise GrowthOverflowError(
        f"f_{i} exceeds the 64-bit range for d = {d} "
        f"(growth ratio {growth_ratio(d):.6g} per step); "
        f"the largest finite index is {i - 1}",
        failing_index=i, growth_ratio=growth_ratio(d), max_safe_m=i - 1,
    )


def _f_values(d):
    # Endless f_0, f_1, ... as Python floats; np.fromiter takes exactly the count it is given.
    nd, prev, cur = -d, 0.0, 1.0
    yield prev
    yield cur
    while True:
        yield (prev := nd * cur - prev)
        yield (cur := nd * prev - cur)


def generate_r(f, n):
    """Corner coupling coefficients ``r_1 .. r_{n-1}`` for order ``n``.

    ``r_j = f_n * f_1 / (f_{j+1} * f_j)``, evaluated as
    ``(f_n / f_{j+1}) / f_j`` so that the product in the denominator can
    never overflow on its own.  Requires ``f`` to reach at least ``f_n``.

    Returns a vector of length ``n - 1`` with ``out[j - 1] = r_j``.
    The identity ``r_{n-1} * f_{n-1} = f_1 = 1`` holds to relative 1e-12
    and is what makes the closure scalar's two forms agree.
    """
    f = np.asarray(f, dtype=float)
    n = operator.index(n)
    if n < 3:
        raise InvalidSpecError(f"order n must be at least 3, got {n}")
    if f.ndim != 1 or f.shape[0] < n + 1:
        raise DimensionMismatchError(
            f"need f_0..f_n (length at least {n + 1}), got shape {f.shape}"
        )
    pivots = f[1 : n + 1]
    zeros = np.nonzero(pivots == 0.0)[0]
    if zeros.size:
        raise ZeroPivotError(
            f"f_{zeros[0] + 1} = 0; corner coefficients are undefined",
            index=int(zeros[0] + 1),
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _generate_r(f, n)


def _generate_r(f, n):
    # generate_r past its input checks: f is a float vector reaching f_n
    # with no zero among f_1 .. f_n.  A pivot below 1 in magnitude, which
    # only |d| <= 2 gives, can overflow the divisions; run this under
    # np.errstate then, so that the check below raises with no warning.  A
    # sum is non-finite whenever an entry is; only then look entry by entry.
    # A generated f has f_1 = 1, and x * 1.0 is x: that pass is skipped.
    r = (f[n] / f[2 : n + 1]) / f[1:n]
    if f[1] != 1.0:
        r *= f[1]
    if not math.isfinite(np.add.reduce(r)) and not np.isfinite(r).all():
        bad = int(np.argmin(np.isfinite(r))) + 1
        raise GrowthOverflowError(
            f"r_{bad} exceeds the 64-bit range (f_n = {f[n]})", failing_index=bad
        )
    return r


def compute_g(f, r, n):
    """Closure scalar ``g``: the final pivot of the triangular core.

    Two algebraically equivalent forms are evaluated::

        primary:   1 - f_{n+1} + sum_j r_j + r_{n-1} * f_{n-1}
        alternate: 1 + f_1 - f_{n+1} + sum_j (r_j * f_1)

    Both must agree to relative 1e-12; disagreement means an upstream
    overflow or precision failure and raises InconsistencyError.  The
    primary value is returned.  ``g = 0`` means the circulant matrix is
    singular and raises SingularPivotError.

    Requires ``f`` to reach ``f_{n+1}`` and ``r`` of length ``n - 1``.
    """
    f = np.asarray(f, dtype=float)
    r = np.asarray(r, dtype=float)
    n = operator.index(n)
    if f.ndim != 1 or f.shape[0] < n + 2:
        raise DimensionMismatchError(
            f"need f_0..f_{{n+1}} (length at least {n + 2}), got shape {f.shape}"
        )
    if r.shape != (n - 1,):
        raise DimensionMismatchError(
            f"need r_1..r_{{n-1}} (shape ({n - 1},)), got shape {r.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _compute_g(f, r, n)


def _compute_g(f, r, n):
    # compute_g past its shape checks, on Python floats.  r * f_1 is r
    # itself when f_1 = 1, as for every generated f, so both forms then
    # share one sum.  The sums of r from a strict f stay below |f_n|, but
    # others can overflow; run this under np.errstate then, so that the
    # check below raises with no warning.
    r_sum = float(np.add.reduce(r))
    f_1 = float(f[1])
    r_f1_sum = r_sum if f_1 == 1.0 else float(np.add.reduce(r * f_1))
    f_prev, _, f_next = f[n - 1 : n + 2].tolist()
    g_primary = 1.0 - f_next + r_sum + float(r[n - 2]) * f_prev
    g_alternate = 1.0 + f_1 - f_next + r_f1_sum
    if not (math.isfinite(g_primary) and math.isfinite(g_alternate)):
        raise GrowthOverflowError(
            f"closure scalar left the 64-bit range (f_{{n+1}} = {f[n + 1]})"
        )
    scale = max(abs(g_primary), abs(g_alternate))
    if scale > 0.0 and abs(g_primary - g_alternate) > G_AGREEMENT_RTOL * scale:
        raise InconsistencyError(
            f"the two closure-scalar forms disagree: {g_primary!r} vs "
            f"{g_alternate!r}; upstream precision loss"
        )
    if g_primary == 0.0:
        raise SingularPivotError(
            f"closure scalar g = 0 at order n = {n}: the circulant matrix is singular"
        )
    return g_primary
