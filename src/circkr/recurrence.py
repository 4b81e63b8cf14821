"""Scalar recurrence driving the circulant tridiagonal factorization.

A symmetric circulant tridiagonal matrix is fixed by three numbers: the
order ``n``, the diagonal value ``c``, and the off-diagonal/corner value
``a``.  Everything structural about its triangular factorization depends
only on the normalized ratio ``d = c / a`` through one sequence::

    f_0 = 0,   f_1 = 1,   f_{i+1} = -d * f_i - f_{i-1}

``f_i = U_{i-1}(-d/2)``, a Chebyshev polynomial of the second kind, so it
obeys the addition formula of those polynomials.  The generator runs the
literal recurrence for the first 514 values only, and forms every later
block of 512 values from them by that formula in two vector products.

For ``|d| > 2`` (the strictly diagonally dominant case) the sequence grows
geometrically with per-step ratio ``(|d| + sqrt(d^2 - 4)) / 2``, so the
generator checks for 64-bit range exhaustion, once per block, and reports
the largest usable index instead of letting infinities propagate
downstream.

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

# Values per block of generate_f: the base block f_0 .. f_{L+1} is the
# literal recurrence, and each later block of L values two products of it.
_BLOCK = 512


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
        Vector of length ``m + 1`` with ``out[i] = f_i``.  The base block
        ``f_0 .. f_513`` is the literal recurrence, step by step, so for
        ``m <= 513`` the result is exactly that.  Each later block of
        L = 512 values is formed from the base block by the addition
        formula ``f_{cL+j} = f_{cL} T_j + (f_{cL+1} - T_1 f_{cL}) f_j``,
        j = 2 .. L + 1, with ``T_j = T_j(-d/2)`` the Chebyshev polynomials
        of the first kind (``f_j = U_{j-1}(-d/2)`` is of the second kind),
        themselves a literal recurrence from ``T_0 = 1``, ``T_1 = -d/2``.
        That is two vector products per block, and one Python step per
        block for its starts ``(f_{cL}, f_{cL+1})``, the previous block's
        last two values.  Past f_513 the values are exact in exact
        arithmetic, deterministic, and not bit-identical to the literal
        recurrence: their error relative to ``max_{j<=i} |f_j|`` reached
        3.3e5 eps near ``|d| = 2`` at i = 3000, where the literal loop's
        reached 6.9e5 eps.  Each value still meets the three-term relation
        with its neighbours to within 4 eps of ``max_{j<=i} |f_j|`` (measured
        up to m = 70519 at d = +-2.0001, 2.01, 2.05, 2.5, 4, +-1.999, +-1.5,
        1.3, -0.3).  For ``|d| > 2`` solves keep their backward error (at
        most 1.1 eps on the strict grid of ``tools/accuracy.py``).  For
        ``|d| <= 2`` the relation does not bound the relative error of a
        small ``f_i``, and permissive solves past ``f_513`` can lose backward
        error: at d = 1.999, n = 3001 the tridiagonal one went from 8.6 to
        76 eps (``ACCURACY_pr31.json``).

    Raises
    ------
    GrowthOverflowError
        If some ``f_i`` leaves the finite 64-bit range.  The error carries
        ``failing_index``, the asymptotic ``growth_ratio``, and
        ``max_safe_m`` (the largest index that is still finite), and never
        returns a vector containing non-finite values.  The block in which
        the literal step would first overflow is finished by that step
        from the two values before it, so the error, index and message are
        those of the literal recurrence.  Generation stops at that block,
        however large ``m`` is.
    ZeroPivotError
        If some ``f_i`` with ``i >= 1`` is exactly zero, which can happen
        only for permissive ratios ``|d| <= 2``.  Zero entries would later
        be used as divisors, so generation refuses eagerly; a zero among
        ``f_0 .. f_513`` stops it there, however large ``m`` is.

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
    out = np.fromiter(_f_values(d), float, min(m + 1, _BLOCK + 2))
    stop = out.size
    if not _fails(out, d, 1):
        if stop == m + 1:
            return out
        out, stop = _extend(d, out, m)
        if stop is None:
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


def _fails(values, d, zeros):
    # Whether a run of f holds more than ``zeros`` zeros or ends non-finite.
    # Only |d| <= 2 can reach a zero past f_0: above 2, rounding is
    # monotone, so |f_{i+1}| >= 2|f_i| - |f_{i-1}| >= |f_i| >= 1.  Infinity
    # and NaN propagate through the recurrence, and above 2 |f_i| grows, so
    # a finite last value clears the whole run.
    if abs(d) <= 2.0 and np.count_nonzero(values) + zeros < values.size:
        return True
    return not math.isfinite(values[-1])


def _extend(d, base, m):
    """f_0 .. f_m from the clean base block ``base`` = f_0 .. f_{L+1}, m > L + 1.

    Returns ``(out, None)``, or ``(out, stop)`` with the first non-finite
    or zero value past f_0 in ``out[:stop]``.  Block c = 1, 2, ... holds
    f_{cL+2} .. f_{cL+L+1}.  Its two terms f_{cL} T_j and q_c f_j,
    q_c = f_{cL+1} - T_1 f_{cL}, are each at most about the value they
    form, whatever d.  In the other basis, f_{cL+j} = f_{cL+1} f_j -
    f_{cL} f_{j-1}, each product is up to 1/sqrt(d^2 - 4) times the value
    near |d| = 2; the base block's rounding, so magnified, broke the
    three-term relation by about 50 eps at d = -2.0001, and a solve's
    backward error went from 1 to 46 eps.
    """
    L = _BLOCK
    size = m + 1
    if abs(d) > 2.0:
        # |f_i| >= rho**(i - 1), so f overflows by i = 2 + 1024 / log2(rho),
        # in the block that holds that index; the 1025 and one more block
        # are margin for rounding.
        size = min(size, int(1025 / math.log2(growth_ratio(d))) + 2 * L)
    out = np.empty(size)
    out[: L + 2] = base
    t = np.fromiter(_f_values(d, 1.0, -0.5 * d), float, L + 2)
    t_1, t_l, t_top = t[[1, L, L + 1]].tolist()
    f_l, f_top = base[L:].tolist()
    s0, s1 = f_l, f_top
    starts = []
    for _ in range(-(-(size - L - 2) // L)):
        q = s1 - t_1 * s0
        starts.append((s0, q))
        # Python floats: the same roundings as the block's last two values.
        s0, s1 = s0 * t_l + q * f_l, s0 * t_top + q * f_top
        # Above 2, |f_i| grows within a block and the literal step first
        # fails where |d f_{i-1}| overflows (its subtraction only shrinks
        # the product): a finite d * s1 clears the whole block.
        if not math.isfinite(d * s1):
            break
    stop = min(size, L + 2 + L * len(starts))
    if math.isfinite(d * s1):
        _blocks(out, base, t, starts, stop)
        return out, (stop if abs(d) <= 2.0 and _fails(out[L + 2 :], d, 0) else None)
    # Finish the last block with the literal step from where it would fail
    # (or from a non-finite block value, if one comes first), so that the
    # error is the literal recurrence's.
    lo = L + 2 + L * (len(starts) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        _blocks(out, base, t, starts, stop)
        ok = np.isfinite(out[lo:stop]) & np.isfinite(d * out[lo - 1 : stop - 1])
    i = lo + int(np.argmin(ok)) if not ok.all() else stop
    while i < size:
        stop = min(i + L, size)
        prev, cur = out[i - 2 : i].tolist()
        out[i:stop] = np.fromiter(_f_values(d, prev, cur), float, stop - i + 2)[2:]
        if not math.isfinite(out[stop - 1]):
            return out, stop
        i = stop
    return out, None


def _blocks(out, base, t, starts, stop):
    # out[L + 2 : stop], block c from its starts (f_{cL}, q_c) and the base
    # blocks: f_{cL+j} = f_{cL} T_j + q_c f_j, j = 2 .. L + 1.
    L = _BLOCK
    rows = (stop - L - 2) // L
    s = np.array(starts)
    body = out[L + 2 : L + 2 + rows * L].reshape(rows, L)
    np.multiply(s[:rows, :1], t[2:], out=body)
    body += np.multiply(s[:rows, 1:], base[2:])
    k = stop - L - 2 - rows * L
    if k:
        s0, q = starts[rows]
        np.add(s0 * t[2 : k + 2], q * base[2 : k + 2], out=out[stop - k : stop])


def _f_values(d, prev=0.0, cur=1.0):
    # Endless f_{i-1}, f_i, f_{i+1}, ... from (prev, cur) = (f_{i-1}, f_i) as
    # Python floats; np.fromiter takes exactly the count it is given.
    nd = -d
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
