"""Dense and first-row inverses, read off the recurrence in closed form.

Both inverses follow from one identity of the recurrence,
f_{p+1} f_{q+1} - f_p f_q = f_{p+q+1}.  It makes the circulant inverse's
first row v_j = (f_j + f_{n-j}) / (a g), j = 0 .. n-1, and telescopes the
tridiagonal suffix sums to sum_{k=m}^{n} 1/(f_k f_{k+1}) = f_{n+1-m} /
(f_m f_{n+1}).  The inverse of a symmetric circulant matrix is again
symmetric circulant, so the circulant variant's dense inverse is the
cyclic expansion of that row.  The tridiagonal variant's inverse is the
symmetric semiseparable matrix with entries -f_min(i,j) * G_max(i,j) / a.
The scalar 1/a is folded once into a length-n factor, so each entry is
one product of two length-n factors, written in blocks of rows by outer
products with no pass over the result after it.  Neither path runs a
solve, a general matrix multiply or any n x n scratch array beyond the
result.

Every row band of either dense inverse can be written on its own, so a
fill of at least 2**21 entries (n >= 1449) is split into contiguous row
bands, one per usable CPU: the caller writes the first band and a
per-call thread pool, one thread per extra CPU, writes the others, while
numpy's einsum and copyto release the GIL.  Each entry is formed
by the same operations in either case, so the result is byte-identical to
a serial fill.  Smaller fills stay on the calling thread, where a helper
gains least and least reliably: after its CPU has idled between calls, a
helper saved 0-16% of an n = 1024 fill, against 22-40% at n = 2048.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GrowthOverflowError, VariantMismatchError
from .factors import CIRCULANT, Factorization, _guard_dense

# Fills of fewer entries run on the calling thread alone (module docstring).
_THREADED_ENTRIES = 2**21


def _fill_in_bands(fill, n, step):
    """Run ``fill(lo, hi)`` over rows 0 .. n-1, in contiguous bands of whole
    blocks of ``step`` rows, one band per usable CPU.

    Below ``_THREADED_ENTRIES`` entries, or with one usable CPU, the caller
    runs ``fill(0, n)`` itself.  Otherwise the caller fills the first band
    and a per-call ``ThreadPoolExecutor`` with one thread per extra CPU (at
    most one per block) fills the others, each under the caller's
    ``np.errstate``.  The threads do not run in the caller's context, so
    ``fill`` must not tally into ``count_operations``; no dense fill does.  Every
    thread is joined before this returns or raises; an exception from the
    caller's band, else from the lowest failing band, is then raised here.
    """
    blocks = -(-n // step)
    workers = 1
    if n * n >= _THREADED_ENTRIES:
        # sched_getaffinity honours taskset and cgroup CPU sets; it is Linux-only.
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        workers = min(usable, blocks)
    if workers == 1:
        fill(0, n)
        return
    bounds = [min(n, step * (blocks * k // workers)) for k in range(workers + 1)]
    # Before numpy 2 the error state is per thread, not in the context.
    errstate = dict(np.geterr(), call=np.geterrcall())

    def band(k):
        with np.errstate(**errstate):
            fill(bounds[k], bounds[k + 1])

    # Leaving the with block joins every helper, also when band 0 raised.
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = pool.map(band, range(1, workers))
        fill(bounds[0], bounds[1])
    list(helpers)  # raises the lowest failing helper band's exception


def inverse_dense(fct: Factorization) -> np.ndarray:
    """Full inverse in O(n^2), exactly symmetric by construction.

    Circulant variant: the first row v from ``inverse_first_row``, exactly
    palindromic already, expanded cyclically, row i being v rolled right
    by i.

    Tridiagonal variant: writing G_m = f_m * sum_{k=m}^{n} 1/(f_k f_{k+1}),
    entry (i, j) is -f_min(i,j) * G_max(i,j) / a.  The sum telescopes, so
    G_m = f_{n+1-m} / f_{n+1}.  The division by a is folded into G once:
    entry (i, j), i <= j, is fl(F_i H_j) with F = -f 2**-q and
    H_j = f_{n+1-j} / (a f_{n+1} 2**-q), where the exact power-of-two shift
    q >= 0 keeps both factors in the normal range whenever the entries are
    finite (without it H underflows for a large a).  That is two roundings
    per entry beside the one of a f_{n+1} 2**-q, and no division per entry.
    GrowthOverflowError is raised before the fill if the largest entry
    leaves the 64-bit range, and the smallest entry is formed once under
    the caller's ``np.errstate``, so ``np.errstate(under="raise")`` raises
    in the caller before any row is written.  The result is filled in
    blocks of 64 rows, each written by einsum outer products; the CLI's
    ``check`` and ``invert`` take the inverse from the same block writer,
    one block at a time, with no n x n array.  Multiplication commutes and
    einsum forms one product per entry, so each entry is byte for byte
    that of one outer product of F and H, its lower triangle mirrored.
    einsum adds each product to a zeroed output, so an entry that
    underflows to zero is +0.0 whatever the sign of its product.

    From n = 1449 (2**21 entries) on, contiguous row bands are filled at
    once, one per usable CPU (``os.sched_getaffinity``), the caller filling
    the first; tridiagonal bands start on block boundaries.  Each entry is
    computed by the same operations as in a serial fill, so the output is
    byte-identical whatever the CPU count.  The caller's ``np.errstate``
    applies to every band; an error in any band is raised here once all
    bands have finished, and no thread outlives the call.

    Capped at order 10**4.
    """
    n = fct.spec.n
    _guard_dense(n)
    if fct.variant == CIRCULANT:
        v = inverse_first_row(fct)
        # Window s of (v_1 .. v_{n-1}, v_0 .. v_{n-1}) is v rolled right by n-1-s.
        window = sliding_window_view(np.concatenate((v[1:], v)), n)[::-1]
        out = np.empty((n, n))
        _fill_in_bands(lambda lo, hi: np.copyto(out[lo:hi], window[lo:hi]), n, 1)
        return out
    # Each entry is written once, so a block need not stay in cache; 64 rows
    # keep the diagonal block's scratch within 32 KiB.
    step = 64
    write = _tridiagonal_rows(fct, step)
    out = np.empty((n, n))

    def fill(lo, hi):
        for i0 in range(lo, hi, step):
            write(i0, out[i0 : i0 + step])

    _fill_in_bands(fill, n, step)
    return out


def _tridiagonal_rows(fct, step):
    """Writer of blocks of rows of the tridiagonal inverse, -f_min(i,j) *
    G_max(i,j) / a, each block at most ``step`` rows high.

    ``write(lo, out)`` fills ``out`` with rows lo .. lo + len(out) - 1 and
    returns it; it may run on several threads at once.  Entry (i, j),
    i <= j, is the one product F_i H_j of two length-n factors,
    F = -f 2**-q and H_j = f_{n+1-j} / (a f_{n+1} 2**-q): 1/a is applied
    once, to H.  The exact shift q >= 0 keeps a f_{n+1} 2**-q below 2**1022,
    so neither factor leaves the normal range while the entries are
    finite.  Before any block is written, GrowthOverflowError is raised if
    the largest entry leaves the 64-bit range, and the smallest entry is
    formed under the caller's ``np.errstate``, so an underflow raises or
    warns as the caller asked (einsum reports no floating-point status).
    """
    n, a = fct.spec.n, fct.spec.a
    top = float(fct.f[n + 1])
    q = max(0, math.frexp(top)[1] + math.frexp(a)[1] - 1021)
    F = np.ldexp(-fct.f[1 : n + 1], -q)
    # A permissive f_{n+1} can be tiny and H overflow; the check raises
    # GrowthOverflowError then, with no numpy warning ahead of it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H = fct.f[n:0:-1] / (math.ldexp(top, -q) * a)
        size_f, size_h = np.abs(F), np.abs(H)[::-1]
        # Largest entry: |F_i| max_{j>=i} |H_j|.
        peak = np.max(size_f * np.maximum.accumulate(size_h)[::-1])
    if not np.isfinite(peak):
        raise GrowthOverflowError("the tridiagonal inverse leaves the 64-bit range")
    # Smallest entry: |F_i| min_{j>=i} |H_j|, its underflow under the caller's errstate.
    np.multiply(size_f, np.minimum.accumulate(size_h)[::-1])
    strictly_lower = np.tri(step, step, -1, dtype=bool)

    def write(lo, out):
        hi = lo + len(out)
        # Row i: F_i H_j for j >= lo, then the mirrored F_j H_i for j < lo ...
        np.einsum("i,j->ij", F[lo:hi], H[lo:], out=out[:, lo:])
        np.einsum("i,j->ij", H[lo:hi], F[:lo], out=out[:, :lo])
        # ... and for lo <= j < i, inside the diagonal block.
        b = hi - lo
        mirrored = np.einsum("i,j->ij", H[lo:hi], F[lo:hi])
        np.copyto(out[:, lo:hi], mirrored, where=strictly_lower[:b, :b])
        return out

    return write


def inverse_first_row(fct: Factorization) -> np.ndarray:
    """First row of the inverse in O(n), circulant variant only.

    v_j = (f_j + f_{n-j}) / (a g) for j = 0 .. n-1, with g the
    factorization's closure scalar.  Because the inverse of a symmetric
    circulant matrix is again symmetric circulant, this row generates the
    whole inverse by cyclic shifts, and v_j and v_{n-j} are the same sum,
    so the row is exactly palindromic.  GrowthOverflowError is raised
    before the division by a if the largest entry leaves the 64-bit range.
    """
    if fct.variant != CIRCULANT:
        raise VariantMismatchError(
            "the first-row shortcut relies on circulant structure; "
            "use inverse_dense for the tridiagonal variant"
        )
    n = fct.spec.n
    v = (fct.f[:n] + fct.f[n:0:-1]) / fct.g
    # Largest entry: max |v_j| / |a|; a float division gives inf silently.
    if not np.isfinite(float(np.max(np.abs(v))) / abs(fct.spec.a)):
        raise GrowthOverflowError("the circulant inverse leaves the 64-bit range")
    return np.divide(v, fct.spec.a, v)
