"""Command line front end.

Five subcommands: decompose, solve, invert, check, bench.  All structured
failures exit nonzero with a machine-parsable first stderr line of the form
``ERROR <kind>: <detail>`` (InvalidSpec and usage problems exit 2, Overflow
3, singular pivots 4, DimensionMismatch 5, SizeGuard 6, which also
covers an order whose arrays do not fit in memory).  Success output is
the payload alone on stdout, or in the ``--out`` file when given; a
failing command leaves nothing there: every check runs before the file
is opened, and a failure after the first chunk truncates a regular file
back to empty (stdout and other files keep what was written).  Payloads
are formatted and written one chunk of rows at a time, so no more than
one chunk's text is held, and a reader that closes stdout early
(``| head``) ends the output quietly.  ``bench`` factors every order
first, times the solves round-robin across the orders, and writes its
table only once every order has run.  Setting the environment variable
``CIRCKR_STRICT=0`` selects permissive validation of the system
description.

Every right-hand-side file is read as an (n, k) block and solved with
``solve_many``; a single column, or a single line of n values, is one
right-hand side.  Every numeric payload is printed at ``--precision``
(>= 0) significant digits, -0.0 as 0: solutions space-separated, the
inverse and the dense factors comma-separated.  ``_rows`` formats each
value of an array.  The circulant inverse, dense or first row, is printed
from its palindromic first row by ``_circulant_rows``: its n // 2 + 1
distinct values are formatted once, and every row is those strings
rotated: the same bytes with no n x n array (the dense n = 2048 inverse
at 17 digits into a file peaks at 0.46 MB traced, where the array alone
is 32 MB).  The tridiagonal inverse is printed by ``_tridiagonal_text``,
one block of rows of ``inverse_dense``'s own writer at a time, with no
n x n array either.  The parser checks every numeric flag: ``--precision`` >= 0,
``--reps`` >= 1, and ``--sizes`` a comma-separated list of at least one
integer.  The parser is built once per process, on the first call of
``main``, and reused by every later call: each call parses into a fresh
namespace and reads ``CIRCKR_STRICT`` anew.
"""

import argparse
import contextlib
import functools
import itertools
import os
import re
import stat
import statistics
import sys
import time
import warnings

import numpy as np

from .decomposition import _reconstruct_rows, decompose, decompose_tridiagonal
from .errors import CircKRError, SizeGuardError, UsageError
from .factors import CIRCULANT, FACTOR_NAMES, _block_rows, _guard_dense, materialize
from .inverse import _tridiagonal_rows, inverse_first_row
from .oracle import spectral_inverse_first_row, spectral_solve
from .recurrence import SystemSpec
from .solver import solve, solve_many

CHECK_TOLERANCE = 1e-8


class _Parser(argparse.ArgumentParser):
    # Route argparse's own failures through the structured error channel.
    # A token such as -5e0, -2E0 or -inf is a value, not a flag: argparse's
    # own pattern takes only the -1 and -1.5 forms.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        raise UsageError(message)


def _rows(matrix, precision, sep):
    """Text of a 2-D payload: one line per row, each value as %.{precision}g.

    Yields one string of whole rows at a time, about 4096 values, so only
    one chunk's text and Python floats are held at once; a row longer than
    4096 values is a chunk of its own (each row of the tridiagonal
    inverse at n = 5000 is one).  Adding 0.0 prints -0.0 as 0.  It prints
    the solutions, the dense factors and the tridiagonal inverse; the
    circulant inverse goes through ``_circulant_rows``.
    """
    line = sep.join([f"%.{precision}g"] * matrix.shape[1])
    step = max(1, 4096 // matrix.shape[1])
    for i in range(0, len(matrix), step):
        block = matrix[i : i + step] + 0.0
        yield "\n".join([line] * len(block)) % tuple(block.ravel().tolist())


def _circulant_rows(v, rows, precision):
    """Text of the first ``rows`` rows of the symmetric circulant matrix
    whose first row is ``v``, byte for byte what ``_rows`` prints for them.

    ``v`` must be exactly palindromic (v_j = v_{n-j}), as
    ``inverse_first_row`` returns it.  Its distinct values v_0 .. v_{n//2}
    are formatted once, through one ``%`` on a joined format string, and
    mirrored into the tokens of the whole row, the mirrored half sharing
    the same strings.  Row i is v rolled right by i, so its text is the
    tokens rotated by i, joined.  Chunks hold whole rows, about 4096
    values, as in ``_rows``.  No %g token contains the separator.
    """
    n, sep = len(v), ", "
    half = v[: n // 2 + 1] + 0.0
    tokens = (sep.join([f"%.{precision}g"] * len(half)) % tuple(half.tolist())).split(sep)
    tokens += tokens[(n - 1) // 2 : 0 : -1]
    step = max(1, 4096 // n)
    for lo in range(0, rows, step):
        chunk = "\n".join(
            [sep.join(tokens[n - i :] + tokens[: n - i]) for i in range(lo, min(rows, lo + step))]
        )
        if lo + step >= rows:
            del tokens  # a first row's peak holds its text, not also n token strings
        yield chunk


def _exact(value):
    # Shortest decimal string that round-trips; used for factor-report scalars.
    return repr(float(value))


def _factorize(ns):
    strict = os.environ.get("CIRCKR_STRICT", "1") != "0"
    spec = SystemSpec(n=ns.n, c=ns.c, a=ns.a, strict=strict)
    build = decompose if ns.variant == CIRCULANT else decompose_tridiagonal
    return spec, build(spec)


def _emit(ns, lines):
    """Write each of ``lines`` (a line, or a chunk of rows) and a newline.

    ``lines`` may be lazy, so a failure can come after the first chunk.  An
    ``--out`` regular file is then truncated back to empty before the
    exception goes on; stdout and other files (``/dev/null``, a FIFO) keep
    what was written.
    """
    chunks = (line + "\n" for line in lines)
    if getattr(ns, "out", None):
        regular = False
        try:
            with open(ns.out, "w", encoding="utf-8") as handle:
                regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
                handle.writelines(chunks)
        except BaseException as exc:
            if regular:
                with contextlib.suppress(OSError):
                    os.truncate(ns.out, 0)
            if isinstance(exc, OSError):
                raise UsageError(f"cannot write {ns.out}: {exc}") from None
            raise
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; the interpreter's own flush at exit must not
        # fail again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _read_rhs(path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as err:
        raise UsageError(f"cannot read right-hand side file {path}: {err}") from None
    except ValueError as err:
        raise UsageError(f"cannot parse right-hand side file {path}: {err}") from None
    # One column, or one line of n values, is a single right-hand side.
    return data[:, None] if data.ndim == 1 else data


def _dense_factors(fct, precision):
    # Each factor is built only when its first line is due, and dropped
    # once its last chunk is written.
    for name in FACTOR_NAMES:
        if fct.variant != CIRCULANT and name.startswith("R"):
            continue  # the tridiagonal variant has R = I
        yield f"{name} ="
        yield from _rows(materialize(fct, name), precision, ", ")


def cmd_decompose(ns):
    spec, fct = _factorize(ns)
    if ns.dense:
        _guard_dense(spec.n)  # fail before the first report line is written
    lines = [
        f"order n = {spec.n}",
        f"c = {_exact(spec.c)}",
        f"a = {_exact(spec.a)}",
        f"d = {_exact(spec.d)}",
        f"variant = {fct.variant}",
        "f = " + ", ".join(_exact(v) for v in fct.f),
    ]
    if fct.variant == CIRCULANT:
        lines.append("r = " + ", ".join(_exact(v) for v in fct.r))
        lines.append(f"g = {_exact(fct.g)}")
        lines.append(f"scaled g (×a) = {_exact(spec.a * fct.g)}")
    dense = _dense_factors(fct, ns.precision) if ns.dense else ()
    _emit(ns, itertools.chain(lines, dense))
    return 0


def cmd_solve(ns):
    _, fct = _factorize(ns)
    _emit(ns, _rows(solve_many(fct, _read_rhs(ns.rhs)), ns.precision, " "))
    return 0


def cmd_invert(ns):
    spec, fct = _factorize(ns)
    if ns.mode == "first-row":  # VariantMismatch for the tridiagonal variant
        text = _circulant_rows(inverse_first_row(fct), 1, ns.precision)
    else:
        _guard_dense(spec.n)  # SizeGuard before Overflow, as in inverse_dense
        if fct.variant == CIRCULANT:
            text = _circulant_rows(inverse_first_row(fct), spec.n, ns.precision)
        else:
            text = _tridiagonal_text(fct, ns.precision)
    _emit(ns, text)
    return 0


def _tridiagonal_text(fct, precision):
    """Text of the tridiagonal inverse, byte for byte ``_rows`` of
    ``inverse_dense(fct)``, with no n x n array.

    ``inverse_dense``'s own block writer fills one scratch block of rows at
    a time and ``_rows`` prints it before the next is written.  The writer
    is made here, so GrowthOverflowError comes before the first byte.
    """
    n = fct.spec.n
    rows = _block_rows(n)
    write = _tridiagonal_rows(fct, rows)
    block = np.empty((rows, n))
    return itertools.chain.from_iterable(
        _rows(write(lo, block[: n - lo]), precision, ", ") for lo in range(0, n, rows)
    )


def _relative_gap(ours, reference):
    # Overwrites the fresh ``ours``; the floor guards only an all-zero reference.
    peak = max(reference.max(), -reference.min(), np.finfo(float).smallest_subnormal)
    ours -= reference
    return np.abs(ours, ours).max() / peak


def _identity_residual(fct):
    """max |X A - I| for X the tridiagonal inverse, in O(n^2) with no n x n
    array.

    X is written one block of rows at a time by ``inverse_dense``'s own
    block writer, into one scratch block.  Row i of X A is row i of X
    convolved with A's stencil (a, c, a), so each row is overwritten in
    place, 1 is subtracted at (i, i), and the block's largest magnitude is
    kept.  Every entry is made by the same operations as on the whole
    inverse, so the value is bit for bit the whole inverse's.
    """
    n, a = fct.spec.n, fct.spec.a
    stencil = np.array([a, fct.spec.c, a])
    rows = _block_rows(n)
    write = _tridiagonal_rows(fct, rows)
    block = np.empty((rows, n))
    residual = 0.0
    for lo in range(0, n, rows):
        x = write(lo, block[: n - lo])
        for i, row in enumerate(x, lo):
            row[:] = np.convolve(row, stencil, "same")
            row[i] -= 1.0
        # np.maximum, not max: a NaN in any block must reach the result.
        residual = np.maximum(residual, np.abs(x, x).max())
    return residual


def _reconstruction_gap(fct):
    """_relative_gap(reconstruct(fct), build_dense(spec, variant)), bit for
    bit, in O(n^2) with no n x n array.

    ``reconstruct``'s row-block kernel writes one block of columns of the
    rebuilt matrix at a time into one scratch block.  The entries
    build_dense writes (diagonal c, off-diagonals a, and for the circulant
    the two corners a) are subtracted in place; the dense matrix is
    symmetric, so column i takes the same values as row i.  Every other
    entry x - 0 is x itself, and the dense matrix's largest magnitude is
    max(|c|, |a|), never 0 since a is not.
    """
    n, c, a = fct.spec.n, fct.spec.c, fct.spec.a
    rows = _block_rows(n)
    block = np.empty((rows, n))
    gap = 0.0
    for lo in range(0, n, rows):
        ours = _reconstruct_rows(fct, lo, block[: n - lo])
        # Row k of ours is column lo + k of the rebuilt matrix, and its
        # entry in row lo + k sits at lo + k (n + 1) of the flattened block,
        # so each diagonal is one strided slice.
        flat = ours.reshape(-1)
        flat[lo :: n + 1] -= c
        flat[lo + 1 :: n + 1] -= a
        flat[lo - 1 if lo else n :: n + 1] -= a
        if fct.variant == CIRCULANT:
            if lo == 0:
                ours[0, n - 1] -= a
            if lo + len(ours) == n:
                ours[-1, 0] -= a
        gap = np.maximum(gap, np.abs(ours, ours).max())
    return gap / max(abs(c), abs(a))


def cmd_check(ns):
    spec, fct = _factorize(ns)
    _guard_dense(spec.n)  # the verification kernels keep the dense order cap
    recon = _reconstruction_gap(fct)

    rng = np.random.default_rng(12345)
    block = rng.standard_normal((spec.n, 3))
    solve_res = _relative_gap(solve_many(fct, block), spectral_solve(spec, block, ns.variant))

    if ns.variant == CIRCULANT:
        inv_res = _relative_gap(inverse_first_row(fct), spectral_inverse_first_row(spec))
        inv_label = "inverse first row vs spectral oracle"
    else:
        # The identity's peak is 1, so the plain residual is its relative gap.
        inv_res = _identity_residual(fct)
        inv_label = "inverse residual vs identity"

    lines = [
        f"system: n = {spec.n}, c = {_exact(spec.c)}, a = {_exact(spec.a)}, "
        f"d = {_exact(spec.d)}, variant = {ns.variant}",
        f"reconstruction residual = {recon:.3e}",
        f"solve residual vs spectral oracle = {solve_res:.3e}",
        f"{inv_label} = {inv_res:.3e}",
    ]
    ok = max(recon, solve_res, inv_res) <= CHECK_TOLERANCE
    lines.append(
        f"verdict: {'all residuals within' if ok else 'residuals exceed'} "
        f"{CHECK_TOLERANCE:.0e}"
    )
    _emit(ns, lines)
    return 0 if ok else 1


def cmd_bench(ns):
    lines = [
        f"benchmark: structured solve, d = {_exact(ns.d)}, "
        f"median of {ns.reps} repetitions",
        f"{'n':>8} {'factor_s':>12} {'solve_s':>12} {'ns_per_unknown':>16}",
    ]
    systems, factor_s = [], []
    for n in ns.sizes:
        t0 = time.perf_counter()
        _, fct = _factorize(argparse.Namespace(n=n, c=ns.d, a=1.0, variant=CIRCULANT))
        factor_s.append(time.perf_counter() - t0)
        systems.append((fct, np.random.default_rng(0).standard_normal(n)))
    # Round-robin over the orders, so a slow stretch of the host slows
    # every order's repetitions alike instead of a few orders' medians.
    # An untimed solve first brings the order's arrays back into cache.
    times = [[] for _ in systems]
    for _ in range(ns.reps):
        for (fct, rhs), samples in zip(systems, times):
            solve(fct, rhs)
            t0 = time.perf_counter()
            solve(fct, rhs)
            samples.append(time.perf_counter() - t0)
    medians = [max(statistics.median(samples), 1e-9) for samples in times]
    for n, factor, median in zip(ns.sizes, factor_s, medians):
        lines.append(f"{n:>8d} {factor:>12.6f} {median:>12.6f} {median / n * 1e9:>16.1f}")
    if len(set(ns.sizes)) > 1:  # a slope needs two distinct orders
        slope = float(np.polyfit(np.log(ns.sizes), np.log(medians), 1)[0])
        lines.append(f"log-log slope (solve time vs n) = {slope:.3f}")
    _emit(ns, lines)
    return 0


def _at_least(low):
    # argparse type: an int >= low.  The messages follow argparse's own.
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _sizes(text):
    # argparse type: a comma-separated list of at least one order.
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("must name at least one order")
    return sizes


def _add_system_arguments(parser, payload=True):
    parser.add_argument("--n", type=int, required=True, help="matrix order (>= 3)")
    parser.add_argument("--c", type=float, required=True, help="diagonal value")
    parser.add_argument("--a", type=float, required=True, help="off-diagonal value")
    parser.add_argument(
        "--variant",
        choices=("circulant", "tridiagonal"),
        default="circulant",
        help="matrix family (default circulant)",
    )
    if payload:
        parser.add_argument(
            "--precision",
            type=_at_least(0),
            default=6,
            help="significant digits (>= 0) for payload scalars (default 6)",
        )
        parser.add_argument("--out", default=None, help="write output here instead of stdout")


@functools.cache
def _build_parser():
    # Built on first use and kept for the process: parse_args reads the
    # tree and writes only to the fresh Namespace it returns.
    parser = _Parser(
        prog="circkr",
        description="factor, solve, and invert symmetric circulant tridiagonal systems",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("decompose", help="write a factor report")
    _add_system_arguments(p)
    p.add_argument("--dense", action="store_true", help="append each factor as CSV")
    p.set_defaults(func=cmd_decompose)

    p = commands.add_parser("solve", help="solve against a right-hand side file")
    _add_system_arguments(p)
    p.add_argument("--rhs", required=True, help="file with one scalar per line, or columns")
    p.set_defaults(func=cmd_solve)

    p = commands.add_parser("invert", help="write the inverse (dense or first row)")
    _add_system_arguments(p)
    p.add_argument("--mode", choices=("dense", "first-row"), default="dense")
    p.set_defaults(func=cmd_invert)

    p = commands.add_parser("check", help="print residual diagnostics")
    _add_system_arguments(p, payload=False)
    p.set_defaults(func=cmd_check)

    p = commands.add_parser("bench", help="time the structured solve across orders")
    p.add_argument("--sizes", type=_sizes, default="4096,8192,16384,32768,65536",
                   help="comma-separated orders")
    p.add_argument("--d", type=float, default=2.0001,
                   help="normalized ratio, slow growth by default")
    p.add_argument("--reps", type=_at_least(1), default=10, help="repetitions per order")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        try:
            return ns.func(ns)
        except MemoryError as err:
            # An order too large to hold is SizeGuard's case, whichever array fails.
            order = f"order n = {ns.n}" if hasattr(ns, "n") else f"one of the orders {ns.sizes}"
            raise SizeGuardError(f"{order} does not fit in memory: {err}") from None
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except CircKRError as err:
        sys.stderr.write(f"ERROR {err.kind}: {err.detail}\n")
        return err.exit_code


def entry():
    sys.exit(main())
