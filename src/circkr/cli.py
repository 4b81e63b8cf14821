"""Command line front end.

Five subcommands: decompose, solve, invert, check, bench.  All structured
failures exit nonzero with a machine-parsable first stderr line of the form
``ERROR <kind>: <detail>`` (InvalidSpec and usage problems exit 2, Overflow
3, singular pivots 4, DimensionMismatch 5, SizeGuard 6).  Success output is
the payload alone on stdout, or in the ``--out`` file when given.  Setting
the environment variable ``CIRCKR_STRICT=0`` selects permissive validation
of the system description.
"""

import argparse
import os
import statistics
import sys
import time
import warnings

import numpy as np

from .decomposition import decompose, decompose_tridiagonal, reconstruct
from .errors import CircKRError, UsageError
from .factors import CIRCULANT, FACTOR_NAMES, materialize
from .inverse import inverse_dense, inverse_first_row
from .oracle import build_dense, dense_solve, spectral_inverse_first_row
from .recurrence import SystemSpec
from .solver import solve, solve_many

CHECK_TOLERANCE = 1e-8


class _Parser(argparse.ArgumentParser):
    # Route argparse's own failures through the structured error channel.
    def error(self, message):
        raise UsageError(message)


def _fmt(value, precision):
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.{precision}g}"


def _exact(value):
    # Shortest decimal string that round-trips; used for factor-report scalars.
    return repr(float(value))


def _csv_rows(matrix, precision):
    return [", ".join(_fmt(v, precision) for v in row) for row in matrix]


def _factorize(ns):
    strict = os.environ.get("CIRCKR_STRICT", "1") != "0"
    spec = SystemSpec(n=ns.n, c=ns.c, a=ns.a, strict=strict)
    build = decompose if ns.variant == CIRCULANT else decompose_tridiagonal
    return spec, build(spec)


def _emit(ns, lines):
    text = "\n".join(lines) + "\n"
    if getattr(ns, "out", None):
        try:
            with open(ns.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {ns.out}: {err}") from None
    else:
        sys.stdout.write(text)


def _read_rhs(path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as err:
        raise UsageError(f"cannot read right-hand side file {path}: {err}") from None
    except ValueError as err:
        raise UsageError(f"cannot parse right-hand side file {path}: {err}") from None
    return data


def cmd_decompose(ns):
    spec, fct = _factorize(ns)
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
    if ns.dense:
        for name in FACTOR_NAMES:
            if fct.variant != CIRCULANT and name.startswith("R"):
                continue  # the tridiagonal variant has R = I
            lines.append(f"{name} =")
            lines.extend(_csv_rows(materialize(fct, name), ns.precision))
    _emit(ns, lines)
    return 0


def cmd_solve(ns):
    _, fct = _factorize(ns)
    rhs = _read_rhs(ns.rhs)
    if rhs.ndim == 1:
        x = solve(fct, rhs)
        lines = [_fmt(v, ns.precision) for v in x]
    else:
        x = solve_many(fct, rhs)
        lines = [" ".join(_fmt(v, ns.precision) for v in row) for row in x]
    _emit(ns, lines)
    return 0


def cmd_invert(ns):
    _, fct = _factorize(ns)
    rows = inverse_first_row(fct)[None] if ns.mode == "first-row" else inverse_dense(fct)
    _emit(ns, _csv_rows(rows, ns.precision))
    return 0


def cmd_check(ns):
    spec, fct = _factorize(ns)
    dense = build_dense(spec, variant=ns.variant)
    scale = np.abs(dense).max()

    recon = np.abs(reconstruct(fct) - dense).max() / scale

    rng = np.random.default_rng(12345)
    block = rng.standard_normal((spec.n, 3))
    ours = solve_many(fct, block)
    reference = dense_solve(dense, block)
    solve_res = np.abs(ours - reference).max() / max(np.abs(reference).max(), 1e-300)

    if ns.variant == CIRCULANT:
        row = inverse_first_row(fct)
        spectral = spectral_inverse_first_row(spec)
        inv_res = np.abs(row - spectral).max() / np.abs(spectral).max()
        inv_label = "inverse first row vs spectral oracle"
    else:
        product = inverse_dense(fct) @ dense
        inv_res = np.abs(product - np.eye(spec.n)).max()
        inv_label = "inverse residual vs identity"

    lines = [
        f"system: n = {spec.n}, c = {_exact(spec.c)}, a = {_exact(spec.a)}, "
        f"d = {_exact(spec.d)}, variant = {ns.variant}",
        f"reconstruction residual = {recon:.3e}",
        f"solve residual vs dense oracle = {solve_res:.3e}",
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
    try:
        sizes = [int(part) for part in ns.sizes.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --sizes {ns.sizes!r}") from None
    if not sizes:
        raise UsageError("--sizes must name at least one order")
    if ns.reps < 1:
        raise UsageError("--reps must be at least 1")
    print(f"benchmark: structured solve, d = {_exact(ns.d)}, "
          f"median of {ns.reps} repetitions")
    print(f"{'n':>8} {'factor_s':>12} {'solve_s':>12} {'ns_per_unknown':>16}")
    medians = []
    for n in sizes:
        t0 = time.perf_counter()
        _, fct = _factorize(argparse.Namespace(n=n, c=ns.d, a=1.0, variant=CIRCULANT))
        factor_s = time.perf_counter() - t0
        rhs = np.random.default_rng(0).standard_normal(n)
        times = []
        for _ in range(ns.reps):
            t0 = time.perf_counter()
            solve(fct, rhs)
            times.append(time.perf_counter() - t0)
        median = max(statistics.median(times), 1e-9)
        medians.append(median)
        print(f"{n:>8d} {factor_s:>12.6f} {median:>12.6f} {median / n * 1e9:>16.1f}")
    if len(sizes) > 1:
        slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
        print(f"log-log slope (solve time vs n) = {slope:.3f}")
    return 0


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
            type=int,
            default=6,
            help="significant digits for payload scalars (default 6)",
        )
        parser.add_argument("--out", default=None, help="write output here instead of stdout")


def _build_parser():
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
    p.add_argument("--sizes", default="4096,8192,16384,32768,65536",
                   help="comma-separated orders")
    p.add_argument("--d", type=float, default=2.0001,
                   help="normalized ratio, slow growth by default")
    p.add_argument("--reps", type=int, default=10, help="repetitions per order")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        # The library raises on any non-finite result, so a float warning
        # would only push the ERROR line off the top of stderr.
        with np.errstate(all="ignore"):
            return ns.func(ns)
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except CircKRError as err:
        sys.stderr.write(f"ERROR {err.kind}: {err.detail}\n")
        return err.exit_code


def entry():
    sys.exit(main())
