"""Accuracy of circkr's solves and inverses, in units of kappa * eps.

Each case is one system (order n, diagonal c, off-diagonal a, variant).
Its figures are max-norm relative errors against a reference, divided by
kappa * eps, where kappa = max |lambda| / min |lambda| comes from the
closed-form eigenvalues c + 2a cos(2 pi k / n) (circulant) or
c + 2a cos(k pi / (n + 1)) (tridiagonal), and eps = 2**-52:

- ``solve``: three right-hand sides (standard normal, uniform in
  [0.5, 1), and the same with alternating signs), the worst of them;
- ``solve_many``: the same three as one block;
- ``inverse_first_row`` (circulant only) and ``inverse_dense``;
- ``solve_backward_eps``: the normwise backward error of ``solve``,
  max |b - A x| / (||A|| max |x| + max |b|), in units of eps.

References are exact up to n = 200 (the tridiagonal dense inverse up to
n = 64): banded solves in Python integers, the matrix scaled by a power of
two to integer entries and the corners added by Sherman-Morrison-Woodbury,
each result checked exactly and rounded once to a double.  Beyond that
they are ``circkr.oracle``'s spectral solves, at orders where n and
2(n + 1) have small prime factors; their own error is a small multiple of
eps per eigenvalue, well below the figures they check.  A case whose
factorization raises records the error's name instead of figures.

Two grids:

- ``strict``: ratios d = c / a from +-2.0001 to +-100, exact at n = 3 to
  200 (or the largest order that does not overflow), spectral up to
  n = 65535;
- ``permissive``: |d| <= 2 with kappa <= 1e6, among them the systems with a
  pivot f_i near zero (d = -2 cos(pi/7 + 1e-13) at n = 23).

Usage::

    python tools/accuracy.py [--grid strict|all] [--tree NAME=SRC ...] [--out FILE]

Each ``--tree`` imports circkr from another source directory, in turn, so
one run compares two checkouts case by case (default: this checkout's
``src``).  References are computed once, with the first tree's oracle.
``--out`` writes the figures as JSON.  The run exits 1 if any strict case
raises, or any of its error figures (any tree) is not finite or exceeds
STRICT_BOUND = 64 kappa * eps; ``tests/test_accuracy.py`` runs the strict
grid under the same check.  Only the standard library and numpy are used.
"""

import argparse
import importlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = 2.0**-52
EXACT_LIMIT = 200
# The tridiagonal dense inverse takes n exact solves: exact up to this order,
# spectral beyond (a circulant inverse is its exact first row, cycled).
EXACT_DENSE_LIMIT = 64
QUANTITIES = ("solve", "solve_many", "inverse_first_row", "inverse_dense", "solve_backward_eps")

# (d, orders): a = 1 unless the case says otherwise; orders past what the
# recurrence reaches at that ratio are cut to its largest safe order.
STRICT_EXACT = [2.0001, -2.0001, 2.05, -2.5, 4.0, -10.0, 100.0]
STRICT_EXACT_ORDERS = [3, 8, 23, 64, 200]
STRICT_SPECTRAL = [2.0001, -2.0001, 2.01, 2.05, -2.05, 2.5, 4.0]
STRICT_SPECTRAL_ORDERS = [511, 1023, 4095, 65535]
# inverse_dense beyond the exact range only up to this order (O(n^2) each).
DENSE_SPECTRAL_LIMIT = 1023
FIRST_ROW_SPECTRAL_LIMIT = 10_000
KAPPA_LIMIT = 1e6
# Strict error figures (all but solve_backward_eps) past this many kappa * eps fail.
STRICT_BOUND = 64.0


def _permissive_cases():
    bad = -2.0 * math.cos(math.pi / 7 + 1e-13)
    near = -2.0 * math.cos(math.pi / 7 + 1e-9)
    cases = [(23, bad, 1.0), (23, near, 1.0), (3001, bad, 1.0),
             (6, 1e-20, 1.0), (6, 1e-300, 1.0)]
    for d in (1.3, -0.3, 1.999, -1.5):
        cases += [(64, d, 1.0), (200, d, 1.0), (3001, d, 1.0), (65535, d, 1.0)]
    return cases


def grid(name, circkr):
    """Cases of one grid: (grid, n, c, a, strict), orders cut to the range."""
    cases = []
    if name in ("strict", "all"):
        for d in STRICT_EXACT:
            cases += [("strict", min(n, _max_safe_n(circkr, d)), d, 1.0, True)
                      for n in STRICT_EXACT_ORDERS]
        cases.append(("strict", 100, -2.5 * 0.75, 0.75, True))
        for d in STRICT_SPECTRAL:
            cases += [("strict", n, d, 1.0, True) for n in STRICT_SPECTRAL_ORDERS
                      if n <= _max_safe_n(circkr, d)]
    if name == "all":
        cases += [("permissive", n, d * a, a, False) for n, d, a in _permissive_cases()]
    # An order cut twice to the same value appears once.
    return list(dict.fromkeys(cases))


def _max_safe_n(circkr, d):
    try:
        circkr.decompose(circkr.SystemSpec(10**6, d, 1.0))
    except circkr.GrowthOverflowError as err:
        return err.max_safe_n
    return 10**6


def kappa(n, c, a, variant):
    k = np.arange(n) if variant == "circulant" else np.arange(1, n + 1)
    angles = 2.0 * np.pi * k / n if variant == "circulant" else np.pi * k / (n + 1)
    lam = np.abs(c + 2.0 * a * np.cos(angles))
    return float(lam.max() / lam.min())


def right_hand_sides(n):
    rng = np.random.default_rng(20260)
    normal = rng.standard_normal(n)
    positive = rng.uniform(0.5, 1.0, n)
    alternating = positive * (-1.0) ** np.arange(n)
    return np.column_stack((normal, positive, alternating))


# Exact references --------------------------------------------------------

def _exact_tridiagonal(c, a, n):
    """Integer form of T = tridiag(a, c, a): the scale s with C = c 2**s and
    A = a 2**s integers, and the leading minors theta_0 .. theta_n of 2**s T."""
    fc, fa = Fraction(c), Fraction(a)
    s = max(fc.denominator, fa.denominator).bit_length() - 1
    C, A = int(fc * 2**s), int(fa * 2**s)
    theta = [1, C]
    for _ in range(n - 1):
        theta.append(C * theta[-1] - A * A * theta[-2])
    return s, C, A, theta


def _exact_solve_scaled(T, B):
    """theta_n (2**s T)^-1 B for an integer column B, as integers.

    (2**s T)^-1 has entries (-A)**(j-i) theta_{i-1} theta_{n-j} / theta_n
    for i <= j (1-based), so theta_n x_i = theta_{n-i} P_i - A theta_{i-1}
    Q_{i+1}, with P and Q prefix and suffix sums weighted by powers of -A:
    no division at all.  The result is checked against B exactly.
    """
    _, C, A, theta = T
    n = len(theta) - 1
    P, Q = [0] * n, [0] * (n + 1)
    acc = 0
    for i in range(n):
        acc = -A * acc + theta[i] * B[i]
        P[i] = acc
    acc = 0
    for i in range(n - 1, -1, -1):
        acc = -A * acc + theta[n - 1 - i] * B[i]
        Q[i] = acc
    X = [theta[n - 1 - i] * P[i] - A * theta[i] * Q[i + 1] for i in range(n)]
    padded = [0] + X + [0]
    if any(C * padded[i + 1] + A * (padded[i] + padded[i + 2]) != theta[n] * B[i]
           for i in range(n)):
        raise ArithmeticError("the exact reference solve does not reproduce its right-hand side")
    return X


def exact_solve(n, c, a, variant, columns):
    """A^-1 b for each float column b, each entry rounded once to a double."""
    T = _exact_tridiagonal(c, a, n)
    s, _, A, theta = T
    cols = [[Fraction(float(v)) for v in col] for col in columns]
    t = max(v.denominator for col in cols for v in col).bit_length() - 1
    Y = [_exact_solve_scaled(T, [int(v * 2**t) for v in col]) for col in cols]
    den = theta[n]
    if variant == "circulant":
        # C = T + U V^T with U = A [e_1, e_n], V = [e_n, e_1] (scaled units):
        # x = y - A (alpha u + beta v), M (alpha, beta) = (y_n, y_1).
        u = _exact_solve_scaled(T, [1] + [0] * (n - 1))
        v = u[::-1]
        M = [[den + A * u[n - 1], A * v[n - 1]], [A * u[0], den + A * v[0]]]
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        results = []
        for y in Y:
            alpha = M[1][1] * y[n - 1] - M[0][1] * y[0]
            beta = M[0][0] * y[0] - M[1][0] * y[n - 1]
            results.append([y[i] * det - A * (u[i] * alpha + v[i] * beta) for i in range(n)])
        Y, den = results, den * det
    # int / int is correctly rounded, however long the operands.
    shift, den = max(s - t, 0), den << max(t - s, 0)
    return np.array([[(x << shift) / den for x in col] for col in Y]).T


# One tree's figures ------------------------------------------------------

def _relative(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _worst_column(x, ref):
    # np.max keeps a NaN, where Python's max can drop one.
    return float(np.max([_relative(x[:, k], ref[:, k]) for k in range(x.shape[1])]))


def references(case, oracle):
    """Reference solutions and inverses of one case, per variant."""
    _, n, c, a, strict = case
    spec = oracle.SystemSpec(n, c, a, strict=strict)
    b = right_hand_sides(n)
    refs = {}
    for variant in ("circulant", "tridiagonal"):
        ref = {"kappa": kappa(n, c, a, variant)}
        if n <= EXACT_LIMIT:
            ref["kind"] = "exact"
            # The circulant inverse is circulant: its first row will do.
            dense = variant == "tridiagonal" and n <= EXACT_DENSE_LIMIT
            cols = list(b.T) + list(np.eye(n)[: n if dense else 1])
            x = exact_solve(n, c, a, variant, cols)
            ref["solve"] = x[:, :3]
            if variant == "circulant":
                row = x[:, 3]
                ref["inverse_first_row"] = row
                ref["inverse_dense"] = np.array([np.roll(row, i) for i in range(n)])
            elif dense:
                ref["inverse_dense"] = x[:, 3:]
            else:
                ref["inverse_dense"] = oracle.spectral_solve(spec, np.eye(n), variant)
        else:
            ref["kind"] = "spectral"
            ref["solve"] = oracle.spectral_solve(spec, b, variant)
            if variant == "circulant" and n <= FIRST_ROW_SPECTRAL_LIMIT:
                row = oracle.spectral_inverse_first_row(spec)
                ref["inverse_first_row"] = row
                if n <= DENSE_SPECTRAL_LIMIT:
                    ref["inverse_dense"] = np.array([np.roll(row, i) for i in range(n)])
            elif variant == "tridiagonal" and n <= DENSE_SPECTRAL_LIMIT:
                ref["inverse_dense"] = oracle.spectral_solve(spec, np.eye(n), variant)
        refs[variant] = ref
    return refs


def figures(case, refs, circkr):
    """One tree's figures for one case, per variant."""
    _, n, c, a, strict = case
    spec = circkr.SystemSpec(n, c, a, strict=strict)
    b = right_hand_sides(n)
    out = {}
    for variant, factor in (("circulant", circkr.decompose),
                            ("tridiagonal", circkr.decompose_tridiagonal)):
        ref = refs[variant]
        unit = ref["kappa"] * EPS
        try:
            fct = factor(spec)
            xs = np.column_stack([circkr.solve(fct, col) for col in b.T])
            row = {
                "solve": _worst_column(xs, ref["solve"]) / unit,
                "solve_many": _worst_column(circkr.solve_many(fct, b), ref["solve"]) / unit,
                "solve_backward_eps": _backward(n, c, a, variant, xs, b) / EPS,
            }
            if "inverse_first_row" in ref:
                row["inverse_first_row"] = _relative(circkr.inverse_first_row(fct),
                                                     ref["inverse_first_row"]) / unit
            if "inverse_dense" in ref:
                row["inverse_dense"] = _relative(circkr.inverse_dense(fct),
                                                 ref["inverse_dense"]) / unit
        except circkr.CircKRError as err:
            row = {"error": type(err).__name__}
        out[variant] = row
    return out


def _backward(n, c, a, variant, x, b):
    left, right = np.roll(x, 1, axis=0), np.roll(x, -1, axis=0)
    if variant == "tridiagonal":
        left[0] = right[-1] = 0.0
    residual = c * x + a * (left + right) - b
    scale = (abs(c) + 2.0 * abs(a)) * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    return float(np.max(np.abs(residual).max(axis=0) / scale))


def load(src):
    """circkr imported from the source directory ``src``, replacing any other."""
    for name in [k for k in sys.modules if k == "circkr" or k.startswith("circkr.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("circkr")
    finally:
        sys.path.remove(str(src))


def measure(grid_name, trees):
    """Records of one grid: each case and variant with every tree's figures.

    ``trees`` holds (name, circkr module) pairs; the references come from
    the first module's oracle.
    """
    first = trees[0][1]
    cases = grid(grid_name, first)
    with np.errstate(all="ignore"):
        refs = [references(case, first) for case in cases]
        results = {name: [figures(case, ref, circkr) for case, ref in zip(cases, refs)]
                   for name, circkr in trees}
    records = []
    for k, ((grid_name, n, c, a, _), ref) in enumerate(zip(cases, refs)):
        for variant in ("circulant", "tridiagonal"):
            kap = ref[variant]["kappa"]
            if grid_name == "permissive" and kap > KAPPA_LIMIT:
                continue
            records.append({"grid": grid_name, "variant": variant, "n": n, "c": c, "a": a,
                            "kappa": kap, "reference": ref[variant]["kind"],
                            "figures": {name: results[name][k][variant] for name, _ in trees}})
    return records


def describe(record, name):
    """One line: the case and the figures of tree ``name``."""
    row = record["figures"][name]
    line = (f"{record['grid']:10s} {record['variant']:11s} n={record['n']:<6d} "
            f"d={record['c'] / record['a']:<22.17g} kappa={record['kappa']:<9.3g} {name:8s} ")
    return line + (row.get("error") or " ".join(f"{q}={v:.3g}" for q, v in row.items()))


def strict_failures(records):
    """Lines of the strict records where some tree raised, or has an error
    figure that is not finite or exceeds STRICT_BOUND kappa * eps."""
    return [describe(r, name) for r in records if r["grid"] == "strict"
            for name, row in r["figures"].items()
            if "error" in row or not all(math.isfinite(v) and v <= STRICT_BOUND
                                         for q, v in row.items() if q in QUANTITIES[:4])]


def _rank(value):
    # A NaN figure ranks worst, ahead of any number.
    return math.inf if math.isnan(value) else value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", choices=("strict", "all"), default="all")
    parser.add_argument("--tree", action="append", default=[],
                        help="NAME=SRC: a source directory holding circkr (repeatable)")
    parser.add_argument("--out", help="write the figures here as JSON")
    args = parser.parse_args(argv)
    sources = [t.split("=", 1) for t in args.tree] or [["this", Path(__file__).parents[1] / "src"]]
    start = time.perf_counter()
    trees = [(name, load(src)) for name, src in sources]
    records = measure(args.grid, trees)
    for record in records:
        for name, _ in trees:
            print(describe(record, name))
    elapsed = time.perf_counter() - start
    summary = {}
    for name, _ in trees:
        for grid_name in ("strict", "permissive"):
            rows = [r for r in records if r["grid"] == grid_name]
            worst = {}
            for q in QUANTITIES:
                value, r = max(((r["figures"][name].get(q, 0.0), r) for r in rows),
                               key=lambda pair: _rank(pair[0]), default=(0.0, None))
                if r is not None:
                    worst[q] = {"worst": value, "variant": r["variant"], "n": r["n"],
                                "c": r["c"], "a": r["a"]}
            if worst:
                summary.setdefault(name, {})[grid_name] = worst
    print(json.dumps(summary, indent=1))
    print(f"{len(records)} cases in {elapsed:.1f} s")
    if args.out:
        payload = {
            "grid": args.grid,
            "trees": [name for name, _ in trees],
            "numpy": np.__version__,
            "unit": "max-norm relative error / (kappa * eps); solve_backward_eps in eps",
            "seconds": round(elapsed, 1),
            "summary": summary,
            "cases": records,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    failures = strict_failures(records)
    if failures:
        print(f"{len(failures)} strict figures past {STRICT_BOUND:g} kappa * eps:", *failures,
              sep="\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
