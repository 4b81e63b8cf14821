"""The four benchmark workloads.

Each workload turns a seed into a fixed pool of ``inputs`` inputs
(``setup``), hands out one op at a time by cycling that pool
(``prepare``), runs the op through circkr's public functions only (``run``,
the timed part) and checks its result (``verify``, untimed).  In a
traced run ``run`` wraps each public call in a span, and ``verify`` also
times the proxies that run beside the op.  README.md says why each workload
exists and which layers it stresses.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from checks import (
    CHECK_BOUND,
    CheckFailed,
    check_inverse,
    check_same_factorization,
    check_solve,
    fft_solve,
)
from circkr import (
    CIRCULANT,
    TRIDIAGONAL,
    Factorization,
    SystemSpec,
    apply_k,
    apply_r,
    build_dense,
    compute_g,
    decompose,
    decompose_tridiagonal,
    dense_solve,
    generate_f,
    generate_r,
    inverse_dense,
    inverse_first_row,
    reconstruct,
    solve,
    solve_many,
    spectral_inverse_first_row,
)
from circkr.cli import main as cli_main
from circkr.factors import a1_inverse_last_row
from tracing import timed


@dataclass
class Op:
    """One op's input: what it solves, and how many unknowns that counts as."""

    kind: str
    unknowns: int
    spec: SystemSpec
    variant: str
    data: object


def library_factorization(spec, variant):
    return decompose(spec) if variant == CIRCULANT else decompose_tridiagonal(spec)


def factorize(spec, variant, tracer):
    """The op's factorization; a traced run composes it from decompose's public stages."""
    if tracer is None:
        return library_factorization(spec, variant)
    with tracer.span("decomposition.decompose"):
        f = timed(tracer, "recurrence.generate_f", generate_f, spec, spec.n + 1, steps=spec.n)
        r, g = np.empty(0), None
        if variant == CIRCULANT:
            r = timed(tracer, "recurrence.generate_r", generate_r, f, spec.n)
            g = timed(tracer, "recurrence.compute_g", compute_g, f, r, spec.n)
        return timed(tracer, "factors.factorization", Factorization, spec, f, r, g, variant)


def solve_bytes(n, columns, circulant):
    """Bytes a solve must touch: right-hand sides, solutions and the factor arrays f and r."""
    return 8 * (2 * n * columns + n + 2 + (n - 1 if circulant else 0))


def inverse_bytes(n, circulant):
    """Bytes inverse_dense must touch: the n x n output and the factor arrays."""
    return 8 * (n * n + n + 2 + (n - 1 if circulant else 0))


def stratified_log_uniform(rng, lo, hi, count):
    """``count`` log-uniform integers in [lo, hi], one per equal-probability stratum.

    Stratifying keeps the size distribution, and so the timing percentiles,
    the same from seed to seed; the seed picks the values and their order.
    """
    u = (np.arange(count) + rng.random(count)) / count
    return rng.permutation(np.rint(lo * (hi / lo) ** u).astype(int))


@dataclass
class Ring:
    """One periodic heat equation: its factored system and its current state."""

    fct: Factorization
    u: np.ndarray
    source: np.ndarray


class Stepping:
    """Backward-Euler steps of periodic heat equations: factor once, solve many.

    Sixteen rings whose orders grow geometrically from 4096 to 65536 are each
    factored once in set-up; each op is one solve on the next ring of a seeded
    cycle.  A spread of orders keeps op_ms.p50 away from the gap between
    machine speed states that a single fixed-cost op would straddle.
    """

    name = "stepping"
    R = 1e4  # diffusion number; d = -(1 + 2R) / R = -2.0001
    RINGS = 16
    inputs = RINGS  # op i steps ring cycle[i % RINGS]

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        lo, hi = (64, 512) if smoke else (4096, 65536)
        self.sizes = np.rint(lo * (hi / lo) ** (np.arange(self.RINGS) / (self.RINGS - 1)))
        self.sizes = self.sizes.astype(int).tolist()

    def orders(self):
        return [(max(self.sizes), -(1.0 + 2.0 * self.R) / self.R)]

    def setup(self, tracer=None):
        rng = np.random.default_rng(self.seed)
        self.rings = []
        for n in self.sizes:
            spec = SystemSpec(n, 1.0 + 2.0 * self.R, -self.R)
            theta = 2.0 * np.pi * np.arange(n) / n
            u = sum(rng.normal() * np.cos(h * theta + rng.uniform(0.0, 2.0 * np.pi))
                    for h in range(1, 5))
            source = rng.standard_normal(n)
            source -= source.mean()  # zero mean keeps the state bounded
            fct = factorize(spec, CIRCULANT, tracer)
            if tracer is not None:
                check_same_factorization(fct, decompose(spec))
            self.rings.append(Ring(fct, u, source))
        self.cycle = rng.permutation(self.RINGS)

    def _op(self, ring):
        return Op("solve", ring.fct.n, ring.fct.spec, CIRCULANT, (ring, ring.u + ring.source))

    def prepare(self, i):
        return self._op(self.rings[self.cycle[i % self.RINGS]])

    def run(self, op, tracer):
        ring, b = op.data
        return timed(tracer, "solver.solve", solve, ring.fct, b,
                     unknowns=op.unknowns, bytes=solve_bytes(op.unknowns, 1, True))

    def verify(self, op, x, tracer):
        (ring, b), c, a = op.data, op.spec.c, op.spec.a
        if tracer is not None:
            y = timed(tracer, "factors.apply_k", apply_k, ring.fct, b / a)
            timed(tracer, "factors.apply_r", apply_r, ring.fct, y)
        reference = timed(tracer, "baseline.fft_solve", fft_solve, c, a, b)
        err = check_solve(c, a, b, x, True, reference)
        ring.u = x  # the checked solution is the ring's next state
        return err

    def peak_kinds(self):
        n = max(self.sizes)
        return [(f"solve n={n}", self._op(self.rings[self.sizes.index(n)]),
                 solve_bytes(n, 1, True))]


class CurveFit:
    """Periodic (and every 4th op, open) cubic-spline fits: factor per op, small n."""

    name = "curve_fit"
    POOL = 512
    inputs = POOL
    D = 4.0
    # (closed, k) for 8 ops: every 4th op is open, and half the ops have k = 3.
    GROUP = ((1, 2), (1, 2), (1, 2), (1, 3), (1, 3), (1, 3), (0, 2), (0, 3))

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.lo, self.hi = (16, 64) if smoke else (16, 512)

    def orders(self):
        return [(self.hi, self.D)]

    def setup(self, tracer=None):
        rng = np.random.default_rng(self.seed)
        sizes = np.sort(stratified_log_uniform(rng, self.lo, self.hi, self.POOL))
        curves = {True: [], False: []}
        for group in sizes.reshape(-1, len(self.GROUP)):
            # Each group of 8 neighbouring strata holds every (closed, k)
            # pair in the same proportion, so the seed cannot tie the open
            # curves or the third column to the large orders.
            for n, (closed, k) in zip(group, rng.permutation(self.GROUP)):
                curves[bool(closed)].append(self._curve(rng, int(n), int(k), bool(closed)))
        closed, open_ = (rng.permutation(curves[kind]).tolist() for kind in (True, False))
        self.pool = [open_.pop() if i % 4 == 3 else closed.pop() for i in range(self.POOL)]

    def _curve(self, rng, n, k, closed):
        # Knots of a smooth random curve; the spline moments M solve
        # M_{i-1} + 4 M_i + M_{i+1} = 6 (P_{i+1} - 2 P_i + P_{i-1}).
        m = n if closed else n + 2
        t = np.arange(m) * (2.0 * np.pi / n if closed else np.pi / (m - 1))
        points = np.ones((m, k))
        for h in range(1, 4):
            cos_sin = rng.normal(size=(2, k)) / h
            points += np.outer(np.cos(h * t), cos_sin[0]) + np.outer(np.sin(h * t), cos_sin[1])
        if closed:
            rhs = 6.0 * (np.roll(points, -1, axis=0) - 2.0 * points + np.roll(points, 1, axis=0))
        else:
            rhs = 6.0 * (points[2:] - 2.0 * points[1:-1] + points[:-2])
        variant = CIRCULANT if closed else TRIDIAGONAL
        return Op("closed" if closed else "open", n * k, SystemSpec(n, self.D, 1.0), variant, rhs)

    def prepare(self, i):
        return self.pool[i % self.POOL]

    def run(self, op, tracer):
        fct = factorize(op.spec, op.variant, tracer)
        k = op.data.shape[1]
        return fct, timed(tracer, "solver.solve_many", solve_many, fct, op.data,
                          unknowns=op.unknowns, columns=k,
                          bytes=solve_bytes(op.spec.n, k, op.variant == CIRCULANT))

    def verify(self, op, out, tracer):
        fct, moments = out
        if tracer is not None:
            check_same_factorization(fct, library_factorization(op.spec, op.variant))
        closed = op.variant == CIRCULANT
        reference = None
        if closed:
            reference = timed(tracer, "baseline.fft_solve", fft_solve, op.spec.c, op.spec.a, op.data)
        return check_solve(op.spec.c, op.spec.a, op.data, moments, closed, reference)

    def peak_kinds(self):
        rng = np.random.default_rng(self.seed)
        return [(f"{kind} n={self.hi} k=3", self._curve(rng, self.hi, 3, closed=kind == "closed"),
                 solve_bytes(self.hi, 3, kind == "closed"))
                for kind in ("closed", "open")]


class DenseInverse:
    """decompose + inverse_dense; 3 of every 4 ops in L3, 1 beyond it."""

    name = "dense_inverse"
    POOL = 8
    inputs = POOL
    RATIOS = (2.01, 2.05)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.small, self.large = (32, 64) if smoke else (1024, 2048)

    def orders(self):
        return [(self.large, d) for d in self.RATIOS]

    def setup(self, tracer=None):
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for block in range(self.POOL // 4):
            # Each block of 4 has one large op; across two blocks each size
            # has as many circulant as tridiagonal ops.
            big = (CIRCULANT, TRIDIAGONAL)[block % 2]
            other = TRIDIAGONAL if big == CIRCULANT else CIRCULANT
            slots = [(self.large, big), (self.small, big), (self.small, other), (self.small, other)]
            for j in rng.permutation(4):
                n, variant = slots[j]
                a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
                self.pool.append(self._op(n, variant, rng.choice(self.RATIOS) * a, a))

    @staticmethod
    def _op(n, variant, c, a):
        return Op(variant, n * n, SystemSpec(n, c, a), variant, None)

    def prepare(self, i):
        return self.pool[i % self.POOL]

    def run(self, op, tracer):
        fct = factorize(op.spec, op.variant, tracer)
        n = op.spec.n
        return fct, timed(tracer, "inverse.inverse_dense", inverse_dense, fct,
                          entries=n * n, bytes=inverse_bytes(n, op.variant == CIRCULANT))

    def verify(self, op, out, tracer):
        fct, inverse = out
        circulant = op.variant == CIRCULANT
        if tracer is not None:
            check_same_factorization(fct, library_factorization(op.spec, op.variant))
            if circulant:
                timed(tracer, "factors.a1_inverse_last_row", a1_inverse_last_row, fct)
                timed(tracer, "inverse.first_row", inverse_first_row, fct)
        check_inverse(op.spec.c, op.spec.a, inverse, circulant)

    def peak_kinds(self):
        return [(f"{variant} n={n}", self._op(n, variant, 2.01, 1.0),
                 inverse_bytes(n, variant == CIRCULANT))
                for n in (self.small, self.large) for variant in (CIRCULANT, TRIDIAGONAL)]


def call_cli(argv):
    """circkr.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _floats(text, sep=None):
    return np.array([float(v) for v in text.split(sep)])


class Cli:
    """In-process CLI calls: 30% decompose, 40% solve, 15% invert, 15% check."""

    name = "cli"
    BLOCK = (("decompose",) * 6 + ("solve",) * 8 + ("invert",) * 3 + ("check",) * 3)
    POOL_BLOCKS = 2
    RHS_FILES = 4
    REPORT_RATIOS = (2.5, 4.0)
    LONG_RATIO = 2.01
    UNKNOWNS = {"decompose": 0, "solve": 1, "invert": 1, "check": 3}  # times n

    inputs = POOL_BLOCKS * len(BLOCK)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.workdir = workdir
        self.short, self.long = (16, 64) if smoke else (256, 4096)

    def orders(self):
        return [(self.short, d) for d in self.REPORT_RATIOS] + [(self.long, self.LONG_RATIO)]

    def setup(self, tracer=None):
        rng = np.random.default_rng(self.seed)
        self.rhs = []
        for j in range(self.RHS_FILES):
            b = rng.standard_normal(self.long)
            path = self.workdir / f"rhs{j}.txt"
            path.write_text("\n".join(map(repr, b.tolist())) + "\n", encoding="utf-8")
            self.rhs.append((str(path), b))
        self.pool = []
        for _ in range(self.POOL_BLOCKS):
            # Within a block, decompose and solve alternate the two variants.
            block = [(kind, (CIRCULANT, TRIDIAGONAL)[i % 2] if kind in ("decompose", "solve")
                      else CIRCULANT) for i, kind in enumerate(self.BLOCK)]
            for j in rng.permutation(len(block)):
                self.pool.append(self._op(rng, *block[j]))

    def _op(self, rng, kind, variant):
        short = kind in ("decompose", "check")
        n = self.short if short else self.long
        ratio = rng.choice(self.REPORT_RATIOS) if short else self.LONG_RATIO
        a = float(rng.uniform(0.5, 2.0))
        spec = SystemSpec(n, ratio * a, a)
        out = str(self.workdir / f"{kind}.out")
        argv = [kind, f"--n={n}", f"--c={spec.c!r}", f"--a={spec.a!r}", f"--variant={variant}"]
        data = {"argv": argv, "out": out, "rhs": None}
        if kind == "solve":
            path, data["rhs"] = self.rhs[int(rng.integers(self.RHS_FILES))]
            argv.append(f"--rhs={path}")
        elif kind == "invert":
            argv.append("--mode=first-row")
        if kind != "check":
            argv += ["--precision=17", f"--out={out}"]
        return Op(kind, self.UNKNOWNS[kind] * n, spec, variant, data)

    def prepare(self, i):
        return self.pool[i % self.inputs]

    def peak_kinds(self):
        first = {}
        for op in self.pool:
            first.setdefault(op.kind, op)
        return [(kind, op, self._computed_bytes(op)) for kind, op in first.items()]

    @staticmethod
    def _computed_bytes(op):
        n = op.spec.n
        if op.kind == "decompose":
            return 8 * (2 * n + 1)  # f, r and g
        if op.kind == "check":
            return 8 * (n * n + 6 * n)  # the dense matrix, a 3-column block and its solution
        return solve_bytes(n, 1, op.variant == CIRCULANT)

    def run(self, op, tracer):
        return timed(tracer, "cli." + op.kind, call_cli, op.data["argv"])

    def verify(self, op, out, tracer):
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"{op.kind} exited {code}: {stderr.strip()}")
        spec = op.spec
        fct = library_factorization(spec, op.variant)
        circulant = op.variant == CIRCULANT
        if op.kind == "check":
            return self._verify_check(spec, fct, stdout, tracer)
        with open(op.data["out"], encoding="utf-8") as handle:
            text = handle.read()
        if op.kind == "decompose":
            fields = dict(line.split(" = ", 1) for line in text.splitlines())
            same = np.array_equal(_floats(fields["f"], ","), fct.f) and (
                not circulant or (np.array_equal(_floats(fields["r"], ","), fct.r)
                                  and float(fields["g"]) == fct.g))
            if not same:
                raise CheckFailed("decompose report differs from the library factorization")
            return None
        if op.kind == "solve":
            b, expected = op.data["rhs"], solve(fct, op.data["rhs"])
            x = _floats(text)
        else:
            b, expected = np.zeros(spec.n), inverse_first_row(fct)
            b[0] = 1.0
            x = _floats(text, ",")
        if not np.array_equal(x, expected):
            raise CheckFailed(f"{op.kind} output differs from the library at 17 digits")
        reference = fft_solve(spec.c, spec.a, b) if circulant else None
        return check_solve(spec.c, spec.a, b, x, circulant, reference)

    @staticmethod
    def _verify_check(spec, fct, stdout, tracer):
        if tracer is not None:
            dense = timed(tracer, "oracle.build_dense", build_dense, spec, CIRCULANT)
            block = np.random.default_rng(spec.n).standard_normal((spec.n, 3))
            timed(tracer, "oracle.dense_solve", dense_solve, dense, block)
        fields = dict(line.split(" = ", 1) for line in stdout.splitlines()[1:4])
        residuals = [float(v) for v in fields.values()]
        if len(residuals) != 3 or not max(residuals) <= CHECK_BOUND:
            raise CheckFailed(f"check reported residuals {residuals}")
        dense = build_dense(spec, CIRCULANT)
        recon = np.abs(reconstruct(fct) - dense).max() / np.abs(dense).max()
        spectral = spectral_inverse_first_row(spec)
        inv = np.abs(inverse_first_row(fct) - spectral).max() / np.abs(spectral).max()
        if (fields["reconstruction residual"] != f"{recon:.3e}"
                or fields["inverse first row vs spectral oracle"] != f"{inv:.3e}"):
            raise CheckFailed("check residuals differ from the library at printed precision")
        return None


WORKLOADS = {cls.name: cls for cls in (Stepping, CurveFit, DenseInverse, Cli)}
