"""One benchmark run of one workload: set-up, memory pass, closed loop, metrics."""

import json
import statistics
import sys
import tempfile
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import max_safe_n
from runenv import environment
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "unknowns_per_s": "1/s",
    "peak_alloc_mb": "MB",
}

MIN_OPS = 100  # so that op_ms.p90 has at least ten samples beyond it
# Set-up is repeated between ops, taking this share of the run, so that its
# median (setup_s) sees the same machine conditions as the ops do.
SETUP_SHARE = 0.05
SETUP_MIN_REPS = 5
PROBE_OPS = 40  # per workload: 20 ops, each untraced and traced; covers every op kind


@dataclass
class Arm:
    """Ops that succeeded in one arm (traced or not) of a run, by input.

    A workload cycles through a fixed pool of inputs, so each input is timed
    many times, spread over the whole run.  An op's time is the best of its
    input's repeats: on a shared host, other tenants only ever add time, in
    phases seconds long, and the best repeat is what the program itself costs.
    """

    seconds: dict = field(default_factory=dict)  # input -> op times, s
    unknowns: dict = field(default_factory=dict)  # input -> unknowns per op

    def add(self, key, elapsed, unknowns):
        self.seconds.setdefault(key, []).append(elapsed)
        self.unknowns[key] = unknowns

    def ops(self):
        return sum(map(len, self.seconds.values()))

    def repeats(self):
        return min(map(len, self.seconds.values())), max(map(len, self.seconds.values()))

    def metrics(self):
        # Every input of the pool is equally frequent in the workload, so the
        # percentiles are taken over inputs, each once, at its best time.
        best = {key: min(times) for key, times in self.seconds.items()}
        ms = [s * 1e3 for s in best.values()]
        return {
            "op_ms.p50": statistics.median(ms),
            "op_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "unknowns_per_s": sum(self.unknowns.values()) / sum(best.values()),
        }


@dataclass
class Tally:
    untraced: Arm = field(default_factory=Arm)
    traced: Arm = field(default_factory=Arm)
    setup_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    worst_backward_error: float | None = None


def check_orders(wl):
    """Every order a workload uses must be factorizable: overflow never counts as load."""
    for n, d in wl.orders():
        limit = max_safe_n(d)
        if n > limit:
            raise SystemExit(f"{wl.name}: n = {n} exceeds max safe n = {limit} at d = {d}")


def peak_alloc(wl):
    """Per op kind: (tracemalloc peak above the starting level, computed bytes), in MB."""
    peaks = {}
    tracemalloc.start()
    try:
        for label, op, computed in wl.peak_kinds():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            wl.run(op, None)
            peaks[label] = ((tracemalloc.get_traced_memory()[1] - base) / 1e6, computed / 1e6)
    finally:
        tracemalloc.stop()
    return peaks


def _timed_setup(wl, tracer, tally):
    start = perf_counter()
    wl.setup(tracer)
    tally.setup_seconds.append(perf_counter() - start)


def run_ops(wl, seconds, tracer=None, min_ops=MIN_OPS):
    """Closed loop with one caller: op i + 1 starts once op i has returned and
    been checked.  Runs for ``seconds`` and at least ``min_ops`` ops, with
    set-up repeated between ops.

    With a tracer, every op runs twice in a row, untraced and then traced,
    so both arms see the same inputs and machine conditions.  An op that
    raises or fails its check is counted as failed and the loop goes on.
    """
    tally = Tally()
    paired = tracer is not None
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        if sum(tally.setup_seconds) <= SETUP_SHARE * (perf_counter() - start):
            _timed_setup(wl, tracer, tally)
        active = tracer if paired and i % 2 else None
        index = i // 2 if paired else i
        op = wl.prepare(index)
        i += 1
        tally.attempted += 1
        if active is not None:
            active.begin_op()
        try:
            t0 = perf_counter()
            out = wl.run(op, active)
            elapsed = perf_counter() - t0
            err = wl.verify(op, out, active)
        except Exception:
            if not tally.failed:
                traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            continue
        arm = tally.untraced if active is None else tally.traced
        arm.add(index % wl.inputs, elapsed, op.unknowns)
        if err is not None:
            tally.worst_backward_error = max(err, tally.worst_backward_error or 0.0)
    while len(tally.setup_seconds) < SETUP_MIN_REPS:
        _timed_setup(wl, tracer, tally)
    return tally


def probe(seed, workdir, tally):
    """Trace every workload at smoke size, for layers the measured workload
    never reaches.  Its ops count in ``tally``; returns the metrics and spans."""
    tracer = Tracer()
    worst = []
    for cls in WORKLOADS.values():
        part = run_ops(cls(seed, True, workdir), 0.0, tracer, PROBE_OPS)
        tally.attempted += part.attempted
        tally.failed += part.failed
        worst.append(part.worst_backward_error or 0.0)
    metrics = layer_metrics(tracer.spans)
    metrics["solver.backward_error_max"] = max(worst)
    return metrics, tracer.spans


def run_workload(name, seed, seconds, trace, smoke, root):
    """Returns (report lines, result object) for one run."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        wl = WORKLOADS[name](seed, smoke, Path(workdir))
        check_orders(wl)
        tracer = Tracer() if trace else None
        wl.setup()
        peaks = peak_alloc(wl)  # also warms up every op kind
        tally = run_ops(wl, seconds, tracer)
        if not tally.untraced.seconds or (trace and not tally.traced.seconds):
            raise SystemExit(f"{name}: no op succeeded")
        untraced = tally.untraced.metrics()
        if trace:
            metrics = layer_metrics(tracer.spans)
            if tally.worst_backward_error is not None:
                metrics["solver.backward_error_max"] = tally.worst_backward_error
            overhead = tally.traced.metrics()["op_ms.p50"] / untraced["op_ms.p50"] - 1.0
            metrics["trace.overhead_pct"] = 100.0 * overhead
            probed = [m for m in PER_LAYER if m not in metrics]
            spans = {name: tracer.spans}
            if probed:
                filled, spans["probe"] = probe(seed, Path(workdir), tally)
                metrics.update({m: filled[m] for m in probed})
            units = PER_LAYER
        else:
            metrics = dict(setup_s=statistics.median(tally.setup_seconds), **untraced)
            metrics["peak_alloc_mb"] = max(peak for peak, _ in peaks.values())
            units = END_TO_END
    env = environment()
    lines = [f"environment {json.dumps(env)}"]
    for label, (peak, computed) in peaks.items():
        where = "inside" if peak <= env["l3_mb"] else "beyond"
        lines.append(f"{name} working set [{label}]: computed {computed:.3f} MB, "
                     f"peak {peak:.3f} MB, {where} L3 ({env['l3_mb']:.1f} MB)")
    arm = tally.traced if trace else tally.untraced
    lines.append(f"{name} ops timed: {arm.ops()}"
                 + (f" traced, {tally.untraced.ops()} untraced" if trace else "")
                 + f"; {len(arm.seconds)} inputs, each timed %d to %d times" % arm.repeats())
    for metric in units:
        lines.append(f"{name} {metric} = {metrics[metric]:.6g} {units[metric]}")
    lines.append(f"{name} fail_rate = {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted} ops)")
    if trace:
        if probed:
            lines.append(f"{name} from the smoke-size probe: {', '.join(probed)}")
        if "solver.solve_ms" not in probed:
            lines.append(f"{name} back substitution share of solve = "
                         f"{metrics['solver.backsub_ms'] / metrics['solver.solve_ms']:.3f}")
        dump = scratch / f"spans-{name}-seed{seed}.json"
        dump.write_text(json.dumps(spans), encoding="utf-8")
        lines.append(f"{name} spans written to {dump.relative_to(root)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return lines, result
