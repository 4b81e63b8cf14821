"""In-memory spans around the benchmark's calls into circkr, and the
per-layer metrics derived from them.

Spans are recorded by the benchmark's own code around each public call,
named ``<module>.<function>`` after the circkr module that does the work.
Nothing inside circkr is instrumented.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter

# Per-layer metric -> unit.  The order is the order of the printed report.
PER_LAYER = {
    "recurrence.generate_f_ms": "ms",
    "recurrence.generate_r_ms": "ms",
    "recurrence.compute_g_ms": "ms",
    "recurrence.steps": "count",
    "factors.factorization_ms": "ms",
    "decomposition.decompose_ms": "ms",
    "decomposition.self_ms": "ms",
    "factors.apply_k_ms": "ms",
    "factors.apply_r_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.backsub_ms": "ms",
    "solver.solve_many_ms": "ms",
    "solver.col_ms": "ms",
    "inverse.inverse_dense_ms": "ms",
    "factors.a1_inverse_last_row_ms": "ms",
    "inverse.first_row_ms": "ms",
    "cli.decompose_ms": "ms",
    "cli.solve_ms": "ms",
    "cli.invert_ms": "ms",
    "cli.check_ms": "ms",
    "oracle.build_dense_ms": "ms",
    "oracle.dense_solve_ms": "ms",
    "solver.unknowns": "count",
    "solver.bytes_computed": "bytes",
    "inverse.entries": "count",
    "inverse.bytes_computed": "bytes",
    "solver.backward_error_max": "ratio",
    "baseline.fft_solve_ms": "ms",
    "baseline.solve_over_fft": "ratio",
    "trace.overhead_pct": "%",
}

# Metrics that are the median duration of one span name.
_SPAN_MEDIANS = {
    "recurrence.generate_f_ms": "recurrence.generate_f",
    "recurrence.generate_r_ms": "recurrence.generate_r",
    "recurrence.compute_g_ms": "recurrence.compute_g",
    "factors.factorization_ms": "factors.factorization",
    "decomposition.decompose_ms": "decomposition.decompose",
    "factors.apply_k_ms": "factors.apply_k",
    "factors.apply_r_ms": "factors.apply_r",
    "solver.solve_ms": "solver.solve",
    "solver.solve_many_ms": "solver.solve_many",
    "inverse.inverse_dense_ms": "inverse.inverse_dense",
    "factors.a1_inverse_last_row_ms": "factors.a1_inverse_last_row",
    "inverse.first_row_ms": "inverse.first_row",
    "cli.decompose_ms": "cli.decompose",
    "cli.solve_ms": "cli.solve",
    "cli.invert_ms": "cli.invert",
    "cli.check_ms": "cli.check",
    "oracle.build_dense_ms": "oracle.build_dense",
    "oracle.dense_solve_ms": "oracle.dense_solve",
    "baseline.fft_solve_ms": "baseline.fft_solve",
}

# Metrics that are the median of a count attached to spans (computed from
# array sizes, not observed inside circkr).
_COUNT_MEDIANS = {
    "recurrence.steps": (("recurrence.generate_f",), "steps"),
    "solver.unknowns": (("solver.solve", "solver.solve_many"), "unknowns"),
    "solver.bytes_computed": (("solver.solve", "solver.solve_many"), "bytes"),
    "inverse.entries": (("inverse.inverse_dense",), "entries"),
    "inverse.bytes_computed": (("inverse.inverse_dense",), "bytes"),
}


class Tracer:
    """Spans kept in memory: name, op id, parent span, start, end, counts."""

    def __init__(self):
        self.spans = []
        self.op = -1  # spans recorded during set-up carry op -1
        self._open = []

    def begin_op(self):
        self.op += 1

    @contextmanager
    def span(self, name, **counts):
        record = {"name": name, "op": self.op,
                  "parent": self._open[-1] if self._open else None, "counts": counts}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def timed(tracer, name, fn, *args, **counts):
    """Call ``fn(*args)``, inside a span named ``name`` when tracing."""
    if tracer is None:
        return fn(*args)
    with tracer.span(name, **counts):
        return fn(*args)


def _ms(span):
    return (span["end"] - span["start"]) * 1e3


def layer_metrics(spans):
    """Per-layer metrics present in ``spans``; a layer with no spans is absent."""
    by_name, by_op, child_ms = {}, {}, {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        by_op.setdefault(span["op"], {})[span["name"]] = _ms(span)
        if span["parent"] is not None:
            child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) + _ms(span)
    out = {}

    def put(metric, values):
        if values:
            out[metric] = statistics.median(values)

    for metric, name in _SPAN_MEDIANS.items():
        put(metric, [_ms(s) for s in by_name.get(name, ())])
    for metric, (names, key) in _COUNT_MEDIANS.items():
        put(metric, [s["counts"][key] for name in names for s in by_name.get(name, ())])
    put("decomposition.self_ms", [
        _ms(s) - child_ms.get(i, 0.0)
        for i, s in enumerate(spans) if s["name"] == "decomposition.decompose"
    ])
    put("solver.col_ms", [_ms(s) / s["counts"]["columns"]
                          for s in by_name.get("solver.solve_many", ())])
    # The solver proxies run beside the solve span of the same op, so the
    # back substitution is what the solve spends outside both of them.
    put("solver.backsub_ms", [
        op["solver.solve"] - op["factors.apply_k"] - op.get("factors.apply_r", 0.0)
        for op in by_op.values() if "solver.solve" in op and "factors.apply_k" in op
    ])
    put("baseline.solve_over_fft", [
        op.get("solver.solve", op.get("solver.solve_many")) / op["baseline.fft_solve"]
        for op in by_op.values()
        if "baseline.fft_solve" in op and ("solver.solve" in op or "solver.solve_many" in op)
    ])
    return out
