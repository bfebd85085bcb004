"""Spans around the calls into each oamtomo layer, and the per-layer
metrics derived from them.

Every target is patched at the name its caller uses (for example
``oamtomo.solver.project_psd`` is the name ``solver`` calls), so a span
marks a layer boundary. Spans are kept in memory and written out once the
traced pass ends. The program itself is not changed: spans inside a layer,
such as the split of a solve into set-up and iterations, are not recorded.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("bench", "cli", "experiments", "solver", "sensor", "qstate", "optics")

# (module, attribute, layer of the callee). The module is the caller's.
TARGETS = (
    ("oamtomo.cli", "main", "cli"),
    ("oamtomo.cli", "parse_spec", "experiments"),
    ("oamtomo.cli", "run_experiment", "experiments"),
    ("oamtomo.experiments", "run_error_sweep", "experiments"),
    ("oamtomo.experiments", "entropy_cell_inputs", "experiments"),
    ("oamtomo.experiments", "build_measurement_map", "sensor"),
    ("oamtomo.experiments", "independent_detections", "sensor"),
    ("oamtomo.experiments", "simulate_scan", "sensor"),
    ("oamtomo.experiments", "write_scan_csv", "sensor"),
    ("oamtomo.experiments", "read_scan_csv", "sensor"),
    ("oamtomo.experiments", "reconstruct_positive", "solver"),
    ("oamtomo.experiments", "reconstruct_pseudoinverse", "solver"),
    ("oamtomo.experiments", "report_to_json_dict", "solver"),
    ("oamtomo.experiments", "random_state", "qstate"),
    ("oamtomo.experiments", "test_state", "qstate"),
    ("oamtomo.experiments", "hs_error", "qstate"),
    ("oamtomo.solver", "multistart_estimates", "solver"),
    ("oamtomo.solver", "singular_value_entropy", "solver"),
    ("oamtomo.solver", "reconstruct_positive", "solver"),
    ("oamtomo.solver", "project_psd", "qstate"),
    ("oamtomo.solver", "hermitian_to_coords", "qstate"),
    ("oamtomo.solver", "coords_to_hermitian", "qstate"),
    ("oamtomo.sensor", "hermitian_to_coords", "qstate"),
)

BENCH_SPANS = ("perfbench.pass", "perfbench.op", "perfbench.check")  # the harness's own spans
POSITIVE = ("oamtomo.experiments.reconstruct_positive", "oamtomo.solver.reconstruct_positive")
SOLVER_COORDS = ("oamtomo.solver.hermitian_to_coords", "oamtomo.solver.coords_to_hermitian")
EXPERIMENT_ENTRIES = (
    "oamtomo.cli.run_experiment",
    "oamtomo.experiments.run_error_sweep",
    "oamtomo.experiments.entropy_cell_inputs",
)
TAIL_FACTOR = 4.0  # a solve slower than this multiple of the median solve is in the tail


def _attrs(name, args, kwargs, out):
    """Counts taken from what a call returns or writes."""
    if name in POSITIVE:
        return {
            "iterations": out.iterations_used,
            "refine_steps": out.metadata.get("refine_steps", 0),
            "converged": bool(out.converged),
        }
    if name == "oamtomo.experiments.write_scan_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "oamtomo.solver.multistart_estimates":
        return {"branch": kwargs.get("branch", args[3] if len(args) > 3 else "positive")}
    if name == "oamtomo.cli.main":
        argv = kwargs.get("argv", args[0] if args else None)
        return {"command": argv[0] if argv else ""}
    return None


class Tracer:
    """In-memory span list: [name, layer, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[5] = _attrs(name, args, kwargs, out)
            return out

        return traced

    def write(self, path: str) -> None:
        """One JSON line per span: name, layer, parent, start and end in us."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, layer, parent, start, end, attrs) in enumerate(self.spans):
                row = [i, parent, name, layer, round((start - t0) * 1e6, 3), round((end - t0) * 1e6, 3)]
                if attrs:
                    row.append(attrs)
                fh.write(json.dumps(row) + "\n")


class Probe:
    """Records the arguments and results of selected calls, so that the
    benchmark can check outputs. Adds no timing."""

    def __init__(self, names):
        self.names = frozenset(names)
        self.calls: dict[str, list] = {n: [] for n in self.names}

    def clear(self) -> None:
        for calls in self.calls.values():
            calls.clear()

    def wrap(self, fn, name: str):
        calls = self.calls[name]

        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        return probed


def instrument(modules: dict, tracer: Tracer | None, probe: Probe) -> list:
    """Patch the targets; returns the (module, attr, original) list to restore."""
    patched = []
    for mod_name, attr, layer in TARGETS:
        name = f"{mod_name}.{attr}"
        if tracer is None and name not in probe.names:
            continue
        module = modules[mod_name]
        orig = getattr(module, attr)
        fn = orig
        if tracer is not None:
            fn = tracer.wrap(fn, name, layer)
        if name in probe.names:
            fn = probe.wrap(fn, name)
        setattr(module, attr, fn)
        patched.append((module, attr, orig))
    return patched


def restore(patched: list) -> None:
    for module, attr, orig in reversed(patched):
        setattr(module, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def span_self_seconds(spans: list[list], names) -> dict[str, float]:
    """Total self time of the spans with each of ``names``."""
    totals = dict.fromkeys(names, 0.0)
    for s, own in zip(spans, self_times(spans)):
        if s[0] in totals:
            totals[s[0]] += own
    return totals


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans)):
        totals[s[1]] += own
    return totals


def per_layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json; totals are per operation."""
    dur: dict[str, list[float]] = {}
    attrs: dict[str, list] = {}
    for name, _, _, start, end, a in spans:
        dur.setdefault(name, []).append(end - start)
        attrs.setdefault(name, []).append(a)

    def total(*names):
        return sum(sum(dur.get(n, ())) for n in names)

    def calls(*names):
        return sum(len(dur.get(n, ())) for n in names)

    def per_op_ms(*names):
        return 1e3 * total(*names) / n_ops

    def per_call_us(*names):
        n = calls(*names)
        return 1e6 * total(*names) / n if n else 0.0

    positive = [t for n in POSITIVE for t in dur.get(n, ())]
    reports = [a for n in POSITIVE for a in attrs.get(n, ())]
    p50 = statistics.median(positive) if positive else 0.0
    iterations = sum(a["iterations"] for a in reports)
    multistart = {"positive": 0.0, "pseudoinverse": 0.0}
    for t, a in zip(dur.get("oamtomo.solver.multistart_estimates", ()),
                    attrs.get("oamtomo.solver.multistart_estimates", ())):
        multistart[a["branch"]] += t
    csv_bytes = sum(a["bytes"] for a in attrs.get("oamtomo.experiments.write_scan_csv", ()))
    layer_self = layer_self_seconds(spans)
    cli_seconds = {"simulate": 0.0, "reconstruct": 0.0}
    for t, a in zip(dur.get("oamtomo.cli.main", ()), attrs.get("oamtomo.cli.main", ())):
        cli_seconds[a["command"]] += t

    return {
        "sensor.build_map_ms": (per_op_ms("oamtomo.experiments.build_measurement_map"), "ms/op"),
        "sensor.build_map_calls": (calls("oamtomo.experiments.build_measurement_map") / n_ops, "count/op"),
        "sensor.independent_detections_ms": (per_op_ms("oamtomo.experiments.independent_detections"), "ms/op"),
        "sensor.scan_csv_write_ms": (per_op_ms("oamtomo.experiments.write_scan_csv"), "ms/op"),
        "sensor.scan_csv_read_ms": (per_op_ms("oamtomo.experiments.read_scan_csv"), "ms/op"),
        "sensor.scan_csv_mb": (csv_bytes / 1e6 / n_ops, "MB/op"),
        "sensor.simulate_scan_ms": (per_op_ms("oamtomo.experiments.simulate_scan"), "ms/op"),
        "qstate.project_psd_us": (per_call_us("oamtomo.solver.project_psd"), "us/call"),
        "qstate.project_psd_calls": (calls("oamtomo.solver.project_psd") / n_ops, "count/op"),
        "qstate.coords_us": (per_call_us(*SOLVER_COORDS), "us/call"),
        "qstate.coords_calls": (calls(*SOLVER_COORDS) / n_ops, "count/op"),
        "solver.positive_ms": (1e3 * sum(positive) / n_ops, "ms/op"),
        "solver.positive_calls": (len(positive) / n_ops, "count/op"),
        "solver.positive_p50_ms": (1e3 * p50, "ms/call"),
        "solver.positive_tail_ms": (
            1e3 * sum(t for t in positive if t > TAIL_FACTOR * p50) / n_ops, "ms/op"),
        "solver.iterations": (iterations / n_ops, "count/op"),
        "solver.refine_steps": (sum(a["refine_steps"] for a in reports) / n_ops, "count/op"),
        "solver.us_per_iteration": (1e6 * sum(positive) / iterations if iterations else 0.0, "us/iter"),
        "solver.certified_ratio": (
            sum(a["converged"] for a in reports) / len(reports) if reports else 0.0, "ratio"),
        "solver.pseudoinverse_ms": (
            1e3 * (total("oamtomo.experiments.reconstruct_pseudoinverse")
                   + multistart["pseudoinverse"]) / n_ops, "ms/op"),
        "solver.multistart_ms": (1e3 * multistart["positive"] / n_ops, "ms/op"),
        "solver.entropy_ms": (per_op_ms("oamtomo.solver.singular_value_entropy"), "ms/op"),
        "experiments.cell_ms": (per_op_ms(*EXPERIMENT_ENTRIES), "ms/op"),
        "experiments.self_ms": (1e3 * layer_self["experiments"] / n_ops, "ms/op"),
        "experiments.entropy_inputs_ms": (per_op_ms("oamtomo.experiments.entropy_cell_inputs"), "ms/op"),
        "cli.simulate_ms": (1e3 * cli_seconds["simulate"] / n_ops, "ms/op"),
        "cli.reconstruct_ms": (1e3 * cli_seconds["reconstruct"] / n_ops, "ms/op"),
        "cli.self_ms": (1e3 * layer_self["cli"] / n_ops, "ms/op"),
    }
