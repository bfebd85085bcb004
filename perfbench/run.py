"""oamtomo benchmark: one workload per process, timed end to end, or traced
per layer.

    python3 perfbench/run.py --workload error_sweep_d15 --seed 0 --seconds 28 --trace 0

A run makes a fixed number of whole rounds of operations, set by --seconds
and the workload's nominal round time, so every build measures the same
operations. One untimed operation on inputs no round uses warms the process
up first. With --trace 0 it prints the end-to-end metrics. With --trace 1
it runs half as many rounds twice on the same inputs, untraced and then
traced, and prints the per-layer metrics and the tracing overhead. The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics. See perfbench/README.md.
"""

import os
import sys

# Fixed malloc thresholds: every block of 4 MiB or more is mapped on its own
# and returned on free, and up to 64 MiB of free heap is kept. With glibc's
# adaptive thresholds a freed 26 MB camera map could stay in the heap, and
# peak_rss_mb of camera_noisy_cli took one of two values 14% apart (about 181
# and 206 MB) with the heap layout. The 64 MiB trim threshold keeps smaller
# blocks in the heap as the adaptive one does; a lower one slowed
# error_sweep_d15 by about 10%. glibc reads these only at start, so the run
# restarts itself in place once.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(4 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

# One BLAS thread: the reduction order then stays fixed, so iteration counts
# repeat exactly from run to run. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from spans import (  # noqa: E402
    BENCH_SPANS, LAYERS, POSITIVE, Probe, Tracer, instrument, layer_self_seconds, per_layer_metrics,
    restore, span_self_seconds,
)
from workloads import WORKLOADS, uncertified  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 15  # fresh processes whose set-up time gives the median setup_s
# solves_per_s leaves out this share of the slowest operations: a few slow
# refinements decide the plain mean of a 28 s run; the tail is measured per
# layer by solver.positive_tail_ms and solver.refine_steps (see README.md)
RATE_TRIM = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import oamtomo from this checkout's src/, never from elsewhere."""
    if not (SRC / "oamtomo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no oamtomo sources at {SRC}/oamtomo; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import oamtomo
    import oamtomo.cli
    import oamtomo.experiments
    import oamtomo.sensor
    import oamtomo.solver

    if Path(oamtomo.__file__).resolve().parent != SRC / "oamtomo":
        sys.exit(f"perfbench: imported oamtomo from {oamtomo.__file__}, not from {SRC}")
    return oamtomo


class Run:
    """Operation timings, failure counts and check results of one pass."""

    def __init__(self, probe, check_names, tracer=None):
        self.probe = probe
        self.check_names = "; ".join(check_names)
        self.tracer = tracer
        self.rounds = 0
        self.op_seconds: list[float] = []
        self.op_solves: list[int] = []
        self.timed = 0.0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.problems: list[str] = []
        self.checks = 0

    def trimmed_rate(self, trim):
        """Positive solves per second of the operations left after the
        slowest ``trim`` share of them is set aside."""
        order = sorted(range(len(self.op_seconds)), key=self.op_seconds.__getitem__)
        kept = order[: len(order) - int(trim * len(order))]
        return sum(self.op_solves[i] for i in kept) / sum(self.op_seconds[i] for i in kept)

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, fn, check, failures=None):
        """Time one operation, count it failed if any positive solve in it is
        uncertified or ``failures`` names a reason, then check its outputs."""
        self.probe.clear()
        with self._span("perfbench.op"):
            start = perf_counter()
            out = fn()
            seconds = perf_counter() - start
        self.op_seconds.append(seconds)
        self.timed += seconds
        calls = self.probe.calls
        self.op_solves.append(sum(len(calls.get(name, ())) for name in POSITIVE))
        reasons = uncertified(calls) + (failures(out) if failures else [])
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)
        self.check(lambda: check(out, calls))
        self.probe.clear()

    def check(self, fn):
        with self._span("perfbench.check"):
            self.problems += fn()
        self.checks += 1


def rounds_for(cls, seconds):
    """The fixed number of rounds that takes about ``seconds`` on the
    reference machine. It does not depend on how fast the build is."""
    return max(1, round(seconds / cls.nominal_round_s))


def run_pass(cls, seed, oam, rounds, tracer=None, before_round=None):
    """Warm up on inputs of its own, set up the workload, then run ``rounds``
    whole rounds, calling ``before_round(k)`` ahead of round k. Returns the
    Run and the wall time from set-up on."""
    warm_dir = OUT_DIR / f"{cls.name}-{os.getpid()}-warm"
    try:
        cls(seed, oam, str(warm_dir)).warm_up()
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    modules = {m.__name__: m for m in (oam.cli, oam.experiments, oam.solver, oam.sensor)}
    probe = Probe(cls.probes)
    patched = instrument(modules, tracer, probe)
    run = Run(probe, cls.checks, tracer)
    work_dir = OUT_DIR / f"{cls.name}-{os.getpid()}"
    start = perf_counter()
    try:
        with tracer.span("perfbench.pass") if tracer else nullcontext():
            wl = cls(seed, oam, str(work_dir))
            while run.rounds < rounds:
                if before_round:
                    before_round(run.rounds)
                wl.round(run, run.rounds)
                run.rounds += 1
        wall = perf_counter() - start
    finally:
        restore(patched)
        shutil.rmtree(work_dir, ignore_errors=True)
    return run, wall


def setup_seconds(workload, seed, repeats):
    """Times from process start to the end of set-up (interpreter start,
    imports and input generation) of ``repeats`` fresh processes."""
    times = []
    for _ in range(repeats):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def machine_line():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return (f"machine: nproc={os.cpu_count()} blas={blas_name} blas_threads={BLAS_THREADS} "
            f"malloc_mmap_threshold={MALLOC_ENV['MALLOC_MMAP_THRESHOLD_']} "
            f"malloc_trim_threshold={MALLOC_ENV['MALLOC_TRIM_THRESHOLD_']} "
            f"python={platform.python_version()} numpy={np.__version__}")


def report_run(run, label):
    print(f"{label}: rounds={run.rounds} ops={len(run.op_seconds)} positive_solves={sum(run.op_solves)} "
          f"timed_s={run.timed:.3f}")
    print(f"{label}: failed {run.failed} of {len(run.op_seconds)} operations")
    for reason, n in run.reasons.most_common():
        print(f"  failure x{n}: {reason}")
    if run.problems:
        print(f"{label}: {len(run.problems)} correctness check(s) FAILED:")
        for problem in run.problems[:20]:
            print(f"  {problem}")
    else:
        print(f"{label}: all {run.checks} correctness checks passed ({run.check_names})")


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    cls = WORKLOADS[args.workload]
    oam = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        work_dir = OUT_DIR / f"{cls.name}-{os.getpid()}"
        cls(args.seed, oam, str(work_dir))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        shutil.rmtree(work_dir, ignore_errors=True)
        return 0

    print(f"perfbench: workload={cls.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(machine_line())
    if args.trace == 0:
        # The set-up samples are spread over the run, a share before each
        # round, so that a slow spell of a few seconds moves few of them.
        rounds = rounds_for(cls, args.seconds)
        setup_samples = []
        run, _ = run_pass(cls, args.seed, oam, rounds, before_round=lambda k: setup_samples.extend(
            setup_seconds(cls.name, args.seed, SETUP_REPEATS // rounds + (k < SETUP_REPEATS % rounds))))
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_samples))
        report_run(run, "run")
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "solves_per_s": (run.trimmed_rate(RATE_TRIM), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(run.op_seconds), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"op_p50_ms is the median of {len(run.op_seconds)} operations")
        runs = [run]
    else:
        rounds = max(1, math.ceil(rounds_for(cls, args.seconds) / 2))
        plain, wall_plain = run_pass(cls, args.seed, oam, rounds)
        tracer = Tracer()
        traced, wall_traced = run_pass(cls, args.seed, oam, rounds, tracer)
        report_run(plain, "untraced pass")
        report_run(traced, "traced pass")
        layer_self = layer_self_seconds(tracer.spans)
        print(f"trace: {len(tracer.spans)} spans; wall untraced {wall_plain:.4f} s, traced "
              f"{wall_traced:.4f} s, overhead {wall_traced - wall_plain:+.4f} s")
        for layer in LAYERS:
            share = layer_self[layer] / wall_traced
            print(f"  self {layer:<12} {layer_self[layer]:9.4f} s  {100 * share:5.1f} %")
        # The layer self times add up to the wall time by construction: time
        # no program span covers is self time of the harness's own spans.
        uncovered = span_self_seconds(tracer.spans, BENCH_SPANS)
        print("trace: outside program spans, share of traced wall: " + ", ".join(
            f"{name} {100 * t / wall_traced:.2f} %" for name, t in uncovered.items()))
        path = OUT_DIR / f"trace-{cls.name}-seed{args.seed}.jsonl"
        tracer.write(str(path))
        print(f"trace: spans written to {path.relative_to(ROOT)}")
        metrics = per_layer_metrics(tracer.spans, len(traced.op_seconds))
        runs = [plain, traced]

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    correct = not any(r.problems for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.op_seconds) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
