"""Run-to-run spread of the end-to-end metrics, and one traced run per workload.

    python3 perfbench/spread.py

Runs perfbench/run.py at BENCHMARK.json's run_seconds once per seed
(100-109) and workload, one run at a time, and prints for each end-to-end
metric the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median beside the metric's bound. Then it
makes one traced run per workload on the first seed and prints its layer
breakdown. Every result line is also kept in perfbench/out/spread.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(100, 110)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    return lines[:-1], json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    kept = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            _, result = run(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        failed = {(r["failed"], r["attempted"]) for r in results}
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"failed/attempted per run={sorted(failed)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:<14} median {med:12.6g} {metric['unit']:<4} Q1 {q1:12.6g} "
                  f"Q3 {q3:12.6g} spread {(q3 - q1) / med:6.3f} bound {metric['bound']}")
        lines, traced = run(workload, SEEDS[0], seconds, 1)
        print("\n".join(f"  | {line}" for line in lines if not line.startswith("metric ")))
        for k, v in traced["metrics"].items():
            print(f"  | {k} = {v['value']:.6g} {v['unit']}")
        kept[workload] = {"seeds": list(SEEDS), "seconds": seconds, "results": results, "traced": traced}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(kept, indent=1))


if __name__ == "__main__":
    main()
