"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload, in a fresh
``run.py`` process per run, and prints each
metric's median and its spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound and a third of it.

    python3 perfbench/steadiness.py --workloads ncvoter-pooled service-mix \\
        --seeds 1 2 3 4 5 6 7 8 9 10
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common

RUN = str(common.BENCH_DIR / "run.py")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", default=None,
                        help="also write every run's metrics here")
    args = parser.parse_args()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=common.ROOT, capture_output=True, text=True,
                timeout=400)
            elapsed = time.perf_counter() - started
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(f"{workload} seed {seed}: no result "
                      f"(exit {proc.returncode})\n{proc.stderr[-1500:]}")
                return 1
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "run_s": elapsed,
                                   "correct": result["correct"],
                                   "failed": result["failed"],
                                   "attempted": result["attempted"],
                                   "values": values})
            print(f"{workload} seed {seed}: {elapsed:.1f}s "
                  f"correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
            if not result["correct"]:
                print(proc.stderr[-3000:], flush=True)
    print()
    print("| workload | metric | median | spread | bound | bound/3 |")
    print("|---|---|---|---|---|---|")
    for workload, records in runs.items():
        for name, bound in bounds.items():
            values = [r["values"][name] for r in records]
            spread = common.spread(values)
            print(f"| {workload} | {name} | {common.median(values):.4g} | "
                  f"{'n/a' if spread is None else f'{spread:.3f}'} | "
                  f"{bound} | {bound / 3:.3f} |")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
