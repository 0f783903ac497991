"""The repository benchmark: cold discovery and a durable service mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ncvoter-pooled --seed 1 \\
        --seconds 30 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--workload all`` runs every workload in turn.  With ``--trace 0``
the run reports the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it reports the per-layer metrics, from spans the
benchmark records around each layer's entry points.  Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a
run writes goes under ``.bench_build/`` in the checkout.  See
``perfbench/NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import common

WORKLOADS = ("ncvoter-pooled", "flight-wide", "service-mix")


def _spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _declared(trace: bool):
    return _spec()["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    if name == "service-mix":
        import service

        outcome = service.run(seed, seconds, trace)
    else:
        import discover

        outcome = discover.run(name, seed, seconds, trace)
    values = outcome.get("values", {})
    metrics = {}
    for declared in _declared(trace):
        if declared["name"] in values:
            metrics[declared["name"]] = common.metric(
                values[declared["name"]], declared["unit"])
    missing = [d["name"] for d in _declared(trace)
               if d["name"] not in metrics]
    attempted = max(int(outcome["attempted"]), 1)
    failed = int(outcome["failed"])
    if missing and failed == 0:
        failed = 1
        print(f"error: no value for {missing}", file=sys.stderr)
    print(f"workload: {name}  seed: {seed}  trace: {int(trace)}")
    print(f"host: {json.dumps(outcome['host'], sort_keys=True)}")
    for key, value in sorted(outcome.get("report", {}).items()):
        print(f"  {key:40s} {value}")
    for key, entry in metrics.items():
        print(f"  {key:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "host": outcome["host"], "samples": outcome.get("samples"),
              "report": outcome.get("report"), "metrics": metrics,
              "attempted": attempted, "failed": failed}
    records = common.WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-{seed}-{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return {"correct": failed == 0 and not missing,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.program_present():
        print(f"error: no program sources under {common.SRC}",
              file=sys.stderr)
        return 2
    # a TERM unwinds through the workloads' cleanup, which stops and
    # waits for every process they started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.use_program_in_this_process()
    seconds = args.seconds or _spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds,
                                         bool(args.trace))
        except common.BenchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(common.WORK / f"{name}-{args.seed}-{os.getpid()}",
                          ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": entry
                        for name, r in results.items()
                        for key, entry in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
