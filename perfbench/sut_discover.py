"""One cold discovery in a fresh process: what ``repro-od discover
f.csv`` does, CSV in, :class:`DiscoveryResult` out.

Prints ``ready`` once the program is imported and its kernel library
loaded (``run.py`` times set-up up to that line), then times
``read_csv`` → ``FastOD(...).run()`` and writes the result, the peak
memory (:class:`common.WorkerMemory`) and, with ``--trace-out``, the
recorded spans to JSON files.

Usage: python3 perfbench/sut_discover.py --csv F --out R.json
           [--workers N] [--kernel-backend NAME] [--trace-out S.json]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import common


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--csv", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--kernel-backend", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro import kernels
    from repro.core.fastod import FastOD, FastODConfig
    from repro.relation import csvio

    kernels.default_backend()
    records = tempfile.TemporaryDirectory()
    memory = common.WorkerMemory(Path(records.name))
    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    print("ready", flush=True)

    started = time.perf_counter()
    relation = csvio.read_csv(args.csv)
    result = FastOD(relation, FastODConfig(
        workers=args.workers, kernel_backend=args.kernel_backend)).run()
    seconds = time.perf_counter() - started

    peak_mb = memory.peak_mb()
    records.cleanup()
    stats = result.executor_stats or {}
    record = {
        "discover_s": seconds,
        "fds": [str(od) for od in result.fds],
        "ocds": [str(od) for od in result.ocds],
        "timed_out": result.timed_out,
        "peak_rss_mb": peak_mb,
        "executor": stats.get("backend"),
        "retries": stats.get("retries", 0),
        "kernel_backend": kernels.resolve_backend(
            args.kernel_backend).name,
    }
    if recorder is not None:
        recorder.dump(args.trace_out, {"wall_s": seconds})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
