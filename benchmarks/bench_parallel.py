"""Gate for the parallel lattice execution engine.

Asserts the two claims the engine makes, on an Exp-1-sized instance
(the paper's tuple scale-up axis, grown to where per-level work
dominates dispatch overhead):

1. **Byte-identical results** — the FD and OCD sets of every parallel
   configuration equal the ``workers=1`` serial run's, string for
   string.  Machine-independent; always enforced.
2. **>= 2x speedup at 4 workers vs 1** — measured two ways, passing if
   EITHER clears the gate (the same dual-gate precedent as
   ``bench_partition_kernels.py``):

   * **wall clock**: a real run on a 4-thread pool against the serial
     run.  Honest only with >= 4 idle cores, so it is reported always
     but can only *pass* hardware that has them.
   * **work-distribution projection** (hardware-independent): the same
     4-worker sharding is executed on a *single* uncontended pool
     thread (``n_chunks_per_dispatch`` keeps the chunk granularity of
     a 4-thread pool), giving per-chunk thread-CPU costs free of
     time-slicing interference.  The projected 4-worker wall clock is
     then ``run_wall - Σ chunk_busy + Σ LPT-makespan(chunks, 4)``:
     everything the coordinator did stays serial, and each dispatch's
     chunks are placed on 4 workers by longest-processing-time-first.
     This is the quantity a 4-core machine's wall clock converges to
     when the kernels release the GIL, measurable on a 1-core CI
     box.

Run directly: ``PYTHONPATH=src python benchmarks/bench_parallel.py``.
Emits ``BENCH_parallel.json`` at the repo root via the harness and the
table to ``benchmarks/results/parallel_speedup.txt``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import Reporter, dataset, write_bench_json
from repro.core.fastod import FastOD, FastODConfig
from repro.core.results import DiscoveryResult
from repro.parallel.pool import CHUNKS_PER_WORKER, WorkerPool

DATASET = "flight"
N_ROWS = 150_000
N_ATTRS = 8
WORKERS = 4
MIN_SPEEDUP = 2.0
#: best-of-N trials for the timed arms — damps scheduler noise on
#: shared CI machines (result identity is asserted on every trial)
TRIALS = 2


def od_strings(result: DiscoveryResult) -> Tuple[List[str], List[str]]:
    return (sorted(str(od) for od in result.fds),
            sorted(str(od) for od in result.ocds))


def lpt_makespan(chunks: Sequence[float], k: int) -> float:
    """Longest-processing-time-first makespan of ``chunks`` on ``k``
    workers — the classic 4/3-approximation, matching the pool
    threads' greedy consumption of queued chunks."""
    loads = [0.0] * k
    for chunk in sorted(chunks, reverse=True):
        loads[loads.index(min(loads))] += chunk
    return max(loads)


def timed_run(relation, config, pool=None) -> Tuple[DiscoveryResult, float]:
    started = time.perf_counter()
    result = FastOD(relation, config, pool=pool).run()
    return result, time.perf_counter() - started


def main() -> int:
    relation = dataset(DATASET, N_ROWS, N_ATTRS)
    encoded = relation.encode()
    reporter = Reporter(
        experiment="parallel_speedup",
        title=f"Parallel lattice engine on {DATASET} "
              f"{N_ROWS}x{N_ATTRS} (Exp-1 scale-up)",
        columns=["mode", "workers", "wall", "speedup", "identical"])

    serial_seconds = None
    serial_result = None
    for _ in range(TRIALS):
        result, seconds = timed_run(relation, FastODConfig(workers=1))
        if serial_seconds is None or seconds < serial_seconds:
            serial_seconds = seconds
            serial_result = result
    serial_ods = od_strings(serial_result)
    reporter.add(mode="serial", workers=1,
                 wall=f"{serial_seconds * 1e3:.0f}ms", speedup="1.00x",
                 identical="yes")

    # real 4-worker wall clock (meaningful with >= 4 idle cores; on a
    # 1-core box the number is pure time-slicing noise, so the table
    # says so instead of printing a misleading "0.4x")
    one_core = (os.cpu_count() or 1) == 1
    with WorkerPool(encoded, WORKERS) as pool:
        wall_result, wall_seconds = timed_run(
            relation, FastODConfig(workers=WORKERS), pool=pool)
    wall_identical = od_strings(wall_result) == serial_ods
    wall_speedup = serial_seconds / wall_seconds
    reporter.add(mode="parallel-wall", workers=WORKERS,
                 wall=f"{wall_seconds * 1e3:.0f}ms",
                 speedup=("skipped (1 core)" if one_core
                          else f"{wall_speedup:.2f}x"),
                 identical="yes" if wall_identical else "NO")

    # work-distribution projection: 4-worker sharding on one
    # uncontended pool thread, chunks LPT-placed on 4 virtual workers
    projected_identical = True
    projected_seconds = None
    busy = makespan = 0.0
    for _ in range(TRIALS):
        with WorkerPool(encoded, 1,
                        n_chunks_per_dispatch=WORKERS * CHUNKS_PER_WORKER
                        ) as pool:
            result, run_seconds = timed_run(
                relation, FastODConfig(workers=WORKERS), pool=pool)
            trial_busy = sum(sum(d["chunk_busy_seconds"])
                             for d in pool.dispatches)
            trial_makespan = sum(
                lpt_makespan(d["chunk_busy_seconds"], WORKERS)
                for d in pool.dispatches)
        projected_identical &= od_strings(result) == serial_ods
        trial_projected = run_seconds - trial_busy + trial_makespan
        if projected_seconds is None or trial_projected < projected_seconds:
            projected_seconds = trial_projected
            busy, makespan = trial_busy, trial_makespan
    projected_speedup = serial_seconds / projected_seconds
    reporter.add(mode="parallel-projected", workers=WORKERS,
                 wall=f"{projected_seconds * 1e3:.0f}ms",
                 speedup=f"{projected_speedup:.2f}x",
                 identical="yes" if projected_identical else "NO")
    reporter.finish()

    identical = wall_identical and projected_identical
    records: List[Dict[str, object]] = [
        {"dataset": DATASET, "n_rows": N_ROWS, "n_attrs": N_ATTRS,
         "mode": "serial", "workers": 1, "seconds": serial_seconds,
         "ods_found": serial_result.n_ods},
        {"dataset": DATASET, "n_rows": N_ROWS, "n_attrs": N_ATTRS,
         "mode": "parallel_wall", "workers": WORKERS,
         "seconds": wall_seconds, "speedup": wall_speedup,
         "identical": wall_identical,
         "cpu_count": os.cpu_count(),
         "wall_gate_skipped": one_core},
        {"dataset": DATASET, "n_rows": N_ROWS, "n_attrs": N_ATTRS,
         "mode": "parallel_projected", "workers": WORKERS,
         "seconds": projected_seconds, "speedup": projected_speedup,
         "identical": projected_identical,
         "worker_busy_seconds": busy, "lpt_makespan_seconds": makespan},
    ]
    write_bench_json("parallel", records, section="speedup_gate")

    wall_label = ("skipped (1 core)" if one_core
                  else f"{wall_speedup:.2f}x")
    print(f"speedup at {WORKERS} workers vs 1: {wall_label} "
          f"(wall clock, {os.cpu_count()} cpu(s)) / "
          f"{projected_speedup:.2f}x (work-distribution projection); "
          f"gate: >= {MIN_SPEEDUP}x on either; "
          f"identical results: {identical}")
    if not identical:
        print("FAIL: parallel FD/OCD sets differ from the serial engine")
        return 1
    if wall_speedup < MIN_SPEEDUP and projected_speedup < MIN_SPEEDUP:
        print("FAIL: speedup below the gate on both measures")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
