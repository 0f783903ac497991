"""The two cold-discovery workloads.

Each repetition is a fresh process (:mod:`sut_discover`) doing what
``repro-od discover f.csv`` does, so every repetition pays the cold
path a user pays: import, kernel library load, CSV ingest, encode,
lattice sweep.  ``run.py`` times set-up up to the child's ``ready``
line; the child times CSV → result itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
import spans

#: workload -> generator family, shape and worker count
#: (``None`` workers = one per core)
SHAPES = {
    "ncvoter-pooled": {"family": "ncvoter", "n_rows": 100_000,
                       "n_attrs": 10, "workers": None},
    "flight-wide": {"family": "flight", "n_rows": 10_000, "n_attrs": 18,
                    "workers": 1},
}

#: fewest repetitions a run reports a median over
MIN_REPS = 3


def _write_input(shape: Dict, seed: Optional[int], path: Path) -> None:
    """Write the workload's dataset to ``path``, its rows shuffled by
    ``seed`` (``None``: in generator order)."""
    import numpy as np

    from repro.datasets import make_dataset
    from repro.relation.csvio import write_csv

    # The extra columns of a wide relation draw their kind and domain
    # from the generator seed, and with them the lattice's size: from
    # one generator seed to the next, flight 10k x 18 does 10-20 % more
    # or less work.  So the dataset is fixed and the benchmark seed
    # shuffles its rows, which changes every byte the program reads but
    # not the FD/OCD set.
    relation = make_dataset(shape["family"], n_rows=shape["n_rows"],
                            n_attrs=shape["n_attrs"],
                            seed=common.DATASET_SEED)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(relation.n_rows)
        relation = relation.select_rows(order.tolist())
    write_csv(relation, path)


def _oracle(shape: Dict, work: Path,
            env: Dict[str, str]) -> Dict[str, List[str]]:
    """FD/OCD strings of a ``workers=1, kernel_backend="reference"``
    run on the workload's dataset in generator order, computed outside
    every timed region, once per dataset and program version, and kept
    in the build directory.  An FD/OCD set does not depend on row
    order, so every seed's shuffle must give exactly these strings."""
    cache = common.WORK / "oracles"
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / (f"{shape['family']}-{shape['n_rows']}x"
                    f"{shape['n_attrs']}-{common.DATASET_SEED}-"
                    f"{common.source_digest()}.json")
    if not path.exists():
        csv = work / "oracle.csv"
        out = work / "oracle.json"
        _write_input(shape, None, csv)
        common.run_child([str(common.BENCH_DIR / "sut_discover.py"),
                          "--csv", str(csv), "--out", str(out),
                          "--workers", "1",
                          "--kernel-backend", "reference"], env)
        record = json.loads(out.read_text())
        if record["timed_out"]:
            raise common.BenchError("the reference run timed out")
        os.replace(out, path)
    record = json.loads(path.read_text())
    return {"fds": record["fds"], "ocds": record["ocds"]}


def _repetition(csv: Path, workers: int, work: Path, index: int,
                env: Dict[str, str], traced: bool) -> Dict:
    """One fresh-process discovery; returns its record plus the
    set-up time ``run.py`` saw, or raises :class:`common.BenchError`."""
    out = work / f"rep{index}.json"
    trace_out = work / f"rep{index}.spans.json"
    command = [sys.executable, str(common.BENCH_DIR / "sut_discover.py"),
               "--csv", str(csv), "--out", str(out),
               "--workers", str(workers)]
    if traced:
        command += ["--trace-out", str(trace_out)]
    with open(work / f"rep{index}.stderr", "w") as stderr:
        started = time.perf_counter()
        proc = common.start(command, env, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=170.0)
        finally:
            if proc.poll() is None:
                common.kill_group(proc)
        ended = time.perf_counter()
    if line.strip() != "ready" or proc.returncode != 0:
        raise common.BenchError(
            f"discover repetition {index} failed (exit "
            f"{proc.returncode}): "
            f"{(work / f'rep{index}.stderr').read_text()[-2000:]}")
    record = json.loads(out.read_text())
    record["setup_s"] = ready - started
    record["wall_s"] = ended - started
    if traced:
        record["trace"] = json.loads(trace_out.read_text())
    return record


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    shape = SHAPES[workload]
    workers = shape["workers"] or (os.cpu_count() or 1)
    work = common.fresh_dir(f"{workload}-{seed}-{os.getpid()}")
    env = common.child_env(work / "tmp")
    host = common.host_metadata(env)
    csv = work / "input.csv"
    _write_input(shape, seed, csv)
    oracle = _oracle(shape, work, env)

    plain: List[Dict] = []
    traced: List[Dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(plain)
        attempted += 1
        try:
            record = _repetition(csv, workers, work, attempted, env,
                                 want_trace)
        except (common.BenchError, OSError, ValueError,
                subprocess.TimeoutExpired) as error:
            print(f"error: {error}", file=sys.stderr)
            failed += 1
            record = None
        if record is not None and record["peak_rss_mb"] is None:
            print(f"error: repetition {attempted}: a pool worker did "
                  f"not exit cleanly", file=sys.stderr)
            failed += 1
            record = None
        if record is not None:
            if (record["timed_out"] or record["fds"] != oracle["fds"]
                    or record["ocds"] != oracle["ocds"]):
                print(f"error: repetition {attempted} differs from the "
                      f"reference FD/OCD set", file=sys.stderr)
                failed += 1
            (traced if want_trace else plain).append(record)
        elapsed = time.perf_counter() - started
        enough = (len(plain) >= MIN_REPS
                  and (not trace or len(traced) >= MIN_REPS))
        if elapsed >= seconds and (enough or failed):
            break

    host["executor"] = sorted({r["executor"] for r in plain + traced})
    host["kernel_backend_ran"] = sorted(
        {r["kernel_backend"] for r in plain + traced})
    host["workers"] = workers
    outcome = {"attempted": attempted, "failed": failed, "host": host,
               "samples": {
                   "discover_s": [r["discover_s"] for r in plain],
                   "setup_s": [r["setup_s"] for r in plain],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}}
    if not plain or (trace and not traced):
        return outcome
    discover_s = common.median([r["discover_s"] for r in plain])
    if not trace:
        outcome["values"] = {
            "setup_s": common.median([r["setup_s"] for r in plain]),
            "discover_s": discover_s,
            "peak_rss_mb": common.median(
                [r["peak_rss_mb"] for r in plain]),
            "ops_per_s": 1.0 / common.median([r["wall_s"] for r in plain]),
        }
        return outcome
    per_rep = []
    for record in traced:
        layer = spans.layer_metrics(record["trace"]["spans"], 1)
        layer["trace.unattributed_s"] = (
            record["trace"]["wall_s"]
            - spans.root_seconds(record["trace"]["spans"]))
        per_rep.append(layer)
    layer_values = {name: common.median([rep[name] for rep in per_rep])
                    for name in per_rep[0]}
    layer_values.update(dict.fromkeys(spans.REQUEST_METRICS, 0.0))
    layer_values["trace.overhead_ratio"] = (
        common.median([r["discover_s"] for r in traced]) / discover_s)
    outcome["values"] = layer_values
    return outcome
