"""Paths, child-process plumbing, statistics and host metadata shared
by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing.util
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything a run builds or writes lives under this ignored directory
BUILD = ROOT / ".bench_build"
KERNEL_CACHE = BUILD / "repro-kernels"
WORK = BUILD / "perfbench"

#: generator seed of every workload's dataset; the benchmark seed
#: shuffles and splits rows instead (see NOTES.md, "Workloads")
DATASET_SEED = 42


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed build)."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(tmpdir: Path) -> Dict[str, str]:
    """Environment for every process under test: the checkout's
    sources, a kernel cache and a temp dir inside the checkout, and the
    program's observability left at its default."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_KERNELS", None)
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_FAULT_PLAN", None)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNELS_CACHE"] = str(KERNEL_CACHE)
    env["TMPDIR"] = str(tmpdir)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def use_program_in_this_process() -> None:
    """Let the benchmark process import the checkout's ``repro``
    (input generation and output checks only; nothing it does is
    timed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_KERNELS_CACHE"] = str(KERNEL_CACHE)


def run_child(args: Sequence[str], env: Dict[str, str],
              timeout: float = 170.0) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return proc


def start(command: Sequence[str], env: Dict[str, str],
          **kwargs) -> subprocess.Popen:
    """Start a process under test in a process group of its own, so
    :func:`kill_group` also reaches the pool workers it forks."""
    return subprocess.Popen(list(command), env=env, cwd=ROOT,
                            start_new_session=True, **kwargs)


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a process started by :func:`start` and everything in its
    group, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class WorkerMemory:
    """Peak memory of this process plus what the processes it forks add.

    Create one in a process under test before it forks its pool.  Each
    forked worker notes its RSS right after the fork, which is what it
    inherited from the coordinator, and writes, as it exits through
    multiprocessing's shutdown path, how far its peak RSS rose above
    that.  :meth:`peak_mb` adds these rises to this process's own peak
    RSS, so inherited pages count once.  Known limits: a page a worker
    copies on write replaces an inherited one in its RSS and is not
    counted; a shared-memory segment that both the coordinator and a
    worker map counts in both; and peaks that do not coincide make the
    sum an upper bound of the group's simultaneous peak.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.forks = 0
        os.register_at_fork(after_in_parent=self._forked)
        multiprocessing.util.register_after_fork(self, WorkerMemory._child)

    def _forked(self) -> None:
        self.forks += 1

    def _child(self) -> None:
        inherited = _status_kb("VmRSS")

        def record() -> None:
            (self.directory / f"{os.getpid()}.kb").write_text(
                str(max(_status_kb("VmHWM") - inherited, 0)))

        multiprocessing.util.Finalize(None, record, exitpriority=0)

    def peak_mb(self) -> Optional[float]:
        """Own peak RSS plus every worker's rise, in MB; ``None`` if a
        forked worker left no record (it did not exit cleanly)."""
        rises = [int(path.read_text())
                 for path in self.directory.glob("*.kb")]
        if len(rises) != self.forks:
            return None
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + sum(rises)) / 1024.0


def _status_kb(key: str) -> int:
    """One ``kB`` field of ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            if name == key:
                return int(rest.split()[0])
    raise BenchError(f"no {key} in /proc/self/status")


def source_digest() -> str:
    """Content hash of the program's sources (keys cached oracles)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_metadata(env: Dict[str, str]) -> Dict[str, object]:
    """nproc, Python and NumPy versions, and whether the compiled
    kernels build here (building them into the checkout's cache on the
    first call, so no timed set-up ever pays the compile)."""
    probe = ("import json, numpy, repro.kernels as k; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'compiled_available': k.compiled_available(), "
             "'default_kernel_backend': k.default_backend().name}))")
    proc = run_child(["-c", probe], env, timeout=900.0)
    meta = json.loads(proc.stdout.strip().splitlines()[-1])
    meta.update({"nproc": os.cpu_count() or 1,
                 "python": platform.python_version(),
                 "machine": platform.machine()})
    return meta


def fresh_dir(name: str) -> Path:
    path = WORK / name
    if path.exists():
        shutil.rmtree(path)
    (path / "tmp").mkdir(parents=True)
    return path


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return float(ordered[rank - 1])


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None
