"""A stdlib-only sampling profiler: collapsed flamegraph text per job.

Spans (:mod:`repro.obs.trace`) say *when and inside what* at phase
granularity; the profiler says *which Python frames* the time actually
went to.  A :class:`SamplingProfiler` is a daemon thread that wakes
every ``interval`` seconds, grabs the target thread's frame via
:func:`sys._current_frames`, folds the stack into a
``module:func;module:func`` string, and bumps a counter — the
classic collapsed/folded flamegraph format::

    fastod:run;lattice:process_level;partition:product 42

The job scheduler starts one profiler per job, targeting its runner
thread, and installs it with :class:`track`.  Pool threads running one
of the job's chunks join it for the chunk's duration
(:func:`thread_sampled`); their stacks are rooted under ``worker``.
The counts are served as ``GET /jobs/{id}/profile`` /
``repro-od profile-job``.

Sampling costs one stack walk per tick (~microseconds at the default
5 ms interval); a stopped/never-started profiler costs nothing.  The
profiler takes one synchronous sample on :meth:`start` and one on
:meth:`stop`, so even a job shorter than one tick exports a non-empty
profile.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Default wall-clock seconds between samples: ~200 Hz, coarse enough
#: to be invisible next to kernel work, fine enough that a one-second
#: job collects hundreds of samples.
DEFAULT_INTERVAL = 0.005

#: Bound on the folded stack depth: recursion-heavy frames collapse
#: into their first 64 levels instead of producing unbounded keys.
_STACK_DEPTH_LIMIT = 64


def _fold_frame(frame) -> str:
    """One frame object -> ``module:func;...`` root-first fold."""
    parts = []
    depth = 0
    while frame is not None and depth < _STACK_DEPTH_LIMIT:
        code = frame.f_code
        stem = os.path.splitext(os.path.basename(code.co_filename))[0]
        parts.append(f"{stem}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


def render_folded(counts: Dict[str, int]) -> str:
    """Collapsed flamegraph text: one ``stack count`` line per stack,
    heaviest first (ties broken lexically for determinism)."""
    lines = [f"{stack} {n}" for stack, n in
             sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    return "\n".join(lines)


class SamplingProfiler:
    """Periodic stack sampler for one target thread.

    ``thread_id`` defaults to the *calling* thread — the common case
    is "profile me": the job runner profiles itself.  More threads can
    join for a while (:meth:`add_thread`), each under a stack-root
    prefix.  The sampler runs on its own daemon thread and never
    samples itself.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 thread_id: Optional[int] = None):
        self.interval = float(interval)
        self._target = (thread_id if thread_id is not None
                        else threading.get_ident())
        self._counts: Dict[str, int] = {}
        #: joined threads: thread id -> stack-root prefix
        self._extra: Dict[int, str] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def add_thread(self, thread_id: int, prefix: str) -> None:
        """Sample ``thread_id`` too, its stacks rooted under
        ``prefix``, until :meth:`remove_thread`; takes one sample of it
        right away so even a short visit shows up."""
        with self._lock:
            self._extra[thread_id] = prefix
        self.sample_once({thread_id: prefix})

    def remove_thread(self, thread_id: int) -> None:
        with self._lock:
            self._extra.pop(thread_id, None)

    def sample_once(self, targets: Optional[Dict[int, str]] = None
                    ) -> None:
        """Take one synchronous sample of the target thread and every
        joined thread (callable from any thread, including a target);
        ``targets`` (thread id -> stack-root prefix) narrows it."""
        if targets is None:
            with self._lock:
                targets = {self._target: "", **self._extra}
        frames = sys._current_frames()
        stacks = []
        for thread_id, prefix in targets.items():
            frame = frames.get(thread_id)
            if frame is not None:
                stack = _fold_frame(frame)
                stacks.append(f"{prefix};{stack}" if prefix else stack)
        del frames
        with self._lock:
            for stack in stacks:
                self._counts[stack] = self._counts.get(stack, 0) + 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._thread = None
        self.sample_once()

    def counts(self) -> Dict[str, int]:
        """A snapshot copy of the folded-stack counts so far."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()

    def render(self) -> str:
        return render_folded(self.counts())


# ----------------------------------------------------------------------
# the current job's profiler
# ----------------------------------------------------------------------
#: The profiler of the job running in this context (``None`` outside a
#: profiled job); pool chunks see it through their context copy.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_profiler", default=None)


@contextmanager
def track(prof: Optional[SamplingProfiler]
          ) -> Iterator[Optional[SamplingProfiler]]:
    """Install a profiler (or ``None``) for the dynamic extent — the job
    scheduler's per-job wrapper, mirroring ``trace.collect``."""
    token = _CURRENT.set(prof)
    try:
        yield prof
    finally:
        _CURRENT.reset(token)


@contextmanager
def thread_sampled(prefix: str = "worker") -> Iterator[None]:
    """Have the current job's profiler, if any, sample the calling
    thread for the dynamic extent (what a pool thread wraps around one
    chunk of the job's work)."""
    prof = _CURRENT.get()
    if prof is None:
        yield
        return
    thread_id = threading.get_ident()
    prof.add_thread(thread_id, prefix)
    try:
        yield
    finally:
        prof.remove_thread(thread_id)


__all__ = [
    "DEFAULT_INTERVAL",
    "SamplingProfiler",
    "render_folded",
    "thread_sampled",
    "track",
]
