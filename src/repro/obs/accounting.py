"""Per-job resource accounting: CPU, RSS and pool work.

Traces answer *where the wall clock went*; this module answers *what
it cost*.  A :class:`ResourceAccount` snapshots
:func:`resource.getrusage` when a job starts, counts the chunks the
worker pool ran for the job and their thread CPU time, and renders one
JSON-ready dict when the job finishes::

    {"cpu_user_seconds": ..., "cpu_system_seconds": ...,
     "max_rss_bytes": ..., "pool_chunks": 14, "pool_cpu_seconds": ...}

Pool threads live in the service process, so the process CPU delta
already includes their work; ``pool_cpu_seconds`` is the part of it
spent inside pool chunks.  Which account is *current* flows through a
``ContextVar`` installed by the job scheduler around each job
(:class:`track`), exactly like per-job trace buffers; because the
scheduler serialises jobs on one runner thread, the process CPU delta
belongs to that job (plus whatever the HTTP threads did meanwhile).

``ru_maxrss`` is a lifetime high-water mark, not a delta; Linux
reports KiB where macOS reports bytes (:func:`maxrss_bytes`
normalises).
"""

from __future__ import annotations

import contextvars
import resource
import sys
import threading
from typing import Dict, Optional


def maxrss_bytes(ru_maxrss: int) -> int:
    """Normalise ``ru_maxrss`` to bytes (Linux reports KiB, macOS
    bytes)."""
    if sys.platform == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def rusage_dict(who: int) -> Dict[str, float]:
    """One ``getrusage`` snapshot as a JSON-ready dict (``/stats``)."""
    ru = resource.getrusage(who)
    return {
        "cpu_user_seconds": round(ru.ru_utime, 6),
        "cpu_system_seconds": round(ru.ru_stime, 6),
        "max_rss_bytes": maxrss_bytes(ru.ru_maxrss),
    }


def process_rusage() -> Dict[str, Dict[str, float]]:
    """Process-lifetime usage of this process and its reaped
    children."""
    return {
        "self": rusage_dict(resource.RUSAGE_SELF),
        "children": rusage_dict(resource.RUSAGE_CHILDREN),
    }


class ResourceAccount:
    """Accumulates one job's resource usage."""

    def __init__(self):
        self._lock = threading.Lock()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self._utime0 = ru.ru_utime
        self._stime0 = ru.ru_stime
        self.pool_chunks = 0
        self.pool_cpu_seconds = 0.0

    def add_pool_chunks(self, chunks: int, cpu_seconds: float) -> None:
        """Bill one pool dispatch: its chunk count and their summed
        thread CPU time."""
        with self._lock:
            self.pool_chunks += int(chunks)
            self.pool_cpu_seconds += float(cpu_seconds)

    def finish(self) -> Dict[str, object]:
        """Close the account: process deltas since construction plus
        the pool work billed to it, as one JSON-ready dict."""
        ru = resource.getrusage(resource.RUSAGE_SELF)
        with self._lock:
            return {
                "cpu_user_seconds": round(
                    max(0.0, ru.ru_utime - self._utime0), 6),
                "cpu_system_seconds": round(
                    max(0.0, ru.ru_stime - self._stime0), 6),
                "max_rss_bytes": maxrss_bytes(ru.ru_maxrss),
                "pool_chunks": self.pool_chunks,
                "pool_cpu_seconds": round(self.pool_cpu_seconds, 6),
            }


#: The account the current job bills to (``None`` outside a job).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_resource_account", default=None)


def current() -> Optional[ResourceAccount]:
    return _CURRENT.get()


class track:
    """Install an account (or ``None``) for the dynamic extent — the
    job scheduler's per-job wrapper, mirroring ``trace.collect``."""

    __slots__ = ("account", "_token")

    def __init__(self, account: Optional[ResourceAccount]):
        self.account = account

    def __enter__(self) -> Optional[ResourceAccount]:
        self._token = _CURRENT.set(self.account)
        return self.account

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


__all__ = [
    "ResourceAccount",
    "current",
    "maxrss_bytes",
    "process_rusage",
    "rusage_dict",
    "track",
]
