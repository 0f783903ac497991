"""Chaos-suite fixtures.

Every test runs with a clean fault registry and must leave
``/dev/shm`` exactly as it found it — a recovery path that survives a
failure but leaks shared-memory segments has not recovered.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.server.smoke import shm_segments


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    before = shm_segments()
    yield
    faults.clear()
    leaked = shm_segments() - before
    assert not leaked, (
        f"leaked shared-memory segments: {sorted(leaked)}")
