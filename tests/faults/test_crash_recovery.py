"""kill -9 crash recovery through the durable job journal.

A real ``repro-od serve --journal-dir`` is SIGKILL'd mid-job and
restarted on the same directory: the dataset must come back, the
interrupted job must surface as terminal ``crashed``, and a resubmit
must complete.  SIGKILL skips every ``finally`` — which is the point:
only the fsync'd journal survives.

The server runs ``--workers 1``: this test covers the ledger, not the
pool.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.server.client import ServiceClient

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Hold every job in the started->finished window for 30s, so the test
#: can SIGKILL a provably *running* job without racing its completion.
FAULT_PLAN = json.dumps({
    "seed": 0,
    "rates": {"jobs.start.delay": 1.0},
    "delays": {"jobs.start.delay": 30.0},
})

COLUMNS = ["c0", "c1", "c2"]
ROWS = [[1, 10, 5], [2, 20, 5], [3, 30, 6], [4, 40, 6]]


def spawn_serve(journal_dir: Path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_FAULT_PLAN", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--journal-dir", str(journal_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)


def read_url(process, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return match.group(1)
        if process.poll() is not None:
            break
    pytest.fail(f"serve never announced its URL; stderr: "
                f"{process.stderr.read()}")


def wait_for_status(client, job_id: str, status: str,
                    timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.job(job_id)["status"] == status:
            return
        time.sleep(0.05)
    pytest.fail(f"job {job_id} never reached {status!r}")


def test_sigkill_then_restart_recovers_the_ledger(tmp_path):
    journal_dir = tmp_path / "journal"
    first = spawn_serve(journal_dir,
                        extra_env={"REPRO_FAULT_PLAN": FAULT_PLAN})
    try:
        client = ServiceClient(read_url(first), timeout=10.0)
        fp = client.register_rows(COLUMNS, ROWS,
                                  name="crashme")["fingerprint"]
        job_id = client.submit("discover", fp, wait=False)["id"]
        # the injected start delay parks the job in "running" — the
        # exact window a crash loses work in
        wait_for_status(client, job_id, "running")
        first.send_signal(signal.SIGKILL)
        assert first.wait(timeout=15.0) == -signal.SIGKILL
    finally:
        if first.poll() is None:
            first.kill()
        first.wait(timeout=15.0)

    second = spawn_serve(journal_dir)
    try:
        client = ServiceClient(read_url(second), timeout=10.0)
        health = client.health()
        assert health["recovered"]["datasets"] == 1
        assert health["recovered"]["crashed"] == 1
        # the dataset came back from its spooled registration body
        assert [d for d in client.datasets()
                if d["fingerprint"] == fp]
        # the interrupted job is terminal crashed — never silently
        # re-run — and says so
        job = client.job(job_id)
        assert job["status"] == "crashed"
        assert "crash" in job["error"]
        # a resubmit completes normally on the recovered dataset
        done = client.discover(fp, wait=False)
        done = client.poll(done["id"], timeout=60.0)
        assert done["status"] == "done"
        assert done["result"]["n_fds"] >= 0
    finally:
        second.send_signal(signal.SIGINT)
        try:
            second.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            second.kill()
            second.wait(timeout=15.0)


def test_restart_requeues_never_started_jobs(tmp_path):
    """A job journaled as submitted (but queued behind the crash) is
    re-run on restart under its original id."""
    from repro.server.journal import JobJournal

    journal_dir = tmp_path / "journal"
    # forge the previous process's ledger directly: one dataset, one
    # job submitted but never started
    journal = JobJournal(journal_dir)
    source = {"columns": COLUMNS, "rows": ROWS, "name": "queued"}
    from repro.relation.fingerprint import fingerprint
    from repro.relation.table import Relation

    fp = fingerprint(Relation.from_rows(COLUMNS,
                                        [tuple(r) for r in ROWS]))
    journal.dataset_registered(fp, "queued", source)
    journal.job_submitted("job-7", "discover", fp, {})
    journal.close()

    process = spawn_serve(journal_dir)
    try:
        client = ServiceClient(read_url(process), timeout=10.0)
        assert client.health()["recovered"]["requeued"] == 1
        job = client.poll("job-7", timeout=60.0)
        assert job["status"] == "done"
        # the id floor advanced past the journaled id: no collision
        new_id = client.submit("discover", fp, wait=False)["id"]
        assert int(new_id.rsplit("-", 1)[-1]) > 7
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15.0)
