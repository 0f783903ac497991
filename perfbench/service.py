"""The ``service-mix`` workload: reads and writes on one durable store.

The service runs in its own process (:mod:`sut_serve`) with one pool
worker per core and ``--journal-dir`` set, so every delta commit is an
fsync'd append to the dataset's write-ahead log before it is applied.
Load is a closed loop of :data:`CLIENTS` client threads in this
process — each sends its next request only after the previous reply,
because callers block on ``wait=true`` — mixing cached ``discover``
reads, ``validate`` checks and ``delta`` batches that delete
:data:`DELTA_ROWS` rows and insert as many fresh rows of the same
generator family, so the dataset keeps its size.  Each client deletes
only rows it owns (its half of the initial rows plus rows it inserted),
so the two clients' deltas never conflict.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import common
import spans
from repro.server.client import ServiceClient, ServiceClientError

FAMILY = "flight"
N_ROWS = 20_000
N_ATTRS = 10
CLIENTS = 2
#: rows each delta deletes, and fresh rows it inserts: 40 weighted ops,
#: the batch size of the delta-log benchmark
#: (``benchmarks/bench_deltalog.py``, ``OPS_PER_BATCH``)
DELTA_ROWS = 20
#: request mix, as counts per cycle of 20 requests; each client
#: shuffles every cycle, so the realised mix is exact at any run length
MIX = (("read", 14), ("validate", 3), ("delta", 3))
#: dependencies that hold on every row of the flight family at a fixed
#: row count, so every validate must answer ``holds: true``
VALIDATE = ("{month}: [] -> quarter", "{distance}: [] -> airtime",
            "{dest,origin}: [] -> distance", "{}: month ~ quarter")
#: service boots per end-to-end run; set-up is reported as their median
SETUPS = 3
#: extra cold discovers per boot, each on a copy of the rows in another
#: order (another fingerprint, so nothing is cached)
COLD_COPIES = 4
#: the closed loop's throughput is the median over this many equal
#: windows of the mix
WINDOWS = 4
#: a mix runs past ``--seconds`` until it has this many reads and
#: deltas, whatever the host's speed: enough for a p99 and a p90
MIN_SAMPLES = {"read": 1000, "delta": 100}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _csv_text(names: List[str], rows: List[list], scratch: Path) -> str:
    from repro.relation.csvio import write_csv
    from repro.relation.table import Relation

    write_csv(Relation.from_rows(names, rows), scratch)
    return scratch.read_text(encoding="utf-8")


def _rows_of(seed: int, scratch: Path) -> Tuple[List[str], List[list]]:
    """Generated rows as the service will parse them (via CSV)."""
    from repro.datasets import make_dataset
    from repro.relation.csvio import read_csv, write_csv

    write_csv(make_dataset(FAMILY, n_rows=N_ROWS, n_attrs=N_ATTRS,
                           seed=seed), scratch)
    parsed = read_csv(scratch)
    return list(parsed.names), [list(row) for row in parsed.rows()]


class Inputs:
    """Everything a run sends, and the reference FD/OCD set of the
    initial snapshot.

    The rows, the fresh-row pools and the order in which each client
    deletes its rows are fixed: which rows a delta removes and inserts
    decides how far it reaches into the lattice, and with per-seed rows
    one seed's deltas took a third longer than another's.  The
    benchmark seed shuffles the rows of the registered CSV and of its
    cold-discover copies, and orders each client's requests.
    """

    def __init__(self, seed: int, work: Path):
        scratch = work / "generated.csv"
        self.names, rows = _rows_of(common.DATASET_SEED, scratch)
        # client c owns generated rows c, c + CLIENTS, ... and deletes
        # them in a fixed random order (in generation order, deltas
        # would walk the surrogate key and cost twice as much)
        self.owned = []
        for client in range(CLIENTS):
            owned = rows[client::CLIENTS]
            random.Random(100 + client).shuffle(owned)
            self.owned.append(owned)
        self.initial_key = _oracle(self.names, rows)
        shuffle = random.Random(seed).shuffle
        self.copies = []
        for _ in range(COLD_COPIES + 1):
            shuffled = list(rows)
            shuffle(shuffled)
            self.copies.append(_csv_text(self.names, shuffled, scratch))
        self.csv = self.copies.pop()
        self.fresh = []
        for client in range(CLIENTS):
            _, pool = _rows_of(common.DATASET_SEED + 1 + client, scratch)
            random.Random(client).shuffle(pool)
            self.fresh.append(pool)


class ClientState:
    """One client's owned rows, fresh-row cursor and request order."""

    def __init__(self, inputs: Inputs, client: int, seed: int):
        #: deleted from the left, inserted rows appended on the right
        self.owned = collections.deque(inputs.owned[client])
        self.fresh = inputs.fresh[client]
        self.cursor = 0
        self.rng = random.Random(seed * 7919 + client)
        self.cycle: List[str] = []

    def next_kind(self) -> str:
        if not self.cycle:
            self.cycle = [kind for kind, count in MIX
                          for _ in range(count)]
            self.rng.shuffle(self.cycle)
        return self.cycle.pop()

    def delta_rows(self) -> Tuple[list, list]:
        deletes = [self.owned.popleft() for _ in range(DELTA_ROWS)]
        inserts = []
        for _ in range(DELTA_ROWS):
            inserts.append(self.fresh[self.cursor % len(self.fresh)])
            self.cursor += 1
        self.owned.extend(inserts)
        return deletes, inserts

    def undo(self, deletes: list, inserts: list) -> None:
        """A delta that did not commit leaves the rows as they were."""
        for _ in inserts:
            self.owned.pop()
        self.owned.extendleft(reversed(deletes))


# ----------------------------------------------------------------------
# the service process and its HTTP API
# ----------------------------------------------------------------------
class Service:
    def __init__(self, work: Path, name: str, env: Dict[str, str],
                 traced: bool):
        self.record = work / f"{name}.exit.json"
        self.trace_out = work / f"{name}.spans.json" if traced else None
        command = [sys.executable, str(common.BENCH_DIR / "sut_serve.py"),
                   "--exit-record", str(self.record)]
        if traced:
            command += ["--trace-out", str(self.trace_out)]
        command += ["--", "--port", "0",
                    "--workers", str(os.cpu_count() or 1),
                    "--journal-dir", str(work / f"{name}.journal")]
        self._stderr_path = work / f"{name}.stderr"
        self._stderr = open(self._stderr_path, "w")
        self.started = time.perf_counter()
        self.proc = common.start(command, env, stdout=subprocess.PIPE,
                                 stderr=self._stderr, text=True)
        self.client: Optional[ServiceClient] = None
        # a service that never reports its port is killed, which ends
        # the read below
        watchdog = threading.Timer(120.0, common.kill_group,
                                   (self.proc,))
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if "listening on" in line:
                    url = urlsplit(
                        line.split("listening on", 1)[1].strip())
                    # no retries: a refused request is a failed one
                    self.client = ServiceClient(
                        f"http://{url.hostname}:{url.port}",
                        timeout=120.0, retries=0)
                    break
        finally:
            watchdog.cancel()
        if self.client is None:
            self.stop()
            raise common.BenchError("the service did not start")
        # keep draining stdout so the service never blocks on a pipe
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def stderr_tail(self) -> str:
        return self._stderr_path.read_text(errors="replace")[-3000:]

    def stop(self) -> Dict:
        """SIGTERM, wait for the drain, return the exit record.  A
        service still running after a minute is killed with its pool
        workers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                common.kill_group(self.proc)
        self._stderr.close()
        if self.record.exists():
            return json.loads(self.record.read_text())
        return {}


def _result_key(result: dict) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    return tuple(sorted(result["fds"])), tuple(sorted(result["ocds"]))


def _oracle(names: List[str], rows: List[list]):
    """FD/OCD strings of an in-process ``workers=1, reference`` run."""
    from repro.core.fastod import FastOD, FastODConfig
    from repro.relation.table import Relation

    result = FastOD(Relation.from_rows(names, [tuple(r) for r in rows]),
                    FastODConfig(workers=1,
                                 kernel_backend="reference")).run()
    return (tuple(sorted(str(od) for od in result.fds)),
            tuple(sorted(str(od) for od in result.ocds)))


class Boot:
    """One boot of the service with its registered dataset, the
    clients' state and every reply worth checking."""

    def __init__(self, inputs: Inputs, seed: int, work: Path, name: str,
                 env: Dict[str, str], traced: bool):
        self.inputs = inputs
        self.clients = [ClientState(inputs, c, seed)
                        for c in range(CLIENTS)]
        self.lock = threading.Lock()
        self.attempted = self.failed = 0
        #: fingerprint -> FD/OCD set the service committed for it
        self.committed: Dict[str, tuple] = {}
        self.reads: List[Tuple[str, tuple]] = []
        self.lsns: List[int] = []
        self.samples: Dict[str, List[float]] = {
            kind: [] for kind, _ in MIX}
        #: perf_counter at which each mix request completed
        self.completions: List[float] = []
        self.jobs: List[dict] = []
        #: executor backends the cold discovers reported
        self.executors: set = set()
        self.service = Service(work, name, env, traced)
        self.fingerprint = ""
        #: perf_counter interval of the last mix (the clock is
        #: system-wide monotonic, so server spans compare against it)
        self.window = (0.0, 0.0)

    # -- one request, timed and checked ---------------------------------
    def _call(self, kind: str, send: Callable[[ServiceClient], dict],
              ) -> Tuple[float, Optional[dict]]:
        """Time one request; a refused, failed or unfinished one counts
        as failed and returns ``None``."""
        started = time.perf_counter()
        try:
            reply = send(self.service.client)
            problem = (None if reply.get("status", "done") == "done"
                       else str(reply))
        except (ServiceClientError, OSError, http.client.HTTPException,
                ValueError) as error:
            reply, problem = None, str(error)
        latency = time.perf_counter() - started
        with self.lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"error: {kind}: {problem[:300]}", file=sys.stderr)
        return latency, reply if problem is None else None

    def setup(self) -> Tuple[float, float]:
        """Register, cold discover, one warm-up delta; returns
        (set-up seconds since launch, cold discover seconds)."""
        _, reply = self._call("register", lambda api: (
            api.register_csv(self.inputs.csv, name="bench")))
        if reply is None:
            raise common.BenchError("registration failed")
        self.fingerprint = reply["fingerprint"]
        expected = self.inputs.initial_key
        cold, reply = self._call(
            "discover", lambda api: api.discover(self.fingerprint))
        if reply is None or _result_key(reply["result"]) != expected:
            self._wrong("the cold discover differs from the in-process "
                        "reference run")
        else:
            self.committed[reply["fingerprint"]] = expected
            self.executors.add(reply["executor"]["backend"])
        self.delta(self.clients[0])
        return time.perf_counter() - self.service.started, cold

    def cold_discovers(self) -> List[float]:
        """Register each row-order copy and discover it cold."""
        latencies = []
        for index, csv in enumerate(self.inputs.copies):
            _, reply = self._call("register", lambda api: (
                api.register_csv(csv, name=f"copy{index}")))
            if reply is None:
                continue
            fingerprint = reply["fingerprint"]
            latency, reply = self._call(
                "discover", lambda api: api.discover(fingerprint))
            if (reply is None or _result_key(reply["result"])
                    != self.inputs.initial_key):
                self._wrong("a cold discover of a row-order copy differs "
                            "from the in-process reference run")
            else:
                self.executors.add(reply["executor"]["backend"])
            latencies.append(latency)
        return latencies

    def kernel_backends(self) -> List[str]:
        """Kernel backends the service dispatched to, from the labels
        of its ``repro_kernel_calls_total`` counter."""
        try:
            text = self.service.client.metrics()
        except ServiceClientError:
            return []
        return sorted(set(re.findall(
            r'^repro_kernel_calls_total\{[^}]*backend="([^"]+)"',
            text, re.MULTILINE)))

    def _wrong(self, message: str) -> None:
        with self.lock:
            self.failed += 1
        print(f"error: {message}", file=sys.stderr)

    def read(self) -> float:
        latency, reply = self._call(
            "read", lambda api: api.discover(self.fingerprint))
        if reply is not None:
            with self.lock:
                self.reads.append((reply["fingerprint"],
                                   _result_key(reply["result"])))
        return latency

    def validate(self, client: ClientState) -> float:
        dependency = client.rng.choice(VALIDATE)
        latency, reply = self._call("validate", lambda api: (
            api.validate(self.fingerprint, dependency)))
        if reply is not None:
            self.jobs.append(reply)
            if reply["report"]["holds"] is not True:
                self._wrong(f"validate of {dependency} answered "
                            f"{reply['report']['holds']}")
        return latency

    def delta(self, client: ClientState) -> float:
        deletes, inserts = client.delta_rows()
        latency, reply = self._call("delta", lambda api: api.delta(
            self.fingerprint, deletes=deletes, inserts=inserts))
        if reply is None:
            client.undo(deletes, inserts)
            return latency
        self.jobs.append(reply)
        with self.lock:
            self.lsns.append(reply.get("lsn"))
            self.committed[reply["fingerprint"]] = _result_key(
                reply["result"])
            self.fingerprint = reply["fingerprint"]
        return latency

    # -- the closed loop ------------------------------------------------
    def _enough(self) -> bool:
        with self.lock:
            return all(len(self.samples[kind]) >= count
                       for kind, count in MIN_SAMPLES.items())

    def _client_loop(self, client: ClientState, deadline: float,
                     ) -> None:
        while time.perf_counter() < deadline or not self._enough():
            kind = client.next_kind()
            if kind == "read":
                latency = self.read()
            elif kind == "validate":
                latency = self.validate(client)
            else:
                latency = self.delta(client)
            with self.lock:
                self.samples[kind].append(latency)
                self.completions.append(time.perf_counter())

    def mix(self, seconds: float) -> None:
        """Run the closed loop for ``seconds``, and longer if it has not
        yet measured :data:`MIN_SAMPLES`."""
        self.jobs.clear()
        started = time.perf_counter()
        threads = [threading.Thread(target=self._client_loop,
                                    args=(client, started + seconds),
                                    daemon=True)
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.window = (started, time.perf_counter())

    def ops_per_s(self) -> float:
        """Requests completed per second: the median over
        :data:`WINDOWS` equal windows of the mix, each taken between
        its first and last completion."""
        first, last = self.window
        width = (last - first) / WINDOWS
        windows: List[List[float]] = [[] for _ in range(WINDOWS)]
        for done in self.completions:
            if first <= done < last:
                windows[int((done - first) / width)].append(done)
        rates = [(len(w) - 1) / (w[-1] - w[0])
                 for w in windows if len(w) > 1]
        return common.median(rates) if rates else 0.0

    def check(self) -> None:
        """Final served discover vs an in-process run on the final
        snapshot; every read vs the set committed for its fingerprint;
        the WAL sequence numbers form one gap-free chain."""
        _, reply = self._call(
            "discover", lambda api: api.discover(self.fingerprint))
        final_rows = [row for client in self.clients
                      for row in client.owned]
        expected = _oracle(self.inputs.names, final_rows)
        if reply is None or _result_key(reply["result"]) != expected:
            self._wrong("the final served discover differs from an "
                        "in-process run on the final snapshot")
        for fingerprint, key in self.reads:
            if self.committed.get(fingerprint) != key:
                self._wrong(f"a read at {fingerprint} differs from the "
                            f"set committed for it")
        if sorted(self.lsns) != list(range(1, len(self.lsns) + 1)):
            self._wrong(f"delta LSNs do not form one chain: "
                        f"{sorted(self.lsns)[:20]}")

    def queue_stats(self) -> Dict[str, float]:
        """Median queue wait and run time of the queued (non-cached)
        jobs of the last mix, from the service's own job records."""
        queued = [job for job in self.jobs if not job.get("cached")
                  and job.get("started_at") is not None]
        if not queued:
            return {"server.queue_wait_ms": 0.0, "server.job_run_ms": 0.0}
        return {
            "server.queue_wait_ms": 1000.0 * common.median(
                [job["started_at"] - job["submitted_at"]
                 for job in queued]),
            "server.job_run_ms": 1000.0 * common.median(
                [job["finished_at"] - job["started_at"]
                 for job in queued]),
        }


def _latency_metrics(samples: Dict[str, List[float]]) -> Dict[str, float]:
    def ms(kind: str, q: float) -> float:
        values = samples[kind]
        return 1000.0 * common.quantile(values, q) if values else 0.0

    return {
        "server.read_p50_ms": ms("read", 0.50),
        "server.read_p99_ms": ms("read", 0.99),
        "server.validate_p50_ms": ms("validate", 0.50),
        "server.delta_p50_ms": ms("delta", 0.50),
        "server.delta_p90_ms": ms("delta", 0.90),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict:
    # the service is on this host: no proxy named in the environment
    # may carry its requests
    os.environ["no_proxy"] = "*"
    work = common.fresh_dir(f"service-mix-{seed}-{os.getpid()}")
    env = common.child_env(work / "tmp")
    host = common.host_metadata(env)
    host["workers"] = os.cpu_count() or 1
    host["clients"] = CLIENTS
    host["flush_policy"] = "fsync per delta commit (--journal-dir)"
    inputs = Inputs(seed, work)
    attempted = failed = 0
    outcome: Dict = {"host": host, "samples": {}}
    boots: List[Boot] = []

    def finish(boot: Boot) -> Dict:
        nonlocal attempted, failed
        boots.remove(boot)
        record = boot.service.stop()
        if record.get("exit_code") != 143:
            boot._wrong(
                f"the service exited {boot.service.proc.returncode}:\n"
                + boot.service.stderr_tail())
        elif record.get("peak_rss_mb") is None:
            boot._wrong("a pool worker of the service did not exit "
                        "cleanly")
        attempted += boot.attempted
        failed += boot.failed
        return record

    try:
        if not trace:
            setups, colds = [], []
            for index in range(SETUPS):
                boot = Boot(inputs, seed, work, f"boot{index}", env,
                                  traced=False)
                boots.append(boot)
                setup_s, cold_s = boot.setup()
                setups.append(setup_s)
                colds += [cold_s, *boot.cold_discovers()]
                if index < SETUPS - 1:
                    finish(boot)
            boot.mix(seconds)
            boot.check()
            host["kernel_backend_ran"] = boot.kernel_backends()
            host["executor"] = sorted(boot.executors)
            samples = boot.samples
            record = finish(boot)
            outcome["samples"] = {"setup_s": setups, "discover_s": colds,
                                  **{f"{k}_s": v for k, v in
                                     samples.items()}}
            outcome["values"] = {
                "setup_s": common.median(setups),
                "discover_s": common.median(colds),
                "peak_rss_mb": record.get("peak_rss_mb") or 0.0,
                "ops_per_s": boot.ops_per_s(),
            }
            outcome["report"] = {
                "requests": {k: len(v) for k, v in samples.items()},
                **_latency_metrics(samples)}
        else:
            plain = Boot(inputs, seed, work, "plain", env, traced=False)
            boots.append(plain)
            plain.setup()
            plain.mix(seconds)
            plain.check()
            host["kernel_backend_ran"] = plain.kernel_backends()
            host["executor"] = sorted(plain.executors)
            finish(plain)
            traced = Boot(inputs, seed, work, "traced", env,
                             traced=True)
            boots.append(traced)
            traced.setup()
            traced.mix(seconds)
            traced.check()
            finish(traced)
            outcome["values"] = _traced_values(traced, plain)
    finally:
        for boot in list(boots):
            finish(boot)
    outcome["attempted"] = attempted
    outcome["failed"] = failed
    return outcome


def _traced_values(boot: Boot, plain: Boot) -> Dict:
    trace = json.loads(boot.service.trace_out.read_text())
    first, last = boot.window
    mix_spans = [span for span in trace["spans"]
                 if first <= span["start"] < last]
    n_ops = sum(len(v) for v in boot.samples.values())
    values = spans.layer_metrics(mix_spans, n_ops)
    values.update(boot.queue_stats())
    values.update(_latency_metrics(plain.samples))
    client_s = sum(sum(v) for v in boot.samples.values())
    values["trace.unattributed_s"] = (
        (client_s - spans.request_seconds(mix_spans)) / max(n_ops, 1))
    values["trace.overhead_ratio"] = plain.ops_per_s() / boot.ops_per_s()
    return values
