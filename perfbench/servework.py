"""The ``serve-mixed`` workload: ``bagcq serve`` driven by two client threads.

The server runs as a subprocess with its default configuration.  Each
client thread owns a :class:`ServiceClient` with retries off and sends
its next request only after the previous reply (closed loop).  Counts
are checked after the run: inline requests against a backtracking count
of the same input, ``{"db": name}`` requests against a local mirror of
the database at the version the response reports.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from repro import count
from repro.homomorphism.cache import component_cache_key
from repro.io import query_to_dict, structure_to_dict
from repro.planner import select_for
from repro.relational.structure import Delta
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import parse_evaluate

import inputs
from tracing import Tracer

CLIENT_THREADS = 2
SERVER_START_TIMEOUT_S = 60.0
TRACE_POLL_S = 0.1
#: Inline requests replayed in-process for the parse/encode/serialize
#: and key timings.
REPLAY_SAMPLE = 400
BATCH = 64


class RecordingClient(ServiceClient):
    """A :class:`ServiceClient` that keeps the last response body.

    ``evaluate`` returns only the count; the db checks also need the
    version and fingerprint the server answered for.
    """

    last_response: dict | None = None

    def _post(self, endpoint: str, body: dict) -> dict:
        self.last_response = super()._post(endpoint, body)
        return self.last_response


class ServerProcess:
    """``python -m repro.cli serve --port 0`` run from the checkout."""

    def __init__(self, root: Path, log_path: Path) -> None:
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.url = self._read_url()

    def _read_url(self) -> str:
        ready, _, _ = select.select(
            [self.process.stdout], [], [], SERVER_START_TIMEOUT_S
        )
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return line.split()[-1]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def start_server(root: Path, pools, log_path: Path):
    """Spawn, wait for ``/healthz``, load the db and warm the caches.

    The warm-up sends every db query and every inline query shape once,
    which plans each shape and fills the db's count-cache entries.
    Returns ``(server, seconds)``, timed from spawn to the last reply.
    """
    t0 = perf_counter()
    server = ServerProcess(root, log_path)
    try:
        client = ServiceClient(server.url, retries=0)
        if client.healthz().get("status") != "ok":
            raise RuntimeError("server not healthy")
        client.load_db(inputs.DB_NAME, pools.db)
        for query in inputs.DB_QUERIES:
            client.evaluate(query, db=inputs.DB_NAME)
        for query in inputs.INLINE_QUERIES:
            client.evaluate(query, pools.inline_structures[0])
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


class ClientThread(threading.Thread):
    """One closed-loop client; records every op for the checks."""

    def __init__(self, index, url, seed, pools, present, start_op, end_at,
                 tracer: Tracer | None) -> None:
        super().__init__(name=f"client-{index}")
        self.index = index
        self.client = RecordingClient(url, retries=0)
        self.seed = seed
        self.pools = pools
        #: This thread's update facts currently in F (carried over phases).
        self.present = present
        self.end_at = end_at
        self.tracer = tracer
        #: ``(kind, latency s, op, outcome)``; outcome is the response
        #: dict, or an exception class name for a failed request.
        self.records: list[tuple] = []
        self.request_ids: list[tuple[str, float]] = []
        self.error: BaseException | None = None
        #: First op of the next unread batch of this thread's stream.
        self.next_op = start_op

    def run(self) -> None:
        try:
            while perf_counter() < self.end_at:
                for op in inputs.serve_ops(self.seed, self.index, self.pools,
                                           self.next_op, BATCH):
                    if perf_counter() >= self.end_at:
                        break
                    self._one(op)
                self.next_op += BATCH
        except BaseException as error:  # reported by the caller
            self.error = error

    def _one(self, op) -> None:
        kind = op[0]
        delta = None
        if kind == "update":
            fact = self.pools.update_facts[self.index][op[1]]
            insert = fact not in self.present
            entry = (("F", fact),)
            delta = Delta(inserts=entry) if insert else Delta(deletes=entry)
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span("op"):
                    response = self._send(kind, op, delta)
            else:
                response = self._send(kind, op, delta)
        except ServiceError as error:
            self.records.append((kind, perf_counter() - t0, op, type(error).__name__))
            return
        latency = perf_counter() - t0
        if kind == "update":
            self.present ^= {fact}
            response = dict(response, insert=insert, fact=fact)
        self.records.append((kind, latency, op, response))
        if self.tracer is not None:
            self.request_ids.append((self.client.last_request_id, latency))

    def _send(self, kind, op, delta) -> dict:
        client = self.client
        if kind == "inline":
            client.evaluate(inputs.INLINE_QUERIES[op[1]],
                            self.pools.inline_structures[op[2]])
        elif kind == "db":
            client.evaluate(inputs.DB_QUERIES[op[1]], db=inputs.DB_NAME)
        else:
            client.update(inputs.DB_NAME, delta=delta)
        return client.last_response


def drive(url, seed, pools, present, start_ops, seconds, traced):
    end_at = perf_counter() + seconds
    threads = [
        ClientThread(i, url, seed, pools, present[i], start_ops[i], end_at,
                     Tracer() if traced else None)
        for i in range(CLIENT_THREADS)
    ]
    t0 = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - t0
    for thread in threads:
        if thread.error is not None:
            raise thread.error
    return threads, wall


class TracePoller(threading.Thread):
    """Polls ``/traces`` so the 128-entry flight recorder is read in time."""

    def __init__(self, url: str) -> None:
        super().__init__(name="trace-poller")
        self.client = ServiceClient(url, retries=0)
        self.traces: dict[str, dict] = {}
        self.stopping = threading.Event()

    def run(self) -> None:
        while not self.stopping.is_set():
            self.poll()
            self.stopping.wait(TRACE_POLL_S)
        self.poll()

    def poll(self) -> None:
        for trace in self.client.traces()["traces"]:
            self.traces[trace["request_id"]] = trace


# -- correctness ---------------------------------------------------------------


def check(records, pools) -> list[bool]:
    """Per record: did the request succeed with the right answer?"""
    updates = sorted(
        (rec[3] for rec in records
         if rec[0] == "update" and isinstance(rec[3], dict)),
        key=lambda r: r["version"],
    )
    mirror = {0: pools.db}
    structure = pools.db
    bad_versions = set()
    for expected_version, report in enumerate(updates, start=1):
        entry = (("F", report["fact"]),)
        delta = Delta(inserts=entry) if report["insert"] else Delta(deletes=entry)
        structure = structure.apply_delta(delta)
        mirror[report["version"]] = structure
        if (report["version"] != expected_version
                or report["fingerprint"] != structure.fingerprint()):
            bad_versions.add(report["version"])
    references: dict = {}

    def reference(key, query, target) -> int:
        if key not in references:
            references[key] = count(
                query, target, engine="backtracking",
                use_inclusion_exclusion=bool(query.inequalities),
            )
        return references[key]

    verdicts = []
    for kind, _, op, response in records:
        if not isinstance(response, dict):
            verdicts.append(False)
        elif kind == "update":
            verdicts.append(response["version"] not in bad_versions)
        elif kind == "inline":
            verdicts.append(response["count"] == reference(
                ("inline", op[1], op[2]), inputs.INLINE_QUERIES[op[1]],
                pools.inline_structures[op[2]],
            ))
        else:
            target = mirror.get(response["version"])
            verdicts.append(
                target is not None
                and response["fingerprint"] == target.fingerprint()
                and response["count"] == reference(
                    ("db", op[1], response["version"]),
                    inputs.DB_QUERIES[op[1]], target,
                )
            )
    return verdicts


# -- per-layer metrics ---------------------------------------------------------


def _counter(snapshot: dict, name: str) -> float:
    return snapshot["metrics"].get(name, {}).get("value", 0)


def _hist(snapshot: dict, name: str) -> tuple[float, int]:
    entry = snapshot["metrics"].get(name, {})
    return entry.get("total_ms", 0.0), entry.get("count", 0)


def _delta_mean(before, after, *names) -> tuple[float, int]:
    total = calls = 0
    for name in names:
        t1, c1 = _hist(after, name)
        t0, c0 = _hist(before, name)
        total += t1 - t0
        calls += c1 - c0
    return (total / calls if calls else 0.0), calls


def _mean_ms(samples) -> float:
    return 1000.0 * statistics.fmean(samples) if samples else 0.0


def replay_layers(records, pools) -> dict:
    """Client encode, server parse/key and response serialize, replayed.

    The same request bodies and responses the traced phase sent and got,
    re-run in this process one call at a time.
    """
    encode, parse, components, key, serialize = [], [], [], [], []
    inline = [rec for rec in records if rec[0] == "inline"
              and isinstance(rec[3], dict)][:REPLAY_SAMPLE]
    for _, _, op, response in inline:
        query = inputs.INLINE_QUERIES[op[1]]
        structure = pools.inline_structures[op[2]]
        t0 = perf_counter()
        body = {"kind": "cq", "engine": "auto", "cache": True,
                "query": query_to_dict(query),
                "structure": structure_to_dict(structure)}
        payload = json.dumps(body).encode("utf-8")
        t1 = perf_counter()
        parse_evaluate(json.loads(payload), None)
        t2 = perf_counter()
        json.dumps(response).encode("utf-8")
        t3 = perf_counter()
        encode.append(t1 - t0)
        parse.append(t2 - t1)
        serialize.append(t3 - t2)
        t4 = perf_counter()
        parts = query.connected_components()
        components.append(perf_counter() - t4)
        for part in parts if len(parts) > 1 else [query]:
            engine = select_for(part, structure).engine
            t5 = perf_counter()
            component_cache_key(part, structure, engine)
            key.append(perf_counter() - t5)
    return {
        "service.encode_ms": _mean_ms(encode),
        "service.parse_ms": _mean_ms(parse),
        "service.serialize_ms": _mean_ms(serialize),
        "queries.components_ms": _mean_ms(components),
        "cache.key_ms": _mean_ms(key),
    }


def layer_metrics(threads, pools, before, after, traces, untraced_latency) -> dict:
    records = [rec for thread in threads for rec in thread.records]
    ops = [row for thread in threads for row in thread.tracer.spans
           if row[0] == "op"]
    rtt = [end - start for _, start, end, _, _ in ops]
    requests = [rid for thread in threads for rid in thread.request_ids]
    queue_wait, unattributed = [], 0.0
    missed = 0
    for request_id, latency in requests:
        trace = traces.get(request_id)
        if trace is None:
            missed += 1
            unattributed += latency
            continue
        root = trace["spans"]
        covered = 0.0
        for child in root["children"]:
            if child["name"] in ("admission", "wait", "coalesce"):
                covered += child["duration_ms"]
            if child["name"] == "queue_wait":
                queue_wait.append(child["duration_ms"] / 1000.0)
        unattributed += max(0.0, root["duration_ms"] - covered) / 1000.0
    server_ms, _ = _delta_mean(
        before, after, "service.request_ms.evaluate", "service.request_ms.update"
    )
    worker_ms, _ = _delta_mean(
        before, after, "service.time.evaluate", "service.time.update"
    )
    rtt_ms = _mean_ms(rtt)
    hits = _counter(after, "cache.hits") - _counter(before, "cache.hits")
    misses = _counter(after, "cache.misses") - _counter(before, "cache.misses")
    served = _counter(after, "service.requests") - _counter(before, "service.requests")
    updates = [rec[3] for rec in records
               if rec[0] == "update" and isinstance(rec[3], dict)]
    migrated = sum(r["migrated"] for r in updates)
    invalidated = sum(r["invalidated"] for r in updates)
    writes = [rec[1] for rec in records if rec[0] == "update"]
    picked = _counter(after, "plan.components") - _counter(before, "plan.components")
    metrics = {
        "cache.lookup_ms": 0.0,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": _counter(after, "cache.evictions")
        - _counter(before, "cache.evictions"),
        "planner.select_ms": 0.0,
        "planner.regret": 0.0,
        "compiled.compile_ms": 0.0,
        "compiled.run_ms": 0.0,
        "delta.apply_ms": _delta_mean(before, after, "service.time.update")[0],
        "delta.reuse_ratio": migrated / (migrated + invalidated)
        if migrated + invalidated else 0.0,
        "delta.write_p50_ms": 1000.0 * statistics.median(writes) if writes else 0.0,
        "service.rtt_ms": rtt_ms,
        "service.server_ms": server_ms,
        "service.worker_ms": worker_ms,
        "service.queue_wait_ms": _mean_ms(queue_wait),
        "service.transport_ms": rtt_ms - server_ms,
        "service.coalesced_ratio": (
            _counter(after, "service.coalesced") - _counter(before, "service.coalesced")
        ) / served if served else 0.0,
        "service.shed": _counter(after, "service.shed") - _counter(before, "service.shed"),
        "service.traces_missed": missed,
        "trace.overhead_ratio": (statistics.fmean(rtt) / untraced_latency)
        if rtt else 0.0,
        "trace.unattributed_share": unattributed / sum(rtt) if rtt else 0.0,
    }
    for engine in ("backtracking", "treewidth", "compiled", "acyclic"):
        mean_ms, calls = _delta_mean(before, after, f"engine.time.{engine}")
        metrics[f"engine.{engine}.ms"] = mean_ms
        metrics[f"engine.{engine}.calls"] = calls
        metrics[f"planner.picks.{engine}"] = (
            _counter(after, f"plan.selected.{engine}")
            - _counter(before, f"plan.selected.{engine}")
        ) / picked if picked else 0.0
    metrics.update(replay_layers(records, pools))
    return metrics


# -- the workload ----------------------------------------------------------------


def run_serve(root: Path, seed: int, seconds: float, traced: bool,
              setup_reps: int, work_dir: Path) -> dict:
    pools = inputs.serve_pools(seed, CLIENT_THREADS)
    setup_samples = []
    server = None
    try:
        for rep in range(setup_reps):
            if server is not None:
                server.stop()
            server, setup_s = start_server(
                root, pools, work_dir / "logs" / f"server-{rep}.log"
            )
            setup_samples.append(setup_s)
        present = [set() for _ in range(CLIENT_THREADS)]
        untraced_s = seconds / 3 if traced else seconds
        threads, wall = drive(server.url, seed, pools, present,
                              [0] * CLIENT_THREADS, untraced_s, traced=False)
        records = [rec for thread in threads for rec in thread.records]
        result = {
            "setup_samples": setup_samples,
            "latencies": [rec[1] for rec in records],
            "write_latencies": [rec[1] for rec in records if rec[0] == "update"],
            "wall_s": wall,
            "peak_rss_mb": server.peak_rss_mb(),
        }
        t_records = []
        if traced:
            client = ServiceClient(server.url, retries=0)
            poller = TracePoller(server.url)
            before = client.metrics()
            poller.start()
            try:
                starts = [thread.next_op for thread in threads]
                t_threads, _ = drive(server.url, seed, pools, present, starts,
                                     seconds - untraced_s, traced=True)
            finally:
                poller.stopping.set()
                poller.join()
            after = client.metrics()
            t_records = [rec for thread in t_threads for rec in thread.records]
            result["layers"] = layer_metrics(
                t_threads, pools, before, after, poller.traces,
                statistics.fmean(result["latencies"]),
            )
            result["spans"] = [row for thread in t_threads
                               for row in thread.tracer.spans]
    finally:
        if server is not None:
            server.stop()
    verdicts = check(records + t_records, pools)
    result.update(
        untraced_ok=sum(verdicts[: len(records)]),
        attempted=len(verdicts),
        failed=verdicts.count(False),
    )
    return result
