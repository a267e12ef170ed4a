"""The evaluation daemon: HTTP front, bounded worker pool, single-flight.

Architecture (one process, threads only, standard library only)::

    ThreadingHTTPServer (one thread per connection)
        │  parse + validate body          ── cheap, done on the HTTP thread
        │  single-flight lookup           ── identical in-flight work merges
        │  admission control              ── bounded queue; Full → 429 shed
        ▼
    queue.Queue(maxsize=queue_depth)
        ▼
    N worker threads (warm, registry-activated)
        │  CountCache + PlanCache shared  ── process-wide, thread-safe
        ▼
    flight resolution → every waiting HTTP thread fans the result out

**Admission control.**  Work enters a bounded queue with a non-blocking
put: when ``queue_depth`` jobs are already waiting, the request is shed
immediately with a structured 429 envelope carrying a ``Retry-After``
hint — the server never builds an unbounded backlog and never hangs a
client.

**Single-flight coalescing.**  Before enqueueing, the request's
:func:`~repro.service.protocol.request_key` (built on
:func:`~repro.homomorphism.cache.canonical_component`, the count cache's
own α-equivalence discipline) is looked up in the in-flight table; a
match parks the new request on the existing flight instead of enqueueing
duplicate work.  N concurrent identical requests cost one evaluation —
and coalesced requests bypass the admission queue entirely, since they
add no work.

**Deadlines.**  Each request carries ``deadline_ms`` (defaulting to the
server's).  The waiting HTTP thread gives up at the deadline and
responds with a ``deadline_exceeded`` envelope; the evaluation itself is
never interrupted mid-flight (Python threads cannot be killed safely),
so shared caches only ever see *completed, correct* counts — a timeout
cannot poison them.  A queued job whose waiters have all timed out is
skipped when it reaches a worker (``service.expired_skipped``).

**Graceful shutdown.**  :meth:`EvaluationServer.close` stops accepting,
marks the server draining (new requests get a 503 ``shutting_down``
envelope), lets queued + in-flight work finish, and joins the workers.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import BagCQError
from repro.homomorphism.cache import DEFAULT_CACHE_SIZE, CountCache
from repro.obs import activate
from repro.obs.metrics import Registry
from repro.obs.report import SCHEMA_VERSION, stable_json_dumps
from repro.obs.trace import FlightRecorder, Span
from repro.service import protocol
from repro.service.databases import DEFAULT_MAX_DATABASES, DatabaseRegistry
from repro.service.handlers import ENDPOINTS, ParsedRequest

__all__ = ["EvaluationServer", "RequestContext", "ServerConfig", "serve"]

#: Every ``service.*`` counter, pre-registered at zero so a fresh
#: ``/metrics`` scrape reports the full family deterministically.
_SERVICE_COUNTERS = (
    "service.requests",
    "service.logical_requests",
    "service.retried_requests",
    "service.admitted",
    "service.coalesced",
    "service.shed",
    "service.deadline_exceeded",
    "service.expired_skipped",
    "service.completed",
    "service.errors",
    "service.rejected_draining",
    "service.http_lines",
    "service.db_loads",
    "service.db_updates",
)

#: The incremental-evaluation counter family (see docs/INCREMENTAL.md),
#: pre-registered for the same deterministic-scrape reason.
_DELTA_COUNTERS = (
    "delta.applied",
    "delta.invalidations",
    "delta.migrated",
    "delta.reused_factors",
    "delta.affected_components",
)


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`EvaluationServer` (see docs/SERVICE.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral; read the bound port off `.address`
    workers: int = 4
    #: Jobs allowed to wait for a worker; beyond this, requests are shed.
    queue_depth: int = 64
    #: Applied when a request carries no ``deadline_ms`` of its own.
    default_deadline_ms: int = 30_000
    #: Hard ceiling on any requested deadline.
    max_deadline_ms: int = 300_000
    #: Single-flight coalescing of identical in-flight requests.
    coalesce: bool = True
    #: ``Retry-After`` hint (seconds) sent with 429/503 envelopes.
    retry_after_s: float = 0.05
    count_cache_size: int = DEFAULT_CACHE_SIZE
    #: Completed request traces held for ``GET /traces`` (flight recorder).
    trace_buffer: int = 128
    #: Request ids remembered for retry recognition (LRU-bounded).
    recent_ids: int = 1024
    #: Named databases resident at once (``POST /db``); loads beyond this
    #: are rejected unless they rebind an existing name.
    max_databases: int = DEFAULT_MAX_DATABASES
    #: Root of the durable cache tier (``repro.shard.persist``).  When
    #: set, the count/plan/containment caches warm-restore from it at
    #: startup, write through to it, and ``POST /snapshot`` bulk-syncs
    #: it; ``None`` (the default) keeps all caches memory-only.
    snapshot_dir: str | None = None


class _Flight:
    """One in-flight unit of work and everyone waiting on it."""

    __slots__ = (
        "key",
        "event",
        "result",
        "error",
        "waiters",
        "deadline",
        "enqueued_at",
        "spans",
        "leader_request_id",
    )

    def __init__(self, key: tuple, deadline: float) -> None:
        self.key = key
        self.event = threading.Event()
        self.result: dict | None = None
        self.error: BaseException | None = None
        self.waiters = 1
        self.deadline = deadline
        #: ``perf_counter`` at admission; the worker derives queue wait.
        self.enqueued_at: float | None = None
        #: Worker-built spans (queue_wait, evaluate), attached before the
        #: event is set so the leader's HTTP thread can adopt them into
        #: its request trace without cross-thread context variables.
        self.spans: list[Span] = []
        #: Request id of the waiter that created the flight; coalesced
        #: waiters record it so a trace names whose evaluation it shared.
        self.leader_request_id: str | None = None


class _RecentIds:
    """A bounded LRU set of request ids, for recognizing retries.

    ``seen(id)`` returns whether the id was already offered and records
    it; capacity-bounded so a long-lived server cannot grow memory with
    the number of requests it ever served.  Thread-safe.
    """

    __slots__ = ("_capacity", "_ids", "_lock")

    def __init__(self, capacity: int) -> None:
        self._capacity = max(1, capacity)
        self._ids: OrderedDict[str, None] = OrderedDict()
        self._lock = threading.Lock()

    def seen(self, request_id: str) -> bool:
        with self._lock:
            present = request_id in self._ids
            if present:
                self._ids.move_to_end(request_id)
            else:
                self._ids[request_id] = None
                if len(self._ids) > self._capacity:
                    self._ids.popitem(last=False)
            return present


class RequestContext:
    """Identity and trace skeleton of one HTTP request.

    Created on the HTTP connection thread before any processing, so every
    response — including parse failures — carries the same ``trace_id``
    and ``request_id`` the client sent (or server-minted replacements).
    The root span collects children (admission, coalesce/wait, shed, plus
    worker-built queue_wait/evaluate spans adopted from the flight) and
    is snapshotted into the flight recorder when the request finishes.
    """

    __slots__ = (
        "endpoint",
        "trace_id",
        "request_id",
        "retried",
        "coalesced",
        "root",
        "started",
    )

    def __init__(
        self, endpoint: str, trace_id: str, request_id: str, retried: bool
    ) -> None:
        self.endpoint = endpoint
        self.trace_id = trace_id
        self.request_id = request_id
        self.retried = retried
        self.coalesced = False
        self.started = time.perf_counter()
        self.root = Span(
            "request",
            attrs={
                "endpoint": endpoint,
                "trace_id": trace_id,
                "request_id": request_id,
            },
        )
        self.root.start = self.started

    def child(self, name: str, **attrs) -> Span:
        """Open a child span under the root (single-threaded: HTTP thread)."""
        node = Span(name, attrs)
        node.start = time.perf_counter()
        self.root.children.append(node)
        return node

    @staticmethod
    def end(node: Span, **attrs) -> None:
        node.duration = time.perf_counter() - (node.start or 0.0)
        if attrs:
            node.set(**attrs)


class EvaluationServer:
    """A warm, bounded, coalescing evaluation daemon.

    Start with :meth:`start` (non-blocking; binds the socket and spins up
    the pool) or :func:`serve` (blocking, for the CLI).  Thread-safe to
    use from tests: ``server.address`` gives the bound ``(host, port)``.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        if self.config.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.config.queue_depth}"
            )
        self.registry = Registry()
        for name in _SERVICE_COUNTERS + _DELTA_COUNTERS:
            self.registry.counter(name)
        self.registry.gauge("service.inflight").set(0)
        self.registry.gauge("service.queued").set(0)
        self.registry.gauge("service.databases").set(0)
        # End-to-end and evaluate-only latency distributions, one
        # histogram per endpoint, pre-registered so a fresh /metrics
        # scrape reports the full family (with zero counts).
        for endpoint in sorted(ENDPOINTS):
            self.registry.histogram(f"service.request_ms.{endpoint}")
            self.registry.histogram(f"service.time.{endpoint}")
        self.recorder = FlightRecorder(self.config.trace_buffer)
        self._recent_ids = _RecentIds(self.config.recent_ids)
        self.count_cache = CountCache(self.config.count_cache_size)
        self.databases = DatabaseRegistry(
            self.count_cache, max_databases=self.config.max_databases
        )
        self.durable = None
        self._restore_report: dict | None = None
        if self.config.snapshot_dir is not None:
            from repro.containment_set import default_containment_cache
            from repro.planner.plan import default_plan_cache
            from repro.shard.persist import (
                SNAPSHOT_COUNTERS,
                DurableCacheStore,
            )

            for name in SNAPSHOT_COUNTERS:
                self.registry.counter(name)
            self.durable = DurableCacheStore(
                self.config.snapshot_dir, registry=self.registry
            )
            # Warm-restore before any traffic, then write through: the
            # plan and containment caches are process-wide singletons
            # (one server per worker process in the sharded deployment),
            # the count cache is this server's own.
            self._restore_report = self.durable.restore_all(
                self.count_cache,
                default_plan_cache(),
                default_containment_cache(),
            )
            self.count_cache.attach_durable(self.durable)
            default_plan_cache().attach_durable(self.durable)
            default_containment_cache().attach_durable(self.durable)
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._flights: dict[tuple, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._draining = False
        self._started = False
        self._closed = False
        self._workers: list[threading.Thread] = []
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "EvaluationServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        server = self

        class _Handler(_RequestHandler):
            evaluation_server = server

        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"bagcq-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="bagcq-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("server not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self, drain: bool = True) -> None:
        """Stop accepting, drain queued + in-flight work, join the pool."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        self._draining = True
        if drain:
            # Sentinels park behind all queued work, so every admitted
            # job is executed (and its waiters answered) before exit.
            for _ in self._workers:
                self._queue.put(None)
            for worker in self._workers:
                worker.join(timeout=60)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)
        if self.durable is not None:
            # The plan/containment caches are process-wide: leave no
            # dangling write-through sink behind (the next server — or
            # none — decides anew).  Detach only our own store; a newer
            # server may already have replaced it.
            from repro.containment_set import default_containment_cache
            from repro.planner.plan import default_plan_cache

            self.count_cache.attach_durable(None)
            for cache in (default_plan_cache(), default_containment_cache()):
                if cache.durable is self.durable:
                    cache.attach_durable(None)

    def __enter__(self) -> "EvaluationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request path ------------------------------------------------------

    def _counter(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def new_context(self, endpoint: str, headers=None) -> RequestContext:
        """Mint or adopt the request's identity; count logical vs retried.

        A usable ``X-Trace-Id``/``X-Request-Id`` pair from the client is
        adopted verbatim (retries reuse it, so the recent-id LRU can
        recognize them); anything absent or malformed degrades to a
        server-minted id rather than a rejection.
        """
        get = (lambda name: None) if headers is None else headers.get
        trace_id = protocol.clean_id(get(protocol.TRACE_ID_HEADER))
        if trace_id is None:
            trace_id = protocol.mint_id()
        request_id = protocol.clean_id(get(protocol.REQUEST_ID_HEADER))
        if request_id is None:
            request_id = protocol.mint_id()
            retried = False
        else:
            retried = self._recent_ids.seen(request_id)
        self._counter(
            "service.retried_requests" if retried
            else "service.logical_requests"
        )
        return RequestContext(endpoint, trace_id, request_id, retried)

    def finish_request(self, context: RequestContext, status: str) -> None:
        """Close the request trace: histogram + flight-recorder entry."""
        context.root.duration = time.perf_counter() - context.started
        context.root.set(status=status)
        if context.endpoint in ENDPOINTS:
            self.registry.histogram(
                f"service.request_ms.{context.endpoint}"
            ).observe(context.root.duration)
        self.recorder.record(
            {
                "trace_id": context.trace_id,
                "request_id": context.request_id,
                "endpoint": context.endpoint,
                "status": status,
                "retried": context.retried,
                "duration_ms": context.root.duration_ms,
                "spans": context.root.snapshot(),
            }
        )

    def submit(
        self,
        endpoint: str,
        body: dict,
        deadline_ms: int | None,
        context: RequestContext | None = None,
    ) -> dict:
        """Admit, (maybe) coalesce, execute, and wait — the whole request.

        Returns the response dict; raises :class:`_ServiceFailure` with a
        ready-made envelope for every structured failure mode.  Called on
        the HTTP connection thread.
        """
        if context is None:
            context = self.new_context(endpoint)
        self._counter("service.requests")
        admission = context.child("admission")
        try:
            if self._draining:
                self._counter("service.rejected_draining")
                raise _ServiceFailure(
                    protocol.KIND_SHUTTING_DOWN,
                    "server is draining; retry against another replica",
                    retry_after=self.config.retry_after_s,
                )
            parser = ENDPOINTS.get(endpoint)
            if parser is None:
                raise _ServiceFailure(
                    protocol.KIND_NOT_FOUND, f"unknown endpoint /{endpoint}"
                )
            deadline_s = (
                min(
                    deadline_ms if deadline_ms is not None
                    else self.config.default_deadline_ms,
                    self.config.max_deadline_ms,
                )
                / 1000.0
            )
            if deadline_s <= 0:
                raise _ServiceFailure(
                    protocol.KIND_BAD_REQUEST,
                    f"deadline_ms must be positive, got {deadline_ms}",
                )
            try:
                request = parser(body, self.count_cache, self.databases)
            except BagCQError as error:
                self._counter("service.errors")
                raise _ServiceFailure.from_exception(error) from error
            deadline = time.monotonic() + deadline_s
            flight, created = self._join_or_create_flight(
                request, deadline, context
            )
        except _ServiceFailure as failure:
            context.end(admission, outcome=failure.kind)
            raise

        if created:
            try:
                flight.enqueued_at = time.perf_counter()
                self._queue.put_nowait((request, flight))
                self.registry.gauge("service.queued").set_max(self._queue.qsize())
                self._counter("service.admitted")
                context.end(admission, outcome="admitted")
            except queue.Full:
                shed = _ServiceFailure(
                    protocol.KIND_OVERLOADED,
                    f"admission queue full ({self.config.queue_depth} deep); "
                    "load shed",
                    retry_after=self.config.retry_after_s,
                )
                self._abandon_flight(flight, shed)
                self._counter("service.shed")
                context.end(admission, outcome="shed")
                context.end(
                    context.child("shed"),
                    queue_depth=self.config.queue_depth,
                )
                raise shed from None
        else:
            self._counter("service.coalesced")
            context.coalesced = True
            context.end(admission, outcome="coalesced")

        # "wait" for the leader (it owns the evaluation), "coalesce" for
        # followers (they ride along on the leader's flight).
        wait_span = context.child("wait" if created else "coalesce")
        if not created and flight.leader_request_id is not None:
            wait_span.set(leader_request_id=flight.leader_request_id)
        remaining = deadline - time.monotonic()
        completed = flight.event.wait(timeout=max(0.0, remaining))
        context.end(wait_span, completed=completed)
        if not completed:
            self._leave_flight(flight)
            self._counter("service.deadline_exceeded")
            raise _ServiceFailure(
                protocol.KIND_DEADLINE,
                f"deadline of {deadline_s * 1000:.0f} ms exceeded; "
                "the evaluation may still complete and warm the cache",
            )
        if created:
            # Adopt the worker-built spans (queue_wait, evaluate) into
            # the leader's request trace.  Safe: the worker attached them
            # before setting the event, and only the leader adopts.
            context.root.children.extend(flight.spans)
        if flight.error is not None:
            self._counter("service.errors")
            if isinstance(flight.error, _ServiceFailure):
                raise flight.error
            raise _ServiceFailure.from_exception(flight.error)
        assert flight.result is not None
        return flight.result

    def _join_or_create_flight(
        self,
        request: ParsedRequest,
        deadline: float,
        context: RequestContext | None = None,
    ) -> tuple[_Flight, bool]:
        leader_id = None if context is None else context.request_id
        if not self.config.coalesce:
            flight = _Flight(request.key, deadline)
            flight.leader_request_id = leader_id
            return flight, True
        with self._flights_lock:
            existing = self._flights.get(request.key)
            if existing is not None:
                existing.waiters += 1
                existing.deadline = max(existing.deadline, deadline)
                return existing, False
            flight = _Flight(request.key, deadline)
            flight.leader_request_id = leader_id
            self._flights[request.key] = flight
            return flight, True

    def _leave_flight(self, flight: _Flight) -> None:
        """A waiter timed out; the flight may become abandoned."""
        with self._flights_lock:
            flight.waiters -= 1

    def _abandon_flight(self, flight: _Flight, error: BaseException) -> None:
        """Resolve a never-enqueued flight so coalesced waiters wake too."""
        with self._flights_lock:
            self._flights.pop(flight.key, None)
        flight.error = error
        flight.event.set()

    # -- worker side -------------------------------------------------------

    def _worker_loop(self) -> None:
        # Activate the server's registry in this thread: context vars do
        # not cross thread boundaries, so without this the engine/cache/
        # plan counters of evaluations would vanish instead of landing
        # in /metrics.
        with activate(self.registry):
            while True:
                item = self._queue.get()
                if item is None:  # shutdown sentinel
                    return
                request, flight = item
                self.registry.gauge("service.queued").set(self._queue.qsize())
                dequeued = time.perf_counter()
                queue_wait = Span("queue_wait")
                queue_wait.start = (
                    dequeued if flight.enqueued_at is None
                    else flight.enqueued_at
                )
                queue_wait.duration = dequeued - queue_wait.start
                with self._flights_lock:
                    expired = (
                        flight.waiters <= 0
                        and time.monotonic() > flight.deadline
                    )
                    if expired:
                        # Nobody is listening anymore: drop the job instead
                        # of spending a worker on it, and make the key
                        # immediately reusable.
                        self._flights.pop(flight.key, None)
                if expired:
                    self._counter("service.expired_skipped")
                    queue_wait.set(outcome="expired_skipped")
                    flight.spans = [queue_wait]
                    flight.error = BagCQError("expired before execution")
                    flight.event.set()
                    continue
                with self._inflight_lock:
                    self._inflight += 1
                    self.registry.gauge("service.inflight").set(self._inflight)
                evaluate = Span(
                    "evaluate", attrs={"endpoint": request.endpoint}
                )
                evaluate.start = time.perf_counter()
                try:
                    with self.registry.histogram(
                        f"service.time.{request.endpoint}"
                    ).time():
                        flight.result = request.run()
                    self._counter("service.completed")
                    evaluate.set(outcome="ok")
                except BaseException as error:  # noqa: BLE001 — fanned to waiters
                    flight.error = error
                    evaluate.set(outcome="error", error=type(error).__name__)
                finally:
                    evaluate.duration = time.perf_counter() - evaluate.start
                    # Attach spans *before* event.set(): the leader reads
                    # them only after wait() returns.
                    flight.spans = [queue_wait, evaluate]
                    with self._inflight_lock:
                        self._inflight -= 1
                        self.registry.gauge("service.inflight").set(
                            self._inflight
                        )
                    with self._flights_lock:
                        self._flights.pop(flight.key, None)
                    flight.event.set()

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        from repro.containment_set import default_containment_cache
        from repro.planner.plan import plan_cache_occupancy

        payload = {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "queued": self._queue.qsize(),
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "coalesce": self.config.coalesce,
            # Admission backlog as a first-class object (the legacy
            # ``queued``/``queue_depth`` scalars stay for old scrapers).
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.queue_depth,
            },
            "workers_detail": [
                {"name": worker.name, "alive": worker.is_alive()}
                for worker in self._workers
            ],
            # Occupancy of every cache tier a router wants to see in its
            # aggregated fleet view, not just the count cache.
            "caches": {
                "count": self.count_cache.stats(),
                "plan": plan_cache_occupancy(),
                "containment": default_containment_cache().stats(),
            },
            "count_cache": self.count_cache.stats(),
            "databases": self.databases.snapshot(),
            "traces": {
                "capacity": self.recorder.capacity,
                "recorded": self.recorder.recorded,
                "dropped": self.recorder.dropped,
            },
        }
        if self.durable is not None:
            payload["snapshot"] = {
                "directory": str(self.durable.root),
                "files": self.durable.stats(),
                "restored": self._restore_report,
            }
        return payload

    def snapshot(self) -> dict:
        """``POST /snapshot``: bulk-sync all three caches to disk."""
        if self.durable is None:
            raise _ServiceFailure(
                protocol.KIND_BAD_REQUEST,
                "server has no snapshot directory; "
                "start it with --snapshot-dir",
            )
        from repro.containment_set import default_containment_cache
        from repro.planner.plan import default_plan_cache

        saved = self.durable.save_all(
            self.count_cache,
            default_plan_cache(),
            default_containment_cache(),
        )
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "snapshot_dir": str(self.durable.root),
            "saved": saved,
            "files": self.durable.stats(),
        }

    def metrics_json(self) -> str:
        return stable_json_dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "metrics": self.registry.snapshot(),
            }
        )

    def traces_json(self) -> str:
        """``GET /traces``: the flight recorder as stable JSON."""
        return stable_json_dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "capacity": self.recorder.capacity,
                "recorded": self.recorder.recorded,
                "dropped": self.recorder.dropped,
                "traces": self.recorder.snapshot(),
            }
        )


class _ServiceFailure(Exception):
    """A structured failure with its wire envelope attached."""

    def __init__(
        self, kind: str, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.retry_after = retry_after
        self.envelope = protocol.error_envelope(kind, message, retry_after)
        self.status = protocol.status_for_kind(kind)

    @classmethod
    def from_exception(cls, error: BaseException) -> "_ServiceFailure":
        envelope = protocol.error_from_exception(error)
        entry = envelope["error"]
        return cls(entry["kind"], entry["message"], entry["retry_after"])


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP onto the :class:`EvaluationServer` it belongs to."""

    evaluation_server: EvaluationServer  # set by the start() subclass
    protocol_version = "HTTP/1.1"
    #: Sockets that go quiet are dropped, so shutdown cannot wedge on a
    #: client that connected and never finished its request.
    timeout = 30

    server_version = "bagcq-service/1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Access logging is a counter, not a stderr line-per-request.
        self.evaluation_server.registry.counter("service.http_lines").inc()

    def _send_json(
        self,
        status: int,
        payload: dict,
        retry_after: float | None = None,
        context: RequestContext | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:.3f}")
        if context is not None:
            self.send_header(protocol.TRACE_ID_HEADER, context.trace_id)
            self.send_header(protocol.REQUEST_ID_HEADER, context.request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_failure(
        self,
        failure: _ServiceFailure,
        context: RequestContext | None = None,
    ) -> None:
        payload = failure.envelope
        if context is not None:
            payload = protocol.stamp_ids(
                payload, context.trace_id, context.request_id
            )
        self._send_json(failure.status, payload, failure.retry_after, context)

    def _fail_request(
        self, failure: _ServiceFailure, context: RequestContext
    ) -> None:
        """Close out the request's trace, then send the envelope.

        Trace first: once the client holds the response it may immediately
        scrape /metrics or /traces and must see its own request there.
        """
        self.evaluation_server.finish_request(context, failure.kind)
        self._send_failure(failure, context)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        server = self.evaluation_server
        if self.path == "/healthz":
            self._send_json(200, server.health())
        elif self.path == "/metrics":
            body = server.metrics_json().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/traces":
            body = server.traces_json().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.lstrip("/") in ENDPOINTS or self.path == "/snapshot":
            self._send_failure(
                _ServiceFailure(
                    protocol.KIND_METHOD,
                    f"{self.path} requires POST",
                )
            )
        else:
            self._send_failure(
                _ServiceFailure(
                    protocol.KIND_NOT_FOUND, f"no such endpoint {self.path}"
                )
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        server = self.evaluation_server
        endpoint = self.path.lstrip("/")
        context = server.new_context(endpoint, self.headers)
        if endpoint in ("healthz", "metrics", "traces"):
            self._fail_request(
                _ServiceFailure(
                    protocol.KIND_METHOD, f"{self.path} requires GET"
                ),
                context,
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b""
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as error:
            server.registry.counter("service.errors").inc()
            self._fail_request(
                _ServiceFailure(
                    protocol.KIND_BAD_REQUEST,
                    f"request body is not valid JSON: {error}",
                ),
                context,
            )
            return
        deadline_ms = None
        if isinstance(body, dict) and "deadline_ms" in body:
            deadline_value = body["deadline_ms"]
            if isinstance(deadline_value, bool) or not isinstance(
                deadline_value, int
            ):
                self._fail_request(
                    _ServiceFailure(
                        protocol.KIND_BAD_REQUEST,
                        f"'deadline_ms' must be an integer, "
                        f"got {deadline_value!r}",
                    ),
                    context,
                )
                return
            deadline_ms = deadline_value
        try:
            if endpoint == "snapshot":
                # Administrative, not evaluation traffic: bypasses the
                # admission queue and single-flight (snapshots are
                # idempotent and cheap relative to the work they save).
                result = server.snapshot()
            else:
                result = server.submit(endpoint, body, deadline_ms, context)
        except _ServiceFailure as failure:
            self._fail_request(failure, context)
            return
        # Record the trace before the response goes out: a client holding
        # its answer may immediately scrape /metrics or /traces and must
        # see its own request there (read-your-writes).
        server.finish_request(
            context, "coalesced" if context.coalesced else "completed"
        )
        self._send_json(
            200,
            protocol.stamp_ids(result, context.trace_id, context.request_id),
            context=context,
        )


def serve(config: ServerConfig | None = None) -> None:
    """Blocking entry point (``bagcq serve``): run until interrupted."""
    server = EvaluationServer(config)
    server.start()
    host, port = server.address
    print(f"bagcq service listening on http://{host}:{port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("draining…", flush=True)
    finally:
        server.close()
