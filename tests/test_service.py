"""The evaluation service: protocol, admission, coalescing, deadlines.

Covers the ``repro.service`` subsystem end to end against a real
in-process :class:`EvaluationServer` (ephemeral port, real HTTP):

* the versioned error envelope — shape, kind→status mapping, and that
  malformed bodies / unknown endpoints / wrong methods come back as
  structured JSON rather than bare tracebacks;
* admission control — a full queue sheds with 429 + ``Retry-After`` and
  never hangs a request;
* single-flight coalescing — N concurrent α-equivalent requests cost one
  evaluation and fan out bit-identical results;
* per-request deadlines — a too-slow evaluation answers 504 cleanly and
  later requests still get correct (uncorrupted) counts;
* graceful shutdown — in-flight work completes during drain;
* the retrying client — backoff on 429/connection errors, honoring
  ``Retry-After``.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.request

import pytest

from repro.errors import BagCQError
from repro.homomorphism import count
from repro.queries import parse_query
from repro.relational import Schema, Structure
from repro.service import (
    DeadlineExceeded,
    EvaluationServer,
    RemoteError,
    ServerConfig,
    ServiceClient,
    ServiceProtocolError,
    ServiceUnavailable,
    error_envelope,
    error_from_exception,
    status_for_kind,
)
from repro.service import protocol
from repro.workloads import cycle_query


def _random_graph(n: int = 13, seed: int = 0) -> Structure:
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
    return Structure(Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n))


SLOW_QUERY = cycle_query(6)  # ~tens of ms under backtracking on GRAPH
GRAPH = _random_graph()


@pytest.fixture(scope="module")
def server():
    with EvaluationServer(ServerConfig(workers=2, queue_depth=16)) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, seed=0)


class TestProtocol:
    def test_envelope_shape(self):
        envelope = error_envelope("overloaded", "queue full", retry_after=0.5)
        assert envelope == {
            "protocol_version": 1,
            "error": {
                "kind": "overloaded",
                "message": "queue full",
                "retry_after": 0.5,
            },
        }

    def test_status_mapping(self):
        assert status_for_kind("overloaded") == 429
        assert status_for_kind("deadline_exceeded") == 504
        assert status_for_kind("bad_request") == 400
        assert status_for_kind("not_found") == 404
        assert status_for_kind("method_not_allowed") == 405
        assert status_for_kind("shutting_down") == 503
        assert status_for_kind("internal") == 500
        # Library errors (any other kind) are the request's fault.
        assert status_for_kind("EvaluationError") == 422

    def test_library_error_travels_by_class_name(self):
        class SomeLibError(BagCQError):
            pass

        envelope = error_from_exception(SomeLibError("boom"))
        assert envelope["error"]["kind"] == "SomeLibError"
        assert envelope["error"]["message"] == "boom"

    def test_bad_request_error_maps_to_bad_request_kind(self):
        envelope = error_from_exception(protocol.BadRequestError("missing"))
        assert envelope["error"]["kind"] == "bad_request"

    def test_non_library_error_is_internal(self):
        envelope = error_from_exception(RuntimeError("oops"))
        assert envelope["error"]["kind"] == "internal"

    def test_parse_envelope_tolerates_garbage(self):
        kind, message, retry_after = protocol.parse_error_envelope("<html>")
        assert kind == "internal"
        assert retry_after is None

    def test_request_key_alpha_equivalence(self):
        left = parse_query("E(x, y) & E(y, z)")
        right = parse_query("E(a, b) & E(b, c)")
        other = parse_query("E(x, y) & E(y, x)")
        key = lambda q: protocol.request_key(  # noqa: E731
            "evaluate", engine="auto", query=q, structure=GRAPH
        )
        assert key(left) == key(right)
        assert key(left) != key(other)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["coalesce"] is True
        assert "count_cache" in health

    def test_metrics_stable_json(self, server, client):
        payload = client.metrics()
        assert payload["schema_version"] == 1
        metrics = payload["metrics"]
        for name in (
            "service.requests",
            "service.admitted",
            "service.coalesced",
            "service.shed",
            "service.deadline_exceeded",
        ):
            assert metrics[name]["type"] == "counter"
        # Stable: the endpoint's body is key-sorted JSON.
        raw = urllib.request.urlopen(f"{server.url}/metrics").read().decode()
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True)

    def test_evaluate_matches_local(self, client):
        query = parse_query("E(x, y) & E(y, x)")
        assert client.evaluate(query, GRAPH) == count(query, GRAPH)

    def test_evaluate_text_shorthand(self, client):
        assert (
            client.evaluate("E(x,y) & E(y,x)", "E(a,b) E(b,a) E(a,a)") == 3
        )

    def test_evaluate_ucq(self, client):
        assert (
            client.evaluate_ucq(
                [("E(x,y)", 2), ("E(x,x)", 1)], "E(a,b) E(a,a)"
            )
            == 5
        )

    def test_explain_is_plan_to_dict(self, client):
        from repro.planner import PlanCache, plan

        query = parse_query("E(x, y) & E(y, z)")
        remote = client.explain(query)["plan"]
        local = plan(query, query.canonical_structure(), cache=PlanCache())
        assert remote == json.loads(json.dumps(local.to_dict()))

    def test_decide_runs(self, client):
        verdict = client.decide(
            "E(x,y) & E(y,x)", "E(x,y)", count=10, seed=3
        )
        assert verdict["verdict"] in ("counterexample", "exhausted")
        assert verdict["checked"] <= 10

    def test_warm_cache_shared_across_requests(self, server):
        fresh = ServiceClient(server.url)
        query = parse_query("E(u, v) & E(v, w) & E(w, u)")
        before = server.count_cache.stats()["hits"]
        first = fresh.evaluate(query, GRAPH, engine="backtracking")
        second = fresh.evaluate(query, GRAPH, engine="backtracking")
        assert first == second
        assert server.count_cache.stats()["hits"] > before


class TestErrorEnvelope:
    def test_unknown_endpoint_is_enveloped(self, server):
        request = urllib.request.Request(
            f"{server.url}/nonsense", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["kind"] == "not_found"
        assert body["protocol_version"] == 1

    def test_malformed_body_is_enveloped(self, server):
        request = urllib.request.Request(
            f"{server.url}/evaluate",
            data=b"{not json",
            method="POST",
            headers={"Content-Length": "9"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["kind"] == "bad_request"

    def test_wrong_method_is_enveloped(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/evaluate")
        assert excinfo.value.code == 405
        body = json.loads(excinfo.value.read())
        assert body["error"]["kind"] == "method_not_allowed"

    def test_missing_fields_raise_protocol_error(self, client):
        with pytest.raises(ServiceProtocolError) as excinfo:
            client._post("evaluate", {"kind": "cq"})
        assert excinfo.value.kind == "bad_request"
        assert excinfo.value.status == 400

    def test_library_error_kind_is_class_name(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.evaluate("E(x,y)", "E(a,b)", engine="warpdrive")
        assert excinfo.value.kind == "EvaluationError"
        assert excinfo.value.status == 422

    def test_unknown_evaluate_kind(self, client):
        with pytest.raises(ServiceProtocolError) as excinfo:
            client._post(
                "evaluate",
                {"kind": "sql", "query_text": "E(x,y)", "facts": "E(a,b)"},
            )
        assert excinfo.value.kind == "bad_request"


class TestCoalescing:
    def test_identical_requests_single_flight(self):
        config = ServerConfig(workers=2, queue_depth=32)
        with EvaluationServer(config) as server:
            results: list[int] = []
            barrier = threading.Barrier(8)

            def fire():
                barrier.wait()
                results.append(
                    ServiceClient(server.url).evaluate(
                        SLOW_QUERY, GRAPH, engine="backtracking", cache=False
                    )
                )

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = ServiceClient(server.url).metrics()["metrics"]
            assert len(set(results)) == 1
            assert results[0] == count(SLOW_QUERY, GRAPH)
            coalesced = metrics["service.coalesced"]["value"]
            admitted = metrics["service.admitted"]["value"]
            assert coalesced >= 1
            assert admitted + coalesced == 8

    def test_alpha_equivalent_requests_coalesce(self):
        """Renamed copies of a query share a flight — the cache-key discipline."""
        with EvaluationServer(ServerConfig(workers=1, queue_depth=32)) as server:
            renamed = [
                cycle_query(6, prefix=f"v{index}_") for index in range(6)
            ]
            results: list[int] = []
            barrier = threading.Barrier(6)

            def fire(query):
                barrier.wait()
                results.append(
                    ServiceClient(server.url).evaluate(
                        query, GRAPH, engine="backtracking", cache=False
                    )
                )

            threads = [
                threading.Thread(target=fire, args=(query,)) for query in renamed
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(results)) == 1
            metrics = ServiceClient(server.url).metrics()["metrics"]
            assert metrics["service.coalesced"]["value"] >= 1

    def test_coalescing_can_be_disabled(self):
        config = ServerConfig(workers=2, queue_depth=32, coalesce=False)
        with EvaluationServer(config) as server:
            barrier = threading.Barrier(4)
            results: list[int] = []

            def fire():
                barrier.wait()
                results.append(
                    ServiceClient(server.url).evaluate(
                        SLOW_QUERY, GRAPH, engine="backtracking", cache=False
                    )
                )

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = ServiceClient(server.url).metrics()["metrics"]
            assert metrics["service.coalesced"]["value"] == 0
            assert metrics["service.admitted"]["value"] == 4
            assert len(set(results)) == 1


class TestAdmissionControl:
    def test_full_queue_sheds_structured_429(self):
        config = ServerConfig(workers=1, queue_depth=2, coalesce=False)
        with EvaluationServer(config) as server:
            outcomes: list[tuple[str, object]] = []
            barrier = threading.Barrier(10)

            def fire():
                client = ServiceClient(server.url, retries=0)
                barrier.wait()
                try:
                    value = client.evaluate(
                        SLOW_QUERY, GRAPH, engine="backtracking", cache=False
                    )
                    outcomes.append(("ok", value))
                except ServiceUnavailable as error:
                    outcomes.append(("shed", error))

            threads = [threading.Thread(target=fire) for _ in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                # Bounded join: a hung request would trip the assert below.
                thread.join(timeout=60)
            assert len(outcomes) == 10, "no request may hang"
            shed = [error for tag, error in outcomes if tag == "shed"]
            completed = [value for tag, value in outcomes if tag == "ok"]
            assert shed, "queue depth 2 with 10 concurrent requests must shed"
            assert completed, "admitted requests must still complete"
            expected = count(SLOW_QUERY, GRAPH)
            assert all(value == expected for value in completed)
            for error in shed:
                assert error.kind == "overloaded"
                assert error.status == 429
                assert error.retry_after is not None
            metrics = ServiceClient(server.url).metrics()["metrics"]
            assert metrics["service.shed"]["value"] == len(shed)

    def test_retrying_client_eventually_succeeds_after_shed(self):
        config = ServerConfig(
            workers=1, queue_depth=1, coalesce=False, retry_after_s=0.01
        )
        with EvaluationServer(config) as server:
            barrier = threading.Barrier(6)
            values: list[int] = []

            def fire():
                client = ServiceClient(server.url, retries=8, seed=7)
                barrier.wait()
                values.append(
                    client.evaluate(
                        SLOW_QUERY, GRAPH, engine="backtracking", cache=False
                    )
                )

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert values == [count(SLOW_QUERY, GRAPH)] * 6


class TestDeadlines:
    def test_deadline_returns_504_and_does_not_poison_cache(self):
        with EvaluationServer(ServerConfig(workers=1, queue_depth=8)) as server:
            client = ServiceClient(server.url)
            heavy = cycle_query(7)
            with pytest.raises(DeadlineExceeded) as excinfo:
                client.evaluate(
                    heavy, GRAPH, engine="backtracking", deadline_ms=1
                )
            assert excinfo.value.kind == "deadline_exceeded"
            assert excinfo.value.status == 504
            # The shared cache still serves *correct* counts afterwards.
            value = client.evaluate(heavy, GRAPH, engine="backtracking")
            assert value == count(heavy, GRAPH)
            metrics = client.metrics()["metrics"]
            assert metrics["service.deadline_exceeded"]["value"] >= 1

    def test_expired_queued_work_is_skipped(self):
        config = ServerConfig(workers=1, queue_depth=8, coalesce=False)
        with EvaluationServer(config) as server:
            barrier = threading.Barrier(4)
            failures = 0

            def fire():
                nonlocal failures
                client = ServiceClient(server.url, retries=0)
                barrier.wait()
                try:
                    client.evaluate(
                        cycle_query(7),
                        GRAPH,
                        engine="backtracking",
                        deadline_ms=25,
                        cache=False,
                    )
                except DeadlineExceeded:
                    pass

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                metrics = ServiceClient(server.url).metrics()["metrics"]
                if (
                    metrics["service.deadline_exceeded"]["value"] >= 1
                    and metrics["service.inflight"]["value"] == 0
                ):
                    break
                time.sleep(0.05)
            assert metrics["service.deadline_exceeded"]["value"] >= 1


class TestGracefulShutdown:
    def test_inflight_work_completes_during_drain(self):
        server = EvaluationServer(
            ServerConfig(workers=1, queue_depth=8)
        ).start()
        result: list[int] = []

        def fire():
            result.append(
                ServiceClient(server.url).evaluate(
                    SLOW_QUERY, GRAPH, engine="backtracking", cache=False
                )
            )

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.005)  # let the request reach the queue
        server.close()  # drains: the in-flight evaluation must finish
        thread.join(timeout=60)
        assert result == [count(SLOW_QUERY, GRAPH)]

    def test_new_requests_rejected_while_draining(self):
        server = EvaluationServer(ServerConfig(workers=1)).start()
        server._draining = True
        with pytest.raises(ServiceUnavailable) as excinfo:
            ServiceClient(server.url, retries=0).evaluate(
                "E(x,y)", "E(a,b)"
            )
        assert excinfo.value.kind == "shutting_down"
        assert excinfo.value.status == 503
        server._draining = False
        server.close()

    def test_close_is_idempotent(self):
        server = EvaluationServer(ServerConfig(workers=1)).start()
        server.close()
        server.close()


class TestClientRetry:
    def test_retries_honor_retry_after_hint(self):
        """A stub server 429s twice with Retry-After, then succeeds."""
        from http.server import BaseHTTPRequestHandler, HTTPServer

        attempts: list[float] = []

        class Stub(BaseHTTPRequestHandler):
            def do_POST(self):
                attempts.append(time.monotonic())
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                if len(attempts) <= 2:
                    body = json.dumps(
                        error_envelope("overloaded", "busy", retry_after=0.05)
                    ).encode()
                    self.send_response(429)
                    self.send_header("Retry-After", "0.05")
                else:
                    body = json.dumps({"count": 41}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Stub)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", retries=4, seed=0)
            assert client.evaluate("E(x,y)", "E(a,b)") == 41
            assert len(attempts) == 3
            # Backoff respected the server's 50 ms hint on both retries.
            assert attempts[1] - attempts[0] >= 0.04
            assert attempts[2] - attempts[1] >= 0.04
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_retry_after_hint_is_a_floor_under_jittered_backoff(self):
        """A 10 ms hint must not collapse eight retries into 80 ms."""
        client = ServiceClient("http://127.0.0.1:1", retries=8, seed=7)
        delays = [client._backoff(attempt, 0.01) for attempt in range(8)]
        assert all(delay >= 0.01 for delay in delays)
        assert sum(delays) > 0.08

    def test_unreachable_raises_service_unavailable(self):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=1, backoff_s=0.001, seed=0
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.healthz()
        assert excinfo.value.kind == "unreachable"

    def test_zero_retries_fail_fast(self):
        client = ServiceClient("http://127.0.0.1:1", retries=0, seed=0)
        start = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert time.monotonic() - start < 5.0
