"""End-to-end tests for the HTTP ops plane (repro.obs.http): real sockets,
real clients, every endpoint, and the rotation-surviving /events stream."""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.api import GraphflowDB
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.health import HealthRegistry
from repro.obs.http import DEFAULT_OPS_HOST, OpsServer, parse_ops_addr
from repro.obs.promtext import parse_exposition
from repro.query import catalog_queries as cq
from repro.server.service import QueryService
from tests.conftest import wait_until


def _request(server, method, path, timeout=10.0):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


def _get(server, path):
    return _request(server, "GET", path)


def _get_json(server, path):
    status, _, body = _get(server, path)
    return status, json.loads(body)


def _post_json(server, path):
    status, _, body = _request(server, "POST", path)
    return status, json.loads(body)


class TestParseOpsAddr:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (8080, (DEFAULT_OPS_HOST, 8080)),
            (0, (DEFAULT_OPS_HOST, 0)),
            ("9090", (DEFAULT_OPS_HOST, 9090)),
            ("0.0.0.0:9090", ("0.0.0.0", 9090)),
            (":7070", (DEFAULT_OPS_HOST, 7070)),
            (("10.0.0.1", 80), ("10.0.0.1", 80)),
            (("", 80), (DEFAULT_OPS_HOST, 80)),
        ],
    )
    def test_accepted_forms(self, value, expected):
        assert parse_ops_addr(value) == expected

    def test_garbage_port_raises(self):
        with pytest.raises(ValueError):
            parse_ops_addr("host:notaport")


@pytest.fixture()
def ops():
    """A bare ops server: empty Observability, one health check, a stats fn."""
    obs = Observability()
    health = HealthRegistry()
    health.register("probe", lambda: (True, "fine"))
    server = OpsServer(obs, health=health, stats_fn=lambda: {"queries": 7})
    yield server
    server.close()


class TestEndpoints:
    def test_index_lists_endpoints(self, ops):
        status, payload = _get_json(ops, "/")
        assert status == 200
        assert "/metrics" in payload["endpoints"]

    def test_healthz_is_liveness(self, ops):
        status, payload = _get_json(ops, "/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_readyz_follows_health_checks(self, ops):
        status, payload = _get_json(ops, "/readyz")
        assert status == 200
        assert payload["status"] == "ready"
        assert payload["checks"]["probe"]["detail"] == "fine"
        ops.health.register("probe", lambda: (False, "broken"))
        status, payload = _get_json(ops, "/readyz")
        assert status == 503
        assert payload["status"] == "unready"

    def test_readyz_degrades_to_liveness_without_registry(self):
        with OpsServer(Observability()) as server:
            status, payload = _get_json(server, "/readyz")
        assert status == 200
        assert payload["healthy"] is True
        assert payload["checks"] == {}

    def test_drain_undrain_cycle(self, ops):
        status, payload = _post_json(ops, "/drain")
        assert status == 200 and payload["status"] == "draining"
        status, payload = _get_json(ops, "/readyz")
        assert status == 503
        assert payload["drain_reason"] == "drained via ops endpoint"
        status, _ = _post_json(ops, "/undrain")
        assert status == 200
        status, _ = _get_json(ops, "/readyz")
        assert status == 200

    def test_drain_without_health_registry_404s(self):
        with OpsServer(Observability()) as server:
            status, _ = _post_json(server, "/drain")
        assert status == 404

    def test_metrics_expose_and_content_type(self, ops):
        ops.obs.queries_total.labels("ok").inc(3)
        status, content_type, body = _get(ops, "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        families = parse_exposition(body.decode("utf-8"))
        sample = families["graphflow_queries_total"].samples[0]
        assert sample.labels == {"status": "ok"}
        assert sample.value == 3.0

    def test_stats_endpoint(self, ops):
        status, payload = _get_json(ops, "/stats")
        assert status == 200
        assert payload == {"queries": 7}

    def test_stats_404_without_source(self):
        with OpsServer(Observability()) as server:
            status, payload = _get_json(server, "/stats")
        assert status == 404
        assert "no stats source" in payload["error"]

    def test_traces_empty_then_bad_params(self, ops):
        status, payload = _get_json(ops, "/traces")
        assert status == 200 and payload["count"] == 0
        status, _ = _get_json(ops, "/traces?n=wat")
        assert status == 400
        status, _ = _get_json(ops, "/traces?kind=bogus")
        assert status == 400

    def test_trace_by_id_errors(self, ops):
        status, _ = _get_json(ops, "/traces/notanint")
        assert status == 400
        status, payload = _get_json(ops, "/traces/424242")
        assert status == 404
        assert "424242" in payload["error"]

    def test_slow_empty(self, ops):
        status, payload = _get_json(ops, "/slow")
        assert status == 200 and payload["count"] == 0

    def test_events_404_without_log(self, ops):
        status, payload = _get_json(ops, "/events")
        assert status == 404
        assert "no event log" in payload["error"]

    def test_unknown_path_404(self, ops):
        status, payload = _get_json(ops, "/nope")
        assert status == 404

    def test_post_on_readonly_endpoint_405(self, ops):
        status, payload = _post_json(ops, "/metrics")
        assert status == 405

    def test_trailing_slash_is_normalised(self, ops):
        status, _ = _get_json(ops, "/healthz/")
        assert status == 200

    def test_close_is_idempotent_and_refuses_after(self, ops):
        url_port = ops.port
        ops.close()
        ops.close()
        assert ops.closed
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(ops.host, url_port, timeout=2)
            try:
                conn.request("GET", "/healthz")
                conn.getresponse()
            finally:
                conn.close()

    def test_ephemeral_port_and_url(self, ops):
        assert ops.port > 0
        assert ops.url == f"http://{ops.host}:{ops.port}"
        assert ops.address == (ops.host, ops.port)


class TestEventsEndpoint:
    @pytest.fixture()
    def logged_ops(self, tmp_path):
        obs = Observability()
        log = obs.attach_event_log(
            EventLog(str(tmp_path / "events.jsonl"), max_bytes=400, backups=20)
        )
        server = OpsServer(obs, poll_interval=0.02)
        yield server, log
        server.close()

    def test_tail_returns_last_n_as_ndjson(self, logged_ops):
        server, log = logged_ops
        for i in range(5):
            log.emit("tick", i=i)
        status, content_type, body = _get(server, "/events?tail=3")
        assert status == 200
        assert content_type == "application/x-ndjson"
        records = [json.loads(line) for line in body.splitlines()]
        assert [r["i"] for r in records] == [2, 3, 4]

    def test_type_filter(self, logged_ops):
        server, log = logged_ops
        log.emit("tick", i=1)
        log.emit("tock", i=2)
        log.emit("tick", i=3)
        _, _, body = _get(server, "/events?tail=10&type=tick")
        records = [json.loads(line) for line in body.splitlines()]
        assert [r["i"] for r in records] == [1, 3]

    def test_bad_tail_param_400(self, logged_ops):
        server, _ = logged_ops
        status, payload = _get_json(server, "/events?tail=wat")
        assert status == 400

    def test_follow_stream_survives_rotations(self, logged_ops):
        """The satellite guarantee: a live HTTP follower loses nothing while
        the writer rotates the log underneath it — repeatedly."""
        server, log = logged_ops
        total = 40
        received: list = []
        done = threading.Event()

        def reader():
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                conn.request("GET", "/events?follow=1&type=sync,tick")
                resp = conn.getresponse()
                assert resp.status == 200
                for raw in resp:
                    record = json.loads(raw)
                    received.append(record)
                    if record.get("type") == "tick" and record.get("i") == total - 1:
                        break
            finally:
                conn.close()
                done.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        # The follower tails from the current end of file, so synchronise:
        # emit markers until one comes back before sending the real payload.
        assert wait_until(
            lambda: (log.emit("sync"), bool(received))[1],
            timeout=10.0,
            interval=0.02,
        ), "follower never connected"
        for i in range(total):
            log.emit("tick", i=i, pad="x" * 48)
        assert done.wait(timeout=20.0), f"stream stalled: {len(received)} records"
        thread.join(timeout=5.0)
        ticks = [r["i"] for r in received if r["type"] == "tick"]
        assert ticks == list(range(total))
        # The payload could not have fit in one 400-byte file: the stream
        # really did cross rotation boundaries.
        assert log.rotations >= 2

    def test_server_close_unblocks_follower(self, logged_ops):
        server, log = logged_ops
        finished = threading.Event()

        def reader():
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                conn.request("GET", "/events?follow=1")
                resp = conn.getresponse()
                resp.read()  # blocks until the server ends the stream
            except OSError:
                pass
            finally:
                conn.close()
                finished.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the follower reach its poll loop
        server.close()
        assert finished.wait(timeout=10.0), "follower did not unblock on close"
        thread.join(timeout=5.0)


class TestQueryServiceIntegration:
    @pytest.fixture()
    def db(self, random_graph):
        db = GraphflowDB(random_graph)
        db.build_catalogue(z=60)
        return db

    def test_service_without_ops_addr_has_no_server(self, db):
        with QueryService(db) as service:
            assert service.ops_server is None
            assert service.ops_address is None

    def test_full_lifecycle(self, db):
        service = QueryService(db, ops_addr=("127.0.0.1", 0))
        try:
            server = service.ops_server
            assert server is not None
            assert service.ops_address == server.address

            status, payload = _get_json(server, "/readyz")
            assert status == 200
            assert payload["checks"]["database"]["healthy"] is True

            result = service.execute(cq.triangle())
            assert result.status == "ok"

            status, payload = _get_json(server, "/traces")
            assert status == 200 and payload["count"] >= 1
            trace_id = payload["traces"][-1]["trace_id"]
            status, full = _get_json(server, f"/traces/{trace_id}")
            assert status == 200
            assert full["trace_id"] == trace_id

            status, stats = _get_json(server, "/stats")
            assert status == 200
            assert stats["health"]["status"] == "ready"
            assert stats["ops"]["url"] == server.url

            _, _, body = _get(server, "/metrics")
            families = parse_exposition(body.decode("utf-8"))
            assert "graphflow_health_healthy" in families
        finally:
            service.close()
        # close() drains first (LB-visible), then stops the server last.
        assert db.health.draining
        assert service.ops_server.closed

    def test_a_source_registered_late_shows_up_everywhere(self, db):
        """One enumeration of stats sources: registering with the registry
        is the only wiring db.stats(), service.stats(), /stats and /metrics
        need."""
        with QueryService(db, ops_addr=0) as service:
            sources = set(db.obs.registry.collect())
            assert {"db", "service", "plan_cache", "health", "traces", "events"} <= sources
            db.obs.registry.register_collector("late", lambda: {"answer": 42, "note": "hi"})
            assert db.stats()["late"] == {"answer": 42, "note": "hi"}
            assert service.stats()["late"]["answer"] == 42
            status, stats = _get_json(service.ops_server, "/stats")
            assert status == 200 and stats["late"]["answer"] == 42
            _, _, body = _get(service.ops_server, "/metrics")
            assert "graphflow_late_answer 42" in body.decode("utf-8")
            # Every section of the database's view is in the service's, once.
            assert set(db.stats()) - {"service"} <= set(service.stats())
            assert "db" not in service.stats()

    def test_drain_flips_readyz_through_service_health(self, db):
        with QueryService(db, ops_addr=0) as service:
            server = service.ops_server
            status, _ = _get_json(server, "/readyz")
            assert status == 200
            status, _ = _post_json(server, "/drain")
            assert status == 200
            status, payload = _get_json(server, "/readyz")
            assert status == 503
            assert payload["draining"] is True
            # The service's own checks still ran and still pass.
            assert payload["checks"]["database"]["healthy"] is True
