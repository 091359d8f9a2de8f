"""Tests for the concurrent QueryService: admission control, deadlines,
batch planning reuse, prepared queries, and serving metrics."""

from __future__ import annotations

import inspect
import threading
import time

import pytest

from repro.api import GraphflowDB
from repro.errors import AdmissionError, InvalidQueryError
from repro.query import catalog_queries as cq
from repro.obs import LATENCY_BUCKETS, Observability
from tests.conftest import wait_until
from repro.server.service import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TRUNCATED,
    QueryService,
)


@pytest.fixture()
def db(random_graph):
    db = GraphflowDB(random_graph)
    db.build_catalogue(z=60)
    return db


class TestPlanSharing:
    def test_repeated_query_invokes_optimizer_exactly_once(self, db):
        """The acceptance criterion: N isomorphic submissions, one planning."""
        q = cq.diamond_x()
        before = db.planner_invocations
        with QueryService(db, max_concurrent=3, max_queue=32) as service:
            futures = [
                service.submit(
                    q.rename_vertices({v: f"{v}_c{i}" for v in q.vertices})
                )
                for i in range(9)
            ]
            results = [f.result() for f in futures]
        assert [r.status for r in results] == [STATUS_OK] * 9
        assert db.planner_invocations == before + 1
        # All nine (concurrent, renamed) submissions agree with a direct run,
        # which itself reuses the cached plan.
        baseline = db.execute(q).num_matches
        assert [r.num_matches for r in results] == [baseline] * 9
        assert db.planner_invocations == before + 1

    def test_execute_batch_shares_planning_and_preserves_order(self, db):
        tri, diamond = cq.triangle(), cq.diamond_x()
        tri_matches = db.execute(tri).num_matches
        diamond_matches = db.execute(diamond).num_matches
        before = db.planner_invocations
        batch = [tri, diamond, tri, diamond, tri]
        with QueryService(db, max_concurrent=2, max_queue=1) as service:
            # The batch exceeds max_queue; batch admission blocks (in waves)
            # instead of rejecting.
            results = service.execute_batch(batch)
        assert db.planner_invocations == before  # both shapes were already cached
        assert [r.num_matches for r in results] == [
            tri_matches, diamond_matches, tri_matches, diamond_matches, tri_matches,
        ]

    def test_pattern_strings_are_accepted(self, db):
        with QueryService(db) as service:
            result = service.execute("(x)-->(y), (y)-->(z), (x)-->(z)")
        assert result.status == STATUS_OK
        assert result.num_matches == db.execute(cq.triangle()).num_matches


class TestAdmissionControl:
    def _blocking_db(self, db, started, release):
        """Make db.execute block until ``release`` is set (deterministic load)."""
        original = db.execute

        def blocking_execute(*args, **kwargs):
            started.release()
            assert release.wait(timeout=10)
            return original(*args, **kwargs)

        db.execute = blocking_execute
        return db

    def test_oversubscription_rejects_deterministically(self, db):
        started = threading.Semaphore(0)
        release = threading.Event()
        self._blocking_db(db, started, release)
        q = cq.triangle()
        service = QueryService(db, max_concurrent=2, max_queue=1)
        try:
            futures = [service.submit(q) for _ in range(3)]  # 2 running + 1 queued
            # Both workers are now blocked inside execute.
            assert started.acquire(timeout=5) and started.acquire(timeout=5)
            assert service.in_flight == 3
            with pytest.raises(AdmissionError):
                service.submit(q)
            assert service.counters["rejected"] == 1
            release.set()
            assert [f.result().status for f in futures] == [STATUS_OK] * 3
            # Capacity freed: submissions are accepted again.
            assert service.submit(q).result().status == STATUS_OK
        finally:
            release.set()
            service.close()

    def test_closed_service_rejects(self, db):
        service = QueryService(db)
        service.close()
        with pytest.raises(AdmissionError):
            service.submit(cq.triangle())

    def test_constructor_validation(self, db):
        with pytest.raises(ValueError):
            QueryService(db, max_concurrent=0)
        with pytest.raises(ValueError):
            QueryService(db, max_queue=-1)


class TestDeadlinesAndLimits:
    def test_deadline_exceeded_returns_instead_of_hanging(self, db):
        q = cq.q8()
        with QueryService(db) as service:
            start = time.monotonic()
            result = service.execute(q, deadline_seconds=1e-4)
            elapsed = time.monotonic() - start
        assert result.status == STATUS_DEADLINE_EXCEEDED
        assert elapsed < 30.0
        full = db.execute(q).num_matches
        assert result.num_matches <= full  # partial (possibly zero) result

    @pytest.mark.timing
    def test_deadline_expiring_in_queue(self, db):
        """Queue wait counts against the deadline: a query stuck behind a
        blocked worker expires without ever executing."""
        started = threading.Semaphore(0)
        release = threading.Event()
        original = db.execute

        def blocking_execute(*args, **kwargs):
            started.release()
            assert release.wait(timeout=10)
            return original(*args, **kwargs)

        db.execute = blocking_execute
        service = QueryService(db, max_concurrent=1, max_queue=2)
        try:
            blocker = service.submit(cq.triangle())
            assert started.acquire(timeout=5)
            submitted = time.monotonic()
            queued = service.submit(cq.triangle(), deadline_seconds=0.05)
            # Wait for the queued query's deadline to lapse (with slack for a
            # slow scheduler) instead of sleeping a fixed amount.
            assert wait_until(lambda: time.monotonic() - submitted > 0.1, timeout=2.0)
            release.set()
            assert blocker.result().status == STATUS_OK
            result = queued.result()
            assert result.status == STATUS_DEADLINE_EXCEEDED
            assert result.result is None  # never executed
        finally:
            release.set()
            service.close()

    def test_row_limit_truncates(self, db):
        with QueryService(db) as service:
            result = service.execute(cq.triangle(), row_limit=5, collect=True)
        assert result.status == STATUS_TRUNCATED
        assert result.num_matches == 5
        assert len(result.result.matches) == 5

    def test_row_limit_enforced_with_parallel_workers(self, db):
        """Regression: the morsel-parallel executor used to drop the limit."""
        full = db.execute(cq.triangle()).num_matches
        with QueryService(db, num_workers=2) as service:
            result = service.execute(cq.triangle(), row_limit=5)
        assert result.status == STATUS_TRUNCATED
        assert result.num_matches == 5 < full

    def test_deadline_enforced_with_adaptive_executor(self, db):
        with QueryService(db) as service:
            result = service.execute(cq.q8(), adaptive=True, deadline_seconds=1e-4)
        assert result.status == STATUS_DEADLINE_EXCEEDED

    def test_default_limits_apply(self, db):
        with QueryService(db, default_row_limit=3) as service:
            result = service.execute(cq.triangle())
        assert result.status == STATUS_TRUNCATED
        assert result.num_matches == 3

    def test_query_error_is_reported_not_raised(self, db):
        with QueryService(db) as service:
            result = service.execute("(a)-->(b), (c)-->(d)")  # disconnected
        assert result.status == STATUS_ERROR
        assert result.error is not None and "OptimizerError" in result.error
        assert service.counters[STATUS_ERROR] == 1


class TestPreparedQueries:
    def test_bind_vertex_label_parameter(self, labeled_graph):
        db = GraphflowDB(labeled_graph)
        db.build_catalogue(z=40)
        with QueryService(db) as service:
            prepared = service.prepare(
                "(a)-->(b)", vertex_params={"a": "src_label"}
            )
            total = prepared.execute().num_matches
            by_label = [
                prepared.execute(src_label=label).num_matches for label in (0, 1)
            ]
        assert total == labeled_graph.num_edges
        assert sum(by_label) == total

    def test_unknown_parameter_rejected(self, db):
        prepared = QueryService(db).prepare(
            cq.triangle(), vertex_params={"a1": "x"}
        )
        with pytest.raises(InvalidQueryError):
            prepared.bind(bogus=1)

    def test_unknown_vertex_rejected(self, db):
        with pytest.raises(InvalidQueryError):
            QueryService(db).prepare(cq.triangle(), vertex_params={"zzz": "x"})

    def test_bindings_are_planned_once(self, db):
        prepared = QueryService(db).prepare(
            cq.triangle(), vertex_params={"a1": "x"}
        )
        before = db.planner_invocations
        for _ in range(3):
            prepared.execute(x=None)
        assert db.planner_invocations == before + 1
        assert prepared.bind(x=None) is prepared.bind(x=None)  # binding memoised


class TestMetrics:
    def test_service_stats_shape(self, db):
        with QueryService(db) as service:
            service.execute_batch([cq.triangle()] * 4)
            stats = service.stats()
        assert stats["window_queries"] == 4
        assert stats["qps"] > 0
        assert stats["latency_p50_seconds"] <= stats["latency_p99_seconds"]
        assert stats["counters"][STATUS_OK] == 4
        assert stats["plan_cache"]["hits"] >= 3

    def test_latency_is_read_from_the_registry_histogram(self, db):
        """One latency instrument: stats() summarises the histogram /metrics
        exposes, so the two can never disagree."""
        with QueryService(db) as service:
            assert service.stats()["window_queries"] == 0
            assert service.stats()["latency_p99_seconds"] == 0.0
            results = service.execute_batch([cq.triangle()] * 5)
            stats = service.stats()
            exposition = service.metrics_prometheus()
        assert "graphflow_service_request_seconds_count 5" in exposition
        assert 'graphflow_service_request_seconds_bucket{le="+Inf"} 5' in exposition
        assert "graphflow_service_qps" not in exposition
        assert "graphflow_service_latency" not in exposition
        assert "graphflow_service_counters_ok 5" in exposition
        # Percentiles are bucket upper bounds; the mean is exact.
        for q in ("p50", "p95", "p99"):
            assert stats[f"latency_{q}_seconds"] in LATENCY_BUCKETS
        assert stats["latency_p99_seconds"] >= max(r.total_seconds for r in results) / 4.0
        assert stats["latency_mean_seconds"] == pytest.approx(
            sum(r.total_seconds for r in results) / 5
        )


class TestServesTheDatabaseItIsHanded:
    def test_constructor_has_exactly_the_ten_options(self):
        parameters = list(inspect.signature(QueryService.__init__).parameters)[1:]
        assert parameters == [
            "db", "max_concurrent", "max_queue", "default_deadline_seconds",
            "default_row_limit", "num_workers", "execution_mode", "vectorized",
            "batch_size", "ops_addr",
        ]

    def test_service_never_switches_tracing_on(self, random_graph):
        """Fails at the parent: QueryService(db) set db.obs.enabled = True."""
        db = GraphflowDB(random_graph, obs=Observability(enabled=False))
        db.build_catalogue(z=60)
        with QueryService(db) as service:
            assert service.execute(cq.triangle()).status == STATUS_OK
            stats = service.stats()
        assert db.obs.enabled is False
        assert db.obs.traces.recent() == []
        assert stats["traces"]["recorded"] == 0
        # Request metrics do not depend on tracing.
        assert stats["counters"][STATUS_OK] == 1
        assert stats["window_queries"] == 1

    def test_service_leaves_the_trace_configuration_alone(self, random_graph):
        obs = Observability(trace_capacity=3, slow_query_seconds=0.25)
        db = GraphflowDB(random_graph, obs=obs)
        with QueryService(db):
            pass
        assert obs.traces.capacity == 3 and obs.traces.slow_seconds == 0.25

    def test_close_leaves_the_database_running(self, db):
        db.enable_background_compaction()
        with QueryService(db) as service:
            service.execute(cq.triangle())
        assert db.compaction_manager is not None and db.compaction_manager.running
        db.close()
        assert db.compaction_manager is None

    def test_database_is_a_context_manager(self, random_graph, tmp_path):
        with GraphflowDB.open(str(tmp_path / "store"), graph=random_graph) as db:
            with QueryService(db) as service:
                assert service.execute(cq.triangle()).status == STATUS_OK
            assert not db.durable_store.closed
        assert db.durable_store.closed


class TestMalformedQueriesAreOrdinaryRequests:
    """Each fails at the parent, where QueryParseError escaped submit() on
    the caller's thread."""

    BAD = "(a)-->"

    def test_submit_returns_an_error_result(self, db):
        with QueryService(db) as service:
            result = service.submit(self.BAD).result()
            assert result.status == STATUS_ERROR
            assert result.error.startswith("QueryParseError: ")
            assert result.result is None
            assert service.counters["submitted"] == 1
            assert service.counters[STATUS_ERROR] == 1

    def test_execute_traces_the_failure(self, db):
        with QueryService(db) as service:
            result = service.execute(self.BAD)
            trace = service.recent_traces(1)[0]
        assert result.status == STATUS_ERROR and "QueryParseError" in result.error
        assert trace.status == STATUS_ERROR
        assert "QueryParseError" in trace.span("error").attributes["message"]

    def test_execute_batch_returns_the_rest_in_input_order(self, db):
        good = "(a)-->(b), (b)-->(c)"
        with QueryService(db) as service:
            results = service.execute_batch([good, self.BAD, cq.triangle(), self.BAD, good])
            counters = dict(service.counters)
        assert [r.status for r in results] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK, STATUS_ERROR, STATUS_OK,
        ]
        assert results[0].num_matches == results[4].num_matches == db.execute(good).num_matches
        assert results[2].num_matches == db.execute(cq.triangle()).num_matches
        assert counters["submitted"] == 5
        assert counters[STATUS_OK] == 3 and counters[STATUS_ERROR] == 2


class TestExecuteFlagValidation:
    """Parallel execution honours every flag (adaptive x workers is covered
    by the adaptive row of tests/executor/test_transport_matrix.py)."""

    def test_parallel_with_collect_matches_serial(self, db):
        # The reference executor merges morsel rows in exact serial order.
        serial = db.execute(cq.triangle(), collect=True, vectorized=False)
        parallel = db.execute(cq.triangle(), num_workers=2, collect=True, vectorized=False)
        assert parallel.matches == serial.matches

    def test_parallel_plain_still_works(self, db):
        expected = db.execute(cq.triangle()).num_matches
        assert db.execute(cq.triangle(), num_workers=2).num_matches == expected

    def test_single_worker_combinations_still_work(self, db):
        result = db.execute(cq.triangle(), adaptive=True, collect=True)
        assert result.matches is not None
