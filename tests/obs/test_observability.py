"""Tests for the unified observability layer: metrics registry, per-query
traces with cardinality feedback, and the serving-stack integration."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.api import GraphflowDB
from repro.executor.operators import ExecutionConfig
from repro.executor.profile import ExecutionProfile
from repro.obs import Observability
from repro.obs.feedback import CardinalityFeedback
from repro.obs.registry import (
    LATENCY_BUCKETS,
    QERROR_BUCKETS,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.trace import OperatorStats, QueryTrace, TraceRecorder
from repro.query import catalog_queries as cq
from repro.server.service import STATUS_OK, QueryService


@pytest.fixture()
def db(random_graph):
    db = GraphflowDB(random_graph)
    db.build_catalogue(z=60)
    return db


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "total requests").labels()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("in_flight").labels()
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0

    def test_labeled_children_are_distinct_and_cached(self):
        reg = MetricsRegistry()
        fam = reg.counter("queries_total", labelnames=("status",))
        fam.labels("ok").inc(3)
        fam.labels("error").inc()
        assert fam.labels("ok") is fam.labels("ok")
        assert fam.labels("ok").value == 3.0
        assert fam.labels("error").value == 1.0

    def test_wrong_label_arity_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("queries_total", labelnames=("status",))
        with pytest.raises(ValueError, match="expects 1 label"):
            fam.labels("ok", "extra")
        with pytest.raises(ValueError):
            fam.labels()

    def test_family_creation_is_idempotent_but_kind_conflicts_raise(self):
        reg = MetricsRegistry()
        first = reg.counter("x_total", labelnames=("a",))
        assert reg.counter("x_total", labelnames=("a",)) is first
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x_total", labelnames=("b",))

    def test_collector_flattens_nested_numeric_leaves(self):
        reg = MetricsRegistry(namespace="test")
        reg.register_collector(
            "svc",
            lambda: {
                "qps": 7.5,
                "cache": {"hits": 3, "miss-rate": 0.25},
                "enabled": True,
                "name": "ignored-string",
                "absent": None,
                "bad": float("nan"),
            },
        )
        text = reg.expose_prometheus()
        assert "test_svc_qps 7.5" in text
        assert "test_svc_cache_hits 3" in text
        assert "test_svc_cache_miss_rate 0.25" in text  # '-' sanitised to '_'
        assert "test_svc_enabled 1" in text
        assert "ignored-string" not in text
        assert "absent" not in text
        assert "test_svc_bad" not in text

    def test_failing_collector_does_not_break_the_scrape(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("stats source closed")

        reg.register_collector("broken", boom)
        reg.register_collector("fine", lambda: {"value": 1})
        text = reg.expose_prometheus()
        assert "graphflow_fine_value 1" in text
        assert "broken" not in text

    def test_reregistering_a_prefix_replaces_the_collector(self):
        reg = MetricsRegistry()
        reg.register_collector("svc", lambda: {"v": 1})
        reg.register_collector("svc", lambda: {"v": 2})
        assert "graphflow_svc_v 2" in reg.expose_prometheus()
        reg.unregister_collector("svc")
        assert "svc" not in reg.expose_prometheus()

    def test_collect_returns_every_source_once(self):
        reg = MetricsRegistry()
        calls = []

        def counted():
            calls.append(1)
            return {"v": len(calls)}

        reg.register_collector("counted", counted)
        reg.register_collector("nested", lambda: {"a": {"b": "text"}})
        reg.register_collector("broken", lambda: 1 / 0)
        reg.register_collector("not_a_dict", lambda: 7)
        assert reg.collect() == {"counted": {"v": 1}, "nested": {"a": {"b": "text"}}}
        assert calls == [1]  # one call per collect(), strings kept for stats()
        assert "graphflow_counted_v 2" in reg.expose_prometheus()

    def test_prometheus_exposition_schema(self):
        """# HELP/# TYPE headers, cumulative buckets ending at +Inf, and
        _sum/_count for histograms — the format a scraper actually parses."""
        reg = MetricsRegistry(namespace="graphflow")
        reg.counter("queries_total", "Executed queries", labelnames=("status",)).labels(
            "ok"
        ).inc(2)
        hist = reg.histogram("latency_seconds", "Latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.labels().observe(v)
        lines = reg.expose_prometheus().splitlines()

        assert "# HELP graphflow_queries_total Executed queries" in lines
        assert "# TYPE graphflow_queries_total counter" in lines
        assert 'graphflow_queries_total{status="ok"} 2' in lines

        assert "# TYPE graphflow_latency_seconds histogram" in lines
        assert 'graphflow_latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'graphflow_latency_seconds_bucket{le="1"} 2' in lines
        assert 'graphflow_latency_seconds_bucket{le="+Inf"} 3' in lines
        assert "graphflow_latency_seconds_sum 5.55" in lines
        assert "graphflow_latency_seconds_count 3" in lines
        # TYPE precedes the family's samples.
        type_idx = lines.index("# TYPE graphflow_latency_seconds histogram")
        sample_idx = lines.index('graphflow_latency_seconds_bucket{le="0.1"} 1')
        assert type_idx < sample_idx

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("q_total", labelnames=("name",)).labels('tri"angle\n').inc()
        text = reg.expose_prometheus()
        assert r'graphflow_q_total{name="tri\"angle\n"} 1' in text

    def test_as_dict_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("a_total").labels().inc()
        reg.histogram("b_seconds").labels().observe(0.1)
        reg.register_collector("svc", lambda: {"v": 1})
        dump = reg.as_dict()
        text = json.dumps(dump)
        assert "graphflow_a_total" in text
        assert dump["graphflow_svc_v"] == {"kind": "gauge", "value": 1.0}


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [(1.0, 2), (10.0, 3), (math.inf, 4)]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(56.1)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus `le` is inclusive: observe(1.0) counts in bucket le=1.0.
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.snapshot()["buckets"][0] == (1.0, 1)

    def test_quantile_is_upper_bound_biased(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        assert Histogram().quantile(0.99) == 0.0  # empty

    def test_overflow_quantile_clamps_to_top_bucket(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0

    def test_log_buckets(self):
        bounds = log_buckets(1e-3, 10.0, 4)
        assert bounds == pytest.approx((1e-3, 1e-2, 1e-1, 1.0))
        assert len(LATENCY_BUCKETS) == 14
        assert QERROR_BUCKETS[0] == 1.0
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 3)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 3)


# --------------------------------------------------------------------------- #
# trace recorder
# --------------------------------------------------------------------------- #
def _trace(name="q", seconds=0.0, **kwargs) -> QueryTrace:
    return QueryTrace(query_name=name, total_seconds=seconds, **kwargs)


class TestTraceRecorder:
    def test_ring_evicts_oldest(self):
        rec = TraceRecorder(capacity=3)
        traces = [rec.record(_trace(f"q{i}")) for i in range(5)]
        retained = rec.recent()
        assert [t.query_name for t in retained] == ["q2", "q3", "q4"]
        assert rec.stats()["recorded"] == 5
        assert rec.stats()["retained"] == 3
        assert rec.get(traces[0].trace_id) is None
        assert rec.get(traces[-1].trace_id) is traces[-1]

    def test_capacity_is_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_kind_filter_and_last(self):
        rec = TraceRecorder()
        rec.record(_trace("q1"))
        rec.record(_trace("u1", kind="update"))
        rec.record(_trace("q2"))
        assert [t.query_name for t in rec.recent(kind="update")] == ["u1"]
        assert rec.last().query_name == "q2"
        assert rec.last(kind="update").query_name == "u1"

    def test_slow_log_threshold_and_logger(self, caplog):
        rec = TraceRecorder(capacity=8, slow_seconds=1.0, slow_capacity=2)
        with caplog.at_level("WARNING", logger="repro.obs.slowlog"):
            rec.record(_trace("fast", seconds=0.5))
            for i in range(3):
                rec.record(_trace(f"slow{i}", seconds=2.0))
        assert [t.query_name for t in rec.slow()] == ["slow1", "slow2"]
        assert rec.stats()["slow_queries"] == 3
        assert sum("slow query" in r.message for r in caplog.records) == 3

    def test_slow_log_disabled_by_default(self):
        rec = TraceRecorder()
        rec.record(_trace("q", seconds=1e9))
        assert rec.slow() == []
        assert rec.stats()["slow_queries"] == 0


# --------------------------------------------------------------------------- #
# cardinality feedback
# --------------------------------------------------------------------------- #
def _ops(q: float) -> list:
    """One operator row whose q-error is ``q`` (actual fixed at 10)."""
    return [OperatorStats(name="SCAN", actual=10, estimated=10.0 * q, q_error=q)]


class TestCardinalityFeedback:
    def test_aggregates_mean_max_last(self):
        fb = CardinalityFeedback()
        for q in (1.0, 3.0, 2.0):
            fb.record("k", "triangle", _ops(q))
        entry = fb.get("k")
        assert entry.executions == 3
        assert entry.mean_q_error == pytest.approx(2.0)
        assert entry.max_q_error == 3.0
        assert entry.last_q_error == 2.0

    def test_skips_executions_without_estimates(self):
        fb = CardinalityFeedback()
        no_estimate = [OperatorStats(name="SCAN", actual=10)]
        assert fb.record("k", "q", no_estimate) is None
        assert fb.record("k", "q", []) is None
        assert len(fb) == 0

    def test_lru_eviction_is_bounded_and_counts(self):
        fb = CardinalityFeedback(capacity=2)
        fb.record("a", "qa", _ops(1.0))
        fb.record("b", "qb", _ops(1.0))
        fb.record("a", "qa", _ops(1.0))  # refresh "a": "b" is now LRU
        fb.record("c", "qc", _ops(1.0))
        assert fb.get("b") is None
        assert fb.get("a") is not None and fb.get("c") is not None
        assert fb.stats()["evictions"] == 1

    def test_drifting_plans_use_latest_q_error(self):
        fb = CardinalityFeedback()
        fb.record("stable", "qs", _ops(1.1))
        fb.record("drifted", "qd", _ops(5.0))
        fb.record("recovered", "qr", _ops(5.0))
        fb.record("recovered", "qr", _ops(1.0))  # back under threshold
        drifting = dict(fb.drifting_plans(threshold=2.0))
        assert set(drifting) == {"drifted"}
        assert fb.stats()["drifting_over_2"] == 1
        assert fb.worst(1)[0][0] in {"drifted", "recovered"}  # both max=5


# --------------------------------------------------------------------------- #
# profile merge semantics (wall-clock vs work fields)
# --------------------------------------------------------------------------- #
class TestProfileMergeSemantics:
    def test_wall_clock_takes_max_and_work_sums(self):
        a = ExecutionProfile(
            intersection_cost=10, mirrored_joins=1, sorted_frames=4, shared_frames=2,
            elapsed_seconds=2.0,
        )
        a.record_operator("SCAN[e]", out=5)
        a.record_operator_time("SCAN[e]", 1.5)
        b = ExecutionProfile(
            intersection_cost=7, mirrored_joins=2, sorted_frames=1, shared_frames=3,
            elapsed_seconds=3.0,
        )
        b.record_operator("SCAN[e]", out=4)
        b.record_operator_time("SCAN[e]", 2.5)
        merged = a.merge(b)
        assert merged.elapsed_seconds == 3.0  # overlap: max, not sum
        assert merged.intersection_cost == 17  # work: sum
        assert merged.mirrored_joins == 3
        assert merged.as_dict()["mirrored_joins"] == 3
        assert merged.sorted_frames == 5
        assert merged.as_dict()["sorted_frames"] == 5
        assert merged.shared_frames == 5
        assert merged.as_dict()["shared_frames"] == 5
        assert merged.per_operator["SCAN[e]"]["out"] == 9
        assert merged.operator_seconds["SCAN[e]"] == pytest.approx(4.0)
        assert merged.busy_seconds == pytest.approx(4.0)
        assert merged.workers == 2
        # Busy seconds may exceed wall clock; never elapsed * workers.
        assert merged.busy_seconds <= merged.elapsed_seconds * merged.workers

    def test_as_dict_carries_both_time_semantics(self):
        p = ExecutionProfile(elapsed_seconds=1.0)
        p.record_operator_time("E/I[->b]", 0.25)
        d = p.as_dict()
        assert d["elapsed_seconds"] == 1.0
        assert d["busy_seconds"] == 0.25
        assert d["workers"] == 1

    def test_parallel_execution_reports_worker_count(self, db):
        result = db.execute(cq.triangle(), num_workers=2)
        assert result.trace.profile["workers"] == 2
        assert result.trace.span("execute").attributes["num_workers"] == 2


# --------------------------------------------------------------------------- #
# end-to-end traces through GraphflowDB
# --------------------------------------------------------------------------- #
class TestQueryTraces:
    def _assert_trace_has_feedback(self, trace, num_matches):
        assert trace is not None
        assert trace.status == "ok"
        assert trace.num_matches == num_matches
        assert trace.span("plan") is not None
        assert trace.span("execute") is not None
        assert trace.operators, "every executed query must carry operator rows"
        for op in trace.operators:
            assert op.actual >= 0
            assert op.has_estimate, f"{op.name} lost its planner estimate"
            assert op.q_error >= 1.0 and math.isfinite(op.q_error)
        assert math.isfinite(trace.max_q_error)

    def test_iterator_trace_carries_operator_q_errors(self, db):
        result = db.execute(cq.triangle(), vectorized=False)
        self._assert_trace_has_feedback(result.trace, result.num_matches)
        assert result.trace.mode == "iterator"
        # Retrievable from the ring by id.
        assert db.obs.traces.get(result.trace.trace_id) is result.trace

    def test_vectorized_trace_carries_operator_q_errors(self, db):
        result = db.execute(cq.triangle())
        self._assert_trace_has_feedback(result.trace, result.num_matches)
        assert result.trace.mode == "vectorized"
        # Vectorized mode additionally separates per-operator busy time.
        assert any(op.seconds > 0 for op in result.trace.operators)
        assert any(op.batches > 0 for op in result.trace.operators)

    def test_scan_actual_matches_true_edge_count(self, db, random_graph):
        trace = db.execute(cq.triangle()).trace
        scans = [op for op in trace.operators if op.name.startswith("SCAN")]
        assert len(scans) == 1
        assert scans[0].actual == random_graph.num_edges

    def test_plan_cache_hit_is_flagged_on_the_trace(self, db):
        q = cq.diamond_x()
        first = db.execute(q).trace
        second = db.execute(q).trace
        assert first.plan_cached is False
        assert second.plan_cached is True
        # Cached plans keep their estimate annotations: q-errors survive.
        assert math.isfinite(second.max_q_error)

    def test_plan_span_names_the_limit_class_that_priced_the_plan(self, db):
        q = cq.diamond_x()
        limited = db.execute(q, config=ExecutionConfig(output_limit=100)).trace
        unlimited = db.execute(q).trace
        prebuilt = db.execute(db.plan(q, output_limit=100)).trace
        assert limited.span("plan").attributes["output_limit"] == 128
        assert unlimited.span("plan").attributes["output_limit"] is None
        assert prebuilt.span("plan").attributes["output_limit"] is None
        assert "output_limit=128" in limited.format()

    def test_trace_cli_prints_the_limit_class(self, capsys):
        from repro.cli import main

        code = main([
            "trace", "--dataset", "amazon", "--scale", "0.1", "--z", "40",
            "--query", "Q1", "--row-limit", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "status=truncated" in out and "matches=5" in out
        assert "output_limit=8" in out

    def test_repeated_executions_feed_cardinality_feedback(self, db):
        q = cq.triangle()
        db.execute(q)
        db.execute(q, vectorized=False)
        stats = db.obs.feedback.stats()
        # One key per plan-cache entry, whichever executor ran the plan.
        assert stats["plans_tracked"] == 1
        assert stats["executions"] == 2
        assert stats["max_q_error"] >= 1.0
        for _, entry in db.obs.feedback.worst(5):
            assert entry.operators

    def test_a_mirrored_join_says_why_its_probe_side_is_missing(self):
        """Q3's hybrid plan joins two triangles: the batch engine runs one
        and probes with its rows.  The trace counts the mirrored join, marks
        its row, has no row for the probe subtree, and feedback judges the
        plan by the operators that ran."""
        from repro import datasets
        from repro.planner.plan import HashJoinNode

        db = GraphflowDB(datasets.load("livejournal", scale=0.05))
        plan = db.plan(cq.q3())
        assert isinstance(plan.root, HashJoinNode)
        result = db.execute(cq.q3())
        trace = result.trace
        assert trace.profile["mirrored_joins"] == 1
        probe_side = {n.display_name() for n in plan.root.probe.iter_nodes()}
        assert probe_side <= set(plan.operator_estimates)
        ran = {op.name for op in trace.operators}
        assert not probe_side & ran
        assert ran == {n.display_name() for n in plan.root.iter_nodes()} - probe_side
        (join_row,) = [line for line in trace.format().splitlines() if "HASH-JOIN" in line]
        assert join_row.endswith("probe side mirrored from build")
        assert [op.name for op in trace.operators if op.mirrored] == [plan.root.display_name()]
        (entry,) = [entry for _, entry in db.obs.feedback.worst(5)]
        assert {op.name for op in entry.operators} == ran
        assert entry.max_q_error == max(op.q_error for op in trace.operators)

    def test_disabled_observability_records_nothing(self, random_graph):
        db = GraphflowDB(random_graph, obs=Observability(enabled=False))
        db.build_catalogue(z=60)
        result = db.execute(cq.triangle())
        assert result.trace is None
        assert db.obs.traces.stats()["recorded"] == 0
        assert db.obs.feedback.stats()["plans_tracked"] == 0

    def test_update_batches_produce_update_traces(self, db):
        db.apply_updates(inserts=[(0, 1), (1, 2), (200, 201)])
        trace = db.obs.traces.last(kind="update")
        assert trace is not None
        assert trace.kind == "update"
        assert trace.span("commit") is not None
        assert db.obs.updates_total.labels().value == 1.0

    def test_query_metrics_flow_into_the_registry(self, db):
        db.execute(cq.triangle())
        text = db.obs.registry.expose_prometheus()
        assert 'graphflow_queries_total{status="ok"} 1' in text
        assert 'graphflow_query_seconds_bucket{mode="vectorized",status="ok",le="+Inf"} 1' in text
        assert "graphflow_query_q_error_count 1" in text
        assert "graphflow_db_planner_invocations" in text
        assert "graphflow_plan_cache_misses 1" in text

    def test_row_limited_runs_record_no_q_error(self, db):
        """A truncated run's actuals count only what it read before it
        stopped, so its q-error describes the limit, not the estimates."""
        histogram = db.obs.query_q_error.labels()
        limited = db.execute(
            cq.triangle(), config=ExecutionConfig(vectorized=True, output_limit=3)
        )
        assert limited.truncated and math.isfinite(limited.trace.max_q_error)
        assert histogram.count == 0
        full = db.execute(cq.triangle(), config=ExecutionConfig(vectorized=True))
        assert full.trace.status == "ok"
        assert histogram.count == 1


# --------------------------------------------------------------------------- #
# service integration
# --------------------------------------------------------------------------- #
class TestServiceObservability:
    def test_served_query_trace_starts_with_admission_wait(self, db):
        with QueryService(db) as service:
            result = service.execute(cq.triangle())
            trace = service.recent_traces(1)[0]
        assert result.status == STATUS_OK
        assert trace.spans[0].name == "admission_wait"
        assert trace.span("plan") is not None
        assert trace.status == STATUS_OK
        assert service.trace(trace.trace_id) is trace

    def test_trace_disabled_database(self, random_graph):
        db = GraphflowDB(random_graph, obs=Observability(enabled=False))
        with QueryService(db) as service:
            service.execute(cq.triangle())
            assert service.recent_traces() == []

    def test_slow_query_log_through_service(self, random_graph):
        db = GraphflowDB(random_graph, obs=Observability(slow_query_seconds=0.0))
        with QueryService(db) as service:
            service.execute(cq.triangle())
            service.execute(cq.triangle())
            slow = service.slow_queries()
        assert len(slow) == 2  # threshold 0: everything is slow

    def test_trace_ring_capacity(self, random_graph):
        db = GraphflowDB(random_graph, obs=Observability(trace_capacity=2))
        with QueryService(db) as service:
            for _ in range(5):
                service.execute(cq.triangle())
            assert len(service.recent_traces()) == 2
            assert service.stats()["traces"]["recorded"] == 5

    def test_metrics_prometheus_includes_service_collector(self, db):
        with QueryService(db) as service:
            service.execute(cq.triangle())
            text = service.metrics_prometheus()
        assert "graphflow_service_request_seconds_count 1" in text
        assert "graphflow_service_counters_ok 1" in text
        assert "graphflow_admission_wait_seconds_count 1" in text
        assert "graphflow_traces_recorded 1" in text

    def test_stats_include_observability(self, db):
        with QueryService(db) as service:
            service.execute(cq.triangle())
            stats = service.stats()
        assert stats["traces"]["recorded"] == 1
        assert stats["cardinality_feedback"]["plans_tracked"] == 1
        assert stats["cardinality_feedback"]["max_q_error"] >= 1.0

    def test_stats_consistent_under_concurrent_load(self, db):
        """stats()/metrics_prometheus() must stay coherent while queries and
        updates are in flight (the scrape path takes no executor locks)."""
        queries = [cq.triangle(), cq.diamond_x()]
        for q in queries:
            db.execute(q)  # warm plan cache so workers mostly hit
        errors: list = []
        stop = threading.Event()

        def scrape(service):
            while not stop.is_set():
                try:
                    stats = service.stats()
                    assert stats["counters"].get("ok", 0) >= 0
                    assert stats["traces"]["recorded"] >= 0
                    service.metrics_prometheus()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        with QueryService(db, max_concurrent=4, max_queue=64) as service:
            scraper = threading.Thread(target=scrape, args=(service,))
            scraper.start()
            futures = [service.submit(queries[i % 2]) for i in range(24)]
            service.submit_update(inserts=[(500, 501)])
            results = [f.result() for f in futures]
            stop.set()
            scraper.join(timeout=5)
            stats = service.stats()
        assert not errors
        assert all(r.status == STATUS_OK for r in results)
        assert stats["counters"]["ok"] >= 24
        # Every completed request left a trace (ring capacity permitting).
        assert stats["traces"]["recorded"] >= 25  # 24 queries + 1 update
        assert stats["cardinality_feedback"]["executions"] >= 24
