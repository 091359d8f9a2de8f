"""Tests for the LRU plan cache and its integration with GraphflowDB."""

from __future__ import annotations

import threading

import pytest

from repro.api import GraphflowDB
from repro.executor.operators import ExecutionConfig
from repro.query import catalog_queries as cq
from repro.server.plan_cache import PlanCache, limit_class, plan_key


class TestLruSemantics:
    def test_get_miss_then_put_then_hit(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", "plan")  # plans are opaque to the cache
        assert cache.get("k") == "plan"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_invalidate_flushes_and_counts(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.get("a") is None


class TestGetOrCompute:
    def test_computes_once_per_key(self):
        cache = PlanCache(capacity=4)
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or "plan")
        assert len(calls) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 2

    def test_concurrent_misses_elect_one_leader(self):
        cache = PlanCache(capacity=4)
        computing = threading.Event()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(threading.get_ident())
            computing.set()
            release.wait(timeout=5)
            return "plan"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get_or_compute("k", compute)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        assert computing.wait(timeout=5)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert results == ["plan"] * 4
        assert len(calls) == 1, "only the leader should run the optimizer"

    def test_compute_failure_lets_waiters_retry(self):
        cache = PlanCache(capacity=4)
        attempts = []

        def failing():
            attempts.append(1)
            raise RuntimeError("planner exploded")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", failing)
        # The key is not poisoned: the next call computes again.
        assert cache.get_or_compute("k", lambda: "plan") == "plan"
        assert len(attempts) == 1

    def test_invalidation_during_compute_skips_stale_store(self):
        cache = PlanCache(capacity=4)

        def compute():
            cache.invalidate()  # catalogue rebuilt while planning ran
            return "stale-plan"

        assert cache.get_or_compute("k", compute) == "stale-plan"
        assert "k" not in cache, "a plan computed against stale stats must not be cached"


class TestGraphflowDbIntegration:
    @pytest.fixture()
    def db(self, random_graph):
        db = GraphflowDB(random_graph)
        db.build_catalogue(z=60)
        return db

    def test_repeated_plan_hits_cache(self, db):
        q = cq.triangle()
        before = db.planner_invocations
        plan_a = db.plan(q)
        plan_b = db.plan(q)
        assert plan_a is plan_b
        assert db.planner_invocations == before + 1
        assert db.plan_cache.stats.hits >= 1

    def test_renamed_query_hits_cache(self, db):
        q = cq.diamond_x()
        db.plan(q)
        before = db.planner_invocations
        renamed = q.rename_vertices({v: f"{v}_zz" for v in q.vertices})
        db.plan(renamed)
        assert db.planner_invocations == before, "isomorphic query must reuse the plan"

    def test_planner_options_are_part_of_the_key(self, db):
        q = cq.triangle()
        db.plan(q)
        before = db.planner_invocations
        db.plan(q, enable_binary_joins=False)
        assert db.planner_invocations == before + 1

    def test_use_cache_false_bypasses(self, db):
        q = cq.triangle()
        db.plan(q)
        before = db.planner_invocations
        db.plan(q, use_cache=False)
        assert db.planner_invocations == before + 1

    def test_build_catalogue_invalidates_cached_plans(self, db):
        q = cq.triangle()
        db.plan(q)
        assert len(db.plan_cache) == 1
        misses_before = db.plan_cache.stats.misses
        invalidations_before = db.plan_cache.stats.invalidations
        planner_before = db.planner_invocations

        db.build_catalogue(z=60)

        assert len(db.plan_cache) == 0, "stale plans must be flushed"
        assert db.plan_cache.stats.invalidations == invalidations_before + 1
        db.plan(q)
        assert db.planner_invocations == planner_before + 1, (
            "after a catalogue rebuild the query must be re-optimized"
        )
        assert db.plan_cache.stats.misses == misses_before + 1

    def test_set_graph_invalidates_cached_plans(self, db, social_graph):
        q = cq.triangle()
        db.plan(q)
        assert len(db.plan_cache) == 1
        db.set_graph(social_graph)
        assert len(db.plan_cache) == 0
        assert db.catalogue is None

    def test_cache_can_be_disabled(self, random_graph):
        db = GraphflowDB(random_graph, plan_cache_capacity=0)
        db.build_catalogue(z=60)
        q = cq.triangle()
        db.plan(q)
        db.plan(q)
        assert db.plan_cache is None
        assert db.planner_invocations == 2

    def test_cached_plan_executes_correctly_for_renamed_query(self, db):
        q = cq.triangle()
        baseline = db.execute(q)
        renamed = q.rename_vertices({"a1": "n1", "a2": "n2", "a3": "n3"})
        result = db.execute(renamed, collect=True)
        assert result.num_matches == baseline.num_matches
        # Collected matches must be keyed by the *caller's* vertex names even
        # though the plan came from the cache under the original names.
        assert result.matches is not None and result.matches
        assert set(result.matches[0]) == {"n1", "n2", "n3"}

    def test_limits_in_one_power_of_two_class_share_one_entry(self, db):
        q = cq.diamond_x()
        before = db.planner_invocations
        first = db.execute(q, config=ExecutionConfig(output_limit=100), collect=True)
        second = db.execute(q, config=ExecutionConfig(output_limit=120), collect=True)
        assert db.planner_invocations == before + 1
        assert second.plan is first.plan
        assert len(second.matches) == min(120, db.count(q))
        assert plan_key(q, output_limit=100) == plan_key(q, output_limit=120)
        assert plan_key(q, output_limit=100).limit_class == 128

    def test_a_limit_and_no_limit_do_not_share(self, db):
        q = cq.diamond_x()
        db.plan(q, output_limit=100)
        before = db.planner_invocations
        db.plan(q)
        assert db.planner_invocations == before + 1
        assert plan_key(q, output_limit=100) in db.plan_cache
        assert plan_key(q) in db.plan_cache

    def test_one_write_invalidates_limited_and_unlimited_entries(self, db):
        db.to_dynamic()
        q = cq.diamond_x()
        db.plan(q)
        db.plan(q, output_limit=100)
        assert len(db.plan_cache) == 2
        # A guaranteed-effective write: an edge to a brand-new vertex.
        db.apply_updates(new_vertex_labels=[0], inserts=[(0, db.graph.num_vertices, 0)])
        assert len(db.plan_cache) == 0
        before = db.planner_invocations
        db.plan(q)
        db.plan(q, output_limit=100)
        assert db.planner_invocations == before + 2

    @pytest.mark.parametrize(
        "limit, expected", [(None, None), (0, 1), (1, 1), (2, 2), (3, 4), (100, 128), (128, 128), (129, 256)]
    )
    def test_limit_class_is_the_next_power_of_two(self, limit, expected):
        assert limit_class(limit) == expected

    def test_plan_cached_is_this_calls_own_fact(self, db, monkeypatch):
        """``plan_cached`` says whether *this* execute ran the optimizer, not
        whether anyone did meanwhile: thread A sits inside the optimizer on a
        cold query while thread B runs an already-cached one."""
        import repro.api as api

        cached_query, cold_query = cq.triangle(), cq.diamond_x()
        db.execute(cached_query)
        inside_optimizer, release = threading.Event(), threading.Event()

        class BlockingOptimizer(api.DynamicProgrammingOptimizer):
            def optimize(self, query, output_limit=None):
                inside_optimizer.set()
                assert release.wait(timeout=10.0)
                return super().optimize(query, output_limit)

        monkeypatch.setattr(api, "DynamicProgrammingOptimizer", BlockingOptimizer)
        cold = {}
        thread_a = threading.Thread(
            target=lambda: cold.update(result=db.execute(cold_query)), daemon=True
        )
        # A starts planning inside B's plan-cache lookup, the window in which
        # the planner-invocation counter used to be diffed.
        lookup = db.plan_cache.get_or_compute

        def lookup_while_a_plans(key, compute):
            if threading.current_thread() is not thread_a:
                thread_a.start()
                assert inside_optimizer.wait(timeout=10.0)
            return lookup(key, compute)

        monkeypatch.setattr(db.plan_cache, "get_or_compute", lookup_while_a_plans)
        try:
            result = db.execute(cached_query)
        finally:
            release.set()
            thread_a.join(timeout=10.0)
        assert not thread_a.is_alive()
        assert result.trace.plan_cached is True
        assert result.trace.spans[0].attributes["cached"] is True
        assert cold["result"].trace.plan_cached is False
