"""Tests for the reference executor's physical operators and the execution
pipeline, cross-checked against a brute-force reference matcher (the batch
engine's own tests are in ``test_vectorized.py``)."""

from dataclasses import replace

import pytest

from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import execute_plan
from repro.planner.plan import Plan, make_hash_join, make_scan, wco_plan_from_order
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryGraph

from tests.conftest import brute_force_count


def run(plan, graph, config=None, collect=False):
    """``execute_plan`` on the reference executor, whatever ``config`` says."""
    config = replace(config or ExecutionConfig(), vectorized=False)
    return execute_plan(plan, graph, config, collect=collect)


def count(plan, graph, config=None):
    return run(plan, graph, config).num_matches


class TestScanAndExtend:
    def test_triangle_count_matches_brute_force(self, tiny_graph):
        q = cq.triangle()
        expected = brute_force_count(tiny_graph, q)
        for plan in enumerate_wco_plans(q):
            assert count(plan, tiny_graph) == expected

    def test_triangle_count_on_random_graph(self, random_graph):
        q = cq.triangle()
        expected = brute_force_count(random_graph, q)
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        assert count(plan, random_graph) == expected

    def test_all_wco_plans_agree(self, random_graph):
        q = cq.diamond_x()
        counts = {
            count(plan, random_graph) for plan in enumerate_wco_plans(q)
        }
        assert len(counts) == 1

    def test_directed_3cycle(self, tiny_graph):
        q = cq.directed_3cycle()
        expected = brute_force_count(tiny_graph, q)
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        assert count(plan, tiny_graph) == expected

    def test_reciprocal_edge_query(self, tiny_graph):
        # Query with both directions between a1, a2: matches only 1<->4 pairs.
        q = QueryGraph([("a1", "a2"), ("a2", "a1")])
        plan = wco_plan_from_order(q, ("a1", "a2"))
        assert count(plan, tiny_graph) == brute_force_count(tiny_graph, q) == 2

    def test_collect_matches(self, tiny_graph):
        q = cq.triangle()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        result = run(plan, tiny_graph, collect=True)
        assert len(result.matches) == result.num_matches
        for match in result.matches_as_dicts():
            assert tiny_graph.has_edge(match["a1"], match["a2"])
            assert tiny_graph.has_edge(match["a2"], match["a3"])
            assert tiny_graph.has_edge(match["a1"], match["a3"])

    def test_output_limit(self, random_graph):
        q = cq.triangle()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        result = run(plan, random_graph, ExecutionConfig(output_limit=5))
        assert result.num_matches == 5
        assert result.truncated

    def test_isomorphism_semantics(self, tiny_graph):
        q = cq.q2()  # 4-cycle can reuse vertices under homomorphism semantics
        homo = count(
            wco_plan_from_order(q, ("a1", "a2", "a3", "a4")), tiny_graph
        )
        iso = count(
            wco_plan_from_order(q, ("a1", "a2", "a3", "a4")),
            tiny_graph,
            ExecutionConfig(isomorphism=True),
        )
        assert homo == brute_force_count(tiny_graph, q, isomorphism=False)
        assert iso == brute_force_count(tiny_graph, q, isomorphism=True)
        assert iso <= homo

    def test_scan_range(self, random_graph):
        q = cq.triangle()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        full = count(plan, random_graph)
        m = random_graph.num_edges
        half1 = count(plan, random_graph, ExecutionConfig(scan_range=(0, m // 2)))
        half2 = count(plan, random_graph, ExecutionConfig(scan_range=(m // 2, m)))
        assert half1 + half2 == full


class TestIntersectionCache:
    def test_cache_does_not_change_result(self, social_graph):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a2", "a3", "a1", "a4"))
        with_cache = run(plan, social_graph, ExecutionConfig(enable_intersection_cache=True))
        without = run(plan, social_graph, ExecutionConfig(enable_intersection_cache=False))
        assert with_cache.num_matches == without.num_matches

    def test_cache_reduces_icost_for_cacheable_ordering(self, social_graph):
        q = cq.symmetric_diamond_x()
        plan = wco_plan_from_order(q, ("a2", "a3", "a1", "a4"))
        with_cache = run(plan, social_graph, ExecutionConfig(enable_intersection_cache=True))
        without = run(plan, social_graph, ExecutionConfig(enable_intersection_cache=False))
        assert with_cache.profile.intersection_cost <= without.profile.intersection_cost
        assert with_cache.profile.cache_hits > 0

    def test_cache_off_records_no_hits(self, social_graph):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a2", "a3", "a1", "a4"))
        result = run(plan, social_graph, ExecutionConfig(enable_intersection_cache=False))
        assert result.profile.cache_hits == 0


class TestHashJoin:
    def _hybrid_diamond_plan(self):
        q = cq.diamond_x()
        left = wco_plan_from_order(q.project(["a1", "a2", "a3"]), ("a1", "a2", "a3"))
        right = wco_plan_from_order(q.project(["a2", "a3", "a4"]), ("a2", "a3", "a4"))
        return q, Plan(query=q, root=make_hash_join(q, left.root, right.root))

    def test_hybrid_plan_matches_wco_plan(self, random_graph):
        q, hybrid = self._hybrid_diamond_plan()
        wco = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        assert count(hybrid, random_graph) == count(wco, random_graph)

    def test_hybrid_plan_matches_brute_force(self, tiny_graph):
        q, hybrid = self._hybrid_diamond_plan()
        assert count(hybrid, tiny_graph) == brute_force_count(tiny_graph, q)

    def test_hash_join_profile_counters(self, random_graph):
        _, hybrid = self._hybrid_diamond_plan()
        result = run(hybrid, random_graph)
        assert result.profile.hash_table_entries > 0
        assert result.profile.hash_probes > 0

    def test_bj_plan_for_4cycle(self, random_graph):
        q = cq.q2()
        left = wco_plan_from_order(q.project(["a1", "a2", "a3"]), ("a1", "a2", "a3"))
        right = wco_plan_from_order(q.project(["a3", "a4", "a1"]), ("a3", "a4", "a1"))
        bj = Plan(query=q, root=make_hash_join(q, left.root, right.root))
        wco = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        assert count(bj, random_graph) == count(wco, random_graph)

    def test_uncovered_edge_post_filter(self, tiny_graph):
        # Join two 2-paths of the triangle: the closing edge a1->a3 is covered
        # by neither child and must be verified by the post-filter.
        q = cq.triangle()
        left = q.project(["a1", "a2"])
        right = q.project(["a2", "a3"])
        left_scan = make_scan(left, left.edges[0])
        right_scan = make_scan(right, right.edges[0])
        join = make_hash_join(q, left_scan, right_scan)
        plan = Plan(query=q, root=join)
        assert count(plan, tiny_graph) == brute_force_count(tiny_graph, q)


class TestLabeledExecution:
    def test_labeled_query_counts(self, labeled_graph):
        q = QueryGraph(
            [("a1", "a2", 0), ("a2", "a3", 1)],
            vertex_labels={"a1": 0, "a2": 0, "a3": 1},
        )
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        assert count(plan, labeled_graph) == brute_force_count(labeled_graph, q)

    def test_labeled_triangle(self, labeled_graph):
        q = QueryGraph([("a1", "a2", 0), ("a2", "a3", 0), ("a1", "a3", 0)])
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        assert count(plan, labeled_graph) == brute_force_count(labeled_graph, q)

    def test_wildcard_edge_label_matches_all(self, labeled_graph):
        q_wild = cq.triangle()
        plan = wco_plan_from_order(q_wild, ("a1", "a2", "a3"))
        assert count(plan, labeled_graph) == brute_force_count(labeled_graph, q_wild)
