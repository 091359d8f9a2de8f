"""Tests for streaming aggregation (repro.executor.aggregates).

The aggregates group the batch engine's frames as they arrive; every count
is checked against a brute-force grouping of the rows the reference
executor collects."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import PlanError
from repro.executor.aggregates import (
    distinct_count,
    group_count,
    per_vertex_participation,
    top_k_vertices,
)
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import execute_plan
from repro.executor.profile import ExecutionProfile
from repro.executor.vectorized import build_batch_operator_tree
from repro.planner.plan import Plan, make_hash_join, wco_plan_from_order
from repro.query import catalog_queries


def _hash_join_plan():
    query = catalog_queries.diamond_x()

    def side(order):
        return wco_plan_from_order(query.project(order), order).root

    join = make_hash_join(query, side(("a1", "a2", "a3")), side(("a2", "a3", "a4")))
    return Plan(query=query, root=join)


PLANS = {
    "triangle": wco_plan_from_order(catalog_queries.q1(), ("a1", "a2", "a3")),
    "diamond-x-hash-join": _hash_join_plan(),
}
#: Frame sizes: one frame per scan batch, and many small frames.
CONFIGS = {"default": ExecutionConfig(), "batch-7": ExecutionConfig(batch_size=7)}


@pytest.fixture(scope="module")
def triangle_plan():
    return PLANS["triangle"]


def reference_rows(plan, graph, config=None):
    """The plan's matches from the reference executor (or the rows ``config``
    collects, when given)."""
    config = config or ExecutionConfig(vectorized=False)
    return execute_plan(plan, graph, config, collect=True).matches


def brute_force_groups(plan, rows, group_by):
    positions = [plan.root.out_vertices.index(v) for v in group_by]
    return Counter(tuple(row[i] for i in positions) for row in rows)


def brute_force_participation(rows):
    return Counter(vertex for row in rows for vertex in set(row))


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("plan_name", PLANS)
class TestAgainstTheReferenceExecutor:
    def test_group_count(self, random_graph, plan_name, config):
        plan = PLANS[plan_name]
        rows = reference_rows(plan, random_graph)
        for group_by in (["a2"], ["a1", "a3"], list(plan.root.out_vertices)):
            result = group_count(plan, random_graph, group_by, config=config)
            assert result.counts == brute_force_groups(plan, rows, group_by)
            assert result.total_matches == len(rows)

    def test_distinct_count_and_top_k(self, random_graph, plan_name, config):
        plan = PLANS[plan_name]
        expected = brute_force_groups(plan, reference_rows(plan, random_graph), ["a1"])
        assert distinct_count(plan, random_graph, ["a1"], config=config) == len(expected)
        ranking = top_k_vertices(plan, random_graph, "a1", k=5, config=config)
        assert ranking == sorted(
            ((key[0], count) for key, count in expected.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )[:5]

    def test_per_vertex_participation(self, random_graph, plan_name, config):
        plan = PLANS[plan_name]
        expected = brute_force_participation(reference_rows(plan, random_graph))
        assert per_vertex_participation(plan, random_graph, config=config) == expected


@pytest.mark.parametrize("plan_name", PLANS)
def test_an_output_limit_that_cuts_a_frame_is_exact(random_graph, plan_name):
    """The limit falls inside a frame: the aggregates see exactly the first
    ``limit`` rows the batch engine collects under the same config."""
    plan, limit = PLANS[plan_name], 11
    config = ExecutionConfig(batch_size=7, output_limit=limit)
    sizes = [
        frame.shape[0]
        for frame in build_batch_operator_tree(
            plan.root, random_graph, ExecutionProfile(), config, demand=limit
        ).frames()
    ]
    assert limit not in np.cumsum(sizes), "the limit must cut a frame mid-way"
    rows = reference_rows(plan, random_graph, config)
    assert len(rows) == limit
    result = group_count(plan, random_graph, ["a2"], config=config)
    assert result.total_matches == limit
    assert result.counts == brute_force_groups(plan, rows, ["a2"])
    assert per_vertex_participation(plan, random_graph, config=config) == (
        brute_force_participation(rows)
    )


class TestGroupCount:
    def test_group_totals_equal_match_count(self, random_graph, triangle_plan):
        expected = len(reference_rows(triangle_plan, random_graph))
        result = group_count(triangle_plan, random_graph, ["a1"])
        assert result.total_matches == expected
        assert sum(result.counts.values()) == expected

    def test_counts_match_collected_matches(self, random_graph, triangle_plan):
        manual = {}
        for match in reference_rows(triangle_plan, random_graph):
            manual[match[0]] = manual.get(match[0], 0) + 1
        result = group_count(triangle_plan, random_graph, ["a1"])
        assert {key[0]: value for key, value in result.counts.items()} == manual

    def test_output_limit_bounds_total(self, random_graph, triangle_plan):
        result = group_count(
            triangle_plan, random_graph, ["a1"], config=ExecutionConfig(output_limit=5)
        )
        assert result.total_matches <= 5

    def test_grouping_by_all_vertices_gives_singleton_groups(self, random_graph, triangle_plan):
        result = group_count(triangle_plan, random_graph, ["a1", "a2", "a3"])
        assert all(count == 1 for count in result.counts.values())
        assert result.num_groups == result.total_matches

    def test_unknown_vertex_rejected(self, random_graph, triangle_plan):
        with pytest.raises(PlanError):
            group_count(triangle_plan, random_graph, ["zz"])

    def test_empty_group_by_rejected(self, random_graph, triangle_plan):
        with pytest.raises(PlanError):
            group_count(triangle_plan, random_graph, [])

    def test_top_and_count_for_helpers(self, random_graph, triangle_plan):
        result = group_count(triangle_plan, random_graph, ["a1"])
        top = result.top(3)
        assert len(top) <= 3
        if top:
            best_key, best_count = top[0]
            assert result.count_for(*best_key) == best_count
            assert best_count == max(result.counts.values())
        assert result.count_for(10**9) == 0


class TestDerivedAggregates:
    def test_distinct_count_le_groups_of_matches(self, random_graph, triangle_plan):
        expected = len({m[0] for m in reference_rows(triangle_plan, random_graph)})
        assert distinct_count(triangle_plan, random_graph, ["a1"]) == expected

    def test_top_k_vertices_sorted_descending(self, social_graph, triangle_plan):
        ranking = top_k_vertices(triangle_plan, social_graph, "a1", k=5)
        counts = [count for _, count in ranking]
        assert counts == sorted(counts, reverse=True)
        assert len(ranking) <= 5

    def test_per_vertex_participation_consistency(self, random_graph, triangle_plan):
        participation = per_vertex_participation(triangle_plan, random_graph)
        manual = {}
        for match in reference_rows(triangle_plan, random_graph):
            for vertex in set(match):
                manual[vertex] = manual.get(vertex, 0) + 1
        assert participation == manual

    def test_diamond_aggregation_on_clustered_graph(self, social_graph):
        plan = wco_plan_from_order(catalog_queries.diamond_x(), ("a2", "a3", "a1", "a4"))
        result = group_count(plan, social_graph, ["a2", "a3"])
        rows = reference_rows(plan, social_graph)
        assert result.counts == brute_force_groups(plan, rows, ["a2", "a3"])
