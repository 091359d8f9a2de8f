"""Tests for the adaptive executor."""

import pytest

from repro.catalogue.construction import build_catalogue
from repro.executor.adaptive import execute_adaptive
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import count_matches, execute_plan
from repro.planner.plan import wco_plan_from_order
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq

from tests.conftest import brute_force_count


class TestAdaptiveExecution:
    def test_adaptive_counts_match_fixed(self, social_graph):
        q = cq.diamond_x()
        catalogue = build_catalogue(social_graph, z=100)
        for plan in enumerate_wco_plans(q)[:6]:
            fixed = execute_plan(plan, social_graph)
            adaptive = execute_adaptive(plan, social_graph, catalogue=catalogue)
            assert adaptive.num_matches == fixed.num_matches

    def test_adaptive_counts_match_brute_force(self, tiny_graph):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        adaptive = execute_adaptive(plan, tiny_graph)
        assert adaptive.num_matches == brute_force_count(tiny_graph, q)

    def test_adaptive_without_catalogue(self, social_graph):
        q = cq.q2()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        adaptive = execute_adaptive(plan, social_graph)
        assert adaptive.num_matches == count_matches(plan, social_graph)

    def test_adaptive_on_short_chain_falls_back(self, social_graph):
        q = cq.triangle()  # only one E/I operator: nothing to adapt
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        adaptive = execute_adaptive(plan, social_graph)
        assert adaptive.num_matches == count_matches(plan, social_graph)
        assert not adaptive.plan.adaptive

    def test_adaptive_collect_normalised_order(self, tiny_graph):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        adaptive = execute_adaptive(plan, tiny_graph, collect=True)
        for match in adaptive.matches_as_dicts():
            assert tiny_graph.has_edge(match["a1"], match["a2"])
            assert tiny_graph.has_edge(match["a2"], match["a4"])
            assert tiny_graph.has_edge(match["a3"], match["a4"])

    def test_adaptive_output_limit(self, social_graph):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        adaptive = execute_adaptive(
            plan, social_graph, config=ExecutionConfig(output_limit=10)
        )
        assert adaptive.num_matches == 10
        assert adaptive.truncated

    def test_adaptive_isomorphism_semantics(self, tiny_graph):
        q = cq.q2()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        adaptive = execute_adaptive(
            plan, tiny_graph, config=ExecutionConfig(isomorphism=True)
        )
        assert adaptive.num_matches == brute_force_count(tiny_graph, q, isomorphism=True)

    def test_adaptive_plan_flag_set(self, social_graph):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a2", "a3", "a1", "a4"))
        adaptive = execute_adaptive(plan, social_graph)
        assert adaptive.plan.adaptive
        assert "adaptive" in adaptive.plan.label
