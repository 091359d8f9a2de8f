"""Tests for adaptive ordering selection: the plan rewrite and its operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_matcher import NaiveMatcher
from repro.catalogue.construction import build_catalogue
from repro.errors import CatalogueError
from repro.executor import adaptive as adaptive_module
from repro.executor.adaptive import adapt, execute_adaptive
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import count_matches, execute_plan
from repro.executor.profile import ExecutionProfile
from repro.executor.vectorized import build_batch_operator_tree
from repro.graph.generators import power_law
from repro.planner.plan import AdaptiveNode, wco_plan_from_order
from repro.planner.qvo import enumerate_wco_plans
from repro.planner.serialize import plan_from_dict, plan_to_dict
from repro.query import catalog_queries as cq

from tests.conftest import brute_force_count


class TestAdaptiveExecution:
    def test_adaptive_counts_match_fixed(self, social_graph):
        q = cq.diamond_x()
        catalogue = build_catalogue(social_graph, z=100)
        for plan in enumerate_wco_plans(q)[:6]:
            fixed = execute_plan(plan, social_graph, ExecutionConfig(vectorized=False))
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
        reference = count_matches(plan, social_graph, ExecutionConfig(vectorized=False))
        assert adaptive.num_matches == reference

    def test_adaptive_on_short_chain_falls_back(self, social_graph):
        q = cq.triangle()  # only one E/I operator: nothing to adapt
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        adaptive = execute_adaptive(plan, social_graph)
        reference = count_matches(plan, social_graph, ExecutionConfig(vectorized=False))
        assert adaptive.num_matches == reference
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


class TestAdaptiveRewrite:
    def test_chain_becomes_one_node_with_every_ordering(self, social_graph):
        plan = wco_plan_from_order(cq.q5(), ("a1", "a2", "a3", "a4"))
        adapted = adapt(plan, social_graph)
        root = adapted.root
        assert isinstance(root, AdaptiveNode) and root.child is plan.root.child.child
        assert root.out_vertices == plan.root.out_vertices
        assert [t.root.out_vertices[2:] for t in root.tails] == [("a3", "a4"), ("a4", "a3")]
        assert adapted.num_extend_operators == 0 and root.num_operators == 2
        assert adapt(adapted, social_graph) is adapted  # nothing left to adapt

    def test_serialization_round_trip(self, social_graph):
        catalogue = build_catalogue(social_graph, z=50)
        plan = adapt(wco_plan_from_order(cq.q2(), ("a1", "a2", "a3", "a4")), social_graph, catalogue)
        back = plan_from_dict(plan_to_dict(plan))
        assert back.adaptive and back.signature() == plan.signature()
        assert [(t.slope, t.intercept) for t in back.root.tails] == [
            (t.slope, t.intercept) for t in plan.root.tails
        ]
        config = ExecutionConfig(vectorized=True)
        assert (
            execute_plan(back, social_graph, config).num_matches
            == execute_plan(plan, social_graph, config).num_matches
        )

    def test_only_a_missing_catalogue_entry_falls_back(self, social_graph, monkeypatch):
        plan = wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4"))
        catalogue = build_catalogue(social_graph, z=50)

        def raising(error):
            def extension_statistics(*args, **kwargs):
                raise error("boom")

            return extension_statistics

        monkeypatch.setattr(adaptive_module, "extension_statistics", raising(CatalogueError))
        uninformed = [(t.slope, t.intercept) for t in adapt(plan, social_graph).root.tails]
        tails = adapt(plan, social_graph, catalogue).root.tails
        assert [(t.slope, t.intercept) for t in tails] == uninformed
        monkeypatch.setattr(adaptive_module, "extension_statistics", raising(TypeError))
        with pytest.raises(TypeError, match="boom"):
            adapt(plan, social_graph, catalogue)


class TestAdaptiveOperator:
    def test_one_frame_is_routed_to_several_orderings(self, social_graph):
        """Rows of a single frame go different ways, come back in the node's
        column order, and the operator accounts as one."""
        fixed = wco_plan_from_order(cq.diamond_x(), ("a2", "a3", "a1", "a4"))
        plan = adapt(fixed, social_graph)
        config = ExecutionConfig(vectorized=True, batch_size=social_graph.num_edges)
        operator = build_batch_operator_tree(plan.root, social_graph, ExecutionProfile(), config)
        (frame,) = operator.child.frames()
        choice = operator._route(frame)
        assert len(np.unique(choice)) == 2
        assert any(columns is not None for *_, columns in operator._tails)

        expected = execute_plan(fixed, social_graph, config, collect=True)
        got = execute_plan(plan, social_graph, config, collect=True)
        assert sorted(got.matches) == sorted(expected.matches)
        counted = execute_plan(plan, social_graph, config)
        assert counted.num_matches == expected.num_matches
        assert set(got.profile.per_operator) == {
            fixed.root.child.child.display_name(), plan.root.display_name()
        }
        assert got.profile.per_operator[plan.root.display_name()]["out"] == got.num_matches
        for profile in (got.profile, counted.profile):
            assert profile.intermediate_matches > frame.shape[0]  # scan + inner E/I frames
            assert profile.intersection_cost > 0

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        query=st.sampled_from([cq.diamond_x(), cq.q2(), cq.q5()]),
        batch_size=st.sampled_from([1, 3, 97, 2048]),
        isomorphism=st.booleans(),
    )
    @settings(max_examples=16, deadline=None)
    def test_adaptive_equals_fixed_equals_naive(self, seed, query, batch_size, isomorphism):
        graph = power_law(16, 64, out_exponent=1.6, in_exponent=1.9, seed=seed)
        config = ExecutionConfig(vectorized=True, batch_size=batch_size, isomorphism=isomorphism)
        if isomorphism:  # the naive matcher has homomorphism semantics only
            expected = brute_force_count(graph, query, isomorphism=True)
        else:
            expected = NaiveMatcher(graph).count_matches(query).num_matches
        for plan in enumerate_wco_plans(query):
            assert execute_plan(plan, graph, config).num_matches == expected
            assert execute_adaptive(plan, graph, config=config).num_matches == expected
