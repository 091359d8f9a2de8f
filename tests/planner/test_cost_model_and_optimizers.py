"""Tests for the cost model, the DP optimizer, and the full-enumeration
optimizer: plan validity, correctness of the chosen plans, and the qualitative
properties the paper claims (cache-consciousness, hybrid plans for multi-cycle
queries, i-cost ranking plans consistently with runtimes)."""

import dataclasses
import gc
import weakref
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalogue.construction import build_catalogue
from repro.executor.pipeline import count_matches, execute_plan
from repro.graph.labeling import with_random_labels
from repro.planner.cost_model import (
    COST_CONSTANTS,
    CostModel,
    SubQueryMemo,
    calibrate_hash_join_weights,
)
from repro.planner.dp_optimizer import DynamicProgrammingOptimizer
from repro.planner.full_enumeration import FullEnumerationOptimizer, PlanSpaceEnumerator
from repro.planner.plan import wco_plan_from_order
from repro.planner.qvo import enumerate_orderings, enumerate_wco_plans
from repro.query import catalog_queries as cq
from repro.query.generator import random_connected_query
from repro.query.query_graph import QueryGraph

from tests.conftest import (
    PAPER_UNIT_WEIGHTS,
    brute_force_count,
    reference_best_wco,
    reference_optimize,
)

CONSTANT_SETS = pytest.mark.parametrize(
    "constants", [PAPER_UNIT_WEIGHTS, COST_CONSTANTS], ids=["paper", "default"]
)


def walk_costing(cost_model, query):
    """``DynamicProgrammingOptimizer._best_wco_per_subquery`` on ``query`` as
    ``{vertex set: (cost, root)}``, and how often it asked ``cost_model`` to
    price each E/I, by ordering prefix."""
    costed = Counter()
    price_extend = cost_model.price_extend

    def counting(child_order, to_vertex, memo):
        costed[tuple(child_order) + (to_vertex,)] += 1
        return price_extend(child_order, to_vertex, memo)

    optimizer = DynamicProgrammingOptimizer(cost_model)
    memo = SubQueryMemo(cost_model, query)
    cost_model.price_extend = counting
    try:
        walked = optimizer._best_wco_per_subquery(memo)
    finally:
        del cost_model.price_extend
    best = {
        frozenset(memo.names(vset)): (found.cost, optimizer._wco_chain(memo, found.order))
        for vset, found in walked.items()
    }
    return best, costed


def catalogue_copy(catalogue):
    """A catalogue holding what ``catalogue`` holds now, that lazily adds
    entries on its own."""
    return dataclasses.replace(
        catalogue, entries=dict(catalogue.entries), edge_counts=dict(catalogue.edge_counts)
    )


def added_entries(catalogue, base):
    """The entries ``catalogue`` holds beyond ``base``'s, each as what was
    measured: the sub-query as it was handed over (its vertex order, edges
    and labels), the descriptors, the to-vertex label and the results."""
    return {
        key: (
            entry.sub_query.vertices,
            entry.sub_query.edges,
            entry.sub_query.vertex_labels,
            entry.descriptors,
            entry.to_vertex_label,
            entry.avg_list_sizes,
            entry.mu,
            entry.num_samples,
        )
        for key, entry in catalogue.entries.items()
        if key not in base.entries
    }


@pytest.fixture(scope="module")
def social_cost_model(request):
    social_graph = request.getfixturevalue("social_graph")
    catalogue = build_catalogue(social_graph, z=300)
    return CostModel(social_graph, catalogue)


class TestCostModel:
    def test_plan_cost_positive(self, social_cost_model):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        assert social_cost_model.plan_cost(plan) > 0

    def test_cost_breakdown_sums(self, social_cost_model):
        plan = wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4"))
        breakdown = social_cost_model.cost_breakdown(plan)
        assert breakdown.total == pytest.approx(sum(c for _, c in breakdown.per_operator))
        assert len(breakdown.per_operator) == 3

    def test_extend_cost_prices_the_nodes_own_descriptors(self, social_cost_model):
        """An E/I is priced from the descriptors it holds (a plan read back
        from JSON holds what was stored), not from ones derived again from
        its sub-query."""
        node = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3")).root
        assert len(node.descriptors) == 2
        one_list = dataclasses.replace(node, descriptors=node.descriptors[:1])
        assert social_cost_model.extend_cost(one_list) < social_cost_model.extend_cost(node)

    def test_cache_conscious_cheaper_for_cacheable_ordering(self, social_graph):
        catalogue = build_catalogue(social_graph, z=300)
        conscious = CostModel(social_graph, catalogue, cache_conscious=True)
        oblivious = CostModel(social_graph, catalogue, cache_conscious=False)
        q = cq.symmetric_diamond_x()
        cacheable = wco_plan_from_order(q, ("a2", "a3", "a1", "a4"))
        assert conscious.plan_cost(cacheable) <= oblivious.plan_cost(cacheable)

    def test_cache_conscious_prefers_cacheable_ordering(self, social_graph):
        catalogue = build_catalogue(social_graph, z=300)
        conscious = CostModel(social_graph, catalogue, cache_conscious=True)
        q = cq.symmetric_diamond_x()
        cacheable = wco_plan_from_order(q, ("a2", "a3", "a1", "a4"))
        oblivious_order = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        assert conscious.plan_cost(cacheable) <= conscious.plan_cost(oblivious_order)

    def test_icost_ranks_plans_like_runtime(self, social_graph):
        """The key property of Section 3.3: estimated i-cost orders the plans
        of the tailed-triangle query consistently with their actual i-cost."""
        catalogue = build_catalogue(social_graph, z=300)
        model = CostModel(social_graph, catalogue, cache_conscious=False)
        q = cq.tailed_triangle()
        plans = enumerate_wco_plans(q)
        estimated = [model.plan_cost(p) for p in plans]
        actual = [
            execute_plan(p, social_graph).profile.intersection_cost for p in plans
        ]
        # The plan with the lowest estimated cost must be among the cheaper
        # half by actual i-cost.
        best_est = actual[estimated.index(min(estimated))]
        assert best_est <= sorted(actual)[len(actual) // 2]

    def test_calibrate_hash_join_weights(self, social_graph):
        catalogue = build_catalogue(social_graph, z=100)
        w1, w2 = calibrate_hash_join_weights(social_graph, catalogue)
        assert w1 > 0 and w2 > 0

    def test_cardinality_cached(self, social_cost_model):
        q = cq.triangle()
        first = social_cost_model.cardinality(q)
        second = social_cost_model.cardinality(q)
        assert first == second


class TestDPOptimizer:
    @pytest.mark.parametrize("query_name", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q8", "Q11"])
    def test_chosen_plan_is_correct(self, social_graph, social_cost_model, query_name):
        query = cq.get(query_name)
        optimizer = DynamicProgrammingOptimizer(social_cost_model)
        plan = optimizer.optimize(query)
        reference = wco_plan_from_order(
            query, enumerate_wco_plans(query)[0].qvo()
        )
        assert count_matches(plan, social_graph) == count_matches(reference, social_graph)

    def test_chosen_plan_correct_vs_brute_force(self, tiny_graph):
        catalogue = build_catalogue(tiny_graph, z=20)
        optimizer = DynamicProgrammingOptimizer(CostModel(tiny_graph, catalogue))
        for query in (cq.triangle(), cq.diamond_x(), cq.q2()):
            plan = optimizer.optimize(query)
            assert count_matches(plan, tiny_graph) == brute_force_count(tiny_graph, query)

    def test_estimated_cost_attached(self, social_cost_model):
        plan = DynamicProgrammingOptimizer(social_cost_model).optimize(cq.q3())
        assert plan.estimated_cost > 0
        assert plan.label == "dp-optimizer"

    def test_clique_gets_wco_plan(self, social_cost_model):
        """Clique-like densely cyclic queries should be evaluated with WCO
        plans (Section 8.2)."""
        plan = DynamicProgrammingOptimizer(social_cost_model).optimize(cq.q5())
        assert plan.is_wco

    def test_q8_gets_hybrid_or_wco_plan(self, social_cost_model):
        plan = DynamicProgrammingOptimizer(social_cost_model).optimize(cq.q8())
        assert plan.plan_type in ("hybrid", "wco")

    def test_binary_joins_can_be_disabled(self, social_cost_model):
        optimizer = DynamicProgrammingOptimizer(social_cost_model, enable_binary_joins=False)
        plan = optimizer.optimize(cq.q8())
        assert plan.is_wco

    def test_disconnected_query_rejected(self, social_cost_model):
        from repro.errors import OptimizerError
        from repro.query.query_graph import QueryGraph

        disconnected = QueryGraph([("a1", "a2"), ("a3", "a4")])
        with pytest.raises(OptimizerError):
            DynamicProgrammingOptimizer(social_cost_model).optimize(disconnected)

    def test_large_query_beam_mode(self, social_cost_model):
        """Queries above the threshold use the pruned enumeration of
        Section 4.4 and still produce a valid plan."""
        optimizer = DynamicProgrammingOptimizer(
            social_cost_model, large_query_threshold=4, beam_width=3
        )
        plan = optimizer.optimize(cq.q8())
        assert set(plan.root.out_vertices) == set(cq.q8().vertices)

    def test_two_vertex_query(self, social_cost_model):
        from repro.query.query_graph import QueryGraph

        q = QueryGraph([("a1", "a2")])
        plan = DynamicProgrammingOptimizer(social_cost_model).optimize(q)
        assert plan.root.out_vertices == ("a1", "a2")

    def test_q9_plan_mixes_joins_and_intersections(self, social_cost_model):
        """Figure 10: Q9's plan joins two triangles and closes the bridge with
        intersections — the optimizer must at least produce a valid plan whose
        type is hybrid or WCO (never BJ-only, which cannot close triangles)."""
        plan = DynamicProgrammingOptimizer(social_cost_model).optimize(cq.q9())
        assert plan.plan_type in ("hybrid", "wco")


@pytest.fixture(scope="module")
def labeled_social(request):
    """The social graph with two edge and two vertex labels, and its catalogue."""
    graph = with_random_labels(
        request.getfixturevalue("social_graph"), num_edge_labels=2, num_vertex_labels=2, seed=5
    )
    return graph, build_catalogue(graph, z=100)


class TestWCOWalk:
    """Case (i) of the DP walks the query's connected prefixes once; it must
    pick exactly what enumerating every sub-query on its own picks."""

    def check(self, graph, catalogue, constants, query):
        expected = reference_best_wco(CostModel(graph, catalogue, constants=constants), query)
        walked, costed = walk_costing(CostModel(graph, catalogue, constants=constants), query)
        assert walked.keys() == expected.keys()
        for vset, (cost, root) in expected.items():
            assert walked[vset][0] == cost, sorted(vset)
            assert walked[vset][1].signature() == root.signature(), sorted(vset)
        prefixes = {
            ordering[:k]
            for ordering in enumerate_orderings(query)
            for k in range(3, query.num_vertices + 1)
        }
        assert set(costed) == prefixes
        assert set(costed.values()) == {1}
        return sum(costed.values())

    @CONSTANT_SETS
    @pytest.mark.parametrize("query_name", [f"Q{i}" for i in range(1, 14)])
    def test_paper_queries(self, social_graph, social_cost_model, constants, query_name):
        self.check(social_graph, social_cost_model.catalogue, constants, cq.get(query_name))

    def test_five_clique_costs_each_prefix_once(self, social_graph, social_cost_model):
        """5·4·3 + 5·4·3·2 + 5! = 300 prefixes, where costing every ordering
        of every sub-query from scratch asks for 660 E/I costs."""
        assert self.check(
            social_graph, social_cost_model.catalogue, COST_CONSTANTS, cq.q7()
        ) == 300

    def test_planning_leaves_no_reference_cycle(self, social_graph, social_cost_model):
        """A cost model holds the graph it was built on, a dirty snapshot
        after writes; it must go when planning is done, not when the cyclic
        garbage collector next runs."""
        model = CostModel(social_graph, social_cost_model.catalogue)
        alive = weakref.ref(model)
        gc.disable()
        try:
            DynamicProgrammingOptimizer(model).optimize(cq.diamond_x())
            del model
            assert alive() is None
        finally:
            gc.enable()

    @CONSTANT_SETS
    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(min_value=3, max_value=6),
        avg_degree=st.floats(min_value=1.5, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_edge_labels=st.integers(min_value=1, max_value=2),
        num_vertex_labels=st.integers(min_value=1, max_value=2),
    )
    def test_random_queries(
        self, labeled_social, constants, num_vertices, avg_degree, seed,
        num_edge_labels, num_vertex_labels,
    ):
        query = random_connected_query(
            num_vertices,
            avg_degree=avg_degree,
            seed=seed,
            num_edge_labels=num_edge_labels,
            num_vertex_labels=num_vertex_labels,
        )
        graph, catalogue = labeled_social
        self.check(graph, catalogue, constants, query)


class TestPlanIdentity:
    """The DP prices from its per-call vertex-set memo and builds nodes only
    for the plan it returns; the reference builds and costs a node for every
    candidate.  Both must pick the same plan at the same cost, bit for bit.

    Each side fills its own copy of one catalogue, so the entries it samples
    lazily must also match: the same sub-query measured for each, because
    the cost model is asked in the same order."""

    @CONSTANT_SETS
    @settings(max_examples=20, deadline=None)
    @given(
        num_vertices=st.integers(min_value=3, max_value=7),
        avg_degree=st.floats(min_value=1.5, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_edge_labels=st.integers(min_value=1, max_value=2),
        num_vertex_labels=st.integers(min_value=1, max_value=2),
        binary_joins=st.booleans(),
        output_limit=st.sampled_from([None, 1, 100]),
        beam=st.booleans(),
    )
    def test_random_queries(
        self, labeled_social, constants, num_vertices, avg_degree, seed,
        num_edge_labels, num_vertex_labels, binary_joins, output_limit, beam,
    ):
        query = random_connected_query(
            num_vertices,
            avg_degree=avg_degree,
            seed=seed,
            num_edge_labels=num_edge_labels,
            num_vertex_labels=num_vertex_labels,
        )
        graph, shared = labeled_social
        catalogue, reference_catalogue = catalogue_copy(shared), catalogue_copy(shared)
        # Beam mode (no case (i), a few vertex sets kept per level) on queries
        # above four vertices.
        threshold = 4 if beam else 10
        plan = DynamicProgrammingOptimizer(
            CostModel(graph, catalogue, constants=constants),
            enable_binary_joins=binary_joins,
            large_query_threshold=threshold,
            beam_width=3,
        ).optimize(query, output_limit=output_limit)
        expected = reference_optimize(
            CostModel(graph, reference_catalogue, constants=constants),
            query,
            enable_binary_joins=binary_joins,
            output_limit=output_limit,
            large_query_threshold=threshold,
            beam_width=3,
        )
        assert plan.signature() == expected.signature()
        assert plan.estimated_cost == expected.estimated_cost
        assert added_entries(catalogue, shared) == added_entries(reference_catalogue, shared)

    @pytest.mark.parametrize("query_name", ["Q2", "Q3", "Q8", "Q9", "Q12", "Q13"])
    def test_paper_queries(self, social_graph, query_name):
        base = build_catalogue(social_graph, z=300)
        catalogue, reference_catalogue = catalogue_copy(base), catalogue_copy(base)
        query = cq.get(query_name)
        plan = DynamicProgrammingOptimizer(CostModel(social_graph, catalogue)).optimize(query)
        expected = reference_optimize(CostModel(social_graph, reference_catalogue), query)
        assert plan.signature() == expected.signature()
        assert plan.estimated_cost == expected.estimated_cost
        added = added_entries(catalogue, base)
        assert added and added == added_entries(reference_catalogue, base)

    @pytest.mark.parametrize("query_name, vertex_sets", [("Q7", 26), ("Q12", 25), ("Q13", 19)])
    def test_warm_optimize_projects_each_vertex_set_once(
        self, social_cost_model, monkeypatch, query_name, vertex_sets
    ):
        """A warm ``optimize`` builds at most one ``QueryGraph`` per connected
        vertex set.  Building a node, and so a projection, for every
        candidate and prefix built 303 / 654 / 566."""
        query = cq.get(query_name)
        assert vertex_sets == sum(
            query.connected_projection_exists(subset)
            for k in range(2, query.num_vertices + 1)
            for subset in combinations(query.vertices, k)
        )
        optimizer = DynamicProgrammingOptimizer(social_cost_model)
        expected = optimizer.optimize(query)
        built = Counter()
        init = QueryGraph.__init__

        def counting(self, *args, **kwargs):
            built["graphs"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(QueryGraph, "__init__", counting)
        plan = optimizer.optimize(query)
        monkeypatch.undo()
        assert 0 < built["graphs"] <= vertex_sets
        assert plan.signature() == expected.signature()


class TestFullEnumeration:
    def test_enumerator_contains_all_wco_plans(self):
        q = cq.diamond_x()
        enumerator = PlanSpaceEnumerator(q)
        signatures = {p.signature() for p in enumerator.all_plans()}
        for plan in enumerate_wco_plans(q):
            assert plan.signature() in signatures

    def test_enumerator_contains_hybrid_plans(self):
        q = cq.diamond_x()
        plans = PlanSpaceEnumerator(q).all_plans()
        assert any(p.plan_type == "hybrid" for p in plans)

    def test_triangle_has_no_bj_plan(self):
        """The projection constraint excludes open-triangle BJ plans."""
        plans = PlanSpaceEnumerator(cq.triangle()).all_plans()
        assert all(not p.is_binary_join_only for p in plans)

    def test_4cycle_has_bj_plan(self):
        plans = PlanSpaceEnumerator(cq.q2()).all_plans()
        assert any(p.is_binary_join_only for p in plans)

    def test_full_enumeration_agrees_with_dp(self, social_cost_model, social_graph):
        """Section 4.3: the DP optimizer returned the same plan as the full
        enumeration in all the paper's experiments; verify cost parity here."""
        for query in (cq.triangle(), cq.q2(), cq.diamond_x()):
            dp_plan = DynamicProgrammingOptimizer(social_cost_model).optimize(query)
            full_plan = FullEnumerationOptimizer(social_cost_model).optimize(query)
            assert full_plan.estimated_cost <= dp_plan.estimated_cost * 1.001
            assert count_matches(dp_plan, social_graph) == count_matches(
                full_plan, social_graph
            )

    def test_a_bug_in_a_node_constructor_is_not_an_unbuildable_plan(
        self, social_cost_model, monkeypatch
    ):
        """Only ``PlanError`` means "no such plan"; anything else escapes."""
        import repro.planner.full_enumeration as full_enumeration

        def broken(*args, **kwargs):
            raise TypeError("make_extend bug")

        monkeypatch.setattr(full_enumeration, "make_extend", broken)
        with pytest.raises(TypeError, match="make_extend bug"):
            FullEnumerationOptimizer(social_cost_model).optimize(cq.diamond_x())

    def test_a_bug_in_a_node_constructor_escapes_the_dp(self, social_cost_model, monkeypatch):
        """The DP twin of the test above: its walk builds only valid
        prefixes, so it has nothing to catch."""
        import repro.planner.dp_optimizer as dp_optimizer

        def broken(*args, **kwargs):
            raise TypeError("make_extend bug")

        monkeypatch.setattr(dp_optimizer, "make_extend", broken)
        with pytest.raises(TypeError, match="make_extend bug"):
            DynamicProgrammingOptimizer(social_cost_model).optimize(cq.diamond_x())

    def test_all_enumerated_plans_agree_on_counts(self, random_graph):
        q = cq.q2()
        plans = PlanSpaceEnumerator(q).all_plans()
        counts = {count_matches(p, random_graph) for p in plans[:30]}
        assert len(counts) == 1
