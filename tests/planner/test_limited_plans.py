"""Row-limited planning: :meth:`CostModel.limited_cost`, the optimizers'
limit-aware choice, and the rows a limited query returns.

A run stopped after ``L`` rows still drains every HASH-JOIN build side in
full, but the pipeline above the primary SCAN stops early.  The optimizers
rank plans by that cost when a query carries a limit, so on the benchmark's
amazon graph diamond-X runs as a hybrid plan unlimited and as a WCO plan
under ``LIMIT 100``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphflowDB, datasets
from repro.baselines.leapfrog import LeapfrogTrieJoin
from repro.catalogue.construction import build_catalogue
from repro.errors import CatalogueError
from repro.executor.operators import ExecutionConfig
from repro.graph.generators import clustered_social
from repro.planner.cost_model import COST_CONSTANTS, CostModel, annotate_operator_estimates
from repro.planner.dp_optimizer import DynamicProgrammingOptimizer
from repro.planner.full_enumeration import FullEnumerationOptimizer
from repro.planner.plan import (
    HashJoinNode,
    Plan,
    make_extend,
    make_hash_join,
    wco_plan_from_order,
)
from repro.query import catalog_queries as cq
from repro.query.generator import random_connected_query
from repro.query.query_graph import QueryGraph
from repro.server.plan_cache import limit_class
from repro.storage.dynamic import DynamicGraph

from tests.conftest import PAPER_UNIT_WEIGHTS

LIMITS = (1, 7, 100, 10**6)


@pytest.fixture(scope="module")
def amazon_db():
    """The graph the ``serve_short`` benchmark serves, with its catalogue."""
    db = GraphflowDB(datasets.load("amazon", scale=0.25))
    db.build_catalogue()
    return db


@pytest.fixture(scope="module")
def social_model(social_graph):
    return CostModel(social_graph, build_catalogue(social_graph, z=200))


def _join_plan(query, build_order, probe_order, extend_to=()):
    def sub(order):
        return wco_plan_from_order(query.project(order), order).root

    node = make_hash_join(query, sub(build_order), sub(probe_order))
    for vertex in extend_to:
        node = make_extend(query, node, vertex)
    return Plan(query=query, root=node)


def _has_hash_join(plan) -> bool:
    return any(isinstance(n, HashJoinNode) for n in plan.root.iter_nodes())


# --------------------------------------------------------------------------- #
# the cost
# --------------------------------------------------------------------------- #
class TestLimitedCost:
    def test_wco_plan_pays_the_limit_fraction(self, social_model):
        plan = wco_plan_from_order(cq.diamond_x(), ("a2", "a3", "a1", "a4"))
        estimate = social_model.cardinality(plan.query)
        total = social_model.plan_cost(plan)
        assert estimate > 100
        for limit in (0, 1, 100):
            assert social_model.limited_cost(plan, limit) == pytest.approx(
                limit / estimate * total
            )

    @pytest.mark.parametrize("extend_to", [(), ("a5",)], ids=["join-at-root", "join-below-extend"])
    def test_hybrid_plan_pays_its_build_side_in_full(self, social_model, extend_to):
        """The build subtree, the join's ``w1 * n1`` and the per-batch term of
        its ``n1`` build rows are charged whatever the limit; only the rest
        scales."""
        query = cq.diamond_x()
        if extend_to:
            query = QueryGraph(
                [(e.src, e.dst) for e in query.edges] + [("a1", "a5"), ("a4", "a5")]
            )
        plan = _join_plan(query, ("a1", "a2", "a3"), ("a2", "a3", "a4"), extend_to)
        join = next(n for n in plan.root.iter_nodes() if isinstance(n, HashJoinNode))
        n_build = social_model.cardinality(join.build.sub_query)
        build_in_full = (
            social_model.plan_cost(join.build)
            + social_model.build_weight * n_build
            + social_model._batch_cost(n_build)
        )
        total = social_model.plan_cost(plan)
        estimate = social_model.cardinality(query)
        assert social_model.limited_cost(plan, 0) == pytest.approx(build_in_full)
        assert social_model.limited_cost(plan, 10) == pytest.approx(
            build_in_full + 10 / estimate * (total - build_in_full)
        )
        assert build_in_full < social_model.limited_cost(plan, 10) < total

    @pytest.mark.parametrize("name", ["wco", "hybrid"])
    def test_no_limit_or_a_limit_above_the_estimate_is_plan_cost(self, social_model, name):
        if name == "wco":
            plan = wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4"))
        else:
            plan = _join_plan(cq.diamond_x(), ("a1", "a2", "a3"), ("a2", "a3", "a4"))
        total = social_model.plan_cost(plan)
        estimate = social_model.cardinality(plan.query)
        assert social_model.limited_cost(plan, None) == total
        assert social_model.limited_cost(plan, int(np.ceil(estimate))) == total
        assert social_model.limited_cost(plan.root, 10**9) == total


# --------------------------------------------------------------------------- #
# the decision
# --------------------------------------------------------------------------- #
class TestLimitedDecisions:
    @pytest.mark.parametrize("full_enumeration", [False, True], ids=["dp", "full-enumeration"])
    @pytest.mark.parametrize(
        "constants", [PAPER_UNIT_WEIGHTS, COST_CONSTANTS], ids=["paper", "default"]
    )
    def test_diamond_x_is_hybrid_unlimited_and_wco_under_limit_100(
        self, amazon_db, full_enumeration, constants
    ):
        model = CostModel(amazon_db.cost_model.graph, amazon_db.catalogue, constants=constants)
        optimizer_type = (
            FullEnumerationOptimizer if full_enumeration else DynamicProgrammingOptimizer
        )

        def plan(limit):
            return optimizer_type(model).optimize(cq.diamond_x(), output_limit=limit_class(limit))

        unlimited, limited = plan(None), plan(100)
        assert unlimited.plan_type == "hybrid"
        assert limited.plan_type == "wco"
        # The limit only ranks plans: estimated_cost stays the full plan_cost.
        assert limited.estimated_cost == pytest.approx(model.plan_cost(limited))
        assert model.limited_cost(limited, 128) < model.limited_cost(unlimited, 128)
        # A limit above the estimate changes nothing.
        assert plan(10**6).signature() == unlimited.signature()

    @pytest.mark.parametrize("full_enumeration", [False, True], ids=["dp", "full-enumeration"])
    @pytest.mark.parametrize(
        "query", [cq.triangle(), cq.tailed_triangle(), cq.clique(4, "4-clique")], ids=lambda q: q.name
    )
    def test_a_wco_winner_keeps_its_plan_under_any_limit(self, amazon_db, query, full_enumeration):
        signatures = set()
        for limit in (None, 1, 100, 10**6):
            plan = amazon_db.plan(
                query, full_enumeration=full_enumeration, output_limit=limit, use_cache=False,
            )
            assert plan.plan_type == "wco"
            signatures.add(plan.signature())
        assert len(signatures) == 1

    def test_a_large_query_keeps_the_dp_winner(self, amazon_db):
        """Above ``large_query_threshold`` there is no exhaustive WCO
        enumeration to compare against: the limit changes nothing."""
        optimizer = DynamicProgrammingOptimizer(amazon_db.cost_model, large_query_threshold=3)
        unlimited = optimizer.optimize(cq.diamond_x())
        assert _has_hash_join(unlimited)
        assert optimizer.optimize(cq.diamond_x(), output_limit=1).signature() == (
            unlimited.signature()
        )


# --------------------------------------------------------------------------- #
# the rows
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def limited_states():
    """A clean database, and one serving a snapshot after three
    uncompacted write batches; each with an LFTJ over its graph and the
    graph's edge set."""
    graph = clustered_social(40, avg_degree=5, clustering=0.5, seed=5)
    clean = GraphflowDB(graph)
    clean.build_catalogue(h=3, z=60)
    dirty = GraphflowDB(DynamicGraph(graph, auto_compact=False))
    dirty.build_catalogue(h=3, z=60)
    rng = np.random.default_rng(7)
    for _ in range(3):
        inserts = rng.integers(0, graph.num_vertices, size=(25, 2))
        deletes = rng.choice(graph.num_edges, size=8, replace=False)
        dirty.apply_updates(
            inserts=[(int(s), int(d)) for s, d in inserts if s != d],
            deletes=[(int(graph.edge_src[i]), int(graph.edge_dst[i])) for i in deletes],
        )
    snapshot = dirty._read_graph()
    assert not snapshot.is_clean
    states = {}
    for name, db, view in (("clean", clean, graph), ("dirty", dirty, snapshot.materialize())):
        pairs = {(s, d) for s, d, _ in view.iter_edges()}
        states[name] = (db, LeapfrogTrieJoin(view), pairs)
    return states


class TestLimitedRows:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_vertices=st.integers(min_value=3, max_value=5),
        avg_degree=st.sampled_from([2.4, 3.2, 4.0]),
        limit=st.sampled_from(LIMITS),
        vectorized=st.booleans(),
        state=st.sampled_from(["clean", "dirty"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_limited_query_returns_min_limit_count_true_matches(
        self, limited_states, seed, num_vertices, avg_degree, limit, vectorized, state
    ):
        db, lftj, edges = limited_states[state]
        query = random_connected_query(num_vertices, avg_degree=avg_degree, seed=seed)
        full = lftj.count(query).num_matches
        result = db.execute(
            query, collect=True, config=ExecutionConfig(output_limit=limit, vectorized=vectorized)
        )
        rows = result.matches
        assert result.num_matches == len(rows) == min(limit, full)
        assert len({tuple(sorted(row.items())) for row in rows}) == len(rows)
        for row in rows:
            for edge in query.edges:
                assert (row[edge.src], row[edge.dst]) in edges


# --------------------------------------------------------------------------- #
# annotation failures
# --------------------------------------------------------------------------- #
class TestAnnotateOperatorEstimates:
    def test_a_catalogue_error_leaves_the_plan_unannotated(self, social_model, monkeypatch):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))

        def missing(*args, **kwargs):
            raise CatalogueError("no entry")

        monkeypatch.setattr(social_model, "cardinality", missing)
        assert annotate_operator_estimates(plan, social_model) is plan
        assert not plan.operator_estimates

    def test_a_bug_in_cardinality_propagates(self, social_model, monkeypatch):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(social_model, "cardinality", broken)
        with pytest.raises(TypeError):
            annotate_operator_estimates(plan, social_model)
