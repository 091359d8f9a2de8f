"""The one cost-constant set, and one plan per query whichever executor runs it."""

from __future__ import annotations

import pytest

from repro.api import GraphflowDB
from repro.catalogue.construction import build_catalogue
from repro.executor.operators import ExecutionConfig
from repro.graph.generators import clustered_social
from repro.planner.cost_model import COST_CONSTANTS, CostModel
from repro.query import catalog_queries as cq

from tests.conftest import PAPER_UNIT_WEIGHTS


@pytest.fixture(scope="module")
def graph():
    return clustered_social(num_vertices=150, avg_degree=6, seed=7)


@pytest.fixture(scope="module")
def catalogue(graph):
    return build_catalogue(graph, z=100, queries=[cq.triangle(), cq.q5()])


class TestConstants:
    def test_default_model_prices_with_the_one_set(self, graph, catalogue):
        assert CostModel(graph, catalogue).constants is COST_CONSTANTS
        assert GraphflowDB(graph, catalogue=catalogue).cost_model.constants is COST_CONSTANTS

    def test_unit_weights_reproduce_the_paper_formulas(self, graph, catalogue):
        """Under the paper's unit weights the batch terms add nothing: scan =
        edge count and hash join = 2*n1 + n2."""
        model = CostModel(graph, catalogue, constants=PAPER_UNIT_WEIGHTS)
        plan = GraphflowDB(graph, catalogue=catalogue).plan(cq.q8())
        for node in plan.root.iter_nodes():
            kind = type(node).__name__
            if kind == "ScanNode":
                edge = node.edge
                assert model.scan_cost(node) == catalogue.edge_count(
                    edge.label,
                    node.sub_query.vertex_label(edge.src),
                    node.sub_query.vertex_label(edge.dst),
                )
            elif kind == "HashJoinNode":
                assert model.hash_join_cost(node) == (
                    2.0 * model.cardinality(node.build.sub_query)
                    + model.cardinality(node.probe.sub_query)
                )

    def test_batch_constants_discount_per_tuple_work(self, graph, catalogue):
        paper = CostModel(graph, catalogue, constants=PAPER_UNIT_WEIGHTS)
        batch = CostModel(graph, catalogue)
        plan = GraphflowDB(graph, catalogue=catalogue).plan(cq.triangle())
        # Scan-heavy WCO plans get cheaper under batch constants (per-tuple
        # scan cost is amortised over frames).
        assert batch.plan_cost(plan) < paper.plan_cost(plan)

    def test_explicit_weights_override_constants(self, graph, catalogue):
        model = CostModel(graph, catalogue, build_weight=9.0)
        assert model.build_weight == 9.0
        assert model.probe_weight == COST_CONSTANTS.probe_weight


class TestDeltaPricing:
    """Dirty-snapshot scans pay a per-partition delta surcharge; clean graphs,
    and a set with a zero delta weight, are unchanged."""

    @pytest.fixture()
    def dirty_snapshot(self, graph):
        from repro.storage import DynamicGraph

        dynamic = DynamicGraph(graph, auto_compact=False)
        inserts = []
        v = 0
        while len(inserts) < 120:
            s, d = v % graph.num_vertices, (v * 7 + 1) % graph.num_vertices
            if s != d and not dynamic.has_edge(s, d, 0):
                inserts.append((s, d, 0))
            v += 1
        dynamic.add_edges(inserts)
        return dynamic.snapshot()

    def _scan_nodes(self, graph, catalogue, query):
        plan = GraphflowDB(graph, catalogue=catalogue).plan(query)
        return [n for n in plan.root.iter_nodes() if type(n).__name__ == "ScanNode"]

    def test_dirty_scans_price_higher(self, graph, catalogue, dirty_snapshot):
        assert COST_CONSTANTS.delta_scan_weight > 0
        clean = CostModel(graph, catalogue)
        dirty = CostModel(dirty_snapshot, catalogue)
        for node in self._scan_nodes(graph, catalogue, cq.q8()):
            assert dirty.scan_cost(node) > clean.scan_cost(node)

    def test_zero_delta_weight_ignores_delta(self, graph, catalogue, dirty_snapshot):
        clean = CostModel(graph, catalogue, constants=PAPER_UNIT_WEIGHTS)
        dirty = CostModel(dirty_snapshot, catalogue, constants=PAPER_UNIT_WEIGHTS)
        for node in self._scan_nodes(graph, catalogue, cq.q8()):
            assert dirty.scan_cost(node) == clean.scan_cost(node)

    def test_plain_graph_pays_no_surcharge(self, graph, catalogue):
        """A graph without partition_delta_ratio (flat CSR) pays no delta
        surcharge."""
        model = CostModel(graph, catalogue)
        for node in self._scan_nodes(graph, catalogue, cq.triangle()):
            assert model._scan_delta_penalty(node, 1000.0) == 0.0


class TestOnePlanPerQuery:
    def test_plan_and_execute_share_one_optimizer_run(self, graph):
        db = GraphflowDB(graph)
        query = cq.q8()
        planned = db.plan(query)
        assert db.plan(query, vectorized=True).signature() == planned.signature()
        executed = db.execute(query)
        assert executed.plan.signature() == planned.signature()
        assert executed.trace.mode == "vectorized"
        reference = db.execute(query, config=ExecutionConfig(vectorized=False))
        assert reference.plan.signature() == planned.signature()
        assert reference.trace.mode == "iterator"
        assert reference.num_matches == executed.num_matches
        assert db.planner_invocations == 1

    def test_explain_prices_the_executed_plan(self, graph):
        db = GraphflowDB(graph)
        query = cq.q8()
        text = db.explain(query)
        plan = db.execute(query).plan
        assert plan.describe() in text
        assert f"total: {db.cost_model.plan_cost(plan):.1f}" in text

    def test_cost_model_is_built_once_per_catalogue(self, graph):
        db = GraphflowDB(graph)
        db.build_catalogue(z=100)
        model = db.cost_model
        assert db.cost_model is model
        db.build_catalogue(z=100)
        assert db.cost_model is not model

    def test_both_executors_agree_on_results(self, graph):
        db = GraphflowDB(graph)
        db.build_catalogue(z=100)
        for query in (cq.triangle(), cq.q2(), cq.q8()):
            assert (
                db.execute(query).num_matches
                == db.execute(query, vectorized=False).num_matches
            )
