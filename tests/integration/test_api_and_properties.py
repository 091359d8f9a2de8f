"""Integration tests for the GraphflowDB API, the dataset registry, and
property-based end-to-end correctness checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphflowDB, datasets, queries
from repro.executor.pipeline import count_matches
from repro.graph.generators import erdos_renyi
from repro.planner.qvo import enumerate_wco_plans
from repro.query.generator import random_connected_query
from repro.query.parser import parse_query

from tests.conftest import brute_force_count


@pytest.fixture(scope="module")
def db():
    graph = datasets.load("amazon", scale=0.12)
    database = GraphflowDB(graph)
    database.build_catalogue(h=3, z=100)
    return database


class TestDatasets:
    def test_available_names(self):
        names = datasets.available()
        for expected in ("amazon", "epinions", "google", "berkstan", "livejournal", "twitter"):
            assert expected in names

    def test_load_caches(self):
        a = datasets.load("epinions", scale=0.1)
        b = datasets.load("epinions", scale=0.1)
        assert a is b

    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            datasets.load("nonexistent")

    def test_load_with_edge_labels(self):
        g = datasets.load("amazon", scale=0.1, edge_labels=3)
        import numpy as np

        assert len(np.unique(g.edge_labels)) <= 3

    def test_scale_changes_size(self):
        small = datasets.load("google", scale=0.1)
        large = datasets.load("google", scale=0.2)
        assert large.num_vertices > small.num_vertices

    def test_spec_metadata(self):
        spec = datasets.DATASETS["twitter"]
        assert spec.domain == "social"
        assert spec.paper_edges == "1.46B"


class TestGraphflowDB:
    def test_count_triangles_positive(self, db):
        assert db.count(queries.triangle()) > 0

    def test_execute_returns_profile_fields(self, db):
        result = db.execute(queries.diamond_x())
        assert result.num_matches >= 0
        assert result.i_cost > 0
        assert result.plan.plan_type in ("wco", "bj", "hybrid")

    def test_execute_string_query(self, db):
        result = db.execute("(a1)-->(a2), (a2)-->(a3), (a1)-->(a3)")
        assert result.num_matches == db.count(queries.triangle())

    def test_execute_collect(self, db):
        result = db.execute(queries.triangle(), collect=True)
        assert result.matches is not None
        assert len(result.matches) == result.num_matches

    def test_adaptive_matches_fixed(self, db):
        fixed = db.execute(queries.diamond_x(), vectorized=False)
        adaptive = db.execute(queries.diamond_x(), adaptive=True)
        assert fixed.num_matches == adaptive.num_matches

    def test_parallel_matches_serial(self, db):
        serial = db.execute(queries.triangle())
        parallel = db.execute(queries.triangle(), num_workers=2)
        assert serial.num_matches == parallel.num_matches

    def test_plan_and_explain(self, db):
        plan = db.plan(queries.q8())
        assert set(plan.root.out_vertices) == set(queries.q8().vertices)
        text = db.explain(queries.q8())
        assert "estimated cost" in text
        assert "SCAN" in text

    def test_execute_prebuilt_plan(self, db):
        plan = db.plan(queries.q2())
        result = db.execute(plan)
        assert result.plan is plan

    def test_estimate_cardinality(self, db):
        est = db.estimate_cardinality(queries.triangle())
        true = db.count(queries.triangle())
        assert est > 0
        assert est / max(true, 1) < 50 and max(true, 1) / max(est, 1) < 50

    def test_full_enumeration_plan(self, db):
        plan = db.plan(queries.triangle(), full_enumeration=True)
        assert plan.label == "full-enumeration"

    def test_lazy_catalogue_build(self):
        graph = datasets.load("epinions", scale=0.1)
        database = GraphflowDB(graph)  # no explicit build_catalogue
        assert database.count(queries.triangle()) >= 0
        assert database.catalogue is not None


class TestEndToEndProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_all_plans_agree_on_random_graphs(self, seed):
        """Property: every WCO plan of the diamond-X query computes the same
        number of matches on any graph."""
        graph = erdos_renyi(40, 160, seed=seed)
        plans = enumerate_wco_plans(queries.diamond_x())
        counts = {count_matches(p, graph) for p in plans[:6]}
        assert len(counts) == 1

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_vertices=st.integers(min_value=3, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_executor_matches_brute_force_on_random_queries(self, seed, num_vertices):
        """Property: the executor agrees with brute-force matching for random
        small queries on random small graphs."""
        graph = erdos_renyi(25, 120, seed=seed)
        query = random_connected_query(num_vertices, avg_degree=2.4, seed=seed)
        plans = enumerate_wco_plans(query)
        if not plans:
            return
        expected = brute_force_count(graph, query)
        assert count_matches(plans[0], graph) == expected

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=8, deadline=None)
    def test_parser_roundtrip_random_queries(self, seed):
        from repro.query.parser import format_query

        query = random_connected_query(4, seed=seed, num_edge_labels=2)
        text = format_query(query)
        again = parse_query(text)
        assert again.edge_key_set() == query.edge_key_set()
