"""Acceptance: queries over dynamic storage match queries over fresh graphs.

Every integration query must return identical results on (a) a dirty
``DynamicGraph`` (delta overlay populated), (b) a compacted snapshot of it,
and (c) a ``Graph`` freshly built from the same final edge set — in both the
iterator and the vectorized execution modes.  Write batches and the counts
read between them must not construct a full ``Graph`` per batch.
"""

from __future__ import annotations

import pytest

from repro.api import GraphflowDB
from repro.graph.builder import graph_from_edges
from repro.graph.graph import Graph
from repro.query import catalog_queries as cq
from repro.storage import DynamicGraph

from tests.conftest import brute_force_count
from tests.storage.conftest import EQUIVALENCE_QUERIES, build_mutated_pair

QUERIES = EQUIVALENCE_QUERIES


@pytest.fixture(scope="module")
def mutated():
    """A DynamicGraph mutated through inserts and deletes, plus the
    equivalent freshly built Graph (shared harness)."""
    return build_mutated_pair()


@pytest.mark.parametrize("vectorized", [False, True], ids=["iterator", "vectorized"])
@pytest.mark.parametrize("name,query", QUERIES, ids=[name for name, _ in QUERIES])
def test_identical_results_on_dynamic_and_fresh(mutated, name, query, vectorized):
    dynamic, fresh = mutated
    db_fresh = GraphflowDB(fresh)
    db_fresh.build_catalogue(z=100)
    expected = db_fresh.execute(query, vectorized=vectorized).num_matches

    # (a) dirty dynamic graph served through the DB (snapshot reads).
    db_dynamic = GraphflowDB(dynamic)
    db_dynamic.build_catalogue(z=100)
    assert db_dynamic.execute(query, vectorized=vectorized).num_matches == expected

    # (b) compacted snapshot as a plain Graph.
    compacted = DynamicGraph(dynamic.snapshot().materialize())
    db_compacted = GraphflowDB(compacted)
    db_compacted.build_catalogue(z=100)
    assert db_compacted.execute(query, vectorized=vectorized).num_matches == expected


def test_collected_matches_identical(mutated):
    dynamic, fresh = mutated
    db_dynamic = GraphflowDB(dynamic)
    db_fresh = GraphflowDB(fresh)
    for db in (db_dynamic, db_fresh):
        db.build_catalogue(z=100)
    got = db_dynamic.execute(cq.triangle(), collect=True, vectorized=False).matches
    expected = db_fresh.execute(cq.triangle(), collect=True, vectorized=False).matches
    key = lambda m: tuple(sorted(m.items()))
    assert sorted(got, key=key) == sorted(expected, key=key)


def test_dirty_writes_build_no_graph_per_batch(monkeypatch):
    """Neither a write batch nor a count on the dirty snapshot it leaves
    reconstructs the adjacency index."""
    base = graph_from_edges([(i, i + 1) for i in range(50)] + [(50, 0)])
    dynamic = DynamicGraph(base)
    db = GraphflowDB(dynamic)
    db.build_catalogue(z=50)

    builds = []
    original = Graph._build_partitions

    def counting_build(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "_build_partitions", counting_build)
    for i in range(10):
        db.apply_updates(inserts=[(i, i + 2)])
        if i % 2:
            db.apply_updates(deletes=[(i - 1, i + 1)])
        expected = brute_force_count(dynamic.snapshot(), cq.triangle())
        for vectorized in (False, True):
            assert db.execute(cq.triangle(), vectorized=vectorized).num_matches == expected
    assert builds == [], "update batches must not rebuild the CSR index"
    assert dynamic.delta_edges > 0
    assert expected > 0

    # Compaction (explicit or threshold-triggered) is the only path that
    # builds a new Graph, and it is amortised, not per-batch.
    dynamic.compact()
    assert len(builds) == 1


def test_counts_survive_threshold_compaction():
    base = graph_from_edges([(0, 1), (1, 2)])
    dynamic = DynamicGraph(base, compact_min_edges=2, compact_ratio=0.0)
    db = GraphflowDB(dynamic)
    batches = [[(0, 2)], [(2, 3), (3, 0), (1, 3)], [(3, 4), (4, 0), (4, 1)]]
    for number, batch in enumerate(batches):
        db.apply_updates(inserts=batch)
        if number == 1:  # crossed the compaction threshold
            assert dynamic.compactions >= 1
        expected = brute_force_count(dynamic.snapshot().materialize(), cq.triangle())
        for vectorized in (False, True):
            assert db.execute(cq.triangle(), vectorized=vectorized).num_matches == expected
    assert expected > 0
