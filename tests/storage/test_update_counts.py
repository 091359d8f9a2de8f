"""Counts read after ``GraphflowDB.apply_updates`` batches.

Every count taken between write batches must equal a brute-force count on
the graph the writes leave behind, in both the iterator and the vectorized
execution modes: inserts that close a match add it exactly once, deletes
that break one remove it, and ignored or rejected writes change nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphflowDB
from repro.errors import GraphConstructionError, OptimizerError
from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.generators import erdos_renyi
from repro.query import catalog_queries
from repro.query.query_graph import QueryGraph
from repro.storage import DynamicGraph
from tests.conftest import brute_force_count


def _db(graph) -> GraphflowDB:
    return GraphflowDB(DynamicGraph(graph))


def _count(db: GraphflowDB, query: QueryGraph) -> int:
    """The count of ``query``, checked to agree across execution modes."""
    iterator = db.execute(query, vectorized=False).num_matches
    vectorized = db.execute(query, vectorized=True).num_matches
    assert iterator == vectorized
    return iterator


def _rebuild_count(db: GraphflowDB, query: QueryGraph) -> int:
    """Recompute the count from scratch on the database's current edges."""
    return brute_force_count(db.to_dynamic().snapshot().materialize(), query)


class TestInsertions:
    def test_count_before_writes_matches_brute_force(self, tiny_graph):
        db = _db(tiny_graph)
        assert _count(db, catalog_queries.q1()) == brute_force_count(
            tiny_graph, catalog_queries.q1()
        )

    def test_closing_a_triangle(self):
        db = _db(graph_from_edges([(0, 1), (1, 2)]))
        assert _count(db, catalog_queries.q1()) == 0
        result = db.apply_updates(inserts=[(0, 2)])
        assert result.inserted == [(0, 2, 0)]
        assert _count(db, catalog_queries.q1()) == 1
        assert db.to_dynamic().num_edges == 3

    def test_duplicate_insert_is_ignored(self):
        db = _db(graph_from_edges([(0, 1), (1, 2), (0, 2)]))
        version = db.to_dynamic().version
        result = db.apply_updates(inserts=[(0, 2)])
        assert result.inserted == []
        assert result.version == version
        assert _count(db, catalog_queries.q1()) == 1
        assert db.to_dynamic().num_edges == 3

    def test_repeated_tuple_in_one_batch_is_inserted_once(self):
        db = _db(graph_from_edges([(0, 1), (1, 2)]))
        result = db.apply_updates(inserts=[(0, 2), (0, 2), (0, 2, 0)])
        assert result.inserted == [(0, 2, 0)]
        assert _count(db, catalog_queries.q1()) == 1

    def test_insert_creates_new_vertices(self):
        db = _db(graph_from_edges([(0, 1)]))
        edge = QueryGraph([("a", "b")], name="edge")
        db.apply_updates(inserts=[(5, 6)])
        assert db.to_dynamic().num_vertices >= 7
        assert _count(db, edge) == 2

    def test_batch_insert_counts_each_new_match_once(self):
        # Two edges of a triangle in one batch: only one triangle appears.
        db = _db(graph_from_edges([(0, 1)]))
        db.apply_updates(inserts=[(1, 2), (0, 2)])
        assert _count(db, catalog_queries.q1()) == 1
        assert _rebuild_count(db, catalog_queries.q1()) == 1

    def test_whole_query_inserted_in_one_batch(self):
        db = _db(graph_from_edges([(10, 11)]))  # unrelated edge
        db.apply_updates(inserts=[(0, 1), (1, 2), (0, 2)])
        assert _count(db, catalog_queries.q1()) == 1

    def test_several_queries_counted_after_one_batch(self):
        db = _db(graph_from_edges([(0, 1), (1, 2)]))
        paths = catalog_queries.path(3, "p3")
        db.apply_updates(inserts=[(0, 2)])
        assert _count(db, catalog_queries.q1()) == 1
        assert _count(db, paths) == _rebuild_count(db, paths)

    def test_labeled_query_only_counts_matching_labels(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1, 0)
        builder.add_edge(1, 2, 0)
        db = _db(builder.build())
        query = QueryGraph([("a", "b", 0), ("b", "c", 0), ("a", "c", 1)], name="mixed")
        db.apply_updates(inserts=[(0, 2, 0)])
        assert _count(db, query) == 0
        db.apply_updates(inserts=[(0, 2, 1)])
        assert _count(db, query) == 1


class TestDeletions:
    def test_deleting_breaks_triangle(self):
        db = _db(graph_from_edges([(0, 1), (1, 2), (0, 2)]))
        result = db.apply_updates(deletes=[(1, 2)])
        assert result.deleted == [(1, 2, 0)]
        assert _count(db, catalog_queries.q1()) == 0
        assert db.to_dynamic().num_edges == 2

    def test_deleting_missing_edge_is_ignored(self):
        db = _db(graph_from_edges([(0, 1), (1, 2), (0, 2)]))
        result = db.apply_updates(deletes=[(2, 0)])
        assert result.deleted == []
        assert _count(db, catalog_queries.q1()) == 1
        assert db.to_dynamic().num_edges == 3

    def test_insert_then_delete_returns_to_original(self, random_graph):
        db = _db(random_graph)
        before = _count(db, catalog_queries.q1())
        new_edges = [(0, 60), (60, 90), (0, 90)]
        db.apply_updates(inserts=new_edges)
        assert _count(db, catalog_queries.q1()) > before
        db.apply_updates(deletes=new_edges)
        assert _count(db, catalog_queries.q1()) == before

    def test_batch_applies_inserts_before_deletes(self):
        db = _db(graph_from_edges([(0, 1), (1, 2)]))
        result = db.apply_updates(inserts=[(0, 2)], deletes=[(0, 2)])
        assert result.inserted == [(0, 2, 0)]
        assert result.deleted == [(0, 2, 0)]
        assert _count(db, catalog_queries.q1()) == 0


class TestRejectedWrites:
    def test_self_loop_rejected(self, tiny_graph):
        db = _db(tiny_graph)
        with pytest.raises(GraphConstructionError):
            db.apply_updates(inserts=[(3, 3)])

    def test_bad_edge_tuple_rejected(self, tiny_graph):
        db = _db(tiny_graph)
        with pytest.raises(GraphConstructionError):
            db.apply_updates(inserts=[(1, 2, 3, 4)])

    def test_negative_id_rejected(self, tiny_graph):
        db = _db(tiny_graph)
        with pytest.raises(GraphConstructionError):
            db.apply_updates(deletes=[(-1, 2)])

    def test_rejected_batch_applies_nothing(self):
        db = _db(graph_from_edges([(0, 1), (1, 2)]))
        version = db.to_dynamic().version
        with pytest.raises(GraphConstructionError):
            db.apply_updates(inserts=[(0, 2), (4, 4)])
        assert db.to_dynamic().version == version
        assert _count(db, catalog_queries.q1()) == 0

    def test_empty_batch_keeps_version(self, tiny_graph):
        db = _db(tiny_graph)
        version = db.to_dynamic().version
        result = db.apply_updates()
        assert result.num_applied == 0
        assert db.to_dynamic().version == version

    def test_disconnected_query_rejected(self, tiny_graph):
        db = _db(tiny_graph)
        db.apply_updates(inserts=[(5, 6)])
        disconnected = QueryGraph([("a", "b"), ("c", "d")], name="disc")
        with pytest.raises(OptimizerError):
            db.execute(disconnected)


class TestAgainstRecomputation:
    @pytest.mark.parametrize(
        "query_factory",
        [catalog_queries.q1, catalog_queries.diamond_x, catalog_queries.q2],
    )
    def test_random_insertion_stream(self, query_factory):
        rng = np.random.default_rng(7)
        db = _db(erdos_renyi(30, 90, seed=3, name="stream"))
        query = query_factory()
        for _ in range(6):
            batch = [
                (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                for _ in range(3)
            ]
            batch = [(s, d) for s, d in batch if s != d]
            db.apply_updates(inserts=batch)
            assert _count(db, query) == _rebuild_count(db, query)

    def test_mixed_insert_delete_stream(self):
        rng = np.random.default_rng(11)
        db = _db(erdos_renyi(25, 80, seed=5, name="mixed-stream"))
        query = catalog_queries.q1()
        for step in range(8):
            if step % 2 == 0:
                batch = [
                    (int(rng.integers(0, 25)), int(rng.integers(0, 25)))
                    for _ in range(2)
                ]
                db.apply_updates(inserts=[(s, d) for s, d in batch if s != d])
            else:
                dynamic = db.to_dynamic()
                existing = list(zip(dynamic.edge_src.tolist(), dynamic.edge_dst.tolist()))
                picks = rng.choice(len(existing), size=min(2, len(existing)), replace=False)
                db.apply_updates(deletes=[existing[i] for i in picks])
            assert _count(db, query) == _rebuild_count(db, query)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_single_insertions_always_agree(self, seed):
        rng = np.random.default_rng(seed)
        db = _db(erdos_renyi(20, 50, seed=seed % 1000, name="prop-stream"))
        query = catalog_queries.q1()
        for _ in range(3):
            src = int(rng.integers(0, 20))
            dst = int(rng.integers(0, 20))
            if src == dst:
                continue
            db.apply_updates(inserts=[(src, dst)])
        assert _count(db, query) == _rebuild_count(db, query)
