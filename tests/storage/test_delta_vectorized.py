"""Delta-aware vectorized execution: dirty snapshots without compaction.

The batch engine must run directly on a dirty ``GraphSnapshot`` — lazily
merged per-partition CSR views, no ``snapshot(materialize=True)`` — and
produce exactly the results it produces after compaction, across the full
equivalence query set.  A background compaction landing mid-query must never
change results in either executor mode.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphflowDB
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import execute_plan
from repro.graph.builder import graph_from_edges
from repro.graph.graph import ANY_LABEL, Direction
from repro.graph.intersect import KeySet, member_sorted
from repro.planner.plan import Plan, make_hash_join, wco_plan_from_order
from repro.query import catalog_queries as cq
from repro.storage import CompactionManager, DynamicGraph, GraphSnapshot

from tests.storage.conftest import EQUIVALENCE_QUERIES, build_mutated_pair


@pytest.fixture(scope="module")
def mutated():
    return build_mutated_pair()


@pytest.fixture(scope="module")
def dynamic_db(mutated):
    dynamic, _ = mutated
    db = GraphflowDB(dynamic)
    db.build_catalogue(z=100)
    return db


@pytest.fixture(scope="module")
def compacted_db(mutated):
    dynamic, _ = mutated
    db = GraphflowDB(dynamic.snapshot().materialize())
    db.build_catalogue(z=100)
    return db


class TestDirtySnapshotEquivalence:
    @pytest.mark.parametrize(
        "name,query", EQUIVALENCE_QUERIES, ids=[n for n, _ in EQUIVALENCE_QUERIES]
    )
    def test_vectorized_dirty_matches_compacted(
        self, mutated, dynamic_db, compacted_db, name, query, monkeypatch
    ):
        dynamic, _ = mutated
        expected = compacted_db.execute(query, vectorized=True).num_matches

        # Executing on the dirty graph must not compact — synchronously or
        # otherwise — anywhere on the query path.
        def forbidden(self, *args, **kwargs):
            raise AssertionError("query path triggered a synchronous compaction")

        monkeypatch.setattr(DynamicGraph, "compact", forbidden)
        monkeypatch.setattr(DynamicGraph, "try_compact", forbidden)
        compactions_before = dynamic.compactions
        assert dynamic_db.execute(query, vectorized=True).num_matches == expected
        assert dynamic.compactions == compactions_before
        assert dynamic.delta_edges > 0, "the overlay must still be dirty afterwards"

    def test_vectorized_modes_compose_on_dirty_snapshots(self, mutated, dynamic_db, compacted_db):
        query = cq.diamond_x()
        expected = compacted_db.execute(query, vectorized=False).num_matches
        assert (
            dynamic_db.execute(query, vectorized=True, adaptive=True).num_matches == expected
        )
        assert (
            dynamic_db.execute(query, vectorized=True, num_workers=4).num_matches == expected
        )

    def test_collected_matches_identical_vectorized(self, dynamic_db, compacted_db):
        got = dynamic_db.execute(cq.triangle(), vectorized=True, collect=True).matches
        expected = compacted_db.execute(cq.triangle(), vectorized=True, collect=True).matches
        key = lambda m: tuple(sorted(m.items()))
        assert sorted(got, key=key) == sorted(expected, key=key)


class TestPartitionLaziness:
    def test_clean_partition_served_from_base_arrays(self):
        """A partition the delta never touches must come back as the base's
        own CSR/key arrays — no merge, no copy."""
        graph = graph_from_edges(
            [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1)],
            vertex_labels={v: 0 for v in range(4)},
        )
        dynamic = DynamicGraph(graph, auto_compact=False)
        dynamic.add_edges([(0, 2, 1)])  # dirties only the label-1 partition
        snap = dynamic.snapshot()
        assert snap.delta.touches_partition(Direction.FORWARD, 1, 0)
        assert not snap.delta.touches_partition(Direction.FORWARD, 0, 0)
        base_csr = graph.csr(Direction.FORWARD, 0, 0)
        assert snap.csr(Direction.FORWARD, 0, 0) is base_csr
        # The key set too -- codes and bit filter -- is the base's object.
        assert snap.adjacency_keys(Direction.FORWARD, 0, 0) is graph.adjacency_keys(
            Direction.FORWARD, 0, 0
        )
        assert dynamic.adjacency_keys(Direction.FORWARD, 0, 0) is graph.adjacency_keys(
            Direction.FORWARD, 0, 0
        )
        # The dirty partition is merged (and includes the inserted edge).
        merged = snap.csr(Direction.FORWARD, 1, 0)
        assert merged is not graph.csr(Direction.FORWARD, 1, 0)
        assert 2 in merged.neighbors(0).tolist()

    def test_touched_partition_keys_are_built_once_per_version(self):
        """A touched partition's key set is built with its merged CSR: once
        per snapshot, again for the next version, never shared with the
        base."""
        graph = graph_from_edges(
            [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1)],
            vertex_labels={v: 0 for v in range(4)},
        )
        dynamic = DynamicGraph(graph, auto_compact=False)
        dynamic.add_edges([(0, 2, 1)])
        first = dynamic.snapshot()
        keys = first.adjacency_keys(Direction.FORWARD, 1, 0)
        assert first.adjacency_keys(Direction.FORWARD, 1, 0) is keys
        assert keys is not graph.adjacency_keys(Direction.FORWARD, 1, 0)
        assert keys.codes.tolist() == [0 * 4 + 2, 2 * 4 + 3, 3 * 4 + 0]
        assert keys.contains(np.array([2, 11, 12, 1])).tolist() == [True, True, True, False]

        dynamic.add_edges([(1, 3, 1)])
        second = dynamic.snapshot()
        assert second.version > first.version
        rebuilt = second.adjacency_keys(Direction.FORWARD, 1, 0)
        assert rebuilt is not keys
        assert rebuilt.codes.tolist() == [2, 1 * 4 + 3, 11, 12]
        assert rebuilt.contains(np.array([7])).tolist() == [True]
        # The pinned older snapshot keeps its own, unchanged.
        assert first.adjacency_keys(Direction.FORWARD, 1, 0) is keys
        assert keys.contains(np.array([7])).tolist() == [False]

    def test_delta_ratio_accounting(self, mutated):
        dynamic, _ = mutated
        snap = dynamic.snapshot()
        assert snap.delta_ratio > 0
        ratio = snap.partition_delta_ratio(Direction.FORWARD, 0, 0)
        assert ratio > 0
        # Whole-graph wildcard partition sees the same overlay.
        assert snap.partition_delta_ratio(Direction.FORWARD) == pytest.approx(ratio)
        # A clean snapshot prices at zero.
        clean = DynamicGraph(dynamic.snapshot().materialize()).snapshot()
        assert clean.delta_ratio == 0.0
        assert clean.partition_delta_ratio(Direction.FORWARD, 0, 0) == 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000), batches=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_partition_sizes_equal_a_recount(self, seed, batches):
        """``partition_delta_edges`` equals, for every filter combination and
        on every store a write batch produces, a recount of the edges this
        test itself inserted and deleted, grouped by partition."""
        rng = np.random.default_rng(seed)
        n = 12
        vertex_labels = {v: int(rng.integers(0, 2)) for v in range(n)}
        base = {(int(s), int(d), int(l)) for s, d, l in rng.integers(0, [n, n, 2], size=(40, 3))}
        base = {e for e in base if e[0] != e[1]}
        graph = graph_from_edges(sorted(base), vertex_labels=vertex_labels)
        dynamic = DynamicGraph(graph, auto_compact=False)
        live = set(base)
        labels = (ANY_LABEL, 0, 1, 2)
        for _ in range(batches):
            inserts = [
                (int(s), int(d), int(l)) for s, d, l in rng.integers(0, [n, n, 2], size=(8, 3))
                if s != d
            ]
            dynamic.add_edges(inserts)
            live |= set(inserts)
            # Base edges, some already deleted, and this batch's inserts.
            deletes = [sorted(base)[i] for i in rng.choice(len(base), size=4, replace=False)]
            deletes += inserts[:2]
            dynamic.delete_edges(deletes)
            live -= set(deletes)
            delta = dynamic.snapshot().delta
            changed = (live - base) | (base - live)
            for direction in Direction:
                keys = [
                    (l, vertex_labels[d if direction is Direction.FORWARD else s])
                    for s, d, l in changed
                ]
                for edge_label in labels:
                    for neighbor_label in labels:
                        recount = sum(
                            (edge_label is ANY_LABEL or el == edge_label)
                            and (neighbor_label is ANY_LABEL or nl == neighbor_label)
                            for el, nl in keys
                        )
                        assert (
                            delta.partition_delta_edges(direction, edge_label, neighbor_label)
                            == recount
                        )
                        assert delta.touches_partition(
                            direction, edge_label, neighbor_label
                        ) == bool(recount)

    def test_count_edges_label_filter_avoids_materialization(self, mutated, monkeypatch):
        dynamic, fresh = mutated
        snap = dynamic.snapshot()
        expected_any = fresh.num_edges
        expected_label = fresh.count_edges(edge_label=0)

        def forbidden(self):
            raise AssertionError("count_edges materialised the merged edge arrays")

        monkeypatch.setattr(GraphSnapshot, "_materialized_edges", forbidden)
        assert snap.count_edges() == expected_any
        assert snap.count_edges(edge_label=0) == expected_label
        assert snap.count_edges(edge_label=99) == 0

    def test_clean_snapshot_edges_delegates_to_base(self, monkeypatch):
        graph = graph_from_edges([(0, 1), (1, 2)])
        snap = DynamicGraph(graph).snapshot()

        def forbidden(self):
            raise AssertionError("edges() materialised on a clean snapshot")

        monkeypatch.setattr(GraphSnapshot, "_materialized_edges", forbidden)
        src, dst = snap.edges()
        assert src is graph.edge_src and dst is graph.edge_dst


def _join_plan(query, build_order, probe_order):
    def sub(order):
        return wco_plan_from_order(query.project(order), order).root

    return Plan(query=query, root=make_hash_join(query, sub(build_order), sub(probe_order)))


#: Every batch membership site: E/I survivor filters (WCO plans), the SCAN's
#: extra-edge check (Q6 scans its reciprocal pair first) and the HASH-JOIN
#: predicate (the Q5 join leaves the a1-a4 edge to it).
ORACLE_PLANS = {
    "Q1": wco_plan_from_order(cq.q1(), ("a1", "a2", "a3")),
    "Q2": _join_plan(cq.q2(), ("a1", "a2", "a4"), ("a3", "a4", "a2")),
    "Q5": wco_plan_from_order(cq.q5(), ("a1", "a2", "a3", "a4")),
    "Q5-join": _join_plan(cq.q5(), ("a1", "a2", "a3"), ("a2", "a3", "a4")),
    "Q6": wco_plan_from_order(cq.q6(), ("a1", "a2", "a3", "a4")),
    "Q8": _join_plan(cq.q8(), ("a1", "a2", "a3"), ("a3", "a4", "a5")),
}


def _observed(result):
    """Rows plus every counter the profile keeps, wall-clock aside."""
    p = result.profile
    return (
        result.num_matches,
        result.matches,
        p.intersection_cost,
        p.intermediate_matches,
        p.output_matches,
        p.cache_hits,
        p.cache_misses,
        p.hash_table_entries,
        p.hash_probes,
        p.batches,
        p.per_operator,
    )


class TestKeySetFilterOracle:
    """The bit filter in front of every batch membership test changes no
    answer: with ``KeySet.contains`` patched back to a plain binary search,
    every plan returns the same rows in the same order with the same
    i-cost, intermediate matches and per-operator counters."""

    @pytest.fixture(scope="class")
    def graphs(self):
        dynamic, fresh = build_mutated_pair(rounds=3)
        snapshot = dynamic.snapshot()
        assert not snapshot.is_clean and snapshot.delta.num_inserted
        return {"clean": fresh, "dirty": snapshot}

    @pytest.mark.parametrize("graph_name", ["clean", "dirty"])
    @pytest.mark.parametrize("plan_name", list(ORACLE_PLANS))
    def test_same_rows_and_counters_as_plain_binary_search(
        self, graphs, plan_name, graph_name, monkeypatch
    ):
        plan, graph = ORACLE_PLANS[plan_name], graphs[graph_name]
        config = ExecutionConfig(vectorized=True, batch_size=97)
        runs = {}
        for kernel in ("filter", "oracle"):
            if kernel == "oracle":
                monkeypatch.setattr(
                    KeySet, "contains", lambda self, probe: member_sorted(self.codes, probe)
                )
            runs[kernel] = [
                _observed(execute_plan(plan, graph, config, collect=collect))
                for collect in (True, False)
            ]
        assert runs["filter"] == runs["oracle"]
        assert runs["filter"][0][0] > 0


class TestCompactionMidQuery:
    @pytest.mark.parametrize("vectorized", [False, True], ids=["iterator", "vectorized"])
    def test_background_compaction_never_changes_results(self, vectorized):
        """Writes into a triangle-free appendix + constant background
        compaction: every served triangle count must equal the stable
        expected value, in both executor modes."""
        rng = np.random.default_rng(17)
        edges = set()
        while len(edges) < 300:
            s, d = (int(x) for x in rng.integers(0, 60, 2))
            if s != d:
                edges.add((s, d, 0))
        base = graph_from_edges(sorted(edges), vertex_labels={v: 0 for v in range(60)})
        dynamic = DynamicGraph(base, auto_compact=False)
        db = GraphflowDB(dynamic)
        db.build_catalogue(z=100)
        expected = db.execute(cq.triangle(), vectorized=vectorized).num_matches

        stop = threading.Event()
        failures = []

        def writer():
            # A growing chain over fresh vertices: bumps versions and dirties
            # the overlay without ever creating (or destroying) a triangle.
            next_vertex = dynamic.num_vertices
            while not stop.is_set():
                db.apply_updates(inserts=[(next_vertex, next_vertex + 1, 0)])
                next_vertex += 1

        with CompactionManager(dynamic, compact_ratio=0.0, min_delta_edges=2) as manager:
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                queries_run = 0
                import time

                deadline = time.monotonic() + 20.0
                while (
                    queries_run < 25 or manager.stats()["compactions"] == 0
                ) and time.monotonic() < deadline:
                    got = db.execute(cq.triangle(), vectorized=vectorized).num_matches
                    queries_run += 1
                    if got != expected:
                        failures.append((got, expected))
                        break
            finally:
                stop.set()
                thread.join()
            assert not failures, f"compaction mid-query changed results: {failures}"
            assert manager.stats()["compactions"] > 0, (
                "the test never exercised a background compaction"
            )
