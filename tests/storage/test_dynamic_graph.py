"""Unit tests for the delta-CSR storage subsystem (repro.storage)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.builder import graph_from_edges
from repro.graph.graph import ANY_LABEL, Direction, Graph
from repro.storage import DeltaStore, DynamicGraph, GraphSnapshot


def small_base() -> Graph:
    return graph_from_edges(
        [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 1), (3, 4, 0)],
        vertex_labels={0: 0, 1: 0, 2: 1, 3: 1, 4: 0},
    )


DIRECTIONS = (Direction.FORWARD, Direction.BACKWARD)


def reference_graph(edges, num_vertices, vertex_labels) -> Graph:
    labels = {v: int(vertex_labels[v]) for v in range(num_vertices)}
    builder_edges = sorted(edges)
    return graph_from_edges(builder_edges, vertex_labels=labels) if builder_edges else None


def assert_view_equals_graph(view, ref: Graph, edge_labels=(None, 0, 1), vertex_labels=(None, 0, 1)):
    """``view`` (snapshot or DynamicGraph) must be indistinguishable from the
    freshly built ``ref`` across the whole read API."""
    assert view.num_vertices == ref.num_vertices
    assert view.num_edges == ref.num_edges
    for v in range(ref.num_vertices):
        for direction in DIRECTIONS:
            for el in edge_labels:
                for nl in vertex_labels:
                    expected = ref.neighbors(v, direction, el, nl)
                    got = view.neighbors(v, direction, el, nl)
                    assert np.array_equal(got, expected), (v, direction, el, nl)
                    assert view.degree(v, direction, el, nl) == len(expected)
    for el in edge_labels:
        for sl in vertex_labels:
            got = sorted(zip(*view.edges(el, sl, None)))
            expected = sorted(zip(*ref.edges(el, sl, None)))
            assert got == expected, (el, sl)
            assert view.count_edges(el, sl, None) == ref.count_edges(el, sl, None)
    for direction in DIRECTIONS:
        for el in edge_labels:
            got_csr = view.csr(direction, el, None)
            ref_csr = ref.csr(direction, el, None)
            assert np.array_equal(got_csr.indptr, ref_csr.indptr), (direction, el)
            for v in range(ref.num_vertices):
                assert np.array_equal(got_csr.neighbors(v), ref_csr.neighbors(v))
            assert np.array_equal(
                view.adjacency_keys(direction, el, None).codes,
                ref.adjacency_keys(direction, el, None).codes,
            )


class TestDynamicGraphBasics:
    def test_wraps_base_unchanged(self):
        base = small_base()
        dg = DynamicGraph(base)
        assert dg.version == 0
        assert dg.num_edges == base.num_edges
        assert_view_equals_graph(dg, base)

    def test_add_edges_returns_applied_and_bumps_version(self):
        dg = DynamicGraph(small_base())
        applied = dg.add_edges([(0, 3), (0, 1), (0, 3)])  # (0,1) exists, (0,3) repeated
        assert applied == [(0, 3, 0)]
        assert dg.version == 1
        assert dg.has_edge(0, 3)
        # A fully duplicate batch is a no-op and does not bump the version.
        assert dg.add_edges([(0, 1), (0, 3)]) == []
        assert dg.version == 1

    def test_delete_edges_base_and_delta(self):
        dg = DynamicGraph(small_base())
        dg.add_edges([(4, 0, 0)])
        # (4,0) lives in the delta, (0,1) in the base, (1,0) does not exist.
        assert dg.delete_edges([(4, 0, 0), (0, 1, 0), (1, 0, 0)]) == [
            (4, 0, 0),
            (0, 1, 0),
        ]
        assert not dg.has_edge(4, 0) and not dg.has_edge(0, 1)
        assert dg.num_edges == small_base().num_edges - 1

    def test_reinsert_deleted_base_edge(self):
        dg = DynamicGraph(small_base())
        dg.delete_edges([(0, 1, 0)])
        assert not dg.has_edge(0, 1)
        assert dg.add_edges([(0, 1, 0)]) == [(0, 1, 0)]
        assert dg.has_edge(0, 1)
        assert dg.num_edges == small_base().num_edges

    def test_new_vertices_via_edges_get_label_zero(self):
        dg = DynamicGraph(small_base())
        dg.add_edges([(4, 7, 0)])
        assert dg.num_vertices == 8
        assert dg.vertex_label(7) == 0
        assert list(dg.neighbors(7, Direction.BACKWARD)) == [4]

    def test_add_vertices_with_labels(self):
        dg = DynamicGraph(small_base())
        ids = dg.add_vertices(labels=[3, 4])
        assert ids == [5, 6]
        assert dg.vertex_label(6) == 4
        assert sorted(dg.vertices_with_label(3).tolist()) == [5]
        with pytest.raises(GraphConstructionError):
            dg.add_vertices()
        with pytest.raises(GraphConstructionError):
            dg.add_vertices(count=1, labels=[0])

    def test_self_loops_rejected(self):
        dg = DynamicGraph(small_base())
        with pytest.raises(GraphConstructionError):
            dg.add_edges([(1, 1)])


class TestSnapshots:
    def test_snapshot_is_o1_and_pinned(self):
        dg = DynamicGraph(small_base())
        snap = dg.snapshot()
        assert isinstance(snap, GraphSnapshot)
        assert snap.version == 0
        dg.add_edges([(0, 3), (3, 1)])
        dg.delete_edges([(0, 1, 0)])
        # The old snapshot still sees the original state.
        assert_view_equals_graph(snap, small_base())
        # A fresh snapshot sees the new state.
        fresh = dg.snapshot()
        assert fresh.version == 2
        assert fresh.has_edge(0, 3) and not fresh.has_edge(0, 1)

    def test_snapshot_reuse_between_writes(self):
        dg = DynamicGraph(small_base())
        assert dg.snapshot() is dg.snapshot()
        dg.add_edges([(0, 3)])
        assert dg.snapshot().version == 1

    def test_materialized_snapshot_compacts(self):
        dg = DynamicGraph(small_base())
        dg.add_edges([(0, 3)])
        flat = dg.snapshot(materialize=True)
        assert isinstance(flat, Graph)
        assert flat.num_edges == 6
        assert dg.delta_edges == 0 and dg.compactions == 1
        # Repeat materialization returns the same base without re-compacting.
        assert dg.snapshot(materialize=True) is flat
        assert dg.compactions == 1


class TestCompaction:
    def test_compact_preserves_content_and_version(self):
        dg = DynamicGraph(small_base(), auto_compact=False)
        dg.add_edges([(0, 3), (4, 2, 1)])
        dg.delete_edges([(1, 2, 0)])
        version = dg.version
        edges_before = sorted(dg.iter_edges())
        old_snap = dg.snapshot()
        dg.compact()
        assert dg.version == version
        assert dg.delta_edges == 0
        assert sorted(dg.iter_edges()) == edges_before
        # Readers pinned before compaction are untouched.
        assert sorted(old_snap.iter_edges()) == edges_before

    def test_auto_compact_threshold(self):
        dg = DynamicGraph(small_base(), compact_min_edges=3, compact_ratio=0.0)
        dg.add_edges([(0, 4), (4, 1)])
        assert dg.compactions == 0
        dg.add_edges([(1, 3), (3, 0)])  # overlay grows past the threshold
        assert dg.compactions == 1
        assert dg.delta_edges == 0

    def test_auto_compact_disabled(self):
        dg = DynamicGraph(small_base(), compact_min_edges=1, compact_ratio=0.0, auto_compact=False)
        dg.add_edges([(0, 4), (4, 1), (1, 3)])
        assert dg.compactions == 0
        assert dg.delta_edges == 3


class TestRandomizedEquivalence:
    """After arbitrary interleavings of inserts and deletes, every read of
    the dynamic graph must match a Graph freshly built from the same edges."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_graph(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        edges = set()
        while len(edges) < 150:
            s, d = (int(x) for x in rng.integers(0, n, 2))
            if s != d:
                edges.add((s, d, int(rng.integers(0, 2))))
        vertex_labels = {i: int(rng.integers(0, 2)) for i in range(n)}
        base = graph_from_edges(sorted(edges), vertex_labels=vertex_labels)
        dg = DynamicGraph(base, auto_compact=False)

        live = set(edges)
        checkpoints = []
        for _ in range(12):
            inserts = []
            while len(inserts) < 8:
                s, d = (int(x) for x in rng.integers(0, n + 3, 2))
                label = int(rng.integers(0, 2))
                if s != d and (s, d, label) not in live:
                    inserts.append((s, d, label))
            deletes = [e for e in sorted(live) if rng.random() < 0.05]
            live |= set(dg.add_edges(inserts))
            live -= set(dg.delete_edges(deletes))
            checkpoints.append((dg.snapshot(), set(live)))

        labels_now = dg.vertex_labels
        # Every third checkpoint plus the final state, verified after all
        # mutations (MVCC: old snapshots unaffected by later writes).
        for snap, snap_edges in checkpoints[::3] + [checkpoints[-1]]:
            ref = reference_graph(snap_edges, snap.num_vertices, labels_now)
            assert_view_equals_graph(snap, ref)
        dg.compact()
        ref = reference_graph(live, dg.num_vertices, labels_now)
        assert_view_equals_graph(dg, ref)


class TestDeltaStore:
    def test_empty(self):
        store = DeltaStore.empty()
        assert store.is_empty
        assert store.num_delta_edges == 0
        assert all(not store.adds[d] and not store.dels[d] for d in Direction)

    def test_structural_sharing(self):
        labels = np.zeros(6, dtype=np.int64)
        base = graph_from_edges([(4, 5, 0)], vertex_labels={v: 0 for v in range(6)})

        def insert(store, edges):
            columns = (np.array(c, dtype=np.int64) for c in zip(*edges))
            return store.with_insertions(base, *columns, labels)

        store, _ = insert(DeltaStore.empty(), [(0, 1, 0), (2, 3, 1)])
        extended, applied = insert(store, [(0, 4, 0), (4, 5, 0)])
        assert applied.tolist() == [True, False]  # (4, 5, 0) is a base edge
        # The older store is unchanged by the newer write.
        fwd, bwd = Direction.FORWARD, Direction.BACKWARD
        assert store.adds[fwd][(0, 0)].tolist() == [0 << 32 | 1]
        assert extended.adds[fwd][(0, 0)].tolist() == [0 << 32 | 1, 0 << 32 | 4]
        assert [a.tolist() for a in store.inserted_edges()] == [[0, 2], [1, 3], [0, 1]]
        assert [a.tolist() for a in extended.inserted_edges()] == [[0, 2, 0], [1, 3, 4], [0, 1, 0]]
        # Partitions the write did not touch are shared by identity.
        for direction in (fwd, bwd):
            assert extended.adds[direction][(1, 0)] is store.adds[direction][(1, 0)]
        assert extended.dels is store.dels


class TestWriteOrder:
    def test_edge_scan_appends_inserts_in_write_order(self):
        """A re-inserted edge moves to the end of the write order, also after
        its removals have left most of the write log dead."""
        dynamic = DynamicGraph(graph_from_edges([(0, 1)]), auto_compact=False)
        dynamic.add_edges([(2, 3), (1, 2), (3, 1)])
        dynamic.delete_edges([(2, 3)])
        dynamic.add_edges([(2, 3)])
        assert list(dynamic.iter_edges()) == [(0, 1, 0), (1, 2, 0), (3, 1, 0), (2, 3, 0)]
        dynamic.delete_edges([(1, 2), (3, 1)])
        dynamic.add_edges([(1, 2)])
        assert list(dynamic.iter_edges()) == [(0, 1, 0), (2, 3, 0), (1, 2, 0)]
        assert dynamic.snapshot().delta.log_size == 2


class TestBaseDeletedMask:
    @given(seed=st.integers(0, 10_000), deletes=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_mask_equals_a_recount(self, seed, deletes):
        """The edge scan's deleted-base-edge mask, found through the base's
        sorted edge index, marks exactly the deleted base edges: on
        multi-label graphs where one neighbour is reached through every
        label, with inserted edges on the same vertex pairs."""
        rng = np.random.default_rng(seed)
        n = 10
        edges = {(int(s), int(d), int(l)) for s, d, l in rng.integers(0, [n, n, 3], size=(40, 3))}
        edges = {e for e in edges if e[0] != e[1]} | {(0, 1, label) for label in range(3)}
        graph = graph_from_edges(
            sorted(edges), vertex_labels={v: int(rng.integers(0, 2)) for v in range(n)}
        )
        dynamic = DynamicGraph(graph, auto_compact=False)
        order = list(graph.iter_edges())
        picked = rng.choice(len(order), size=min(deletes, len(order)), replace=False)
        gone = {order[i] for i in picked} | {(0, 1, 1)}
        inserted = list(dict.fromkeys((s, d, 3) for s, d, _ in sorted(gone)))[:4]
        dynamic.delete_edges(sorted(gone))
        dynamic.add_edges(inserted)
        snap = dynamic.snapshot()
        assert snap._base_deleted_mask().tolist() == [e in gone for e in order]
        assert list(snap.iter_edges()) == [e for e in order if e not in gone] + inserted



class TestVertexIdRange:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 7), appended=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_views_agree_on_every_id(self, seed, n, appended):
        """``Graph``, ``GraphSnapshot`` and ``DynamicGraph`` read the same
        edges for every id in ``[-n-2, n+2)``: an id outside
        ``[0, num_vertices)`` has none."""
        rng = np.random.default_rng(seed)
        triples = rng.integers(0, [n, n, 2], size=(3 * n, 3)).tolist()
        base_edges = sorted({(s, d, l) for s, d, l in triples if s != d})
        labels = {v: int(rng.integers(0, 2)) for v in range(n)}
        dynamic = DynamicGraph(graph_from_edges(base_edges, vertex_labels=labels))
        if appended:
            dynamic.add_vertices(labels=[1] * appended)
            labels.update({n + i: 1 for i in range(appended)})
        size = n + appended
        triples = rng.integers(0, [size, size, 2], size=(2 * n, 3)).tolist()
        dynamic.add_edges([(s, d, l) for s, d, l in triples if s != d])
        dynamic.delete_edges(base_edges[: len(base_edges) // 2])
        live = sorted(dynamic.iter_edges())
        fresh = graph_from_edges(live, vertex_labels=labels)
        ids = range(-size - 2, size + 2)
        for view in (fresh, dynamic.snapshot(), dynamic):
            assert view.num_vertices == size
            for v in ids:
                for el in (None, 0, 1):
                    for nl in (None, 0, 1):
                        out = [d for s, d, l in live if s == v and el in (None, l)
                               and nl in (None, labels[d])]
                        inc = [s for s, d, l in live if d == v and el in (None, l)
                               and nl in (None, labels[s])]
                        for direction, expected in zip(DIRECTIONS, (out, inc)):
                            got = view.neighbors(v, direction, el, nl)
                            assert got.tolist() == sorted(expected), (view, v, direction, el, nl)
                            assert view.degree(v, direction, el, nl) == len(expected)
                    for w in ids:
                        expected = any(s == v and d == w and el in (None, l) for s, d, l in live)
                        assert view.has_edge(v, w, el) == expected, (view, v, w, el)

    def test_vertex_label_rejects_ids_out_of_range(self):
        """``vertex_label`` reads the label of an id in ``[0, num_vertices)``
        and raises one ``IndexError`` naming any other id, on a ``Graph``, a
        dirty ``GraphSnapshot`` and a ``DynamicGraph``: ``-1`` is not the last
        vertex."""
        base = small_base()
        dynamic = DynamicGraph(base)
        dynamic.add_vertices(labels=[1])
        dynamic.add_edges([(4, 5, 0)])
        snapshot = dynamic.snapshot()
        assert not snapshot.is_clean
        for view, labels in (
            (base, [0, 0, 1, 1, 0]),
            (snapshot, [0, 0, 1, 1, 0, 1]),
            (dynamic, [0, 0, 1, 1, 0, 1]),
        ):
            n = view.num_vertices
            assert [view.vertex_label(v) for v in range(n)] == labels
            assert view.vertex_label(np.int64(n - 1)) == labels[-1]
            for v in (-1, -n, n, n + 1, np.int64(n)):
                with pytest.raises(IndexError, match=rf"vertex id {v} is outside \[0, num_vertices={n}\)"):
                    view.vertex_label(v)
