"""Unit tests for the core Graph storage layout."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.graph import Direction, Graph


class TestGraphBuilder:
    def test_builds_vertices_implicitly(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_explicit_vertex_labels(self):
        b = GraphBuilder()
        b.add_vertex(0, label=2)
        b.add_edge(0, 1)
        g = b.build()
        assert g.vertex_label(0) == 2
        assert g.vertex_label(1) == 0

    def test_rejects_self_loops(self):
        b = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            b.add_edge(3, 3)

    def test_rejects_negative_ids(self):
        b = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            b.add_edge(-1, 2)

    def test_deduplicates_edges(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        b.add_edge(0, 1)
        assert b.build().num_edges == 1

    def test_duplicate_edges_with_distinct_labels_are_kept(self):
        b = GraphBuilder()
        b.add_edge(0, 1, 0)
        b.add_edge(0, 1, 1)
        assert b.build().num_edges == 2

    def test_num_vertices_override(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        g = b.build(num_vertices=10)
        assert g.num_vertices == 10

    def test_num_vertices_override_too_small(self):
        b = GraphBuilder()
        b.add_edge(0, 5)
        with pytest.raises(GraphConstructionError):
            b.build(num_vertices=3)

    def test_add_edges_bulk(self):
        b = GraphBuilder()
        b.add_edges([(0, 1), (1, 2, 3)])
        g = b.build()
        assert g.num_edges == 2
        assert set(g.edge_labels.tolist()) == {0, 3}

    def test_add_edges_bad_tuple(self):
        b = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            b.add_edges([(0, 1, 2, 3)])


class TestAdjacency:
    def test_forward_neighbors_sorted(self, tiny_graph):
        nbrs = tiny_graph.neighbors(0, Direction.FORWARD)
        assert list(nbrs) == sorted(nbrs)
        assert set(nbrs) == {1, 2, 3}

    def test_backward_neighbors(self, tiny_graph):
        nbrs = tiny_graph.neighbors(3, Direction.BACKWARD)
        assert set(nbrs) == {0, 1, 2}

    def test_degree_matches_neighbors(self, tiny_graph):
        for v in range(tiny_graph.num_vertices):
            for direction in Direction:
                assert tiny_graph.degree(v, direction) == len(
                    tiny_graph.neighbors(v, direction)
                )

    def test_degree_array(self, tiny_graph):
        out = tiny_graph.degree_array(Direction.FORWARD)
        assert out.sum() == tiny_graph.num_edges
        inn = tiny_graph.degree_array(Direction.BACKWARD)
        assert inn.sum() == tiny_graph.num_edges

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(1, 0)
        assert tiny_graph.has_edge(1, 4)
        assert tiny_graph.has_edge(4, 1)

    def test_reciprocal_pair_in_both_directions(self, tiny_graph):
        assert 4 in tiny_graph.neighbors(1, Direction.FORWARD)
        assert 4 in tiny_graph.neighbors(1, Direction.BACKWARD)


class TestLabeledAccess:
    def test_neighbors_filtered_by_edge_label(self, labeled_graph):
        all_nbrs = labeled_graph.neighbors(0, Direction.FORWARD)
        label0 = labeled_graph.neighbors(0, Direction.FORWARD, edge_label=0)
        label1 = labeled_graph.neighbors(0, Direction.FORWARD, edge_label=1)
        assert set(label0) | set(label1) == set(all_nbrs)
        assert set(label0) == {1, 2}
        assert set(label1) == {3}

    def test_neighbors_filtered_by_vertex_label(self, labeled_graph):
        nbrs = labeled_graph.neighbors(0, Direction.FORWARD, neighbor_label=1)
        assert all(labeled_graph.vertex_label(int(v)) == 1 for v in nbrs)

    def test_neighbors_filtered_by_both(self, labeled_graph):
        nbrs = labeled_graph.neighbors(2, Direction.FORWARD, edge_label=1, neighbor_label=1)
        assert set(nbrs) == {3}

    def test_vertices_with_label(self, labeled_graph):
        assert set(labeled_graph.vertices_with_label(1)) == {1, 3}
        assert len(labeled_graph.vertices_with_label(None)) == labeled_graph.num_vertices

    def test_edges_scan_with_filters(self, labeled_graph):
        src, dst = labeled_graph.edges(edge_label=1)
        assert len(src) == 3
        src, dst = labeled_graph.edges(edge_label=0, src_label=0)
        for s in src:
            assert labeled_graph.vertex_label(int(s)) == 0

    def test_count_edges(self, labeled_graph):
        assert labeled_graph.count_edges() == labeled_graph.num_edges
        assert labeled_graph.count_edges(edge_label=0) + labeled_graph.count_edges(
            edge_label=1
        ) == labeled_graph.num_edges


class TestGraphValidation:
    def test_mismatched_edge_arrays(self):
        with pytest.raises(GraphConstructionError):
            Graph(
                vertex_labels=np.zeros(3),
                edge_src=np.array([0, 1]),
                edge_dst=np.array([1]),
                edge_labels=np.array([0, 0]),
            )

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphConstructionError):
            Graph(
                vertex_labels=np.zeros(2),
                edge_src=np.array([0]),
                edge_dst=np.array([5]),
                edge_labels=np.array([0]),
            )

    def test_relabel_preserves_structure(self, tiny_graph):
        new_labels = np.ones(tiny_graph.num_vertices, dtype=np.int64)
        g2 = tiny_graph.relabel(vertex_labels=new_labels)
        assert g2.num_edges == tiny_graph.num_edges
        assert g2.vertex_label(0) == 1

    def test_iter_edges_roundtrip(self, tiny_graph):
        edges = list(tiny_graph.iter_edges())
        assert len(edges) == tiny_graph.num_edges
        for s, d, l in edges:
            assert tiny_graph.has_edge(s, d, l)

    def test_repr_contains_counts(self, tiny_graph):
        text = repr(tiny_graph)
        assert str(tiny_graph.num_vertices) in text
        assert str(tiny_graph.num_edges) in text

    def test_empty_graph(self):
        g = GraphBuilder().build(num_vertices=5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert list(g.neighbors(0, Direction.FORWARD)) == []


def _lexsort_csr(num_vertices, sources, targets):
    """The reference CSR build: a two-key lexsort of the edges."""
    order = np.lexsort((targets, sources))
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources[order], minlength=num_vertices), out=indptr[1:])
    return indptr, targets[order]


class TestCsrBuild:
    @pytest.mark.parametrize("seed", range(8))
    def test_partitions_equal_the_lexsort_build(self, seed):
        """Parallel edges (same and different labels), self-loops and
        vertices without edges, over two vertex and two edge labels."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 4 * n))
        src = rng.integers(0, max(1, n // 2), m)  # the upper half has no out-edges
        dst = rng.integers(0, n, m)
        dst[: m // 8] = src[: m // 8]
        src = np.concatenate([src, src[: m // 4]])
        dst = np.concatenate([dst, dst[: m // 4]])
        g = Graph(
            vertex_labels=rng.integers(0, 2, n),
            edge_src=src,
            edge_dst=dst,
            edge_labels=rng.integers(0, 2, len(src)),
        )
        vertex_labels = g.vertex_labels
        for direction, partitions in (
            (Direction.FORWARD, g._fwd_partitions),
            (Direction.BACKWARD, g._bwd_partitions),
        ):
            assert partitions
            for (edge_label, neighbour_label), csr in partitions.items():
                ends = (src, dst) if direction is Direction.FORWARD else (dst, src)
                mask = (g.edge_labels == edge_label) & (vertex_labels[ends[1]] == neighbour_label)
                indptr, indices = _lexsort_csr(n, ends[0][mask], ends[1][mask])
                assert csr.indptr.dtype == csr.indices.dtype == np.int64
                np.testing.assert_array_equal(csr.indptr, indptr)
                np.testing.assert_array_equal(csr.indices, indices)


class TestUnfilteredScanFastPath:
    """edges()/count_edges() must short-circuit the all-wildcard case instead
    of allocating full-edge boolean masks (hot in catalogue construction)."""

    def test_unfiltered_edges_returns_stored_arrays(self, labeled_graph):
        src, dst = labeled_graph.edges()
        assert src is labeled_graph.edge_src
        assert dst is labeled_graph.edge_dst

    def test_unfiltered_count_is_num_edges(self, labeled_graph):
        assert labeled_graph.count_edges() == labeled_graph.num_edges

    def test_partial_filters_still_correct(self, labeled_graph):
        full = list(zip(*labeled_graph.edges()))
        for el in (None, 0, 1):
            for sl in (None, 0, 1):
                for dl in (None, 0, 1):
                    src, dst = labeled_graph.edges(el, sl, dl)
                    expected = [
                        (s, d)
                        for i, (s, d) in enumerate(full)
                        if (el is None or labeled_graph.edge_labels[i] == el)
                        and (sl is None or labeled_graph.vertex_label(s) == sl)
                        and (dl is None or labeled_graph.vertex_label(d) == dl)
                    ]
                    assert sorted(zip(src, dst)) == sorted(expected)
                    assert labeled_graph.count_edges(el, sl, dl) == len(expected)
