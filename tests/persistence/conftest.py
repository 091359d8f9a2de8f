"""Shared harness for the durability tests.

``random_workload`` produces deterministic update batches (edge inserts that
may create new vertices, deletes of live edges, explicit labeled-vertex
additions) and ``assert_graphs_equal`` compares two graph views across the
full read API — the equivalence oracle the recovery tests rely on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.graph.generators import clustered_social
from repro.graph.graph import ANY_LABEL, Direction

Edge = Tuple[int, int, int]


@pytest.fixture()
def base_graph():
    return clustered_social(num_vertices=120, avg_degree=5, seed=21, name="durable-test")


def random_workload(
    graph,
    rng: np.random.Generator,
    rounds: int = 8,
    inserts_per_round: int = 15,
    delete_probability: float = 0.15,
    vertex_probability: float = 0.3,
) -> List[Tuple[List[Edge], List[Edge], Optional[List[int]]]]:
    """Deterministic ``(inserts, deletes, new_vertex_labels)`` batches.

    Tracks the live edge set so deletes always target existing edges and
    inserts are always new; some inserts reference vertices one past the
    current range (exercising implicit vertex creation on replay).
    """
    live = set(
        zip(graph.edge_src.tolist(), graph.edge_dst.tolist(), graph.edge_labels.tolist())
    )
    num_vertices = graph.num_vertices
    batches = []
    for _ in range(rounds):
        labels: Optional[List[int]] = None
        if rng.random() < vertex_probability:
            labels = [int(x) for x in rng.integers(0, 3, int(rng.integers(1, 4)))]
            num_vertices += len(labels)
        inserts: List[Edge] = []
        while len(inserts) < inserts_per_round:
            # Occasionally target a brand-new vertex id (implicit creation).
            upper = num_vertices + (1 if rng.random() < 0.1 else 0)
            s, d = (int(x) for x in rng.integers(0, upper, 2))
            if s == d:
                continue
            edge = (s, d, 0)
            if edge in live or edge in inserts:
                continue
            inserts.append(edge)
            num_vertices = max(num_vertices, s + 1, d + 1)
        deletes = [e for e in sorted(live) if rng.random() < delete_probability / 10]
        if not deletes and live and rng.random() < delete_probability:
            deletes = [sorted(live)[int(rng.integers(0, len(live)))]]
        live |= set(inserts)
        live -= set(deletes)
        batches.append((inserts, deletes, labels))
    return batches


def apply_batch(target, batch) -> None:
    """Apply one workload batch in the canonical order (vertices, inserts,
    deletes) straight to a DynamicGraph."""
    inserts, deletes, labels = batch
    if labels:
        target.add_vertices(labels=labels)
    if inserts:
        target.add_edges(inserts)
    if deletes:
        target.delete_edges(deletes)


def assert_graphs_equal(actual, expected) -> None:
    """Full read-API equivalence between two graph views."""
    assert actual.num_vertices == expected.num_vertices
    assert actual.num_edges == expected.num_edges
    assert np.array_equal(actual.vertex_labels, expected.vertex_labels)
    actual_edges = sorted(
        zip(actual.edge_src.tolist(), actual.edge_dst.tolist(), actual.edge_labels.tolist())
    )
    expected_edges = sorted(
        zip(expected.edge_src.tolist(), expected.edge_dst.tolist(), expected.edge_labels.tolist())
    )
    assert actual_edges == expected_edges

    label_filters = [(ANY_LABEL, ANY_LABEL), (0, ANY_LABEL), (0, 0), (ANY_LABEL, 1)]
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        for edge_label, neighbor_label in label_filters:
            assert np.array_equal(
                actual.degree_array(direction, edge_label, neighbor_label),
                expected.degree_array(direction, edge_label, neighbor_label),
            ), (direction, edge_label, neighbor_label)
            a_csr = actual.csr(direction, edge_label, neighbor_label)
            e_csr = expected.csr(direction, edge_label, neighbor_label)
            assert np.array_equal(a_csr.indptr, e_csr.indptr)
            assert np.array_equal(a_csr.indices, e_csr.indices)
            assert np.array_equal(
                actual.adjacency_keys(direction, edge_label, neighbor_label).codes,
                expected.adjacency_keys(direction, edge_label, neighbor_label).codes,
            )
        for vertex in range(0, expected.num_vertices, 17):
            assert np.array_equal(
                actual.neighbors(vertex, direction), expected.neighbors(vertex, direction)
            )
    for src, dst, label in expected_edges[:: max(1, len(expected_edges) // 25)]:
        assert actual.has_edge(src, dst, label)
    assert actual.count_edges(0, ANY_LABEL, ANY_LABEL) == expected.count_edges(
        0, ANY_LABEL, ANY_LABEL
    )
