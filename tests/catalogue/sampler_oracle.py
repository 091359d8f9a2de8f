"""The per-tuple catalogue sampler, kept as the reference the batch sampler in
``repro.catalogue.construction`` is tested against.

It draws the sampled scan edges with the same ``rng.choice`` call, so for one
``rng`` state both must return exactly the same ``(sizes, mu, n)``: the sums
behind the averages are integers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.intersect import intersect_multiway
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.qvo import enumerate_orderings
from repro.query.query_graph import QueryGraph


def sample_subquery_matches(
    graph: Graph,
    sub_query: QueryGraph,
    ordering: Sequence[str],
    z: int,
    rng: np.random.Generator,
) -> Tuple[List[Tuple[int, ...]], Tuple[str, ...]]:
    """Matches of ``sub_query`` grown from ``z`` uniformly sampled scan edges.

    Returns the matches (tuples of data-vertex ids) and the vertex order the
    tuple positions correspond to.
    """
    ordering = tuple(ordering)
    first_edges = sub_query.edges_between(ordering[0], ordering[1])
    if not first_edges:
        raise ValueError(f"ordering {ordering} does not start with a query edge")
    edge = first_edges[0]
    src, dst = graph.edges(
        edge_label=edge.label,
        src_label=sub_query.vertex_label(edge.src),
        dst_label=sub_query.vertex_label(edge.dst),
    )
    if len(src) == 0:
        return [], ordering
    if len(src) > z:
        idx = rng.choice(len(src), size=z, replace=False)
        src, dst = src[idx], dst[idx]
    reverse = edge.src != ordering[0]
    matches: List[Tuple[int, ...]] = [
        ((int(v), int(u)) if reverse else (int(u), int(v))) for u, v in zip(src, dst)
    ]
    # Verify any parallel/reciprocal edges between the first two vertices.
    extra_first = [e for e in first_edges if e is not edge]
    if extra_first:
        filtered = []
        for t in matches:
            pos = {ordering[0]: t[0], ordering[1]: t[1]}
            if all(graph.has_edge(pos[e.src], pos[e.dst], e.label) for e in extra_first):
                filtered.append(t)
        matches = filtered

    for k in range(2, len(ordering)):
        to_vertex = ordering[k]
        prior = ordering[:k]
        descriptors = [
            AdjListDescriptor.for_extension(e, to_vertex)
            for e in sub_query.edges_touching(to_vertex)
            if e.other(to_vertex) in set(prior)
        ]
        to_label = sub_query.vertex_label(to_vertex)
        index = {v: i for i, v in enumerate(prior)}
        extended: List[Tuple[int, ...]] = []
        for t in matches:
            lists = [
                graph.neighbors(t[index[d.from_vertex]], d.direction, d.edge_label, to_label)
                for d in descriptors
            ]
            extension = lists[0] if len(lists) == 1 else intersect_multiway(lists)
            for w in extension:
                extended.append(t + (int(w),))
        matches = extended
        if not matches:
            break
    return matches, ordering


def measure_extension(
    graph: Graph,
    sub_query: QueryGraph,
    descriptors: Sequence[AdjListDescriptor],
    to_vertex_label: Optional[int],
    z: int,
    rng: np.random.Generator,
) -> Tuple[List[float], float, int]:
    """``(average list size per descriptor, average number of extensions,
    number of sampled matches)``, one sampled match at a time."""
    orderings = enumerate_orderings(sub_query, limit=1)
    if not orderings:
        return [0.0 for _ in descriptors], 0.0, 0
    matches, order = sample_subquery_matches(graph, sub_query, orderings[0], z, rng)
    if not matches:
        avg_degree = graph.num_edges / max(graph.num_vertices, 1)
        return [float(avg_degree) for _ in descriptors], 0.0, 0
    index = {v: i for i, v in enumerate(order)}
    size_totals = np.zeros(len(descriptors), dtype=np.float64)
    extension_total = 0.0
    for t in matches:
        lists = []
        for j, d in enumerate(descriptors):
            adj = graph.neighbors(
                t[index[d.from_vertex]], d.direction, d.edge_label, to_vertex_label
            )
            size_totals[j] += len(adj)
            lists.append(adj)
        extension = lists[0] if len(lists) == 1 else intersect_multiway(lists)
        extension_total += len(extension)
    n = len(matches)
    return list(size_totals / n), extension_total / n, n


def edge_count_statistics(graph: Graph):
    """Edge counts by (edge label, source label, destination label), one edge
    at a time."""
    counts = {}
    src_labels = graph.vertex_labels[graph.edge_src] if graph.num_edges else []
    dst_labels = graph.vertex_labels[graph.edge_dst] if graph.num_edges else []
    for el, sl, dl in zip(graph.edge_labels, src_labels, dst_labels):
        key = (int(el), int(sl), int(dl))
        counts[key] = counts.get(key, 0) + 1
    return counts
