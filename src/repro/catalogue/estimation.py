"""Cardinality and extension-statistics estimation from the catalogue
(Section 5.2), including the missing-entry rule for sub-queries larger than
the catalogue's ``h``.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.catalogue.catalogue import SubgraphCatalogue
from repro.catalogue.construction import ensure_entry
from repro.graph.graph import Graph
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.qvo import enumerate_orderings
from repro.query.query_graph import QueryGraph


def _entry_stats(
    catalogue: SubgraphCatalogue,
    graph: Optional[Graph],
    sub_query: QueryGraph,
    descriptors: Sequence[AdjListDescriptor],
    to_label: Optional[int],
) -> Optional[Tuple[List[float], float]]:
    """Fetch (lazily measuring when possible) the entry for one extension."""
    if sub_query.num_vertices > catalogue.h:
        return None
    if graph is not None:
        entry = ensure_entry(catalogue, graph, sub_query, descriptors, to_label)
    else:
        entry = catalogue.get(sub_query, descriptors, to_label)
    if entry is None:
        return None
    return list(entry.avg_list_sizes), entry.mu


def extension_statistics(
    catalogue: SubgraphCatalogue,
    sub_query: QueryGraph,
    descriptors: Sequence[AdjListDescriptor],
    to_label: Optional[int],
    graph: Optional[Graph] = None,
) -> Tuple[List[float], float]:
    """``(|A|, mu)`` for extending ``sub_query`` via ``descriptors``.

    When the sub-query is larger than the catalogue's ``h``, the missing-entry
    rule of Section 5.2 applies: every way of removing ``|Q_{k-1}| - h`` query
    vertices (together with the descriptors anchored at them) is looked up and
    the minimum ``mu`` across the reduced entries is used.
    """
    direct = _entry_stats(catalogue, graph, sub_query, descriptors, to_label)
    if direct is not None:
        return direct

    excess = sub_query.num_vertices - catalogue.h
    if excess <= 0:
        # Small sub-query but nothing measured (no graph available): fall back
        # to an optimistic default based on average degree.
        avg_degree = catalogue.num_graph_edges / max(catalogue.num_graph_vertices, 1)
        return [avg_degree for _ in descriptors], avg_degree

    anchor_vertices = {d.from_vertex for d in descriptors}
    candidates: List[Tuple[List[float], float]] = []
    for removed in combinations(sub_query.vertices, excess):
        removed_set = set(removed)
        remaining = [v for v in sub_query.vertices if v not in removed_set]
        kept_descriptors = [d for d in descriptors if d.from_vertex not in removed_set]
        if len(remaining) < 2 or not kept_descriptors:
            continue
        if not sub_query.connected_projection_exists(remaining):
            continue
        reduced = sub_query.project(remaining)
        stats = extension_statistics(catalogue, reduced, kept_descriptors, to_label, graph)
        candidates.append(stats)
    if not candidates:
        avg_degree = catalogue.num_graph_edges / max(catalogue.num_graph_vertices, 1)
        return [avg_degree for _ in descriptors], avg_degree
    best = min(candidates, key=lambda pair: pair[1])
    # Report list sizes for every original descriptor: use the reduced entry's
    # average list size for kept descriptors and the graph average otherwise.
    avg_degree = catalogue.num_graph_edges / max(catalogue.num_graph_vertices, 1)
    sizes = best[0]
    padded = list(sizes) + [avg_degree] * (len(descriptors) - len(sizes))
    return padded[: len(descriptors)], best[1]


def estimate_cardinality(
    catalogue: SubgraphCatalogue,
    query: QueryGraph,
    graph: Optional[Graph] = None,
    ordering: Optional[Sequence[str]] = None,
) -> float:
    """Estimated number of matches of ``query``.

    The estimate walks one WCO plan of the query: the count of the first query
    edge (from the edge-label statistics) multiplied by the ``mu`` of each
    subsequent one-vertex extension (Section 5.2, estimation 1).
    """
    if query.num_vertices < 2:
        return 0.0
    if ordering is None:
        orderings = enumerate_orderings(query, limit=1)
        if not orderings:
            return 0.0
        ordering = orderings[0]
    ordering = tuple(ordering)
    first_edges = query.edges_between(ordering[0], ordering[1])
    if not first_edges:
        return 0.0
    edge = first_edges[0]
    estimate = catalogue.edge_count(
        edge.label, query.vertex_label(edge.src), query.vertex_label(edge.dst)
    )
    # Parallel / reciprocal edges between the first two vertices act as extra
    # filters; scale by their selectivity under independence.
    for extra in first_edges[1:]:
        count = catalogue.edge_count(
            extra.label, query.vertex_label(extra.src), query.vertex_label(extra.dst)
        )
        possible = float(catalogue.num_graph_vertices) ** 2
        estimate *= min(1.0, count / possible) if possible else 0.0

    for k in range(2, len(ordering)):
        to_vertex = ordering[k]
        prefix = ordering[:k]
        sub = query.project(prefix)
        descriptors = [
            AdjListDescriptor.for_extension(e, to_vertex)
            for e in query.edges_touching(to_vertex)
            if e.other(to_vertex) in set(prefix)
        ]
        _, mu = extension_statistics(
            catalogue, sub, descriptors, query.vertex_label(to_vertex), graph
        )
        estimate *= mu
        if estimate == 0.0:
            break
    return float(estimate)


def estimate_cardinality_min_over_orderings(
    catalogue: SubgraphCatalogue,
    query: QueryGraph,
    graph: Optional[Graph] = None,
    max_orderings: int = 12,
) -> float:
    """A slightly more robust estimator that averages the per-ordering
    estimates over a handful of WCO orderings (different orderings can hit
    differently-informative catalogue entries)."""
    orderings = enumerate_orderings(query)
    if not orderings:
        return 0.0
    if len(orderings) > max_orderings:
        step = len(orderings) // max_orderings
        orderings = orderings[::step][:max_orderings]
    estimates = [
        estimate_cardinality(catalogue, query, graph, ordering=o) for o in orderings
    ]
    return float(np.median(estimates))
