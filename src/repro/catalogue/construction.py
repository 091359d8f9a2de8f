"""Sampling-based catalogue construction (Section 5.1).

For an entry that extends ``Q_{k-1}`` to ``Q_k`` we do *not* enumerate every
match of ``Q_{k-1}``: we sample ``z`` random edges uniformly from the SCAN
operator's edge list, extend only those through a WCO plan of ``Q_{k-1}``, and
for each produced match measure (i) the sizes of the adjacency lists named by
the descriptors ``A`` and (ii) how many extensions carrying the target label
the intersection yields.  The averages become the ``|A|`` and ``mu`` columns.

The WCO plan runs on the batch operators of :mod:`repro.executor.vectorized`,
the engine that executes queries, with a query's default configuration and
frame size: its SCAN is handed the sampled edges, and one more E/I with the
entry's descriptors does the measuring, one count per frame of sampled
matches.  That E/I counts as a query's does.  With one descriptor the count
is the matches' degrees in the label-filtered partition, and no list is
gathered.  Above an E/I, lists anchored on that E/I's input columns are
intersected once per distinct key of them when they are two or more and
another list hangs off its to-vertex (a 2-path entry extended through all
three of its vertices is the common case: every match grown from one
sampled edge shares that edge's two lists).  Both averages are integer sums
divided by the number of sampled matches, so an entry is a function of the
graph, the triple, ``z`` and the ``rng`` state alone, whatever the framing
or the seed source.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalogue.catalogue import CatalogueEntry, SubgraphCatalogue
from repro.graph.graph import Direction, Graph
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import ExtendNode, PlanNode, wco_plan_from_order
from repro.planner.qvo import enumerate_orderings
from repro.query.query_graph import QueryEdge, QueryGraph


# --------------------------------------------------------------------------- #
# sampling machinery
# --------------------------------------------------------------------------- #
def _measuring_node(
    child: PlanNode,
    sub_query: QueryGraph,
    descriptors: Sequence[AdjListDescriptor],
    to_vertex_label: Optional[int],
) -> ExtendNode:
    """The E/I that extends ``child``'s matches of ``sub_query`` via
    ``descriptors`` to a new query vertex, labelled with the ``Q_k`` it
    computes."""
    # Longer than every name in the sub-query, so it is none of them.
    to_vertex = "".join(sub_query.vertices) + "'"
    edges = list(sub_query.edges) + [
        QueryEdge(d.from_vertex, to_vertex, d.edge_label)
        if d.direction is Direction.FORWARD
        else QueryEdge(to_vertex, d.from_vertex, d.edge_label)
        for d in descriptors
    ]
    labels = {**sub_query.vertex_labels, to_vertex: to_vertex_label}
    return ExtendNode(
        sub_query=QueryGraph(edges, vertex_labels=labels, name=f"{sub_query.name}+1"),
        out_vertices=tuple(child.out_vertices) + (to_vertex,),
        child=child,
        to_vertex=to_vertex,
        descriptors=tuple(descriptors),
        to_vertex_label=to_vertex_label,
    )


def sample_subquery_matches(
    graph: Graph,
    sub_query: QueryGraph,
    ordering: Sequence[str],
    z: int,
    rng: np.random.Generator,
):
    """Matches of ``sub_query`` grown from ``z`` uniformly sampled scan edges.

    Returns the top batch operator of the WCO plan of ``sub_query`` in
    ``ordering``, wired so that its SCAN reads the sample instead of the whole
    edge list: ``frames()`` yields the matches, columns in ``ordering``.
    """
    # Imported here: ``repro.executor`` imports this module back, through
    # executor.adaptive -> catalogue.estimation.
    from repro.executor.operators import ExecutionConfig, scan_edge_arrays
    from repro.executor.profile import ExecutionProfile
    from repro.executor.vectorized import BatchExtendIntersectOperator, BatchScanOperator

    scan, *extends = wco_plan_from_order(sub_query, ordering).root.iter_nodes()
    # Homomorphism semantics, as the plans being priced; nothing here is a root.
    config = ExecutionConfig()
    wiring = (graph, ExecutionProfile(), config, False)
    src, dst = scan_edge_arrays(scan, graph, config)
    if len(src) > z:
        idx = rng.choice(len(src), size=z, replace=False)
        src, dst = src[idx], dst[idx]
    top = BatchScanOperator(scan, *wiring, edges=(src, dst))
    for node in extends:
        top = BatchExtendIntersectOperator(node, top, *wiring)
    return top


def measure_extension(
    graph: Graph,
    sub_query: QueryGraph,
    descriptors: Sequence[AdjListDescriptor],
    to_vertex_label: Optional[int],
    z: int,
    rng: np.random.Generator,
) -> Tuple[List[float], float, int]:
    """Measure ``|A|`` and ``mu`` for extending ``sub_query`` via ``descriptors``.

    The sampled matches of ``sub_query`` arrive frame by frame; ``|A|`` sums
    the degrees of each match's anchor vertices, and one last E/I with the
    entry's descriptors is asked how many extensions it would produce: the
    degrees again for one descriptor, otherwise an intersection per distinct
    key, shared by the matches grown from one sampled edge where their lists
    hang off that edge's columns.  Returns (average list size per
    descriptor, average number of extensions, number of sampled matches the
    averages are over).
    """
    # Deferred for the same import cycle as in sample_subquery_matches.
    from repro.executor.vectorized import BatchExtendIntersectOperator

    orderings = enumerate_orderings(sub_query, limit=1)
    if not orderings:
        return [0.0 for _ in descriptors], 0.0, 0
    matches = sample_subquery_matches(graph, sub_query, orderings[0], z, rng)
    last = BatchExtendIntersectOperator(
        _measuring_node(matches.node, sub_query, descriptors, to_vertex_label),
        matches,
        graph,
        matches.profile,
        matches.config,
        False,
    )
    columns = [matches.node.out_vertices.index(d.from_vertex) for d in descriptors]
    degrees = [graph.degree_array(d.direction, d.edge_label, to_vertex_label) for d in descriptors]
    # Integer sums, so the averages do not depend on the order or the
    # framing of the matches.
    n = 0
    size_totals = [0] * len(descriptors)
    extension_total = 0
    for frame in matches.frames():
        n += frame.shape[0]
        for j, (column, degree) in enumerate(zip(columns, degrees)):
            size_totals[j] += int(degree[frame[:, column]].sum())
        extension_total += sum(last._process(frame, count_only=True))
    if n == 0:
        avg_degree = graph.num_edges / max(graph.num_vertices, 1)
        return [float(avg_degree) for _ in descriptors], 0.0, 0
    return [total / n for total in size_totals], extension_total / n, n


# --------------------------------------------------------------------------- #
# construction entry points
# --------------------------------------------------------------------------- #
def _edge_count_statistics(graph: Graph) -> Dict[Tuple[Optional[int], Optional[int], Optional[int]], int]:
    """Edge counts partitioned by (edge label, source label, destination label)."""
    if graph.num_edges == 0:
        return {}
    labels = graph.vertex_labels
    # Labels are non-negative (Graph), so the triple packs into one code.
    span = int(labels.max()) + 1
    codes = (graph.edge_labels * span + labels[graph.edge_src]) * span + labels[graph.edge_dst]
    values, counts = np.unique(codes, return_counts=True)
    statistics: Dict[Tuple[Optional[int], Optional[int], Optional[int]], int] = {}
    for code, count in zip(values.tolist(), counts.tolist()):
        rest, dst_label = divmod(code, span)
        edge_label, src_label = divmod(rest, span)
        statistics[(edge_label, src_label, dst_label)] = count
    return statistics


def extension_triples_for_query(
    query: QueryGraph, h: int
) -> List[Tuple[QueryGraph, List[AdjListDescriptor], Optional[int]]]:
    """All ``(Q_{k-1}, A, l_k)`` triples needed to estimate plans of ``query``
    whose ``Q_{k-1}`` has at most ``h`` vertices.

    We enumerate every connected induced sub-query ``S`` of the query with
    ``3 <= |S| <= h+1`` vertices, and for every vertex ``v`` whose removal
    keeps ``S - v`` connected, emit the triple that extends ``S - v`` back to
    ``S``.
    """
    triples: List[Tuple[QueryGraph, List[AdjListDescriptor], Optional[int]]] = []
    vertices = list(query.vertices)
    max_size = min(len(vertices), h + 1)
    for size in range(3, max_size + 1):
        for subset in combinations(vertices, size):
            if not query.connected_projection_exists(subset):
                continue
            s_query = query.project(subset)
            for v in subset:
                rest = [u for u in subset if u != v]
                if len(rest) < 2 or not query.connected_projection_exists(rest):
                    continue
                sub = query.project(rest)
                descriptors = [
                    AdjListDescriptor.for_extension(e, v)
                    for e in s_query.edges_touching(v)
                ]
                if descriptors:
                    triples.append((sub, descriptors, s_query.vertex_label(v)))
    return triples


def build_catalogue(
    graph: Graph,
    h: int = 3,
    z: int = 1000,
    seed: int = 0,
    queries: Optional[Sequence[QueryGraph]] = None,
) -> SubgraphCatalogue:
    """Construct a catalogue for ``graph``.

    When ``queries`` is given, entries for every small-sub-query extension any
    of those queries can need are measured eagerly; otherwise only the base
    edge-label statistics are stored and entries are filled lazily by the cost
    model the first time they are requested.
    """
    start = time.perf_counter()
    catalogue = SubgraphCatalogue(h=h, z=z)
    catalogue.num_graph_vertices = graph.num_vertices
    catalogue.num_graph_edges = graph.num_edges
    catalogue.edges_at_build = graph.num_edges
    catalogue.edge_counts = _edge_count_statistics(graph)
    rng = np.random.default_rng(seed)
    if queries:
        for query in queries:
            for sub, descriptors, to_label in extension_triples_for_query(query, h):
                if catalogue.has(sub, descriptors, to_label):
                    continue
                sizes, mu, n = measure_extension(graph, sub, descriptors, to_label, z, rng)
                catalogue.put(sub, descriptors, to_label, sizes, mu, n)
    catalogue.construction_seconds = time.perf_counter() - start
    return catalogue


def resample_catalogue(
    catalogue: SubgraphCatalogue,
    graph: Graph,
    z: Optional[int] = None,
    seed: int = 0,
) -> SubgraphCatalogue:
    """Re-measure every entry of ``catalogue`` against ``graph``.

    This is the refresher's off-write-path rebuild: the exact edge/label
    statistics are recomputed from the graph, and every sampled ``mu`` /
    ``|A|`` entry that remembers its source triple is re-measured with fresh
    samples.  Entries without a source triple (e.g. loaded from a persisted
    catalogue) are dropped; the cost model lazily re-measures them on next
    use.  The input catalogue is never mutated — the caller decides whether
    to install the returned one.
    """
    start = time.perf_counter()
    fresh = SubgraphCatalogue(h=catalogue.h, z=z if z is not None else catalogue.z)
    fresh.num_graph_vertices = graph.num_vertices
    fresh.num_graph_edges = graph.num_edges
    fresh.edges_at_build = graph.num_edges
    fresh.edge_counts = _edge_count_statistics(graph)
    rng = np.random.default_rng(seed)
    for entry in list(catalogue.entries.values()):
        if entry.sub_query is None or entry.descriptors is None:
            continue
        sizes, mu, n = measure_extension(
            graph, entry.sub_query, entry.descriptors, entry.to_vertex_label, fresh.z, rng
        )
        fresh.put(entry.sub_query, entry.descriptors, entry.to_vertex_label, sizes, mu, n)
    fresh.construction_seconds = time.perf_counter() - start
    return fresh


def ensure_entry(
    catalogue: SubgraphCatalogue,
    graph: Graph,
    sub_query: QueryGraph,
    descriptors: Sequence[AdjListDescriptor],
    to_vertex_label: Optional[int],
    seed: int = 0,
) -> Optional[CatalogueEntry]:
    """The entry for one extension, measured and stored first when it is
    missing; None when the sub-query is too large for the catalogue."""
    if sub_query.num_vertices > catalogue.h:
        return None
    entry = catalogue.get(sub_query, descriptors, to_vertex_label)
    if entry is None:
        rng = np.random.default_rng(seed)
        sizes, mu, n = measure_extension(
            graph, sub_query, descriptors, to_vertex_label, catalogue.z, rng
        )
        entry = catalogue.put(sub_query, descriptors, to_vertex_label, sizes, mu, n)
    return entry
