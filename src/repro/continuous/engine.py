"""Incremental maintenance of subgraph-query match counts.

A registered query ``Q`` with query edges ``qe_1, ..., qe_n`` is a multiway
self-join over the edge relation ``E``.  When a batch of edges ``ΔE`` is
inserted, the change in the match set is given by the classic delta rule:

    ΔQ = Σ_j  Q(E_new, ..., E_new, ΔE, E_old, ..., E_old)
                ( positions < j )   (j)  ( positions > j )

i.e. one term per query edge position ``j``, in which query edges before ``j``
read the *post-update* edge set, position ``j`` reads only the inserted edges,
and positions after ``j`` read the *pre-update* edge set.  Every new match is
produced by exactly one term (the term of its first query-edge position bound
to an inserted edge), so the terms can simply be summed.  Deletions use the
same rule evaluated against the pre-/post-deletion graphs with a negative
sign.

Each term is evaluated query-vertex-at-a-time: the delta edge seeds the two
endpoints of ``qe_j``, and the remaining query vertices are matched by
intersecting adjacency lists — the same computation the one-time WCO plans
perform, except that each adjacency list is read from the old or the new graph
depending on the position of the query edge it represents.

This is the algorithmic core of Graphflow's active queries [18] (and of
BiGJoin's incremental dataflows [6]).  The storage substrate is the
delta-CSR :class:`~repro.storage.dynamic.DynamicGraph`: applying a batch
appends sorted per-vertex deltas and bumps the version — no adjacency-index
rebuild — and the pre-/post-update states the delta rule reads are O(1) MVCC
:meth:`~repro.storage.dynamic.DynamicGraph.snapshot` views, so the cost of an
update batch is proportional to the matches it touches, not to the graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import GraphConstructionError, InvalidQueryError, PlanError, ReproError
from repro.executor.pipeline import execute_plan
from repro.graph.graph import Direction, Graph
from repro.graph.intersect import intersect_multiway
from repro.planner.plan import wco_plan_from_order
from repro.planner.qvo import enumerate_orderings
from repro.query.query_graph import QueryEdge, QueryGraph
from repro.storage.dynamic import DynamicGraph, normalize_edges
from repro.storage.snapshot import GraphSnapshot

Edge = Tuple[int, int, int]

#: Anything the delta terms can read adjacency from.
GraphView = Union[Graph, GraphSnapshot]


class ContinuousQueryError(ReproError):
    """Raised for invalid updates or unregistered queries."""


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
@dataclass
class DeltaResult:
    """Change report for one registered query after one update batch."""

    query_name: str
    delta: int
    total: int
    inserted_edges: int = 0
    deleted_edges: int = 0
    elapsed_seconds: float = 0.0

    def __repr__(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return (
            f"DeltaResult({self.query_name!r}, delta={sign}{self.delta}, "
            f"total={self.total})"
        )


@dataclass
class _RegisteredQuery:
    query: QueryGraph
    total: int
    orderings: Dict[Tuple[str, str], Tuple[str, ...]] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #
class ContinuousQueryEngine:
    """Maintains match counts of registered queries under edge updates.

    Example
    -------
    >>> from repro.graph.builder import GraphBuilder
    >>> from repro.query import catalog_queries
    >>> g = GraphBuilder().add_edge(0, 1).add_edge(1, 2).build()
    >>> engine = ContinuousQueryEngine(g)
    >>> engine.register("triangles", catalog_queries.q1())
    0
    >>> engine.insert_edges([(0, 2)])[0].delta
    1
    """

    def __init__(self, graph: Union[Graph, DynamicGraph]) -> None:
        self._dynamic = graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        self._queries: Dict[str, _RegisteredQuery] = {}

    @property
    def graph(self) -> DynamicGraph:
        """The engine's mutable graph (shared when one was passed in)."""
        return self._dynamic

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query: QueryGraph) -> int:
        """Register ``query`` under ``name`` and return its current match count."""
        if name in self._queries:
            raise ContinuousQueryError(f"a query named {name!r} is already registered")
        if not query.is_connected():
            raise InvalidQueryError(f"query {query.name} must be connected")
        total = self._full_count(query)
        self._queries[name] = _RegisteredQuery(query=query, total=total)
        return total

    def deregister(self, name: str) -> None:
        if name not in self._queries:
            raise ContinuousQueryError(f"no query named {name!r} is registered")
        del self._queries[name]

    @property
    def registered_queries(self) -> Dict[str, QueryGraph]:
        return {name: entry.query for name, entry in self._queries.items()}

    def current_count(self, name: str) -> int:
        if name not in self._queries:
            raise ContinuousQueryError(f"no query named {name!r} is registered")
        return self._queries[name].total

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert_edges(self, edges: Iterable[Tuple[int, ...]]) -> List[DeltaResult]:
        """Insert a batch of edges and return one :class:`DeltaResult` per query.

        Edges already present (same source, destination, and label) are
        ignored.  New vertices referenced by the batch are created with
        label 0.
        """
        batch = self._normalize(edges)
        old = self._dynamic.snapshot()
        applied = self._dynamic.add_edges(batch)
        if not applied:
            return self._unchanged_results()
        new = self._dynamic.snapshot()
        results = []
        for name, entry in self._queries.items():
            start = time.perf_counter()
            delta = self._delta_count(entry, old=old, new=new, delta_edges=applied)
            entry.total += delta
            results.append(
                DeltaResult(
                    query_name=name,
                    delta=delta,
                    total=entry.total,
                    inserted_edges=len(applied),
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
        return results

    def delete_edges(self, edges: Iterable[Tuple[int, ...]]) -> List[DeltaResult]:
        """Delete a batch of edges and return one :class:`DeltaResult` per query.

        Edges not present are ignored.
        """
        batch = self._normalize(edges)
        before = self._dynamic.snapshot()
        applied = self._dynamic.delete_edges(batch)
        if not applied:
            return self._unchanged_results()
        after = self._dynamic.snapshot()
        results = []
        for name, entry in self._queries.items():
            start = time.perf_counter()
            # Matches lost are exactly the matches gained when re-inserting the
            # batch into the post-deletion graph.
            delta = self._delta_count(entry, old=after, new=before, delta_edges=applied)
            entry.total -= delta
            results.append(
                DeltaResult(
                    query_name=name,
                    delta=-delta,
                    total=entry.total,
                    deleted_edges=len(applied),
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # internals: edge batches
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize(edges: Iterable[Tuple[int, ...]]) -> List[Edge]:
        """Shared storage-layer normalization, re-raised under this module's
        error type for API stability."""
        try:
            return normalize_edges(edges)
        except GraphConstructionError as exc:
            raise ContinuousQueryError(str(exc)) from exc

    # ------------------------------------------------------------------ #
    # internals: counting
    # ------------------------------------------------------------------ #
    def _full_count(self, query: QueryGraph) -> int:
        snapshot = self._dynamic.snapshot()
        if snapshot.num_edges == 0:
            return 0
        for ordering in enumerate_orderings(query):
            try:
                plan = wco_plan_from_order(query, ordering)
            except PlanError:
                continue
            return execute_plan(plan, snapshot).num_matches
        raise InvalidQueryError(f"query {query.name} admits no connected ordering")

    def _ordering_for(
        self, entry: _RegisteredQuery, seed_edge: QueryEdge
    ) -> Tuple[str, ...]:
        """A connected ordering of the query starting with ``seed_edge``'s
        endpoints (cached per registered query)."""
        key = (seed_edge.src, seed_edge.dst)
        cached = entry.orderings.get(key)
        if cached is not None:
            return cached
        orderings = enumerate_orderings(entry.query, prefix=[seed_edge.src, seed_edge.dst], limit=1)
        if not orderings:
            raise InvalidQueryError(
                f"query {entry.query.name} has no connected ordering starting at "
                f"{seed_edge.src}, {seed_edge.dst}"
            )
        entry.orderings[key] = orderings[0]
        return orderings[0]

    def _delta_count(
        self,
        entry: _RegisteredQuery,
        old: GraphView,
        new: GraphView,
        delta_edges: Sequence[Edge],
    ) -> int:
        """Matches present in ``new`` but not in ``old`` (``old ⊆ new``)."""
        query = entry.query
        query_edges = list(query.edges)
        total = 0
        for position, seed_edge in enumerate(query_edges):
            ordering = self._ordering_for(entry, seed_edge)
            for src, dst, label in delta_edges:
                if seed_edge.label is not None and seed_edge.label != label:
                    continue
                if not self._vertex_label_ok(new, src, query.vertex_label(seed_edge.src)):
                    continue
                if not self._vertex_label_ok(new, dst, query.vertex_label(seed_edge.dst)):
                    continue
                total += self._count_with_seed(
                    query, query_edges, position, ordering, (src, dst), old, new
                )
        return total

    @staticmethod
    def _vertex_label_ok(graph: GraphView, vertex: int, label: Optional[int]) -> bool:
        if label is None:
            return True
        if vertex >= graph.num_vertices:
            return False
        return graph.vertex_label(vertex) == label

    def _graph_for_position(
        self, position: int, seed_position: int, old: GraphView, new: GraphView
    ) -> GraphView:
        """Delta-rule role of a query edge: before the seed position read the
        new graph, after it read the old graph (the seed edge itself is bound
        to the delta edge)."""
        return new if position < seed_position else old

    def _count_with_seed(
        self,
        query: QueryGraph,
        query_edges: List[QueryEdge],
        seed_position: int,
        ordering: Tuple[str, ...],
        seed_binding: Tuple[int, int],
        old: GraphView,
        new: GraphView,
    ) -> int:
        """Count matches with the seed query edge bound to ``seed_binding``,
        other query edges reading old/new according to the delta rule."""
        seed_edge = query_edges[seed_position]
        binding: Dict[str, int] = {
            seed_edge.src: seed_binding[0],
            seed_edge.dst: seed_binding[1],
        }
        position_of = {
            (e.src, e.dst, e.label): i for i, e in enumerate(query_edges)
        }

        def edge_graph(edge: QueryEdge) -> GraphView:
            position = position_of[(edge.src, edge.dst, edge.label)]
            return self._graph_for_position(position, seed_position, old, new)

        # Verify query edges already fully bound by the seed (parallel edges or
        # the reciprocal edge of the seed pair).
        for edge in query_edges:
            if edge is seed_edge:
                continue
            if edge.src in binding and edge.dst in binding:
                graph = edge_graph(edge)
                if not self._has_edge(graph, binding[edge.src], binding[edge.dst], edge.label):
                    return 0

        order = [v for v in ordering if v not in binding]

        def extend(index: int) -> int:
            if index == len(order):
                return 1
            target = order[index]
            target_label = query.vertex_label(target)
            lists = []
            for edge in query.edges_touching(target):
                other = edge.other(target)
                if other not in binding:
                    continue
                graph = edge_graph(edge)
                source_vertex = binding[other]
                if source_vertex >= graph.num_vertices:
                    # The bound vertex was created by this batch, so it has no
                    # adjacency in the pre-update graph: the intersection is empty.
                    return 0
                direction = Direction.FORWARD if edge.src == other else Direction.BACKWARD
                adjacency = graph.neighbors(
                    source_vertex, direction, edge.label, target_label
                )
                lists.append(adjacency)
            if not lists:
                # Should not happen for connected orderings, but guard anyway.
                return 0
            extensions = lists[0] if len(lists) == 1 else intersect_multiway(lists)
            produced = 0
            for vertex in extensions:
                binding[target] = int(vertex)
                produced += extend(index + 1)
                del binding[target]
            return produced

        count = extend(0)
        return count

    @staticmethod
    def _has_edge(graph: GraphView, src: int, dst: int, label: Optional[int]) -> bool:
        if src >= graph.num_vertices or dst >= graph.num_vertices:
            return False
        return graph.has_edge(src, dst, label)

    # ------------------------------------------------------------------ #
    def _unchanged_results(self) -> List[DeltaResult]:
        return [
            DeltaResult(query_name=name, delta=0, total=entry.total)
            for name, entry in self._queries.items()
        ]

    def __repr__(self) -> str:
        return (
            f"ContinuousQueryEngine(graph={self.graph.name!r}, "
            f"edges={self.graph.num_edges}, queries={list(self._queries)})"
        )


__all__ = ["ContinuousQueryEngine", "DeltaResult", "ContinuousQueryError"]
