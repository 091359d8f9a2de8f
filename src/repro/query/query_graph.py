"""Directed, labeled query graphs.

A subgraph query ``Q(V_Q, E_Q)`` is a small directed, connected pattern whose
vertices and edges may carry labels (Section 2).  Query vertices are named
(``a1``, ``a2``, ...); labels are integers or ``None`` (wildcard = any label).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidQueryError


@dataclass(frozen=True)
class QueryEdge:
    """A directed query edge ``src -> dst`` with an optional edge label."""

    src: str
    dst: str
    label: Optional[int] = None

    def endpoints(self) -> FrozenSet[str]:
        return frozenset((self.src, self.dst))

    def touches(self, vertex: str) -> bool:
        return vertex == self.src or vertex == self.dst

    def other(self, vertex: str) -> str:
        if vertex == self.src:
            return self.dst
        if vertex == self.dst:
            return self.src
        raise KeyError(f"{vertex} is not an endpoint of {self}")

    def __repr__(self) -> str:
        lab = "" if self.label is None else f"[{self.label}]"
        return f"{self.src}-{lab}->{self.dst}"


class QueryGraph:
    """A directed, labeled query graph.

    Parameters
    ----------
    edges:
        Iterable of :class:`QueryEdge` (or ``(src, dst)`` / ``(src, dst, label)``
        tuples).
    vertex_labels:
        Optional mapping from vertex name to label; unspecified vertices get
        ``None`` (wildcard).
    name:
        Human-readable name used in experiment reports.
    """

    def __init__(
        self,
        edges: Iterable,
        vertex_labels: Optional[Dict[str, Optional[int]]] = None,
        name: str = "query",
    ) -> None:
        normalized: List[QueryEdge] = []
        for e in edges:
            if isinstance(e, QueryEdge):
                normalized.append(e)
            elif len(e) == 2:
                normalized.append(QueryEdge(e[0], e[1]))
            elif len(e) == 3:
                normalized.append(QueryEdge(e[0], e[1], e[2]))
            else:
                raise InvalidQueryError(f"cannot interpret query edge {e!r}")
        if not normalized:
            raise InvalidQueryError("a query must contain at least one edge")
        seen: Set[Tuple[str, str, Optional[int]]] = set()
        self._edges: List[QueryEdge] = []
        for e in normalized:
            if e.src == e.dst:
                raise InvalidQueryError("query self-loops are not supported")
            key = (e.src, e.dst, e.label)
            if key not in seen:
                seen.add(key)
                self._edges.append(e)
        vertices: List[str] = []
        for e in self._edges:
            for v in (e.src, e.dst):
                if v not in vertices:
                    vertices.append(v)
        self._vertices: Tuple[str, ...] = tuple(vertices)
        self._vertex_labels: Dict[str, Optional[int]] = {v: None for v in vertices}
        if vertex_labels:
            for v, lab in vertex_labels.items():
                if v in self._vertex_labels:
                    self._vertex_labels[v] = lab
        self.name = name

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> Tuple[str, ...]:
        """Query vertices in first-mention order."""
        return self._vertices

    @property
    def edges(self) -> Tuple[QueryEdge, ...]:
        return tuple(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex_label(self, vertex: str) -> Optional[int]:
        return self._vertex_labels[vertex]

    @property
    def vertex_labels(self) -> Dict[str, Optional[int]]:
        return dict(self._vertex_labels)

    def has_vertex(self, vertex: str) -> bool:
        return vertex in self._vertex_labels

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def edges_touching(self, vertex: str) -> List[QueryEdge]:
        return [e for e in self._edges if e.touches(vertex)]

    def edges_between(self, a: str, b: str) -> List[QueryEdge]:
        return [
            e
            for e in self._edges
            if (e.src == a and e.dst == b) or (e.src == b and e.dst == a)
        ]

    def neighbors(self, vertex: str) -> Set[str]:
        """Undirected neighbourhood of ``vertex`` in the query."""
        out: Set[str] = set()
        for e in self._edges:
            if e.src == vertex:
                out.add(e.dst)
            elif e.dst == vertex:
                out.add(e.src)
        return out

    def degree(self, vertex: str) -> int:
        return len(self.edges_touching(vertex))

    def is_connected(self) -> bool:
        if not self._vertices:
            return False
        seen = {self._vertices[0]}
        frontier = [self._vertices[0]]
        while frontier:
            v = frontier.pop()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == self.num_vertices

    def is_acyclic(self) -> bool:
        """True when the *undirected* shape of the query is a forest (the
        notion of (a)cyclicity used throughout the paper)."""
        return self.num_edges == self.num_vertices - 1 and self.is_connected()

    def is_clique(self) -> bool:
        """True when every unordered vertex pair is connected by some edge."""
        pairs = {frozenset((e.src, e.dst)) for e in self._edges}
        n = self.num_vertices
        return len(pairs) == n * (n - 1) // 2

    # ------------------------------------------------------------------ #
    # projections (the projection constraint of Section 4.1)
    # ------------------------------------------------------------------ #
    def project(self, vertices: Sequence[str], name: Optional[str] = None) -> "QueryGraph":
        """Induced sub-query on ``vertices`` (keeps every edge among them)."""
        vset = set(vertices)
        missing = vset - set(self._vertices)
        if missing:
            raise InvalidQueryError(f"unknown query vertices: {sorted(missing)}")
        edges = [e for e in self._edges if e.src in vset and e.dst in vset]
        if not edges:
            raise InvalidQueryError(
                f"projection onto {sorted(vset)} has no edges and cannot form a sub-query"
            )
        labels = {v: self._vertex_labels[v] for v in vset}
        return QueryGraph(edges, vertex_labels=labels, name=name or f"{self.name}|{','.join(sorted(vset))}")

    def connected_projection_exists(self, vertices: Sequence[str]) -> bool:
        """True when the induced sub-query on ``vertices`` is connected and
        non-empty."""
        vset = set(vertices)
        edges = [e for e in self._edges if e.src in vset and e.dst in vset]
        if not edges:
            return False
        try:
            sub = QueryGraph(edges, name="probe")
        except InvalidQueryError:
            return False
        return set(sub.vertices) == vset and sub.is_connected()

    # ------------------------------------------------------------------ #
    # comparisons / hashing
    # ------------------------------------------------------------------ #
    def canonical_key(self) -> Tuple:
        """An isomorphism-invariant, hashable key for this query.

        Two queries share a key exactly when they are isomorphic respecting
        vertex and edge labels — i.e. one can be obtained from the other by
        renaming query vertices.  The key is what plan caches and prepared
        queries use to recognise a repeated query regardless of how its
        vertices happen to be named.

        Computed via brute-force canonicalization (exact for the small query
        graphs this system plans, ≤ ~8 vertices) and cached on the instance;
        the structure of a :class:`QueryGraph` is immutable after construction,
        so the cache can never go stale.
        """
        cached = getattr(self, "_canonical_key", None)
        if cached is None:
            from repro.query.isomorphism import canonical_code_and_order

            code, order = canonical_code_and_order(self)
            cached = ("qg", self.num_vertices, code)
            self._canonical_key = cached
            self._canonical_order = order
        return cached

    def canonical_vertex_order(self) -> Tuple[str, ...]:
        """A vertex ordering realising :meth:`canonical_key` (memoised with
        it); aligning two isomorphic queries' canonical orders yields an
        isomorphism mapping between them."""
        self.canonical_key()
        return self._canonical_order

    def edge_key_set(self) -> FrozenSet[Tuple[str, str, Optional[int]]]:
        """The edges as ``(src, dst, label)`` triples (memoised, like
        :meth:`canonical_key`)."""
        cached = getattr(self, "_edge_key_set", None)
        if cached is None:
            cached = frozenset((e.src, e.dst, e.label) for e in self._edges)
            self._edge_key_set = cached
        return cached

    def structurally_equal(self, other: "QueryGraph") -> bool:
        """Equality of vertex sets, labels, and edge sets (names matter)."""
        return (
            set(self._vertices) == set(other._vertices)
            and self._vertex_labels == other._vertex_labels
            and self.edge_key_set() == other.edge_key_set()
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, QueryGraph)
            and hash(self) == hash(other)
            and self.structurally_equal(other)
        )

    def __hash__(self) -> int:
        # Memoised: cost-model memos hash every sub-query they look up.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.edge_key_set(), frozenset(self._vertex_labels.items())))
            self._hash = cached
        return cached

    def __getstate__(self) -> Dict:
        # A str hash differs between processes, so the memo does not travel.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __repr__(self) -> str:
        return f"QueryGraph({self.name!r}, vertices={self.num_vertices}, edges={list(self._edges)})"

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    def relabel_edges(self, label_map: Dict[Tuple[str, str], Optional[int]]) -> "QueryGraph":
        """Return a copy with edge labels replaced according to ``label_map``
        (keys are ``(src, dst)`` pairs; unmapped edges keep their label)."""
        edges = [
            QueryEdge(e.src, e.dst, label_map.get((e.src, e.dst), e.label))
            for e in self._edges
        ]
        return QueryGraph(edges, vertex_labels=self._vertex_labels, name=self.name)

    def with_random_edge_labels(self, num_labels: int, seed: Optional[int] = 0) -> "QueryGraph":
        """Randomly assign each query edge a label from ``0..num_labels-1``
        (the ``QJi`` protocol of Section 8.1.3)."""
        import numpy as np

        if num_labels <= 1:
            return self.relabel_edges({(e.src, e.dst): 0 for e in self._edges})
        rng = np.random.default_rng(seed)
        label_map = {
            (e.src, e.dst): int(rng.integers(0, num_labels)) for e in self._edges
        }
        out = self.relabel_edges(label_map)
        out.name = f"{self.name}_{num_labels}"
        return out

    def rename_vertices(self, mapping: Dict[str, str]) -> "QueryGraph":
        """Return a copy with vertices renamed (used to feed 'bad orderings'
        to the EmptyHeaded baseline, which orders lexicographically)."""
        edges = [
            QueryEdge(mapping.get(e.src, e.src), mapping.get(e.dst, e.dst), e.label)
            for e in self._edges
        ]
        labels = {mapping.get(v, v): lab for v, lab in self._vertex_labels.items()}
        return QueryGraph(edges, vertex_labels=labels, name=self.name)
