"""In-memory directed labeled graph with sorted adjacency lists.

The storage layout mirrors Graphflow's (paper Section 7):

* both forward and backward adjacency lists are indexed,
* adjacency lists are partitioned first by the edge label and then by the
  label of the neighbour vertex,
* the neighbours within each partition are sorted by vertex id, which makes
  multiway intersections (the core of WCO plans) fast merge operations.

Graphs are immutable once built; use :class:`repro.graph.builder.GraphBuilder`
to construct them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.intersect import KeySet

# Wildcard label: "any label". Queries with unlabeled vertices/edges use this.
ANY_LABEL: Optional[int] = None


class Direction(enum.Enum):
    """Direction of an adjacency list access.

    ``FORWARD`` follows edges from source to destination (out-neighbours);
    ``BACKWARD`` follows them from destination to source (in-neighbours).
    """

    FORWARD = "fwd"
    BACKWARD = "bwd"

    def reverse(self) -> "Direction":
        return Direction.BACKWARD if self is Direction.FORWARD else Direction.FORWARD

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Direction.{self.name}"


@dataclass(frozen=True)
class _CSR:
    """A compact sparse-row adjacency structure for one partition."""

    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    @cached_property
    def codes(self) -> np.ndarray:
        """The partition's ``u * num_vertices + w`` codes, one per adjacency
        pair.  Sorted by construction: pairs are grouped by ascending ``u``
        and each run is sorted.  Built on first use and kept with the CSR."""
        n = len(self.indptr) - 1
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr)) * n + self.indices

    @cached_property
    def keys(self) -> KeySet:
        """:attr:`codes` as a :class:`KeySet`: ``w in neighbors(u)`` for a
        whole batch is one ``contains``.  Kept with the CSR, so whoever
        serves this CSR serves these keys."""
        return KeySet(self.codes)

    @classmethod
    def from_codes(cls, codes: np.ndarray, num_vertices: int) -> "_CSR":
        """The CSR of sorted ``u * num_vertices + w`` codes, which it keeps
        as its :attr:`codes`."""
        sources, targets = np.divmod(codes, num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
        csr = cls(indptr=indptr, indices=targets)
        csr.__dict__["codes"] = codes  # the cached property's own slot
        return csr

    def pairs(
        self, labels: np.ndarray, anchor_label: Optional[int] = ANY_LABEL
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(anchor, neighbour)`` pair in CSR order, by anchor and
        then neighbour, whose anchor carries ``anchor_label`` in ``labels``."""
        anchors = np.repeat(np.arange(len(self.indptr) - 1, dtype=np.int64), np.diff(self.indptr))
        if anchor_label is ANY_LABEL:
            return anchors, self.indices
        keep = labels[anchors] == anchor_label
        return anchors[keep], self.indices[keep]


def _build_csr(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> _CSR:
    """Build a CSR whose neighbour lists are sorted by vertex id.

    One sort of the ``source * n + target`` codes orders the edges by
    source, then target, in a fraction of a two-key lexsort's time."""
    codes = np.sort(sources * num_vertices + targets)
    sources, targets = np.divmod(codes, num_vertices)
    counts = np.bincount(sources, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return _CSR(indptr=indptr, indices=targets)


_EMPTY = np.array([], dtype=np.int64)
_EMPTY.setflags(write=False)


def label_of(vertex_labels: np.ndarray, vertex: int) -> int:
    """``vertex_labels[vertex]``; an id outside ``[0, num_vertices)`` raises
    :class:`IndexError` naming it, rather than wrapping round from the end."""
    if not 0 <= vertex < len(vertex_labels):
        raise IndexError(
            f"vertex id {vertex} is outside [0, num_vertices={len(vertex_labels)})"
        )
    return int(vertex_labels[vertex])


class GraphReads:
    """The read API shared by :class:`Graph` and the storage layer's
    snapshots, written once over what each provides: ``vertex_labels``, the
    edge arrays, a ``_scan_cache`` dict, and :meth:`csr`.

    Every per-vertex read is a read of the partition :meth:`csr` serves.  An
    id outside ``[0, num_vertices)`` has no edges: ``[]``, ``0``, ``False``.
    """

    vertex_labels: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_labels: np.ndarray
    _scan_cache: Dict[
        Tuple[Optional[int], Optional[int], Optional[int]], Tuple[np.ndarray, np.ndarray]
    ]

    def csr(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> _CSR:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return int(len(self.vertex_labels))

    @property
    def vertex_label_values(self) -> np.ndarray:
        """Distinct vertex labels present in the graph."""
        return np.unique(self.vertex_labels)

    def vertex_label(self, vertex: int) -> int:
        return label_of(self.vertex_labels, vertex)

    def vertices_with_label(self, label: Optional[int]) -> np.ndarray:
        """All vertex ids carrying ``label`` (or all vertices for ANY_LABEL)."""
        if label is ANY_LABEL:
            return np.arange(self.num_vertices, dtype=np.int64)
        return np.flatnonzero(self.vertex_labels == label).astype(np.int64)

    # ------------------------------------------------------------------ #
    # adjacency access
    # ------------------------------------------------------------------ #
    def neighbors(
        self,
        vertex: int,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> np.ndarray:
        """Sorted neighbour list of ``vertex`` in ``direction`` restricted to
        edges with ``edge_label`` and neighbours with ``neighbor_label``."""
        if not 0 <= vertex < self.num_vertices:
            return _EMPTY
        return self.csr(direction, edge_label, neighbor_label).neighbors(vertex)

    def degree(
        self,
        vertex: int,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> int:
        """Size of the adjacency-list partition ``neighbors(...)`` would return."""
        if not 0 <= vertex < self.num_vertices:
            return 0
        return self.csr(direction, edge_label, neighbor_label).degree(vertex)

    def degree_array(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> np.ndarray:
        """Vector of degrees for all vertices (used by statistics and costs)."""
        return np.diff(self.csr(direction, edge_label, neighbor_label).indptr)

    def adjacency_keys(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> KeySet:
        """The :class:`KeySet` of the partition :meth:`csr` returns: the
        batch executor's replacement for per-tuple :meth:`has_edge` calls."""
        return self.csr(direction, edge_label, neighbor_label).keys

    def has_edge(
        self, src: int, dst: int, edge_label: Optional[int] = ANY_LABEL
    ) -> bool:
        """Membership test using binary search on the sorted forward list."""
        nbrs = self.neighbors(src, Direction.FORWARD, edge_label, ANY_LABEL)
        pos = np.searchsorted(nbrs, dst)
        return bool(pos < len(nbrs) and nbrs[pos] == dst)

    # ------------------------------------------------------------------ #
    # edge scans
    # ------------------------------------------------------------------ #
    def edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays of all edges matching the label filters.

        In input order: what the reference executor's SCAN, a row-limited
        batch SCAN and the catalogue sampler iterate over (an unlimited
        batch SCAN reads :meth:`scan_edges` instead).  The unfiltered case
        (every filter ``ANY_LABEL``) is hot in catalogue construction, morsel
        partitioning, and update-rate accounting, so it short-circuits to the
        stored edge arrays instead of allocating full-edge boolean masks.
        """
        src, dst = self.edge_src, self.edge_dst
        if edge_label is ANY_LABEL and src_label is ANY_LABEL and dst_label is ANY_LABEL:
            return src, dst
        mask: Optional[np.ndarray] = None
        if edge_label is not ANY_LABEL:
            mask = self.edge_labels == edge_label
        if src_label is not ANY_LABEL:
            part = self.vertex_labels[src] == src_label
            mask = part if mask is None else mask & part
        if dst_label is not ANY_LABEL:
            part = self.vertex_labels[dst] == dst_label
            mask = part if mask is None else mask & part
        return src[mask], dst[mask]

    def scan_edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The edges :meth:`edges` returns, as a multiset, in ``(src, dst)``
        order: the pairs of the forward :meth:`csr` partition E/I reads,
        filtered by the source label.  Consecutive edges then share their
        source's adjacency list, which is what the batch SCAN emits.
        Derived once per filter and kept with the graph."""
        key = (edge_label, src_label, dst_label)
        cached = self._scan_cache.get(key)
        if cached is None:
            csr = self.csr(Direction.FORWARD, edge_label, dst_label)
            cached = csr.pairs(self.vertex_labels, src_label)
            self._scan_cache[key] = cached
        return cached

    def count_edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> int:
        if edge_label is ANY_LABEL and src_label is ANY_LABEL and dst_label is ANY_LABEL:
            return self.num_edges
        src, _ = self.edges(edge_label, src_label, dst_label)
        return int(len(src))

    def iter_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over ``(src, dst, label)`` triples."""
        for s, d, l in zip(self.edge_src, self.edge_dst, self.edge_labels):
            yield int(s), int(d), int(l)


@dataclass
class Graph(GraphReads):
    """A directed graph with integer vertex and edge labels.

    Vertices are identified by consecutive integers ``0..num_vertices-1``.
    Labels are small non-negative integers; unlabeled graphs use label ``0``
    everywhere (the paper treats unlabeled queries as labeled queries over a
    graph with a single label).

    Attributes
    ----------
    vertex_labels:
        ``int64`` array of length ``num_vertices``.
    edge_src, edge_dst, edge_labels:
        Parallel ``int64`` arrays of length ``num_edges`` listing every edge.
    """

    vertex_labels: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_labels: np.ndarray
    name: str = "graph"

    # Partitioned adjacency: maps (edge_label, neighbour_label) -> _CSR.
    _fwd_partitions: Dict[Tuple[int, int], _CSR] = field(default_factory=dict, repr=False)
    _bwd_partitions: Dict[Tuple[int, int], _CSR] = field(default_factory=dict, repr=False)
    # Lazily merged wildcard partitions keyed by (edge_label, neighbour_label)
    # where either component may be ANY_LABEL.
    _merged_cache: Dict[Tuple[str, Optional[int], Optional[int]], _CSR] = field(
        default_factory=dict, repr=False
    )
    # scan_edges per (edge_label, src_label, dst_label) filter.
    _scan_cache: Dict[
        Tuple[Optional[int], Optional[int], Optional[int]], Tuple[np.ndarray, np.ndarray]
    ] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self.vertex_labels = np.asarray(self.vertex_labels, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.edge_labels = np.asarray(self.edge_labels, dtype=np.int64)
        if not (len(self.edge_src) == len(self.edge_dst) == len(self.edge_labels)):
            raise GraphConstructionError("edge arrays must have equal length")
        if len(self.edge_src) and (
            self.edge_src.max(initial=0) >= self.num_vertices
            or self.edge_dst.max(initial=0) >= self.num_vertices
        ):
            raise GraphConstructionError("edge endpoint out of range")
        if len(self.edge_src) and (self.edge_src.min(initial=0) < 0 or self.edge_dst.min(initial=0) < 0):
            raise GraphConstructionError("edge endpoint out of range")
        self._build_partitions()

    def _build_partitions(self) -> None:
        n = self.num_vertices
        src, dst, lab = self.edge_src, self.edge_dst, self.edge_labels
        dst_vlabels = self.vertex_labels[dst] if len(dst) else dst
        src_vlabels = self.vertex_labels[src] if len(src) else src
        edge_label_values = np.unique(lab) if len(lab) else np.array([], dtype=np.int64)
        vertex_label_values = np.unique(self.vertex_labels)
        self._fwd_partitions = {}
        self._bwd_partitions = {}
        for el in edge_label_values:
            el_mask = lab == el
            for vl in vertex_label_values:
                fwd_mask = el_mask & (dst_vlabels == vl)
                if fwd_mask.any():
                    self._fwd_partitions[(int(el), int(vl))] = _build_csr(
                        n, src[fwd_mask], dst[fwd_mask]
                    )
                bwd_mask = el_mask & (src_vlabels == vl)
                if bwd_mask.any():
                    self._bwd_partitions[(int(el), int(vl))] = _build_csr(
                        n, dst[bwd_mask], src[bwd_mask]
                    )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return int(len(self.edge_src))

    @property
    def edge_label_values(self) -> np.ndarray:
        """Distinct edge labels present in the graph."""
        return np.unique(self.edge_labels) if self.num_edges else np.array([], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # adjacency access
    # ------------------------------------------------------------------ #
    def _partition_map(self, direction: Direction) -> Dict[Tuple[int, int], _CSR]:
        return self._fwd_partitions if direction is Direction.FORWARD else self._bwd_partitions

    @cached_property
    def _empty_csr(self) -> _CSR:
        """The one CSR served for every filter no edge matches."""
        return _CSR(np.zeros(self.num_vertices + 1, dtype=np.int64), _EMPTY)

    def _merged(
        self,
        direction: Direction,
        edge_label: Optional[int],
        neighbor_label: Optional[int],
    ) -> _CSR:
        key = (direction.value, edge_label, neighbor_label)
        cached = self._merged_cache.get(key)
        if cached is not None:
            return cached
        parts = [
            csr
            for (el, vl), csr in self._partition_map(direction).items()
            if (edge_label is ANY_LABEL or el == edge_label)
            and (neighbor_label is ANY_LABEL or vl == neighbor_label)
        ]
        merged = self._merge_partitions(parts)
        self._merged_cache[key] = merged
        return merged

    def _merge_partitions(self, parts) -> _CSR:
        if not parts:
            return self._empty_csr
        if len(parts) == 1:
            return parts[0]
        # One sort of every part's codes keeps each vertex's merged list
        # sorted, so intersections stay merge-based.
        return _CSR.from_codes(
            np.sort(np.concatenate([csr.codes for csr in parts])), self.num_vertices
        )

    def csr(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> _CSR:
        """The CSR partition backing :meth:`neighbors` for these filters.

        The vectorized executor slices ``indptr``/``indices`` directly to
        gather many adjacency lists in one NumPy operation; the graph's one
        empty CSR is returned when no edge matches the filters.
        """
        if edge_label is not ANY_LABEL and neighbor_label is not ANY_LABEL:
            csr = self._partition_map(direction).get((edge_label, neighbor_label))
            return self._empty_csr if csr is None else csr
        return self._merged(direction, edge_label, neighbor_label)

    def edge_codes(self, src: np.ndarray, dst: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """One code per ``(src, dst, label)`` triple of this graph's ids and
        edge labels: ``(src * num_vertices + dst) * label_count + label``."""
        stride = int(self.edge_labels.max(initial=0)) + 1
        return (src * self.num_vertices + dst) * stride + labels

    @cached_property
    def edge_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every edge's :meth:`edge_codes`, sorted, and the position in the
        edge arrays each came from.  Built on first use: a dynamic graph's
        edge scan finds its deleted base edges here."""
        codes = self.edge_codes(self.edge_src, self.edge_dst, self.edge_labels)
        order = np.argsort(codes)
        return codes[order], order

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def relabel(
        self, vertex_labels: Optional[np.ndarray] = None, edge_labels: Optional[np.ndarray] = None
    ) -> "Graph":
        """Return a copy of this graph with new vertex and/or edge labels."""
        return Graph(
            vertex_labels=self.vertex_labels if vertex_labels is None else vertex_labels,
            edge_src=self.edge_src,
            edge_dst=self.edge_dst,
            edge_labels=self.edge_labels if edge_labels is None else edge_labels,
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, vertex_labels={len(self.vertex_label_values)}, "
            f"edge_labels={len(self.edge_label_values)})"
        )
