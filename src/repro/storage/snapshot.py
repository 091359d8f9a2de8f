"""Immutable versioned views over a base graph plus a delta overlay.

A :class:`GraphSnapshot` is what queries actually execute against: it pins one
``(base Graph, DeltaStore, vertex labels, version)`` quadruple — all immutable
— and serves the read API of :class:`repro.graph.graph.Graph`.  Creating a
snapshot is O(1); in-flight queries and concurrent writers therefore never
block each other.

Every adjacency read goes through :meth:`GraphSnapshot.csr`: the per-vertex
reads (``neighbors`` / ``degree`` / ``has_edge``) are the ones
:class:`~repro.graph.graph.GraphReads` writes once for both classes.  The
CSR is merged **lazily per partition**: a reader only pays the merge for the
``(direction, edge label, neighbour label)`` partitions it touches, a
partition the delta never touches (:meth:`DeltaStore.touches_partition`) is
served as the base's own objects without copying, and merged views are
cached on the snapshot — the snapshot itself is immutable, so the cache is a
pure memo shared by every reader of the pinned version.  A merge is one
pass over sorted ``u * n + w`` codes: the base partition's, minus the
delta's deleted codes, plus its inserted codes; the CSR and its key set both
come from the merged codes.  This is what lets the batch engine run directly
on *dirty* snapshots instead of forcing a full CSR rebuild (compaction) onto
the query path.

Merge invariants (see :mod:`repro.storage.delta` for the writer-side
guarantees they rest on): every merged per-vertex run is
``(base − deletions) ∪ insertions`` with disjoint operands, stays sorted and
duplicate-free per partition, and wildcard reads subtract deletions within
their own partition, removing one entry per deleted edge.  Consequently the
merged CSR/adjacency-key arrays satisfy exactly the ordering contracts
(sorted per-vertex runs, globally sorted key arrays) the vectorized
operators' binary searches assume.

An edge scan (:meth:`GraphSnapshot.edges`) appends the inserted edges, in
the order they were written, to the base edges that were not deleted; the
deleted ones are found through the base's sorted edge index
(:attr:`Graph.edge_index`), built once per base on the first scan that needs
it.  The batch engine's full scan (:meth:`GraphSnapshot.scan_edges`) needs
neither: it reads the merged forward CSR of its version, which E/I builds
anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.graph import _CSR, _EMPTY, ANY_LABEL, Direction, Graph, GraphReads
from repro.storage.delta import DeltaStore, PartitionKey, Partitions, recode


class GraphSnapshot(GraphReads):
    """A consistent, immutable view of a :class:`DynamicGraph` at one version."""

    def __init__(
        self,
        base: Graph,
        delta: DeltaStore,
        vertex_labels: np.ndarray,
        version: int,
        name: Optional[str] = None,
    ) -> None:
        self.base = base
        self.delta = delta
        self.vertex_labels = vertex_labels
        self.version = version
        self.name = name if name is not None else base.name
        # Lazy caches (safe to race: idempotent pure computations).
        self._csr_cache: Dict[Tuple[str, Optional[int], Optional[int]], _CSR] = {}
        self._edge_arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._scan_cache: Dict[
            Tuple[Optional[int], Optional[int], Optional[int]], Tuple[np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return self.base.num_edges - self.delta.num_deleted + self.delta.num_inserted

    @property
    def is_clean(self) -> bool:
        """True when this view adds nothing over its base: no delta edges
        and no appended vertices — the base Graph *is* the state (the
        predicate compaction and checkpointing use to skip materializing)."""
        return self.delta.is_empty and len(self.vertex_labels) == self.base.num_vertices

    @property
    def edge_label_values(self) -> np.ndarray:
        if self.delta.is_empty:
            return self.base.edge_label_values
        if not self.delta.num_deleted:
            inserted = [el for el, _ in self.delta.adds[Direction.FORWARD]]
            return np.union1d(self.base.edge_label_values, np.array(inserted, dtype=np.int64))
        return np.unique(self.edge_labels) if self.num_edges else np.array([], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # adjacency access
    # ------------------------------------------------------------------ #
    def _partition_clean(
        self,
        direction: Direction,
        edge_label: Optional[int],
        neighbor_label: Optional[int],
    ) -> bool:
        """Whether the base's own columnar arrays can serve this partition
        unchanged: no new vertices and no delta entry matching the filters."""
        return self.num_vertices == self.base.num_vertices and not self.delta.touches_partition(
            direction, edge_label, neighbor_label
        )

    def csr(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> _CSR:
        if self._partition_clean(direction, edge_label, neighbor_label):
            return self.base.csr(direction, edge_label, neighbor_label)
        key = (direction.value, edge_label, neighbor_label)
        cached = self._csr_cache.get(key)
        if cached is not None:
            return cached
        merged = self._build_csr(direction, edge_label, neighbor_label)
        self._csr_cache[key] = merged
        return merged

    def _build_csr(
        self,
        direction: Direction,
        edge_label: Optional[int],
        neighbor_label: Optional[int],
    ) -> _CSR:
        """One merge of sorted ``u * n + w`` codes: the base partition's,
        minus the matching deletions, plus the matching insertions.

        Deletions remove one base occurrence each: wildcard-merged base runs
        keep one entry per edge, so a neighbour reached through two edge
        labels appears twice and deleting one edge must drop exactly one.
        """
        n = self.num_vertices
        codes = self.base.csr(direction, edge_label, neighbor_label).codes
        if n != self.base.num_vertices:
            anchors, neighbours = np.divmod(codes, self.base.num_vertices)
            codes = anchors * n + neighbours
        keys = self.delta.partitions(direction, edge_label, neighbor_label)
        dels = self._delta_codes(self.delta.dels[direction], keys)
        if len(dels):
            # Equal deletion codes hit consecutive base positions.
            occurrence = np.arange(len(dels)) - np.searchsorted(dels, dels)
            codes = np.delete(codes, np.searchsorted(codes, dels) + occurrence)
        adds = self._delta_codes(self.delta.adds[direction], keys)
        if len(adds):
            codes = np.insert(codes, np.searchsorted(codes, adds), adds)
        return _CSR.from_codes(codes, n)

    def _delta_codes(self, parts: Partitions, keys: List[PartitionKey]) -> np.ndarray:
        """The partitions' codes among ``keys`` as sorted ``u * n + w`` codes."""
        runs = [recode(parts[k], self.num_vertices) for k in keys if k in parts]
        if len(runs) <= 1:
            return runs[0] if runs else _EMPTY
        return np.sort(np.concatenate(runs))

    # ------------------------------------------------------------------ #
    # delta accounting (cost-model input)
    # ------------------------------------------------------------------ #
    @property
    def delta_ratio(self) -> float:
        """Overall overlay size relative to the base edge count (0 when the
        snapshot is clean)."""
        return self.delta.num_delta_edges / max(1, self.base.num_edges)

    def partition_delta_ratio(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> float:
        """Delta entries in the matching partitions relative to the base
        partition size.

        This is what the planner's batch cost constants price dirty-snapshot
        scans with: a partition the delta never touches costs exactly what it
        costs on a flat CSR, a heavily dirty partition pays for its lazy
        merge proportionally.
        """
        delta_edges = self.delta.partition_delta_edges(direction, edge_label, neighbor_label)
        if delta_edges == 0:
            return 0.0
        base_size = len(self.base.csr(direction, edge_label, neighbor_label).indices)
        return delta_edges / max(1, base_size)

    # ------------------------------------------------------------------ #
    # edge scans
    # ------------------------------------------------------------------ #
    def _materialized_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._edge_arrays
        if cached is not None:
            return cached
        base = self.base
        src, dst, lab = base.edge_src, base.edge_dst, base.edge_labels
        if self.delta.num_deleted:
            kept = ~self._base_deleted_mask()
            src, dst, lab = src[kept], dst[kept], lab[kept]
        if self.delta.num_inserted:
            inserted = self.delta.inserted_edges()
            src, dst, lab = (np.concatenate(pair) for pair in zip((src, dst, lab), inserted))
        arrays = (src, dst, lab)
        self._edge_arrays = arrays
        return arrays

    def _base_deleted_mask(self) -> np.ndarray:
        """Boolean mask over base edge positions that have been deleted:
        the deleted edges' codes, looked up in the base's sorted edge index
        (built once per base)."""
        base = self.base
        codes, order = base.edge_index
        deleted = base.edge_codes(*self.delta.deleted_edges())
        mask = np.zeros(base.num_edges, dtype=bool)
        mask[order[np.searchsorted(codes, deleted)]] = True
        return mask

    @property
    def edge_src(self) -> np.ndarray:
        return self._materialized_edges()[0]

    @property
    def edge_dst(self) -> np.ndarray:
        return self._materialized_edges()[1]

    @property
    def edge_labels(self) -> np.ndarray:
        return self._materialized_edges()[2]

    def edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.delta.is_empty:
            return self.base.edges(edge_label, src_label, dst_label)
        return super().edges(edge_label, src_label, dst_label)

    def scan_edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`Graph.scan_edges` of this version: the pairs of the forward
        partition :meth:`csr` serves, filtered by the source label.  The
        base's own arrays when the delta leaves that partition untouched."""
        if self._partition_clean(Direction.FORWARD, edge_label, dst_label):
            return self.base.scan_edges(edge_label, src_label, dst_label)
        return super().scan_edges(edge_label, src_label, dst_label)

    def count_edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> int:
        if edge_label is not ANY_LABEL and src_label is ANY_LABEL and dst_label is ANY_LABEL:
            # Graph.edges-style short-circuit on the snapshot path: an
            # edge-label-only count never needs the merged edge arrays —
            # the delete side names only base edges and the insert side is
            # disjoint from both, so the three counts compose exactly.
            def count(parts: Partitions) -> int:
                return sum(len(codes) for (el, _), codes in parts.items() if el == edge_label)

            forward = Direction.FORWARD
            return (
                self.base.count_edges(edge_label)
                - count(self.delta.dels[forward])
                + count(self.delta.adds[forward])
            )
        return super().count_edges(edge_label, src_label, dst_label)

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    def materialize(self, name: Optional[str] = None) -> Graph:
        """Flatten this view into a fresh immutable :class:`Graph` (the
        compaction primitive)."""
        src, dst, lab = self._materialized_edges()
        return Graph(
            vertex_labels=np.array(self.vertex_labels, dtype=np.int64),
            edge_src=np.array(src, dtype=np.int64),
            edge_dst=np.array(dst, dtype=np.int64),
            edge_labels=np.array(lab, dtype=np.int64),
            name=name if name is not None else self.name,
        )

    def __repr__(self) -> str:
        return (
            f"GraphSnapshot(name={self.name!r}, version={self.version}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, "
            f"delta=+{self.delta.num_inserted}/-{self.delta.num_deleted})"
        )


__all__ = ["GraphSnapshot"]
