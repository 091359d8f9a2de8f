"""Delta storage for the dynamic graph (the write side of the delta-CSR).

A :class:`DeltaStore` records the edges inserted into and deleted from an
immutable base :class:`~repro.graph.graph.Graph` since the last compaction.
Mirroring the base layout, inserted and deleted adjacency is kept **per
direction**, partitioned by ``(edge label, neighbour label)``, as per-vertex
sorted ``int64`` arrays — so merging a base adjacency list with its delta is a
merge of two sorted runs, and the partition filters of
:meth:`Graph.neighbors` apply to deltas exactly as they do to the base CSR.

Delta stores are **immutable**: every update batch produces a *new* store
that structurally shares all untouched per-vertex arrays with its
predecessor.  A snapshot therefore pins consistent state simply by holding a
``(base, delta)`` pair; writers never mutate anything a reader can see.

Invariants maintained by the mutators (the *delta-merge invariants* every
reader — :class:`~repro.storage.snapshot.GraphSnapshot` merges, the
continuous engine's delta terms, and the vectorized executor's merged-CSR
views — relies on):

* an edge appears in at most one of ``insert_*`` / ``deleted_keys``;
* ``deleted_keys`` only ever names *base* edges (deleting an edge that was
  inserted after the last compaction removes it from the insert side), so a
  merge is always ``(base − deletions) ∪ insertions`` with the two operand
  sets disjoint;
* per-vertex arrays are sorted and duplicate-free, so merging a base
  adjacency run with its delta is a merge of two sorted runs and binary
  search stays valid on the result;
* deletions are recorded within their own ``(edge label, neighbour label)``
  partition: the wildcard-merged base list keeps one entry per *edge* (a
  neighbour reached through two edge labels appears twice) and deleting one
  of those edges must drop exactly one entry;
* ``touched_fwd`` / ``touched_bwd`` over-approximate the vertices with any
  delta adjacency per direction — a vertex outside them may always be read
  straight from the base CSR, and partitions no delta touches
  (:meth:`DeltaStore.touches_partition`) may be served as the base's own
  arrays without copying.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import ANY_LABEL, Direction

Edge = Tuple[int, int, int]
# (edge_label, neighbour_label) -> vertex -> sorted neighbour ids.
PartitionMap = Dict[Tuple[int, int], Dict[int, np.ndarray]]

_EMPTY = np.array([], dtype=np.int64)
_EMPTY.setflags(write=False)


def _insert_sorted(existing: Optional[np.ndarray], values: List[int]) -> np.ndarray:
    """A new sorted array extending ``existing`` with ``values``."""
    if existing is None or len(existing) == 0:
        merged = np.array(sorted(set(values)), dtype=np.int64)
    else:
        merged = np.unique(np.concatenate([existing, np.asarray(values, dtype=np.int64)]))
    merged.setflags(write=False)
    return merged


def _remove_sorted(existing: np.ndarray, values: List[int]) -> np.ndarray:
    drop = np.asarray(values, dtype=np.int64)
    kept = existing[~np.isin(existing, drop)]
    kept.setflags(write=False)
    return kept


class DeltaStore:
    """Immutable insert/delete overlay over a base graph's edge set."""

    __slots__ = (
        "insert_src",
        "insert_dst",
        "insert_labels",
        "insert_keys",
        "deleted_keys",
        "fwd_add",
        "bwd_add",
        "fwd_del",
        "bwd_del",
        "touched_fwd",
        "touched_bwd",
        "_partition_sizes",
    )

    def __init__(
        self,
        insert_src: np.ndarray,
        insert_dst: np.ndarray,
        insert_labels: np.ndarray,
        insert_keys: FrozenSet[Edge],
        deleted_keys: FrozenSet[Edge],
        fwd_add: PartitionMap,
        bwd_add: PartitionMap,
        fwd_del: PartitionMap,
        bwd_del: PartitionMap,
        touched_fwd: Optional[FrozenSet[int]] = None,
        touched_bwd: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.insert_src = insert_src
        self.insert_dst = insert_dst
        self.insert_labels = insert_labels
        self.insert_keys = insert_keys
        self.deleted_keys = deleted_keys
        self.fwd_add = fwd_add
        self.bwd_add = bwd_add
        self.fwd_del = fwd_del
        self.bwd_del = bwd_del
        # Vertices with *any* delta adjacency per direction; the snapshot's
        # hot path consults these sets to fall through to the base CSR.  The
        # mutators pass them incrementally (old set union the batch's
        # anchors, O(batch) per write); a conservative over-approximation is
        # safe — an untouched vertex in the set merely takes the slow merge
        # path, which still returns the correct (base-only) adjacency.
        self.touched_fwd: FrozenSet[int] = (
            touched_fwd
            if touched_fwd is not None
            else frozenset(
                v for per_vertex in (*fwd_add.values(), *fwd_del.values()) for v in per_vertex
            )
        )
        self.touched_bwd: FrozenSet[int] = (
            touched_bwd
            if touched_bwd is not None
            else frozenset(
                v for per_vertex in (*bwd_add.values(), *bwd_del.values()) for v in per_vertex
            )
        )
        # Per direction, the delta entries of every partition: counted on
        # first use by ``partition_delta_edges`` (the store never changes).
        self._partition_sizes: Dict[Direction, Dict[Tuple[int, int], int]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "DeltaStore":
        return cls(
            insert_src=_EMPTY,
            insert_dst=_EMPTY,
            insert_labels=_EMPTY,
            insert_keys=frozenset(),
            deleted_keys=frozenset(),
            fwd_add={},
            bwd_add={},
            fwd_del={},
            bwd_del={},
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_inserted(self) -> int:
        return int(len(self.insert_src))

    @property
    def num_deleted(self) -> int:
        return len(self.deleted_keys)

    @property
    def num_delta_edges(self) -> int:
        """Total overlay size (drives the compaction threshold)."""
        return self.num_inserted + self.num_deleted

    @property
    def is_empty(self) -> bool:
        return self.num_inserted == 0 and self.num_deleted == 0

    def touched(self, vertex: int, direction: Direction) -> bool:
        sets = self.touched_fwd if direction is Direction.FORWARD else self.touched_bwd
        return vertex in sets

    @staticmethod
    def _partition_matches(
        key: Tuple[int, int], edge_label: Optional[int], neighbor_label: Optional[int]
    ) -> bool:
        el, nl = key
        return (edge_label is ANY_LABEL or el == edge_label) and (
            neighbor_label is ANY_LABEL or nl == neighbor_label
        )

    def touches_partition(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> bool:
        """Whether any insert or delete lands in an adjacency partition
        matching the (possibly wildcard) filters.

        A partition the delta never touches can be served directly from the
        base CSR — the snapshot's columnar accessors use this to stay lazy
        per partition instead of per snapshot.
        """
        for partitions in (self._adds(direction), self._dels(direction)):
            for key in partitions:
                if self._partition_matches(key, edge_label, neighbor_label):
                    return True
        return False

    def partition_delta_edges(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> int:
        """Number of delta entries (inserted + deleted adjacency slots) in
        the partitions matching the filters — the numerator of the
        per-partition delta ratio the cost model prices dirty scans with."""
        sizes = self._partition_sizes.get(direction)
        if sizes is None:
            sizes = {}
            for partitions in (self._adds(direction), self._dels(direction)):
                for key, per_vertex in partitions.items():
                    sizes[key] = sizes.get(key, 0) + sum(len(run) for run in per_vertex.values())
            self._partition_sizes[direction] = sizes
        return sum(
            size
            for key, size in sizes.items()
            if self._partition_matches(key, edge_label, neighbor_label)
        )

    # ------------------------------------------------------------------ #
    # mutators (return a new store; structural sharing elsewhere)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _partition_with(
        partitions: PartitionMap,
        updates: Dict[Tuple[int, int], Dict[int, List[int]]],
        remove: bool,
    ) -> PartitionMap:
        """Copy-on-write application of per-partition per-vertex changes."""
        if not updates:
            return partitions
        out = dict(partitions)
        for part_key, per_vertex in updates.items():
            current = dict(out.get(part_key, {}))
            for vertex, values in per_vertex.items():
                if remove:
                    kept = _remove_sorted(current.get(vertex, _EMPTY), values)
                    if len(kept):
                        current[vertex] = kept
                    else:
                        current.pop(vertex, None)
                else:
                    current[vertex] = _insert_sorted(current.get(vertex), values)
            if current:
                out[part_key] = current
            else:
                out.pop(part_key, None)
        return out

    @staticmethod
    def _group(
        edges: Sequence[Edge], vertex_labels: np.ndarray, forward: bool
    ) -> Dict[Tuple[int, int], Dict[int, List[int]]]:
        """Group edge triples into ``(edge label, neighbour label)`` partitions
        of per-vertex neighbour lists, forward or backward."""
        grouped: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
        for src, dst, label in edges:
            anchor, neighbor = (src, dst) if forward else (dst, src)
            part_key = (label, int(vertex_labels[neighbor]))
            grouped.setdefault(part_key, {}).setdefault(anchor, []).append(neighbor)
        return grouped

    def with_insertions(
        self, edges: Sequence[Edge], vertex_labels: np.ndarray
    ) -> "DeltaStore":
        """A new store with ``edges`` inserted.

        ``edges`` must be pre-filtered: not present in the base graph, in this
        delta, or in each other (the :class:`DynamicGraph` write path
        guarantees it), except that re-inserting a *deleted base edge* is
        allowed and simply clears the deletion.
        """
        resurrected = [e for e in edges if e in self.deleted_keys]
        fresh = [e for e in edges if e not in self.deleted_keys]
        store = self
        if resurrected:
            store = store._undelete(resurrected, vertex_labels)
        if not fresh:
            return store
        src = np.concatenate([store.insert_src, np.array([e[0] for e in fresh], dtype=np.int64)])
        dst = np.concatenate([store.insert_dst, np.array([e[1] for e in fresh], dtype=np.int64)])
        lab = np.concatenate([store.insert_labels, np.array([e[2] for e in fresh], dtype=np.int64)])
        return DeltaStore(
            insert_src=src,
            insert_dst=dst,
            insert_labels=lab,
            insert_keys=store.insert_keys | frozenset(fresh),
            deleted_keys=store.deleted_keys,
            fwd_add=self._partition_with(
                store.fwd_add, self._group(fresh, vertex_labels, forward=True), remove=False
            ),
            bwd_add=self._partition_with(
                store.bwd_add, self._group(fresh, vertex_labels, forward=False), remove=False
            ),
            fwd_del=store.fwd_del,
            bwd_del=store.bwd_del,
            touched_fwd=store.touched_fwd | frozenset(e[0] for e in fresh),
            touched_bwd=store.touched_bwd | frozenset(e[1] for e in fresh),
        )

    def _undelete(self, edges: Sequence[Edge], vertex_labels: np.ndarray) -> "DeltaStore":
        return DeltaStore(
            insert_src=self.insert_src,
            insert_dst=self.insert_dst,
            insert_labels=self.insert_labels,
            insert_keys=self.insert_keys,
            deleted_keys=self.deleted_keys - frozenset(edges),
            fwd_add=self.fwd_add,
            bwd_add=self.bwd_add,
            fwd_del=self._partition_with(
                self.fwd_del, self._group(edges, vertex_labels, forward=True), remove=True
            ),
            bwd_del=self._partition_with(
                self.bwd_del, self._group(edges, vertex_labels, forward=False), remove=True
            ),
            touched_fwd=self.touched_fwd,
            touched_bwd=self.touched_bwd,
        )

    def with_deletions(
        self,
        base_edges: Sequence[Edge],
        delta_edges: Sequence[Edge],
        vertex_labels: np.ndarray,
    ) -> "DeltaStore":
        """A new store with ``base_edges`` (present in the base graph) marked
        deleted and ``delta_edges`` (present in this delta's insert side)
        removed from the insert side."""
        store = self
        if delta_edges:
            drop = frozenset(delta_edges)
            keep = ~np.array(
                [
                    (int(s), int(d), int(l)) in drop
                    for s, d, l in zip(store.insert_src, store.insert_dst, store.insert_labels)
                ],
                dtype=bool,
            )
            store = DeltaStore(
                insert_src=store.insert_src[keep],
                insert_dst=store.insert_dst[keep],
                insert_labels=store.insert_labels[keep],
                insert_keys=store.insert_keys - drop,
                deleted_keys=store.deleted_keys,
                fwd_add=self._partition_with(
                    store.fwd_add,
                    self._group(delta_edges, vertex_labels, forward=True),
                    remove=True,
                ),
                bwd_add=self._partition_with(
                    store.bwd_add,
                    self._group(delta_edges, vertex_labels, forward=False),
                    remove=True,
                ),
                fwd_del=store.fwd_del,
                bwd_del=store.bwd_del,
                # Deleted-from-delta anchors were already touched when the
                # edges were inserted; keeping them is a safe over-approx.
                touched_fwd=store.touched_fwd,
                touched_bwd=store.touched_bwd,
            )
        if not base_edges:
            return store
        return DeltaStore(
            insert_src=store.insert_src,
            insert_dst=store.insert_dst,
            insert_labels=store.insert_labels,
            insert_keys=store.insert_keys,
            deleted_keys=store.deleted_keys | frozenset(base_edges),
            fwd_add=store.fwd_add,
            bwd_add=store.bwd_add,
            fwd_del=self._partition_with(
                store.fwd_del,
                self._group(base_edges, vertex_labels, forward=True),
                remove=False,
            ),
            bwd_del=self._partition_with(
                store.bwd_del,
                self._group(base_edges, vertex_labels, forward=False),
                remove=False,
            ),
            touched_fwd=store.touched_fwd | frozenset(e[0] for e in base_edges),
            touched_bwd=store.touched_bwd | frozenset(e[1] for e in base_edges),
        )

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @staticmethod
    def _collect(
        partitions: PartitionMap,
        vertex: int,
        edge_label: Optional[int],
        neighbor_label: Optional[int],
    ) -> np.ndarray:
        """Sorted neighbours of ``vertex`` across partitions matching the
        (possibly wildcard) filters."""
        if edge_label is not ANY_LABEL and neighbor_label is not ANY_LABEL:
            per_vertex = partitions.get((edge_label, neighbor_label))
            if per_vertex is None:
                return _EMPTY
            return per_vertex.get(vertex, _EMPTY)
        runs = [
            per_vertex[vertex]
            for (el, nl), per_vertex in partitions.items()
            if (edge_label is ANY_LABEL or el == edge_label)
            and (neighbor_label is ANY_LABEL or nl == neighbor_label)
            and vertex in per_vertex
        ]
        if not runs:
            return _EMPTY
        if len(runs) == 1:
            return runs[0]
        # Keep one entry per edge across partitions (a neighbour reached
        # through two edge labels appears twice), matching the base graph's
        # merged-partition semantics and GraphSnapshot._neighbors_wildcard.
        merged = np.sort(np.concatenate(runs))
        merged.setflags(write=False)
        return merged

    def _adds(self, direction: Direction) -> PartitionMap:
        return self.fwd_add if direction is Direction.FORWARD else self.bwd_add

    def _dels(self, direction: Direction) -> PartitionMap:
        return self.fwd_del if direction is Direction.FORWARD else self.bwd_del

    def inserted_neighbors(
        self,
        vertex: int,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> np.ndarray:
        return self._collect(self._adds(direction), vertex, edge_label, neighbor_label)

    def deleted_neighbors(
        self,
        vertex: int,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> np.ndarray:
        return self._collect(self._dels(direction), vertex, edge_label, neighbor_label)

    def touched_vertices(self, direction: Direction) -> FrozenSet[int]:
        return self.touched_fwd if direction is Direction.FORWARD else self.touched_bwd

    def __repr__(self) -> str:
        return (
            f"DeltaStore(inserted={self.num_inserted}, deleted={self.num_deleted}, "
            f"touched_fwd={len(self.touched_fwd)}, touched_bwd={len(self.touched_bwd)})"
        )


__all__ = ["DeltaStore", "Edge"]
