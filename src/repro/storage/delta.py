"""Delta storage for the dynamic graph (the write side of the delta-CSR).

A :class:`DeltaStore` records the edges inserted into and deleted from an
immutable base :class:`~repro.graph.graph.Graph` since the last compaction.
Mirroring the base layout, inserted and deleted adjacency is kept **per
direction**, partitioned by ``(edge label, neighbour label)``: each
partition is one sorted, duplicate-free ``int64`` array of
``anchor << 32 | neighbour`` codes.  The codes sort like ``(anchor,
neighbour)`` pairs, and the partition filters of :meth:`Graph.csr` apply to
deltas exactly as they do to the base CSR.  The forward partitions double
as the edge-identity index: edge ``(s, d, l)`` is the code ``s << 32 | d``
of forward partition ``(l, label(d))``.

A write batch is one vectorised step.  The batch is packed into codes and
looked up by ``searchsorted``: in the base partition's sorted CSR codes
(which the snapshot's merges read too) and in the delta's arrays.
Each touched partition is then rewritten once: ``searchsorted`` finds the
batch's positions, one masked copy inserts the new codes and block copies
drop removed ones.  A write costs O(batch log delta) plus one copy of each
touched partition, never a Python loop or a set copy as long as the delta.

Delta stores are **immutable**: every write batch produces a *new* store
that shares every untouched partition array with its predecessor.  A
snapshot therefore pins consistent state simply by holding a ``(base,
delta)`` pair; writers never mutate anything a reader can see.

Invariants maintained by the mutators (the *delta-merge invariants* the
per-partition merges of :class:`~repro.storage.snapshot.GraphSnapshot`, and
so every reader, rely on):

* an edge appears on at most one of the insert and delete sides;
* the delete side only ever names *base* edges and the insert side never
  does (deleting an edge inserted after the last compaction removes it from
  the insert side; re-inserting a deleted base edge clears the deletion), so
  a merge is always ``(base − deletions) ∪ insertions`` with the two
  operands disjoint;
* partition arrays are sorted and duplicate-free, and a partition without
  codes is absent from its map, so merging a base run with its delta is a
  merge of two sorted runs and a partition key present means a partition
  touched;
* deletions are recorded within their own ``(edge label, neighbour label)``
  partition: the wildcard-merged base list keeps one entry per *edge* (a
  neighbour reached through two edge labels appears twice) and deleting one
  of those edges must drop exactly one entry;
* the insert side's arrival order is kept in a write log, one chunk per
  write linked to the older ones, so a write adds O(batch) to it;
  :meth:`DeltaStore.inserted_edges` keeps the logged edges still inserted,
  each at its latest write, so edge scans append inserts in the order they
  were written.  A removal that leaves most of the log dead rewrites it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.graph import ANY_LABEL, Direction, Graph
from repro.graph.intersect import member_sorted

Edge = Tuple[int, int, int]
PartitionKey = Tuple[int, int]
#: ``(edge label, neighbour label)`` -> sorted ``anchor << 32 | neighbour`` codes.
Partitions = Dict[PartitionKey, np.ndarray]
#: One partition of a batch (see :func:`_by_partition`): its key, the
#: positions of its edges in code order, and their codes.
Group = Tuple[PartitionKey, np.ndarray, np.ndarray]
#: The insert side's write log, newest write first: ``None``, or
#: ``((src, dst, labels, neighbour labels), older log)``.
Log = Optional[Tuple[Tuple[np.ndarray, ...], "Log"]]

_SHIFT = 32
_LOW = np.int64((1 << _SHIFT) - 1)
_EMPTY = np.array([], dtype=np.int64)
_EMPTY.setflags(write=False)


def partition_matches(
    key: PartitionKey, edge_label: Optional[int], neighbor_label: Optional[int]
) -> bool:
    el, nl = key
    return (edge_label is ANY_LABEL or el == edge_label) and (
        neighbor_label is ANY_LABEL or nl == neighbor_label
    )


def recode(codes: np.ndarray, num_vertices: int) -> np.ndarray:
    """``anchor << 32 | neighbour`` codes as the CSR's ``anchor * n +
    neighbour`` codes, in the same order."""
    return (codes >> _SHIFT) * num_vertices + (codes & _LOW)


def _by_partition(
    anchor: np.ndarray, neighbour: np.ndarray, labels: np.ndarray, neighbour_labels: np.ndarray
) -> Iterator[Group]:
    """For every partition the edges land in: its key, the positions of its
    edges in code order (equal codes in position order), and their codes."""
    codes = (anchor << _SHIFT) | neighbour
    for el, nl in set(zip(labels.tolist(), neighbour_labels.tolist())):
        at = np.flatnonzero((labels == el) & (neighbour_labels == nl))
        at = at[np.argsort(codes[at], kind="stable")]
        yield (el, nl), at, codes[at]


def _inserted(current: np.ndarray, pos: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``current`` with the sorted ``codes`` inserted before positions ``pos``."""
    slots = pos + np.arange(len(pos))
    kept = np.ones(len(current) + len(pos), dtype=bool)
    kept[slots] = False
    merged = np.empty(len(kept), dtype=np.int64)
    merged[slots] = codes
    merged[kept] = current
    return merged


def _removed(current: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``current`` without the entries at the sorted positions ``pos``, as
    block copies of the runs between them."""
    starts, ends = [0, *(pos + 1).tolist()], [*pos.tolist(), len(current)]
    return np.concatenate([current[a:b] for a, b in zip(starts, ends)])


def _live(log: Log, adds: Partitions) -> Tuple[np.ndarray, ...]:
    """The logged edges still on the insert side, each at its latest write,
    in write order, as ``(src, dst, labels, neighbour labels)``."""
    chunks = []
    while log is not None:
        chunk, log = log
        chunks.append(chunk)
    if not chunks:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    columns = [np.concatenate(column) for column in zip(*reversed(chunks))]
    alive = np.zeros(len(columns[0]), dtype=bool)
    for key, at, codes in _by_partition(*columns):
        latest = np.append(codes[1:] != codes[:-1], True)
        alive[at] = latest & member_sorted(adds.get(key, _EMPTY), codes)
    return tuple(column[alive] for column in columns)


class DeltaStore:
    """Immutable insert/delete overlay over a base graph's edge set."""

    __slots__ = ("adds", "dels", "log", "log_size", "num_inserted", "num_deleted", "_arrivals")

    def __init__(
        self,
        adds: Dict[Direction, Partitions],
        dels: Dict[Direction, Partitions],
        log: Log,
        log_size: int,
    ) -> None:
        self.adds = adds
        self.dels = dels
        self.log = log
        self.log_size = log_size
        self.num_inserted = sum(len(c) for c in adds[Direction.FORWARD].values())
        self.num_deleted = sum(len(c) for c in dels[Direction.FORWARD].values())
        self._arrivals: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @classmethod
    def empty(cls) -> "DeltaStore":
        return cls({d: {} for d in Direction}, {d: {} for d in Direction}, None, 0)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_delta_edges(self) -> int:
        """Total overlay size (drives the compaction threshold)."""
        return self.num_inserted + self.num_deleted

    @property
    def is_empty(self) -> bool:
        return self.num_inserted == 0 and self.num_deleted == 0

    def partitions(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> List[PartitionKey]:
        """The delta's partitions in ``direction`` matching the (possibly
        wildcard) filters."""
        keys = self.adds[direction].keys() | self.dels[direction].keys()
        return [k for k in keys if partition_matches(k, edge_label, neighbor_label)]

    def touches_partition(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> bool:
        """Whether any insert or delete lands in an adjacency partition
        matching the filters: a partition the delta never touches can be
        served directly from the base CSR."""
        return bool(self.partitions(direction, edge_label, neighbor_label))

    def partition_delta_edges(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> int:
        """Number of delta entries (inserted + deleted adjacency slots) in
        the partitions matching the filters — the numerator of the
        per-partition delta ratio the cost model prices dirty scans with."""
        adds, dels = self.adds[direction], self.dels[direction]
        return sum(
            len(adds.get(k, _EMPTY)) + len(dels.get(k, _EMPTY))
            for k in self.partitions(direction, edge_label, neighbor_label)
        )

    # ------------------------------------------------------------------ #
    # writes (return a new store; untouched partitions are shared)
    # ------------------------------------------------------------------ #
    def with_insertions(
        self,
        base: Graph,
        src: np.ndarray,
        dst: np.ndarray,
        labels: np.ndarray,
        vertex_labels: np.ndarray,
    ) -> Tuple["DeltaStore", np.ndarray]:
        """A store with the batch's absent edges inserted, and the mask of
        those edges over the batch.

        The batch must be duplicate-free and ``vertex_labels`` must cover its
        vertices.  Re-inserting a deleted base edge clears the deletion.
        """
        batch = (src, dst, labels)
        groups = list(_by_partition(src, dst, labels, vertex_labels[dst]))
        inserted, deleted, in_base = self._locate(base, batch, groups)
        fresh = ~inserted & ~in_base
        store = self._edit(batch, vertex_labels, groups, (fresh, False), (deleted, True))
        return store, fresh | deleted

    def with_deletions(
        self,
        base: Graph,
        src: np.ndarray,
        dst: np.ndarray,
        labels: np.ndarray,
        vertex_labels: np.ndarray,
    ) -> Tuple["DeltaStore", np.ndarray]:
        """A store with the batch's present edges deleted, and the mask of
        those edges over the batch (the batch must be duplicate-free)."""
        applied = np.zeros(len(src), dtype=bool)
        known = np.flatnonzero((src < len(vertex_labels)) & (dst < len(vertex_labels)))
        batch = (src[known], dst[known], labels[known])
        groups = list(_by_partition(*batch, vertex_labels[batch[1]]))
        inserted, deleted, in_base = self._locate(base, batch, groups)
        killed = in_base & ~deleted
        store = self._edit(batch, vertex_labels, groups, (inserted, True), (killed, False))
        applied[known] = inserted | killed
        return store, applied

    def _locate(
        self, base: Graph, batch: Tuple[np.ndarray, ...], groups: List[Group]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masks over the batch: on the insert side, on the delete side, and
        in the base graph (deleted or not).  ``groups`` is the batch's
        forward :func:`_by_partition`."""
        src, dst, _ = batch
        inserted = np.zeros(len(src), dtype=bool)
        deleted = np.zeros(len(src), dtype=bool)
        in_base = np.zeros(len(src), dtype=bool)
        nb = base.num_vertices
        base_parts = base._partition_map(Direction.FORWARD)
        adds, dels = self.adds[Direction.FORWARD], self.dels[Direction.FORWARD]
        for key, at, codes in groups:
            inserted[at] = member_sorted(adds.get(key, _EMPTY), codes)
            deleted[at] = member_sorted(dels.get(key, _EMPTY), codes)
            part = base_parts.get(key)
            if part is not None:
                s, d = src[at], dst[at]
                old = (s < nb) & (d < nb)
                in_base[at] = old & member_sorted(part.codes, np.where(old, s * nb + d, 0))
        return inserted, deleted, in_base

    def _edit(
        self,
        batch: Tuple[np.ndarray, ...],
        vertex_labels: np.ndarray,
        groups: List[Group],
        inserts: Tuple[np.ndarray, bool],
        deletes: Tuple[np.ndarray, bool],
    ) -> "DeltaStore":
        """A store with the batch's masked edges changed in both directions.

        ``inserts`` and ``deletes`` are ``(mask, remove)`` pairs for the
        insert and the delete side: the mask's edges are added to that side,
        or with ``remove`` taken from it.  Removed edges must be on that
        side; added ones on neither.  ``groups`` is the batch's forward
        :func:`_by_partition`.
        """
        src, dst, labels = batch
        sides = [(self.adds, *inserts), (self.dels, *deletes)]
        if not any(mask.any() for _, mask, _ in sides):
            return self
        edited = [{} if mask.any() else parts for parts, mask, _ in sides]
        backward = _by_partition(dst, src, labels, vertex_labels[src])
        for direction, grouped in ((Direction.FORWARD, groups), (Direction.BACKWARD, backward)):
            for out, (parts, mask, _) in zip(edited, sides):
                if mask.any():
                    out[direction] = dict(parts[direction])
            for key, at, codes in grouped:
                for out, (_, mask, remove) in zip(edited, sides):
                    picked = codes[mask[at]]
                    if not len(picked):
                        continue
                    current = out[direction].get(key, _EMPTY)
                    pos = current.searchsorted(picked)
                    merged = _removed(current, pos) if remove else _inserted(current, pos, picked)
                    if len(merged):
                        out[direction][key] = merged
                    else:
                        del out[direction][key]
        (insert_mask, insert_remove), adds = inserts, edited[0][Direction.FORWARD]
        log, log_size = self.log, self.log_size
        if insert_mask.any() and not insert_remove:
            chunk = (src[insert_mask], dst[insert_mask], labels[insert_mask])
            log, log_size = ((*chunk, vertex_labels[chunk[1]]), log), log_size + len(chunk[0])
        elif insert_mask.any() and log_size > 2 * sum(map(len, adds.values())):
            # Most logged writes are dead: log the live ones afresh.
            live = _live(log, adds)
            log, log_size = (live, None), len(live[0])
        return DeltaStore(edited[0], edited[1], log, log_size)

    # ------------------------------------------------------------------ #
    # edge lists
    # ------------------------------------------------------------------ #
    def inserted_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The inserted edges as ``(src, dst, labels)`` arrays, in the order
        they were written (computed once per store)."""
        if self._arrivals is None:
            self._arrivals = _live(self.log, self.adds[Direction.FORWARD])[:3]
        return self._arrivals

    def deleted_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The deleted base edges as ``(src, dst, labels)`` arrays."""
        parts = self.dels[Direction.FORWARD]
        if not parts:
            return _EMPTY, _EMPTY, _EMPTY
        codes = np.concatenate(list(parts.values()))
        labels = np.repeat(
            np.array([el for el, _ in parts], dtype=np.int64), [len(c) for c in parts.values()]
        )
        return codes >> _SHIFT, codes & _LOW, labels

    def __repr__(self) -> str:
        return f"DeltaStore(inserted={self.num_inserted}, deleted={self.num_deleted})"


__all__ = ["DeltaStore", "Edge", "partition_matches", "recode"]
