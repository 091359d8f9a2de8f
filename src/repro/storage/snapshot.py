"""Immutable versioned views over a base graph plus a delta overlay.

A :class:`GraphSnapshot` is what queries actually execute against: it pins one
``(base Graph, DeltaStore, vertex labels, version)`` quadruple — all immutable
— and serves the *entire* read API of :class:`repro.graph.graph.Graph`
(``neighbors`` / ``csr`` / ``adjacency_keys`` / ``edges`` / ``degree`` /
``has_edge`` / …) by merging base and delta adjacency on the fly.  Creating a
snapshot is O(1); in-flight queries, the continuous engine's old/new delta
terms, and concurrent writers therefore never block each other.

Reads fall through to the base CSR untouched-vertex-wise: the per-direction
``touched`` sets of the delta make the common case (a vertex with no pending
updates) a single set lookup plus the base's own fast path.

The columnar structures the vectorized executor needs (:meth:`csr` and the
key set it carries, :meth:`adjacency_keys`) are merged **lazily per
partition**: a query plan only pays the merge for the ``(direction, edge
label, neighbour label)`` partitions its operators actually touch, a
partition the delta never touches (:meth:`DeltaStore.touches_partition`) is
served as the base's own objects without copying, and merged views are
cached copy-on-write on the snapshot —
the snapshot itself is immutable, so the cache is a pure memo shared by every
reader of the pinned version, never mutated state.  This is what lets the
batch engine run directly on *dirty* snapshots instead of forcing a full CSR
rebuild (compaction) onto the query path.

Merge invariants (see :mod:`repro.storage.delta` for the writer-side
guarantees they rest on): every merged per-vertex run is
``(base − deletions) ∪ insertions`` with disjoint operands, stays sorted and
duplicate-free per partition, and wildcard reads subtract deletions within
their own partition before concatenating partitions, keeping one entry per
edge.  Consequently the merged CSR/adjacency-key arrays satisfy exactly the
ordering contracts (sorted per-vertex runs, globally sorted key arrays) the
vectorized operators' binary searches assume.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.graph.graph import ANY_LABEL, Direction, Graph, _CSR
from repro.graph.intersect import KeySet
from repro.storage.delta import DeltaStore

_EMPTY = np.array([], dtype=np.int64)
_EMPTY.setflags(write=False)


def _without(sorted_values: np.ndarray, removed: np.ndarray) -> np.ndarray:
    if len(removed) == 0 or len(sorted_values) == 0:
        return sorted_values
    return sorted_values[~np.isin(sorted_values, removed)]


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    return np.sort(np.concatenate([a, b]))


class GraphSnapshot:
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

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return int(len(self.vertex_labels))

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
        if not self.delta.deleted_keys:
            values = [self.base.edge_label_values]
            if self.delta.num_inserted:
                values.append(self.delta.insert_labels)
            return np.unique(np.concatenate(values)) if values else self.base.edge_label_values
        return np.unique(self.edge_labels) if self.num_edges else np.array([], dtype=np.int64)

    @property
    def vertex_label_values(self) -> np.ndarray:
        return np.unique(self.vertex_labels)

    def vertex_label(self, vertex: int) -> int:
        return int(self.vertex_labels[vertex])

    def vertices_with_label(self, label: Optional[int]) -> np.ndarray:
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
        base = self.base
        in_base = vertex < base.num_vertices
        if not self.delta.touched(vertex, direction):
            return base.neighbors(vertex, direction, edge_label, neighbor_label) if in_base else _EMPTY
        if edge_label is not ANY_LABEL and neighbor_label is not ANY_LABEL:
            base_run = (
                base.neighbors(vertex, direction, edge_label, neighbor_label) if in_base else _EMPTY
            )
            base_run = _without(
                base_run,
                self.delta.deleted_neighbors(vertex, direction, edge_label, neighbor_label),
            )
            return _merge_sorted(
                base_run,
                self.delta.inserted_neighbors(vertex, direction, edge_label, neighbor_label),
            )
        return self._neighbors_wildcard(vertex, direction, edge_label, neighbor_label)

    def _neighbors_wildcard(
        self,
        vertex: int,
        direction: Direction,
        edge_label: Optional[int],
        neighbor_label: Optional[int],
    ) -> np.ndarray:
        """Per-partition merge for wildcard filters.

        Deletions must be subtracted within their own ``(edge label,
        neighbour label)`` partition: the merged base list keeps one entry per
        *edge* (a neighbour reached through two edge labels appears twice),
        and deleting one of those edges must drop exactly one entry.
        """
        base_map = self.base._partition_map(direction) if vertex < self.base.num_vertices else {}
        adds = self.delta._adds(direction)
        dels = self.delta._dels(direction)

        def matches(key: Tuple[int, int]) -> bool:
            el, nl = key
            return (edge_label is ANY_LABEL or el == edge_label) and (
                neighbor_label is ANY_LABEL or nl == neighbor_label
            )

        runs = []
        keys = {k for k in base_map if matches(k)} | {k for k in adds if matches(k)}
        for key in keys:
            base_part = base_map.get(key)
            run = base_part.neighbors(vertex) if base_part is not None else _EMPTY
            del_part = dels.get(key)
            if del_part is not None and len(run):
                removed = del_part.get(vertex)
                if removed is not None:
                    run = _without(run, removed)
            add_part = adds.get(key)
            if add_part is not None:
                inserted = add_part.get(vertex)
                if inserted is not None:
                    run = np.concatenate([run, inserted]) if len(run) else inserted
            if len(run):
                runs.append(run)
        if not runs:
            return _EMPTY
        if len(runs) == 1:
            return np.sort(runs[0])
        return np.sort(np.concatenate(runs))

    def degree(
        self,
        vertex: int,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> int:
        if not self.delta.touched(vertex, direction):
            if vertex >= self.base.num_vertices:
                return 0
            return self.base.degree(vertex, direction, edge_label, neighbor_label)
        return int(len(self.neighbors(vertex, direction, edge_label, neighbor_label)))

    def degree_array(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> np.ndarray:
        return np.diff(self.csr(direction, edge_label, neighbor_label).indptr)

    def has_edge(
        self, src: int, dst: int, edge_label: Optional[int] = ANY_LABEL
    ) -> bool:
        if src >= self.num_vertices or dst >= self.num_vertices:
            return False
        nbrs = self.neighbors(src, Direction.FORWARD, edge_label, ANY_LABEL)
        pos = np.searchsorted(nbrs, dst)
        return bool(pos < len(nbrs) and nbrs[pos] == dst)

    # ------------------------------------------------------------------ #
    # columnar access (vectorized executor)
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
        """Merge the base partition CSR with the delta, keeping untouched
        base segments as bulk copies.

        The merge is fully vectorized and restricted to the vertices the
        delta touches *within the matching partitions* — vertices touched
        only through other partitions keep their base runs verbatim.  For
        the touched vertices, base/delta adjacency is encoded as
        ``vertex * n + neighbour`` keys: deletions are removed one occurrence
        per deleted edge (wildcard-merged base runs keep one entry per edge,
        so a neighbour reached through two edge labels appears twice and
        deleting one edge must drop exactly one), insertions are appended,
        and one ``np.sort`` restores the (vertex, neighbour) order the CSR
        contract requires.
        """
        base_csr = self.base.csr(direction, edge_label, neighbor_label)
        n = self.num_vertices
        nb = self.base.num_vertices
        base_deg = np.diff(base_csr.indptr)
        matches = self.delta._partition_matches
        add_parts = [
            per_vertex
            for key, per_vertex in self.delta._adds(direction).items()
            if matches(key, edge_label, neighbor_label)
        ]
        del_parts = [
            per_vertex
            for key, per_vertex in self.delta._dels(direction).items()
            if matches(key, edge_label, neighbor_label)
        ]
        touched = set()
        for per_vertex in (*add_parts, *del_parts):
            touched.update(per_vertex)
        if not touched:
            if n == nb:
                return base_csr
            indptr = np.concatenate(
                [base_csr.indptr, np.full(n - nb, base_csr.indptr[-1], dtype=np.int64)]
            )
            return _CSR(indptr, base_csr.indices)
        touched_arr = np.fromiter(sorted(touched), dtype=np.int64, count=len(touched))
        stride = np.int64(n)

        # Base adjacency of the touched vertices, as sorted encoded keys
        # (touched ids ascending, per-vertex runs sorted => globally sorted).
        t_in_base = touched_arr[touched_arr < nb]
        t_counts = base_deg[t_in_base]
        total = int(t_counts.sum())
        if total:
            ends = np.cumsum(t_counts)
            positions = np.repeat(base_csr.indptr[t_in_base], t_counts) + (
                np.arange(total, dtype=np.int64) - np.repeat(ends - t_counts, t_counts)
            )
            base_keys = np.repeat(t_in_base, t_counts) * stride + base_csr.indices[positions]
        else:
            base_keys = _EMPTY

        del_runs = [
            v * stride + arr for per_vertex in del_parts for v, arr in per_vertex.items()
        ]
        if del_runs and len(base_keys):
            del_keys = np.sort(np.concatenate(del_runs))
            # Remove exactly one base occurrence per deleted edge: duplicate
            # delete keys (same neighbour through several edge labels) hit
            # consecutive positions of the equal-key run in base_keys.
            boundary = np.empty(len(del_keys), dtype=bool)
            boundary[0] = True
            boundary[1:] = del_keys[1:] != del_keys[:-1]
            first = np.flatnonzero(boundary)
            occurrence = np.arange(len(del_keys)) - first[np.cumsum(boundary) - 1]
            remove = np.searchsorted(base_keys, del_keys) + occurrence
            keep_mask = np.ones(len(base_keys), dtype=bool)
            keep_mask[remove] = False
            base_keys = base_keys[keep_mask]

        add_runs = [
            v * stride + arr for per_vertex in add_parts for v, arr in per_vertex.items()
        ]
        merged_keys = np.concatenate([base_keys, *add_runs]) if add_runs else base_keys
        merged_keys = np.sort(merged_keys)
        touched_vertices = merged_keys // stride
        touched_values = merged_keys % stride

        counts = np.zeros(n, dtype=np.int64)
        counts[:nb] = base_deg
        counts[touched_arr] = np.bincount(touched_vertices, minlength=n)[touched_arr]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        # Untouched base segments, bulk-copied.
        keep = np.ones(nb, dtype=bool)
        keep[t_in_base] = False
        kept_positions = np.repeat(keep, base_deg)
        kept_vertices = np.repeat(np.arange(nb, dtype=np.int64), base_deg)[kept_positions]
        kept_values = base_csr.indices[kept_positions]
        vertices = np.concatenate([kept_vertices, touched_vertices])
        values = np.concatenate([kept_values, touched_values])
        # Vertex sets of the two pieces are disjoint and each per-vertex run is
        # already sorted, so a stable sort on the vertex column suffices.
        order = np.argsort(vertices, kind="stable")
        return _CSR(indptr, values[order])

    def adjacency_keys(
        self,
        direction: Direction,
        edge_label: Optional[int] = ANY_LABEL,
        neighbor_label: Optional[int] = ANY_LABEL,
    ) -> KeySet:
        """The key set of :meth:`csr`'s partition, which carries it: a clean
        partition's is the base's object, a touched one's is built once per
        snapshot with the merged CSR."""
        return self.csr(direction, edge_label, neighbor_label).keys

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
        if self.delta.deleted_keys:
            kept = ~self._base_deleted_mask()
            src = base.edge_src[kept]
            dst = base.edge_dst[kept]
            lab = base.edge_labels[kept]
        else:
            src, dst, lab = base.edge_src, base.edge_dst, base.edge_labels
        if self.delta.num_inserted:
            src = np.concatenate([src, self.delta.insert_src])
            dst = np.concatenate([dst, self.delta.insert_dst])
            lab = np.concatenate([lab, self.delta.insert_labels])
        arrays = (src, dst, lab)
        self._edge_arrays = arrays
        return arrays

    def _base_deleted_mask(self) -> np.ndarray:
        """Boolean mask over base edge positions that have been deleted."""
        base = self.base
        deleted = self.delta.deleted_keys
        max_label = int(base.edge_labels.max(initial=0)) + 1
        stride = np.int64(max_label)
        n = np.int64(base.num_vertices)
        codes = (base.edge_src * n + base.edge_dst) * stride + base.edge_labels
        del_codes = np.sort(
            np.array([(s * n + d) * stride + l for s, d, l in deleted], dtype=np.int64)
        )
        pos = np.searchsorted(del_codes, codes)
        pos[pos == len(del_codes)] = len(del_codes) - 1
        return del_codes[pos] == codes

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
            # Same ANY_LABEL short-circuits (and mask reuse) as Graph.edges.
            return self.base.edges(edge_label, src_label, dst_label)
        src, dst, lab = self._materialized_edges()
        if edge_label is ANY_LABEL and src_label is ANY_LABEL and dst_label is ANY_LABEL:
            return src, dst
        mask: Optional[np.ndarray] = None
        if edge_label is not ANY_LABEL:
            mask = lab == edge_label
        if src_label is not ANY_LABEL:
            part = self.vertex_labels[src] == src_label
            mask = part if mask is None else mask & part
        if dst_label is not ANY_LABEL:
            part = self.vertex_labels[dst] == dst_label
            mask = part if mask is None else mask & part
        return src[mask], dst[mask]

    def count_edges(
        self,
        edge_label: Optional[int] = ANY_LABEL,
        src_label: Optional[int] = ANY_LABEL,
        dst_label: Optional[int] = ANY_LABEL,
    ) -> int:
        if edge_label is ANY_LABEL and src_label is ANY_LABEL and dst_label is ANY_LABEL:
            return self.num_edges
        if src_label is ANY_LABEL and dst_label is ANY_LABEL:
            # Graph.edges-style short-circuit on the snapshot path: an
            # edge-label-only count never needs the merged edge arrays —
            # deleted_keys names only base edges and the insert side is
            # disjoint from both, so the three counts compose exactly.
            base_count = self.base.count_edges(edge_label)
            deleted = sum(1 for _, _, label in self.delta.deleted_keys if label == edge_label)
            inserted = int(np.count_nonzero(self.delta.insert_labels == edge_label))
            return base_count - deleted + inserted
        src, _ = self.edges(edge_label, src_label, dst_label)
        return int(len(src))

    def iter_edges(self) -> Iterator[Tuple[int, int, int]]:
        src, dst, lab = self._materialized_edges()
        for s, d, l in zip(src, dst, lab):
            yield int(s), int(d), int(l)

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
