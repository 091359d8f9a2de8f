"""Batch-at-a-time (morsel/columnar) plan execution.

The iterator pipeline in :mod:`repro.executor.operators` processes one bound
tuple per Python ``yield``, so interpreter overhead — not intersection cost —
dominates runtimes.  The operators here exchange 2-D ``int64`` NumPy frames
instead: each frame holds a batch of partial matches, one row per match, with
columns aligned to the plan node's ``out_vertices`` order.

* :class:`BatchScanOperator` slices edge batches straight out of the graph's
  edge arrays and verifies extra (parallel/reciprocal) query edges with a
  vectorized membership test over sorted adjacency keys.
* :class:`BatchExtendIntersectOperator` groups each batch by its
  adjacency-key columns (lexsort + boundary detection, the explicit form of
  ``np.unique(axis=0)``), so the single-entry intersection cache of paper
  Section 3.1 generalises to one intersection per *distinct* key instead of
  one per consecutive duplicate.  Extensions for the distinct keys come from
  one candidate pipeline without a per-tuple Python loop: *seed*, then
  *filter the survivors* by each remaining descriptor with a vectorized
  binary-search membership test (galloping at batch scale), compacting after
  every filter so a candidate one list rejected is never probed again.  The
  seeds are either the most selective adjacency list of every key (one ragged
  CSR gather) or, when the child is an E/I whose descriptors are a subset of
  this node's, the child's own extension sets read back off the frame
  (*prefix-intersection reuse*: the batch form of the cache hit on
  ``N(a1) ∩ N(a2)`` that a chained E/I would otherwise recompute).
  Isomorphism violations are filtered with broadcast compares against the
  prefix columns, and the ``(prefix x extension)`` product is expanded with
  ``np.repeat`` + ragged gathers.
* :class:`BatchHashJoinOperator` concatenates the build side into one frame,
  sorts it by an encoded join key, and probes whole columnar batches with a
  single ``searchsorted`` per batch.

Match *counts* are identical to the iterator pipeline on every plan; only the
order in which matches are produced may differ (each batch is sorted by its
adjacency-key columns).  Counting queries never materialise matches —
``num_matches`` accumulates from frame row counts.

Batch-grouping invariants — what the operators assume of their inputs and
guarantee of their outputs:

* every adjacency structure consumed (``graph.csr(...)`` partitions and
  ``graph.adjacency_key_array(...)``) has **sorted per-vertex runs** and a
  **globally sorted key array**; all membership tests are binary searches
  over them, so any graph-like provider must preserve that ordering;
* within one E/I invocation, rows are lexsorted by their adjacency-key
  columns so equal keys are consecutive, ``group_of_row`` is non-decreasing,
  and the per-group extension lists come back with non-decreasing group ids
  and sorted values — the ragged expansion gathers index directly into that
  layout;
* expansion is chunked (``_expansion_segments``) so no output frame grows far
  beyond ``batch_size`` rows regardless of per-row fanout, bounding peak
  memory multiplicatively through an operator chain;
* **one input row's expansions never straddle frames**: the chunking splits
  on row boundaries only, and a row whose own fanout exceeds the cap is a
  segment (and a frame) of its own.  Prefix-intersection reuse relies on
  this.  An E/I that reads its child's extension set ``E(k)`` back off a
  frame takes the distinct child-to-vertex values among the frame's rows
  sharing the child's key ``k``; because every row with key ``k`` arrives
  with its whole expansion, that set is ``E(k)`` minus only the values the
  child's isomorphism filter removed from *every* such row — values equal to
  a prefix column of each of them, which this node's own isomorphism filter
  would remove again.  A frame cannot show that a row's expansion continues
  in another one, so the consumer cannot assert this per frame: the E/I
  constructor asserts the structural half (where the child's to-vertex and
  keys sit in the frame), and ``tests/executor/test_vectorized.py`` checks
  the frames themselves at caps below, at and above single rows' fanout.

The operators are deliberately agnostic about *which* graph object provides
the columnar arrays: an immutable :class:`~repro.graph.graph.Graph` serves
its flat CSR partitions, and a dirty
:class:`~repro.storage.snapshot.GraphSnapshot` serves lazily merged
per-partition views with the same ordering contracts — so the batch engine
runs directly on dirty snapshots of a :class:`DynamicGraph` without any
synchronous compaction on the query path (delta-merge invariants in
:mod:`repro.storage.delta`).
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeadlineExceededError, PlanError
from repro.executor.operators import (
    ExecutionConfig,
    resolve_extend_descriptors,
    resolve_hash_join,
    scan_edge_arrays,
)
from repro.executor.profile import ExecutionProfile
from repro.graph.graph import ANY_LABEL, Direction, Graph
from repro.graph.intersect import intersect_multiway, locate_sorted, member_sorted
from repro.planner.plan import ExtendNode, HashJoinNode, Plan, PlanNode, ScanNode

_EMPTY_I64 = np.array([], dtype=np.int64)

# Composite hash-join keys are packed into one int64 code; beyond this many
# bits the operator falls back to a per-row Python hash table.
_CODE_BITS = 62


def _ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather positions for ragged segments.

    Segment ``i`` contributes ``counts[i]`` consecutive positions beginning at
    ``starts[i]``; the result concatenates all segments in order.
    """
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    ends = np.cumsum(counts)
    inner = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + inner


def _group_runs(
    sorted_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of identical consecutive entries in a sorted key array.

    Accepts a 1-D code array or a 2-D row-wise key matrix; returns
    ``(starts, counts, group_of_row)`` where ``starts``/``counts`` describe
    each run and ``group_of_row`` maps every row to its run index.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    keys = sorted_keys.reshape(n, -1)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    group_of_row = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    return starts, counts, group_of_row


def _expansion_segments(counts: np.ndarray, cap: int) -> Iterator[Tuple[int, int]]:
    """Split rows into contiguous ``(start, end)`` segments whose summed
    expansion counts stay within ``cap``.

    Bounds the size of expanded output frames (and therefore peak memory and
    the multiplicative frame growth through an operator chain) regardless of
    per-row fanout; a single row whose own count exceeds ``cap`` still forms a
    one-row segment.
    """
    n = len(counts)
    cumulative = np.cumsum(counts)
    start = 0
    while start < n:
        base = int(cumulative[start - 1]) if start else 0
        end = int(np.searchsorted(cumulative, base + cap, side="right"))
        end = max(end, start + 1)
        yield start, min(end, n)
        start = end


class BatchOperator:
    """Base class of batch operators; subclasses implement :meth:`frames`."""

    def __init__(
        self,
        node: PlanNode,
        graph: Graph,
        profile: ExecutionProfile,
        config: ExecutionConfig,
        is_root: bool,
    ) -> None:
        self.node = node
        self.graph = graph
        self.profile = profile
        self.config = config
        self.is_root = is_root

    def frames(self) -> Iterator[np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _account(self, rows: int) -> None:
        if self.is_root:
            self.profile.output_matches += rows
        else:
            self.profile.record_intermediate(rows)

    def _check_deadline(self) -> None:
        if (
            self.config.deadline is not None
            and time.monotonic() > self.config.deadline
        ):
            raise DeadlineExceededError(
                f"query deadline exceeded in {type(self).__name__}"
            )

    def _yield_frame(self, name: str, frame: np.ndarray) -> np.ndarray:
        """Shared per-frame accounting before a frame is handed upstream."""
        rows = frame.shape[0]
        self._account(rows)
        self.profile.record_batch()
        self.profile.record_operator(name, out=rows, batches=1)
        return frame


class BatchScanOperator(BatchOperator):
    """Emits edge batches sliced directly from the graph's edge arrays."""

    def __init__(self, node: ScanNode, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.scan_node = node
        query = node.sub_query
        edge = node.edge
        self._extra_edges = [
            e
            for e in query.edges
            if not (e.src == edge.src and e.dst == edge.dst and e.label == edge.label)
        ]
        self._reversed = node.out_vertices[0] != edge.src
        self._name = node.display_name()

    def frames(self) -> Iterator[np.ndarray]:
        src, dst = scan_edge_arrays(self.scan_node, self.graph, self.config)
        edge = self.scan_node.edge
        n_vertices = self.graph.num_vertices
        batch = max(1, self.config.batch_size)
        for start in range(0, len(src), batch):
            self._check_deadline()
            t0 = time.perf_counter()
            u = src[start:start + batch]
            v = dst[start:start + batch]
            mask = np.ones(len(u), dtype=bool)
            if self.config.isomorphism:
                mask &= u != v
            for extra in self._extra_edges:
                s, d = (u, v) if extra.src == edge.src else (v, u)
                keys = self.graph.adjacency_key_array(
                    Direction.FORWARD, extra.label, ANY_LABEL
                )
                mask &= member_sorted(keys, s * n_vertices + d)
            if not mask.all():
                u, v = u[mask], v[mask]
            frame = np.stack((v, u) if self._reversed else (u, v), axis=1)
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)
            if frame.shape[0]:
                yield self._yield_frame(self._name, frame)


class BatchExtendIntersectOperator(BatchOperator):
    """EXTEND/INTERSECT over columnar batches, grouped by adjacency keys."""

    def __init__(self, node: ExtendNode, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.extend_node = node
        self.child = child
        resolved: List[Tuple[int, Direction, Optional[int]]] = (
            resolve_extend_descriptors(node, child.node.out_vertices)
        )
        self._to_label = node.to_vertex_label
        index = self.config.triangle_index
        self._index_applicable = (
            index is not None
            and len(resolved) == 2
            and self._to_label is None
            and all(edge_label is None for _, _, edge_label in resolved)
        )
        # Prefix-intersection reuse (seed source (b)): the child's columns are
        # a prefix of this node's input columns, so equal resolved descriptors
        # name the same adjacency lists.  The covered descriptors move to the
        # front, which makes the child's key the primary sort key of a frame.
        self._num_covered = 0
        if (
            self.config.enable_intersection_cache
            and not self._index_applicable
            and isinstance(child, BatchExtendIntersectOperator)
            and child._to_label == self._to_label
            and set(child._resolved) <= set(resolved)
        ):
            covered = set(child._resolved)
            resolved.sort(key=lambda descriptor: descriptor not in covered)
            self._num_covered = sum(descriptor in covered for descriptor in resolved)
            # What reading the child's sets back off a frame relies on, next
            # to the whole-row frames of the module docstring: the child's
            # to-vertex is the last input column and no covered list hangs
            # off it.
            assert child.node.out_vertices[-1] == child.extend_node.to_vertex
            assert all(idx < len(child.node.out_vertices) - 1 for idx, _, _ in covered)
        self._resolved = resolved
        self._key_idx = np.array([idx for idx, _, _ in resolved], dtype=np.int64)
        self._csrs = [
            self.graph.csr(direction, edge_label, self._to_label)
            for _, direction, edge_label in resolved
        ]
        self._name = node.display_name()

    # ------------------------------------------------------------------ #
    def _adj_keys(self, descriptor: int) -> np.ndarray:
        _, direction, edge_label = self._resolved[descriptor]
        return self.graph.adjacency_key_array(direction, edge_label, self._to_label)

    def _degrees(self, unique_keys: np.ndarray, descriptors: Sequence[int]) -> np.ndarray:
        """Adjacency-list length per (distinct key, descriptor in ``descriptors``)."""
        degrees = np.empty((len(unique_keys), len(descriptors)), dtype=np.int64)
        for slot, j in enumerate(descriptors):
            indptr = self._csrs[j].indptr
            degrees[:, slot] = indptr[unique_keys[:, j] + 1] - indptr[unique_keys[:, j]]
        return degrees

    def _filter_survivors(
        self,
        groups: np.ndarray,
        values: np.ndarray,
        unique_keys: np.ndarray,
        descriptors: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Keep the ``(group, value)`` candidates present in the adjacency
        list of every descriptor in ``descriptors``.  The candidates are
        compacted after each filter, so a later list is probed only for what
        the earlier ones let through."""
        n_vertices = self.graph.num_vertices
        for e in descriptors:
            if len(values) == 0:
                break
            probe = (unique_keys[:, e] * n_vertices)[groups]
            probe += values
            keep = np.flatnonzero(member_sorted(self._adj_keys(e), probe))
            if len(keep) < len(values):
                groups, values = groups[keep], values[keep]
        return groups, values

    def _extensions_from_smallest_list(
        self, unique_keys: np.ndarray, group_sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed source (a): the most selective adjacency list of every key,
        one ragged CSR gather per descriptor partition; every other
        descriptor filters the survivors."""
        num_desc = len(self._resolved)
        degrees = self._degrees(unique_keys, range(num_desc))
        accessed = degrees.sum(axis=1)
        if self.config.enable_intersection_cache:
            self.profile.record_intersection(int(accessed.sum()))
        else:
            # Without the cache the iterator recomputes per duplicate tuple;
            # mirror that in the i-cost accounting.
            self.profile.record_intersection(int((accessed * group_sizes).sum()))
        seed_choice = np.argmin(degrees, axis=1)
        group_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        for d in range(num_desc):
            group_ids = np.flatnonzero(seed_choice == d)
            counts = degrees[group_ids, d]
            if int(counts.sum()) == 0:
                continue
            csr = self._csrs[d]
            starts = csr.indptr[unique_keys[group_ids, d]]
            groups, values = self._filter_survivors(
                np.repeat(group_ids, counts),
                csr.indices[_ragged_positions(starts, counts)],
                unique_keys,
                [e for e in range(num_desc) if e != d],
            )
            group_parts.append(groups)
            value_parts.append(values)
        if not group_parts:
            return _EMPTY_I64, _EMPTY_I64
        groups = np.concatenate(group_parts)
        values = np.concatenate(value_parts)
        if len(group_parts) > 1:
            order = np.argsort(groups, kind="stable")
            groups, values = groups[order], values[order]
        return groups, values

    def _extensions_from_siblings(
        self,
        sorted_frame: np.ndarray,
        keys: np.ndarray,
        starts: np.ndarray,
        unique_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed source (b), prefix-intersection reuse: the child's extension
        sets, read back off the frame; only the descriptors the child did not
        cover filter the survivors.

        Rows are sorted by the child's key first, so each child key is a run
        of rows, and its extension set is the distinct values of the child's
        to-vertex (the last column) in that run — complete because one input
        row's expansions never straddle frames (module docstring).
        """
        n_vertices = self.graph.num_vertices
        _, _, child_group_of_row = _group_runs(keys[:, : self._num_covered])
        codes = np.unique(child_group_of_row * n_vertices + sorted_frame[:, -1])
        sibling_group = codes // n_vertices
        sibling_values = codes - sibling_group * n_vertices
        set_sizes = np.bincount(sibling_group)
        set_starts = np.cumsum(set_sizes) - set_sizes
        child_group = child_group_of_row[starts]
        sizes = set_sizes[child_group]
        uncovered = range(self._num_covered, len(self._resolved))
        # What is really read: the child's set plus the uncovered lists.
        self.profile.record_intersection(
            int(sizes.sum() + self._degrees(unique_keys, uncovered).sum())
        )
        return self._filter_survivors(
            np.repeat(np.arange(len(starts), dtype=np.int64), sizes),
            sibling_values[_ragged_positions(set_starts[child_group], sizes)],
            unique_keys,
            uncovered,
        )

    def _extensions_per_key(
        self, unique_keys: np.ndarray, group_sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-distinct-key path used when a triangle index is configured:
        each key is answered with an index lookup when covered, falling back
        to an ordinary multiway intersection."""
        index = self.config.triangle_index
        (idx_a, dir_a, _), (idx_b, dir_b, _) = self._resolved[0], self._resolved[1]
        group_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        for gid in range(unique_keys.shape[0]):
            key = unique_keys[gid]
            extension = index.lookup(int(key[0]), int(key[1]), dir_a, dir_b)
            if extension is not None:
                self.profile.record_index_hit()
            else:
                lists = []
                accessed = 0
                for j, (_, direction, _) in enumerate(self._resolved):
                    adj = self._csrs[j].neighbors(int(key[j]))
                    accessed += len(adj)
                    lists.append(adj)
                weight = 1 if self.config.enable_intersection_cache else int(group_sizes[gid])
                self.profile.record_intersection(accessed * weight)
                extension = lists[0] if len(lists) == 1 else intersect_multiway(lists)
            if len(extension):
                group_parts.append(np.full(len(extension), gid, dtype=np.int64))
                value_parts.append(np.asarray(extension, dtype=np.int64))
        if not group_parts:
            return _EMPTY_I64, _EMPTY_I64
        return np.concatenate(group_parts), np.concatenate(value_parts)

    # ------------------------------------------------------------------ #
    def _process(self, frame: np.ndarray) -> Iterator[np.ndarray]:
        n = frame.shape[0]
        key_cols = frame[:, self._key_idx]
        # Sort rows so equal adjacency keys become consecutive, then find the
        # group boundaries (np.unique(axis=0) without the overhead).
        order = np.lexsort(key_cols[:, ::-1].T)
        sorted_frame = frame.take(order, axis=0)
        keys = sorted_frame[:, self._key_idx]
        starts, group_sizes, group_of_row = _group_runs(keys)
        unique_keys = keys[starts]
        num_groups = len(starts)
        if self.config.enable_intersection_cache:
            # Grouping generalises the single-entry cache: every duplicate of
            # a distinct key is served from the one computed intersection.
            self.profile.cache_hits += int(n - num_groups)
            self.profile.cache_misses += int(num_groups)
        # Both vectorized sources return non-decreasing group ids with sorted
        # values inside each group, the layout the expansion below indexes.
        if self._index_applicable:
            groups, values = self._extensions_per_key(unique_keys, group_sizes)
        elif self._num_covered:
            groups, values = self._extensions_from_siblings(
                sorted_frame, keys, starts, unique_keys
            )
        else:
            groups, values = self._extensions_from_smallest_list(unique_keys, group_sizes)
        counts_per_group = (
            np.bincount(groups, minlength=num_groups)
            if len(groups)
            else np.zeros(num_groups, dtype=np.int64)
        )
        row_counts = counts_per_group[group_of_row]
        if int(row_counts.sum()) == 0:
            return
        # Expand (prefix x extension): repeat each sorted row by its group's
        # extension count and gather the matching candidate segment.  The
        # expansion is chunked so no output frame grows far beyond
        # ``batch_size`` rows, whatever the per-row fanout.
        segment_starts = np.concatenate(([0], np.cumsum(counts_per_group)[:-1]))
        first = segment_starts[group_of_row]
        width = frame.shape[1]
        for lo, hi in _expansion_segments(row_counts, max(1, self.config.batch_size)):
            counts = row_counts[lo:hi]
            total = int(counts.sum())
            if total == 0:
                continue
            out = np.empty((total, width + 1), dtype=np.int64)
            out[:, :width] = np.repeat(sorted_frame[lo:hi], counts, axis=0)
            out[:, width] = values[_ragged_positions(first[lo:hi], counts)]
            if self.config.isomorphism:
                mask = np.ones(total, dtype=bool)
                for j in range(width):
                    mask &= out[:, j] != out[:, width]
                if not mask.all():
                    out = out[mask]
            if out.shape[0]:
                yield out

    def frames(self) -> Iterator[np.ndarray]:
        for frame in self.child.frames():
            self._check_deadline()
            t0 = time.perf_counter()
            for out in self._process(frame):
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                yield self._yield_frame(self._name, out)
                self._check_deadline()
                t0 = time.perf_counter()
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)


class BatchHashJoinOperator(BatchOperator):
    """Hash join over columnar batches.

    The build side is concatenated into one frame and sorted by an encoded
    composite join key; every probe batch is then matched with a single
    vectorized binary search and expanded with ragged gathers.  Join keys
    whose packed width would overflow 62 bits fall back to a per-row Python
    hash table (unreachable for realistic graph sizes, kept for safety).
    """

    def __init__(
        self, node: HashJoinNode, build: BatchOperator, probe: BatchOperator, *args, **kwargs
    ) -> None:
        super().__init__(node, *args, **kwargs)
        self.join_node = node
        self.build_child = build
        self.probe_child = probe
        build_key_idx, probe_key_idx, build_payload_idx, self._filter_edges = (
            resolve_hash_join(node)
        )
        self._build_key_idx = np.array(build_key_idx, dtype=np.int64)
        self._probe_key_idx = np.array(probe_key_idx, dtype=np.int64)
        self._build_payload_idx = np.array(build_payload_idx, dtype=np.int64)
        self._name = node.display_name()

    # ------------------------------------------------------------------ #
    def _encode(self, key_cols: np.ndarray) -> np.ndarray:
        codes = key_cols[:, 0].copy()
        n_vertices = max(self.graph.num_vertices, 1)
        for j in range(1, key_cols.shape[1]):
            codes = codes * n_vertices + key_cols[:, j]
        return codes

    def _codes_fit(self) -> bool:
        import math

        n_vertices = max(self.graph.num_vertices, 2)
        return len(self._build_key_idx) * math.log2(n_vertices) < _CODE_BITS

    def _post_filter(self, out: np.ndarray) -> np.ndarray:
        mask = np.ones(out.shape[0], dtype=bool)
        if self.config.isomorphism:
            for i in range(out.shape[1]):
                for j in range(i + 1, out.shape[1]):
                    mask &= out[:, i] != out[:, j]
        n_vertices = self.graph.num_vertices
        for src_idx, dst_idx, label in self._filter_edges:
            keys = self.graph.adjacency_key_array(Direction.FORWARD, label, ANY_LABEL)
            mask &= member_sorted(keys, out[:, src_idx] * n_vertices + out[:, dst_idx])
        return out if mask.all() else out[mask]

    def frames(self) -> Iterator[np.ndarray]:
        build_frames = list(self.build_child.frames())
        build = (
            np.concatenate(build_frames, axis=0)
            if build_frames
            else np.empty((0, len(self.join_node.build.out_vertices)), dtype=np.int64)
        )
        self.profile.hash_table_entries += build.shape[0]
        if not self._codes_fit():
            yield from self._frames_python_table(build)
            return
        t0 = time.perf_counter()
        build_codes = self._encode(build[:, self._build_key_idx]) if build.shape[0] else _EMPTY_I64
        order = np.argsort(build_codes, kind="stable")
        sorted_codes = build_codes[order]
        sorted_payload = build[order][:, self._build_payload_idx]
        table_starts, table_counts, _ = _group_runs(sorted_codes)
        unique_codes = sorted_codes[table_starts]
        self.profile.record_operator_time(self._name, time.perf_counter() - t0)

        for probe_frame in self.probe_child.frames():
            self._check_deadline()
            t0 = time.perf_counter()
            self.profile.hash_probes += probe_frame.shape[0]
            if len(unique_codes) == 0:
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                continue
            probe_codes = self._encode(probe_frame[:, self._probe_key_idx])
            loc, hit = locate_sorted(unique_codes, probe_codes)
            rows = np.flatnonzero(hit)
            if rows.size == 0:
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                continue
            matched = loc[rows]
            match_counts = table_counts[matched]
            match_starts = table_starts[matched]
            # Chunk the expansion so heavily duplicated join keys cannot blow
            # up a single output frame (same bound as the E/I operator).
            for lo, hi in _expansion_segments(match_counts, max(1, self.config.batch_size)):
                counts = match_counts[lo:hi]
                probe_expanded = probe_frame[np.repeat(rows[lo:hi], counts)]
                payload = sorted_payload[_ragged_positions(match_starts[lo:hi], counts)]
                out = self._post_filter(np.concatenate([probe_expanded, payload], axis=1))
                if out.shape[0]:
                    self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                    yield self._yield_frame(self._name, out)
                    self._check_deadline()
                    t0 = time.perf_counter()
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)

    def _frames_python_table(self, build: np.ndarray) -> Iterator[np.ndarray]:
        table = {}
        for row in build.tolist():
            key = tuple(row[i] for i in self._build_key_idx)
            table.setdefault(key, []).append([row[i] for i in self._build_payload_idx])
        for probe_frame in self.probe_child.frames():
            self._check_deadline()
            self.profile.hash_probes += probe_frame.shape[0]
            out_rows = []
            for row in probe_frame.tolist():
                payloads = table.get(tuple(row[i] for i in self._probe_key_idx))
                if payloads:
                    out_rows.extend(row + payload for payload in payloads)
            if out_rows:
                out = self._post_filter(np.asarray(out_rows, dtype=np.int64))
                if out.shape[0]:
                    yield self._yield_frame(self._name, out)


def build_batch_operator_tree(
    node: PlanNode,
    graph: Graph,
    profile: ExecutionProfile,
    config: ExecutionConfig,
    is_root: bool = True,
) -> BatchOperator:
    """Recursively wire batch operators for a plan subtree."""
    if isinstance(node, ScanNode):
        return BatchScanOperator(node, graph, profile, config, is_root)
    if isinstance(node, ExtendNode):
        child = build_batch_operator_tree(node.child, graph, profile, config, is_root=False)
        return BatchExtendIntersectOperator(node, child, graph, profile, config, is_root)
    if isinstance(node, HashJoinNode):
        build = build_batch_operator_tree(node.build, graph, profile, config, is_root=False)
        probe = build_batch_operator_tree(node.probe, graph, profile, config, is_root=False)
        return BatchHashJoinOperator(node, build, probe, graph, profile, config, is_root)
    raise PlanError(f"unknown plan node type: {type(node).__name__}")


def execute_plan_vectorized(
    plan: Plan,
    graph: Graph,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
):
    """Run ``plan`` with the batch-at-a-time engine.

    Semantics match :func:`repro.executor.pipeline.execute_plan`: deadlines
    are checked per batch, ``output_limit`` truncates the final frame, and
    counting runs never materialise matches.
    """
    from repro.executor.pipeline import ExecutionResult

    config = config or ExecutionConfig(vectorized=True)
    profile = ExecutionProfile()
    root = build_batch_operator_tree(plan.root, graph, profile, config, is_root=True)
    frames: Optional[List[np.ndarray]] = [] if collect else None
    count = 0
    truncated = False
    deadline_exceeded = False
    start = time.perf_counter()
    try:
        for frame in root.frames():
            count += frame.shape[0]
            if collect:
                frames.append(frame)  # type: ignore[union-attr]
            if config.output_limit is not None and count >= config.output_limit:
                overshoot = count - config.output_limit
                if overshoot and collect:
                    frames[-1] = frames[-1][: frame.shape[0] - overshoot]  # type: ignore[index]
                count = config.output_limit
                truncated = True
                break
            if config.deadline is not None and time.monotonic() > config.deadline:
                truncated = True
                deadline_exceeded = True
                break
    except DeadlineExceededError:
        truncated = True
        deadline_exceeded = True
    profile.elapsed_seconds = time.perf_counter() - start
    profile.output_matches = count
    matches: Optional[List[Tuple[int, ...]]] = None
    if collect:
        matches = [tuple(row) for f in frames for row in f.tolist()]  # type: ignore[union-attr]
    return ExecutionResult(
        plan=plan,
        num_matches=count,
        profile=profile,
        matches=matches,
        vertex_order=tuple(plan.root.out_vertices),
        truncated=truncated,
        deadline_exceeded=deadline_exceeded,
    )
