"""Batch-at-a-time (morsel/columnar) plan execution: the engine every plan
runs on by default.

The reference executor in :mod:`repro.executor.operators` processes one bound
tuple per Python ``yield``, so interpreter overhead — not intersection cost —
dominates runtimes.  The operators here exchange 2-D ``int64`` NumPy frames
instead: each frame holds a batch of partial matches, one row per match, with
columns aligned to the plan node's ``out_vertices`` order.

* :class:`BatchScanOperator` slices edge batches of ``batch_size`` (8,192)
  rows straight out of the graph's edge arrays and verifies extra
  (parallel/reciprocal) query edges with a vectorized membership test over
  sorted adjacency keys.  An unlimited scan reads its edges in ``(src, dst)``
  order off the forward CSR partition E/I reads (``graph.scan_edges``), the
  way Graphflow's SCAN walks its sorted adjacency lists, so the E/I above it
  receives its frames in key order.  Under an ``output_limit`` the SCAN the
  pipeline pulls from sizes its batches to the demand: the first holds
  ``output_limit`` edges and each later one doubles up to ``batch_size``.
  Like Graphflow's pull-based pipeline (Section 7), a row-limited query
  then stops after roughly the work its rows need, instead of extending a
  whole frame first.  A SCAN whose demand is below a frame reads the input
  edge order (``graph.edges``), as do the catalogue sampler's and the
  reference executor's.
* :class:`BatchExtendIntersectOperator` groups each batch by its
  adjacency key, packed into one ``int64`` code per row the way HASH-JOIN
  packs its join key (a stable sort of the codes, skipped when they already
  arrive in order, then boundary detection: the explicit form of
  ``np.unique(axis=0)``), so the single-entry intersection cache of paper
  Section 3.1 generalises to one intersection per *distinct* key instead of
  one per consecutive duplicate.  Extensions for the distinct keys come from
  one candidate pipeline without a per-tuple Python loop: *seed*, then
  *filter the survivors* by each remaining descriptor with a vectorized
  membership test (a bit filter, then a binary search for what passes it:
  galloping at batch scale), compacting after every filter so a candidate
  one list rejected is never probed again.  The seeds come from one of
  three sources.  (a) The most selective adjacency list of every key (one
  ragged CSR gather).  (b) When the child is an E/I that intersected two or
  more lists, all of them among this node's: the child's own extension sets
  read back off the frame (*prefix-intersection reuse*: the batch form of
  the cache hit on ``N(a1) ∩ N(a2)`` that a chained E/I would otherwise
  recompute).  (c) When (b) does not apply, the child is an E/I and two or
  more of this node's lists hang off the child's input columns (*shared
  lists*) while one or more hang off its to-vertex: the shared lists are
  intersected once per distinct key of theirs, and that set, filtered per
  group by the to-vertex's lists, seeds every group of a run of two or
  more; a run of one group takes (a), which reads less for it.  Like
  LFTJ's prefix intersections, the set is computed, not read off the
  frame, so (c) does not rely on whole-row frames.  Both (b) and (c) are
  the cache's and are off without it.
  Isomorphism violations are filtered with broadcast compares against the
  prefix columns, and the ``(prefix x extension)`` product is expanded with
  ``np.repeat`` + ragged gathers.
* :class:`BatchAdaptiveOperator` (Section 6) routes each row of a frame to
  the cheapest of several E/I chains and drives those chains' ``_process``.
* :class:`BatchHashJoinOperator` packs every join key into one code.  A
  counting sink with no predicate and no row limit tags the codes by side
  (``key << 1`` build, ``key << 1 | 1`` probe, ``uint32`` when they fit),
  sorts them all once and sums ``build run x probe run`` per key
  (:func:`count_tagged_pairs`): no table, no lookup.  Otherwise the build
  side is sorted by code with its payload and each probe frame is *located*
  in it (probe codes sorted, one ``searchsorted``, and per hit the bucket of
  build rows it matches), then expanded into one preallocated output frame.
  When the probe sub-query is the build sub-query under a vertex renaming,
  the probe side's matches are the build side's with their columns
  permuted: the join drains the build side once, probes with those rows,
  and never builds the probe subtree (off under a ``scan_range``, which
  makes the probe rows a subset).

Match *counts* are identical to the reference executor on every plan; only the
order in which matches are produced may differ (E/I sorts each batch by its
adjacency-key columns, HASH-JOIN by its join code).  Counting queries never
materialise matches: the sink drives the root through
:meth:`BatchOperator.counts`, and E/I and HASH-JOIN answer it without
assembling the frames they would have produced — the paper's SINK, for which
the hash-join cost ``w1*n1 + w2*n2`` (Section 4.2) has no output term.  Only
the root is asked for counts; every operator below it produces frames.  A
count needs no frame chunking, so a counting E/I without isomorphism yields
one count per input frame and a counting HASH-JOIN without predicates or a
row limit one count in all, rather than one per would-be frame: the root's
``batches`` counter is the one that differs from a collecting run.  A
counting E/I of one list without isomorphism reads its count off the CSR
offsets of that list's label-filtered partition, with no gather.

Batch-grouping invariants — what the operators assume of their inputs and
guarantee of their outputs:

* every adjacency structure consumed (``graph.csr(...)`` partitions and the
  :class:`~repro.graph.intersect.KeySet` each carries,
  ``graph.adjacency_keys(...)``) has **sorted per-vertex runs** and a
  **globally sorted key array**; every membership test reads the key set's
  bit filter first and binary-searches the sorted codes only for the probes
  the filter lets through, so any graph-like provider must preserve that
  ordering;
* within one E/I invocation, rows are in the order a stable lexsort of
  their adjacency-key columns gives, so equal keys are consecutive,
  ``group_of_row`` is non-decreasing, and the per-group extension lists come
  back with non-decreasing group ids and sorted values — the ragged
  expansion gathers index directly into that layout.  The packed code
  ``((k0*n + k1)*n + k2)...`` orders rows as the key columns do, so a frame
  is sorted by it only when its codes are not already non-decreasing.  Two
  producers emit key order: an unlimited SCAN emits ``(src, dst)`` order,
  and an E/I directly above it keys the scanned source's column first; an
  E/I emits its rows in key order, extensions ascending.  ``_sort_by_key``
  still sorts a frame (counted as ``ExecutionProfile.sorted_frames``) when
  its E/I keys on columns its producer did not order by: a key without the
  scanned source, a row-limited or sampled SCAN, a HASH-JOIN's output, or
  an E/I child whose order does not extend to this key (its key is not
  where this key begins, or several of its input rows shared a key, so
  their ascending extensions interleave).  Keys too wide for one
  code (over ``_CODE_BITS``) are lexsorted column by column; both orders
  are the same.  A HASH-JOIN key that wide is a :class:`PlanError`;
* expansion into built frames is chunked (``_expansion_segments``) so no
  output frame grows far beyond ``batch_size`` rows regardless of per-row
  fanout, bounding peak memory multiplicatively through an operator chain;
  a count builds no frame and is not chunked;
* **one input row's expansions never straddle frames**: the chunking splits
  on row boundaries only, and a row whose own fanout exceeds the cap is a
  segment (and a frame) of its own.  Prefix-intersection reuse relies on
  this, and only it: seed sources (a) and (c) read the graph.  An E/I
  that reads its child's extension set ``E(k)`` back off a
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

import math
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
from repro.graph.intersect import locate_sorted
from repro.planner.plan import AdaptiveNode, ExtendNode, HashJoinNode, Plan, PlanNode, ScanNode
from repro.query.isomorphism import isomorphism_mapping

_EMPTY_I64 = np.array([], dtype=np.int64)

# E/I adjacency keys and hash-join keys are packed into one int64 code; beyond
# this many bits E/I lexsorts the key columns and a HASH-JOIN is refused.
_CODE_BITS = 62


def _codes_fit(num_columns: int, n_vertices: int) -> bool:
    """Whether keys of ``num_columns`` vertex ids pack into one code."""
    return num_columns * math.log2(max(n_vertices, 2)) < _CODE_BITS


def _pack(key_cols: np.ndarray, n_vertices: int) -> np.ndarray:
    """One ``int64`` code per row, ``((k0*n + k1)*n + k2)...``: codes compare
    like the rows compare lexicographically."""
    codes = key_cols[:, 0].copy()
    for j in range(1, key_cols.shape[1]):
        codes *= n_vertices
        codes += key_cols[:, j]
    return codes


def _sort_by_key(
    frame: np.ndarray, key_idx: np.ndarray, n_vertices: int, packed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``frame``'s rows ordered by the columns ``key_idx``, rows with equal
    keys in input order, and their keys: one packed code per row, or under
    ``packed=False`` the key columns themselves.  A frame already in key
    order is returned as is (packed codes are not even sorted then), which
    is how an unlimited SCAN's frames and an E/I's usually arrive."""
    key_cols = frame[:, key_idx]
    if not packed:
        order = np.lexsort(key_cols[:, ::-1].T)
        # The sort is stable, so rows already in key order keep their order.
        if np.any(order[1:] < order[:-1]):
            return frame.take(order, axis=0), key_cols[order]
        return frame, key_cols
    codes = _pack(key_cols, n_vertices)
    if np.any(codes[1:] < codes[:-1]):
        order = np.argsort(codes, kind="stable")
        return frame.take(order, axis=0), codes[order]
    return frame, codes


def _distinct(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)``, without its sort when ``codes`` is already
    strictly increasing."""
    if np.any(codes[1:] <= codes[:-1]):
        return np.unique(codes)
    return codes


def _shared_lists(resolved: Sequence[Tuple[int, Direction, Optional[int]]], to_column: int) -> int:
    """How many of an E/I's ``resolved`` descriptors its shared-list seed
    intersects once per key: the ones anchored before ``to_column``, its
    child's to-vertex, when there are two or more of them and at least one
    list on the to-vertex is left to filter each group; otherwise 0."""
    shared = sum(idx < to_column for idx, _, _ in resolved)
    return shared if 2 <= shared < len(resolved) else 0


def _by_group(parts: Sequence[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(group, value)`` candidates from parts that each hold non-decreasing
    groups with sorted values, no group in two parts, merged into one such
    layout."""
    if not parts:
        return _EMPTY_I64, _EMPTY_I64
    groups = np.concatenate([groups for groups, _ in parts])
    values = np.concatenate([values for _, values in parts])
    if len(parts) > 1:
        order = np.argsort(groups, kind="stable")
        groups, values = groups[order], values[order]
    return groups, values


def _ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather positions for ragged segments.

    Segment ``i`` contributes ``counts[i]`` consecutive positions beginning at
    ``starts[i]``; the result concatenates all segments in order.
    """
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    # Position j of the output lies in segment i at starts[i] + (j - the
    # segment's first output position): one repeat of the per-segment
    # offsets, then the running index added in place.
    positions = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    positions += np.arange(total, dtype=np.int64)
    return positions


def _group_runs(
    sorted_keys: np.ndarray, rows: bool = True
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Runs of identical consecutive entries in a sorted key array.

    Accepts a 1-D code array or a 2-D row-wise key matrix; returns
    ``(starts, counts, group_of_row)`` where ``starts``/``counts`` describe
    each run and ``group_of_row`` maps every row to its run index.  Under
    ``rows=False`` ``group_of_row`` is None, which spares a caller that only
    reads the runs an ``int64`` per row.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy() if rows else None
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    if sorted_keys.ndim == 1:
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    else:
        boundary[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    group_of_row = np.cumsum(boundary) - 1 if rows else None
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


def count_tagged_pairs(codes: np.ndarray, slice_size: int = 1 << 17) -> int:
    """Σ over keys ``k`` of #``2k`` x #``2k + 1`` in the sorted ``codes``: a
    join's match count when its build side tagged each key ``k << 1`` and
    its probe side ``k << 1 | 1``.

    The scan takes slices of about ``slice_size`` codes, each cut back to
    the first code of the key it would split (or, when that key began the
    slice, stretched to its last code), so a key lies in one slice and the
    temporaries stay small.  A run of an even ``v`` followed by a run of
    ``v + 1`` (values differing in the low bit only) is a key both sides
    hold."""
    total = 0
    n = len(codes)
    lo = 0
    while lo < n:
        hi = lo + slice_size
        if hi < n:
            first = (codes[hi] >> 1) << 1
            hi = lo + int(np.searchsorted(codes[lo:hi], first))
            if hi == lo:
                hi += int(np.searchsorted(codes[lo:], first + 1, side="right"))
        part = codes[lo:hi]
        bounds = np.concatenate(([0], np.flatnonzero(part[1:] != part[:-1]) + 1, [len(part)]))
        lengths = np.diff(bounds)
        values = part[bounds[:-1]]
        both = np.flatnonzero((values[1:] ^ values[:-1]) == 1)
        total += int(np.dot(lengths[both], lengths[both + 1]))
        lo = hi
    return total


class BatchOperator:
    """Base class of batch operators; subclasses implement :meth:`frames`.

    :meth:`counts` is what a counting sink reads off the plan's root: the row
    count of every frame :meth:`frames` would have produced, with the same
    accounting.  An operator that can tell a frame's size without building
    the frame overrides it.
    """

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

    def counts(self) -> Iterator[int]:
        for frame in self.frames():
            yield frame.shape[0]

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

    def _account_frame(self, name: str, rows: int) -> None:
        """Shared per-frame accounting before a frame (or, under
        :meth:`counts`, its row count) is handed upstream."""
        self._account(rows)
        self.profile.record_batch()
        self.profile.record_operator(name, out=rows, batches=1)


class BatchScanOperator(BatchOperator):
    """Emits edge batches sliced directly from the graph's edge arrays, or
    from ``edges``, a ``(src, dst)`` subset of them: the sampled scan that
    catalogue construction extends (Section 5.1).

    Without ``demand`` every batch is ``batch_size`` edges, read in
    ``(src, dst)`` order off the forward CSR (``graph.scan_edges``), the way
    Graphflow's SCAN walks its sorted adjacency lists.  ``demand``, the rows
    a row-limited query needs, makes the first batch ``demand`` edges and
    each later one twice the last, up to ``batch_size``, and reads the edges
    in input order (``graph.edges``): the first edges of the CSR order hang
    off a few low-id vertices, which on some graphs take many doublings to
    yield the rows.  A demand of a frame or more runs as unlimited."""

    def __init__(
        self,
        node: ScanNode,
        *args,
        edges: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        demand: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(node, *args, **kwargs)
        self.scan_node = node
        self._edges = edges
        self._demand = demand
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
        batch = max(1, self.config.batch_size)
        limited = self._demand is not None and self._demand < batch
        if self._edges is None:
            src, dst = scan_edge_arrays(
                self.scan_node, self.graph, self.config, adjacency_order=not limited
            )
        else:
            src, dst = self._edges
        edge = self.scan_node.edge
        n_vertices = self.graph.num_vertices
        size = max(1, self._demand) if limited else batch
        start = 0
        while start < len(src):
            self._check_deadline()
            t0 = time.perf_counter()
            u = src[start:start + size]
            v = dst[start:start + size]
            start += size
            size = min(batch, 2 * size)
            mask = np.ones(len(u), dtype=bool)
            if self.config.isomorphism:
                mask &= u != v
            for extra in self._extra_edges:
                s, d = (u, v) if extra.src == edge.src else (v, u)
                keys = self.graph.adjacency_keys(Direction.FORWARD, extra.label, ANY_LABEL)
                mask &= keys.contains(s * n_vertices + d)
            if not mask.all():
                u, v = u[mask], v[mask]
            frame = np.stack((v, u) if self._reversed else (u, v), axis=1)
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)
            if frame.shape[0]:
                self._account_frame(self._name, frame.shape[0])
                yield frame


class _FrameExpander(BatchOperator):
    """An operator over one ``child`` whose :meth:`_process` turns an input
    frame into output frames or, under ``count_only``, their row counts."""

    child: BatchOperator
    _name: str

    def _run(self, count_only: bool) -> Iterator[Union[np.ndarray, int]]:
        for frame in self.child.frames():
            self._check_deadline()
            t0 = time.perf_counter()
            for out in self._process(frame, count_only):
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                self._account_frame(self._name, out if count_only else out.shape[0])
                yield out
                self._check_deadline()
                t0 = time.perf_counter()
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)

    def frames(self) -> Iterator[np.ndarray]:
        return self._run(count_only=False)

    def counts(self) -> Iterator[int]:
        return self._run(count_only=True)


class BatchExtendIntersectOperator(_FrameExpander):
    """EXTEND/INTERSECT over columnar batches, grouped by adjacency keys."""

    def __init__(self, node: ExtendNode, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.extend_node = node
        self.child = child
        resolved: List[Tuple[int, Direction, Optional[int]]] = (
            resolve_extend_descriptors(node, child.node.out_vertices)
        )
        self._to_label = node.to_vertex_label
        # Prefix-intersection reuse (seed source (b)): the child's columns are
        # a prefix of this node's input columns, so equal resolved descriptors
        # name the same adjacency lists.  Only a child that intersected two or
        # more lists is worth reading back: a one-list child's set is that
        # list, which the smallest-list seed already weighs against the
        # others, and reading it off the frame would seed every row from it.
        # The covered descriptors move to the front, which makes the child's
        # key the primary sort key of a frame.
        self._num_covered = 0
        if (
            self.config.enable_intersection_cache
            and isinstance(child, BatchExtendIntersectOperator)
            and len(child._resolved) >= 2
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
        # Shared lists (seed source (c)): rows the child extended from one
        # input row share every list anchored before its to-vertex, so their
        # intersection is computed once per distinct such key.  They move to
        # the front, the to-vertex's lists to the back.
        self._num_shared = 0
        if (
            not self._num_covered
            and self.config.enable_intersection_cache
            and isinstance(child, BatchExtendIntersectOperator)
        ):
            to_column = len(child.node.out_vertices) - 1
            self._num_shared = _shared_lists(resolved, to_column)
            if self._num_shared:
                resolved.sort(key=lambda descriptor: descriptor[0] == to_column)
        if isinstance(child, BatchScanOperator):
            # An unlimited SCAN emits its edges in (src, dst) order: key the
            # scanned source's column first, so its frames arrive sorted.
            source = child.node.out_vertices.index(child.scan_node.edge.src)
            resolved.sort(key=lambda descriptor: descriptor[0] != source)
        self._resolved = resolved
        self._key_idx = np.array([idx for idx, _, _ in resolved], dtype=np.int64)
        self._codes_fit = _codes_fit(len(resolved), self.graph.num_vertices)
        self._csrs = [
            self.graph.csr(direction, edge_label, self._to_label)
            for _, direction, edge_label in resolved
        ]
        self._name = node.display_name()

    # ------------------------------------------------------------------ #
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
            keep = np.flatnonzero(self._csrs[e].keys.contains(probe))
            if len(keep) < len(values):
                groups, values = groups[keep], values[keep]
        return groups, values

    def _record_reads(self, accessed: np.ndarray, weights: Optional[np.ndarray]) -> None:
        """i-cost of reading lists whose summed lengths per distinct key are
        ``accessed``; ``weights`` are the keys' row counts, read only without
        the cache."""
        if self.config.enable_intersection_cache:
            self.profile.record_intersection(int(accessed.sum()))
        else:
            # Without the cache the iterator recomputes per duplicate tuple;
            # mirror that in the i-cost accounting.
            self.profile.record_intersection(int((accessed * weights).sum()))

    def _intersect(
        self, unique_keys: np.ndarray, weights: Optional[np.ndarray], descriptors: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The intersection of the lists ``descriptors`` for every key.
        Seed source (a): the most selective list of each key, one ragged CSR
        gather per descriptor partition; every other list filters the
        survivors."""
        degrees = self._degrees(unique_keys, descriptors)
        self._record_reads(degrees.sum(axis=1), weights)
        seed_choice = np.argmin(degrees, axis=1)
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        for slot, d in enumerate(descriptors):
            group_ids = np.flatnonzero(seed_choice == slot)
            counts = degrees[group_ids, slot]
            if int(counts.sum()) == 0:
                continue
            csr = self._csrs[d]
            starts = csr.indptr[unique_keys[group_ids, d]]
            parts.append(self._filter_survivors(
                np.repeat(group_ids, counts),
                csr.indices[_ragged_positions(starts, counts)],
                unique_keys,
                [e for e in descriptors if e != d],
            ))
        return _by_group(parts)

    def _extensions_from_sets(
        self,
        group_ids: np.ndarray,
        set_of_group: np.ndarray,
        sets: Tuple[np.ndarray, np.ndarray],
        num_sets: int,
        unique_keys: np.ndarray,
        descriptors: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed every group of ``group_ids`` with its set, ``set_of_group``
        of ``sets`` (set ids non-decreasing, values sorted in each set), and
        let the lists ``descriptors`` filter the survivors."""
        set_ids, set_values = sets
        set_sizes = np.bincount(set_ids, minlength=num_sets)
        set_starts = np.cumsum(set_sizes) - set_sizes
        sizes = set_sizes[set_of_group]
        # What is really read: the sets plus the lists that filter them.
        self.profile.record_intersection(
            int(sizes.sum() + self._degrees(unique_keys[group_ids], descriptors).sum())
        )
        return self._filter_survivors(
            np.repeat(group_ids, sizes),
            set_values[_ragged_positions(set_starts[set_of_group], sizes)],
            unique_keys,
            descriptors,
        )

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
        row's expansions never straddle frames (module docstring).  The
        child's key is the leading part of ``keys``: the covered columns, or
        the packed code with the uncovered descriptors' digits divided off.
        """
        n_vertices = self.graph.num_vertices
        if keys.ndim == 1:
            child_keys = keys // n_vertices ** (len(self._resolved) - self._num_covered)
        else:
            child_keys = keys[:, : self._num_covered]
        _, _, child_group_of_row = _group_runs(child_keys)
        # The child expands each input row into ascending values, so when
        # every child key came from one input row these codes are strictly
        # increasing already.
        codes = _distinct(child_group_of_row * n_vertices + sorted_frame[:, -1])
        sibling_group = codes // n_vertices
        return self._extensions_from_sets(
            np.arange(len(starts), dtype=np.int64),
            child_group_of_row[starts],
            (sibling_group, codes - sibling_group * n_vertices),
            0,  # every child key's run holds a value, so no set is empty
            unique_keys,
            range(self._num_covered, len(self._resolved)),
        )

    def _extensions_from_shared(
        self, unique_keys: np.ndarray, group_sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed source (c), shared lists: the groups are runs of equal
        shared keys, the columns the child's input held; for every run of
        two or more groups the shared lists are intersected once, and the
        to-vertex's lists filter that set per group.  A run of one group
        takes the smallest-list seed, which reads less for it.

        Nothing is read off the frame, so unlike seed source (b) this does
        not rely on whole-row frames.  With at least two shared lists a set
        is at most half their summed lengths, so a run of ``g >= 2`` groups
        reads no more than ``g`` smallest-list intersections would."""
        shared = range(self._num_shared)
        run_starts, run_sizes, run_of_group = _group_runs(unique_keys[:, shared])
        multi = run_sizes >= 2
        runs = np.flatnonzero(multi)
        if len(runs) == 0:
            return self._intersect(unique_keys, group_sizes, range(len(self._resolved)))
        self.profile.shared_frames += 1
        self.profile.record_operator(
            self._name, shared=len(runs), shared_lists=len(runs) * self._num_shared
        )
        in_multi = multi[run_of_group]
        grouped = np.flatnonzero(in_multi)
        parts = [self._extensions_from_sets(
            grouped,
            (np.cumsum(multi) - 1)[run_of_group[grouped]],
            # Level 1, under the cache (seed source (c) needs it).
            self._intersect(unique_keys[run_starts[runs]], None, shared),
            len(runs),
            unique_keys,
            range(self._num_shared, len(self._resolved)),
        )]
        singles = np.flatnonzero(~in_multi)
        if len(singles):
            groups, values = self._intersect(
                unique_keys[singles], group_sizes[singles], range(len(self._resolved))
            )
            parts.append((singles[groups], values))
        return _by_group(parts)

    # ------------------------------------------------------------------ #
    def _process(
        self, frame: np.ndarray, count_only: bool
    ) -> Iterator[Union[np.ndarray, int]]:
        """The expansions of one input frame: output frames, or under
        ``count_only`` the number of rows each would have held."""
        n = frame.shape[0]
        # Order rows so equal adjacency keys become consecutive, then find the
        # group boundaries (np.unique(axis=0) without the overhead).
        sorted_frame, keys = _sort_by_key(
            frame, self._key_idx, self.graph.num_vertices, self._codes_fit
        )
        if sorted_frame is not frame:
            self.profile.sorted_frames += 1
            self.profile.record_operator(self._name, sorted=1)
        starts, group_sizes, group_of_row = _group_runs(keys)
        unique_keys = sorted_frame[starts][:, self._key_idx]
        num_groups = len(starts)
        if self.config.enable_intersection_cache:
            # Grouping generalises the single-entry cache: every duplicate of
            # a distinct key is served from the one computed intersection.
            self.profile.cache_hits += int(n - num_groups)
            self.profile.cache_misses += int(num_groups)
        if count_only and not self.config.isomorphism and len(self._resolved) == 1:
            # One list: its extensions are the list, so a count is its
            # length, read off the CSR offsets without gathering it.
            degrees = self._degrees(unique_keys, [0])[:, 0]
            self._record_reads(degrees, group_sizes)
            total = int(degrees @ group_sizes)
            if total:
                yield total
            return
        # Every seed source returns non-decreasing group ids with sorted
        # values inside each group, the layout the expansion below indexes.
        if self._num_covered:
            groups, values = self._extensions_from_siblings(
                sorted_frame, keys, starts, unique_keys
            )
        elif self._num_shared:
            groups, values = self._extensions_from_shared(unique_keys, group_sizes)
        else:
            groups, values = self._intersect(
                unique_keys, group_sizes, range(len(self._resolved))
            )
        counts_per_group = (
            np.bincount(groups, minlength=num_groups)
            if len(groups)
            else np.zeros(num_groups, dtype=np.int64)
        )
        if count_only and not self.config.isomorphism:
            # A count builds no frame, so it needs no chunking: one count per
            # input frame, each row weighted by its group's extensions.
            total = int(counts_per_group @ group_sizes)
            if total:
                yield total
            return
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
            # The distinctness filter reads every column, so under isomorphism
            # a counting sink still has the frame built and takes its size.
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
                yield out.shape[0] if count_only else out


class BatchAdaptiveOperator(_FrameExpander):
    """Adaptive E/I (Section 6): every input row is extended by the cheapest
    of the node's candidate orderings for that row.

    Per input frame: the rows x orderings matrix of re-costed i-costs (each
    ordering's cost is linear in the summed sizes of the adjacency lists its
    first E/I would read for the row, straight off the CSR offsets), every
    row routed to its arg-min ordering, each ordering's rows driven through
    that ordering's chain of :class:`BatchExtendIntersectOperator` one frame
    at a time, and the result's columns permuted back to the node's
    ``out_vertices``.  Intersections, the cache, isomorphism filtering and
    frame chunking are the E/I operators'; this operator accounts as one
    (what flows between the E/Is of a chain is counted as intermediate
    matches, not as any operator's output).
    """

    def __init__(self, node: AdaptiveNode, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.child = child
        self._name = node.display_name()
        #: Per ordering: its E/I operators bottom-up, the two cost constants,
        #: and the column permutation to ``out_vertices`` (None when identity).
        self._tails = []
        for tail in node.tails:
            chain: List[BatchExtendIntersectOperator] = []
            for extend in node.tail_chain(tail):
                below = chain[-1] if chain else child
                chain.append(BatchExtendIntersectOperator(extend, below, *args, **kwargs))
            order = tail.root.out_vertices
            columns = None
            if order != node.out_vertices:
                columns = [order.index(v) for v in node.out_vertices]
            self._tails.append((chain, tail.slope, tail.intercept, columns))

    def _route(self, frame: np.ndarray) -> np.ndarray:
        """The arg-min ordering of every row."""
        costs = np.empty((frame.shape[0], len(self._tails)))
        for j, (chain, slope, intercept, _) in enumerate(self._tails):
            first = chain[0]
            degrees = first._degrees(frame[:, first._key_idx], range(len(first._key_idx)))
            costs[:, j] = slope * degrees.sum(axis=1) + intercept
        return np.argmin(costs, axis=1)

    def _extend(
        self, chain: Sequence[BatchExtendIntersectOperator], frame: np.ndarray, count_only: bool
    ) -> Iterator[Union[np.ndarray, int]]:
        """``frame`` through ``chain``, depth first: what the last E/I yields."""
        if len(chain) == 1:
            yield from chain[0]._process(frame, count_only)
            return
        for out in chain[0]._process(frame, False):
            self._check_deadline()
            self.profile.record_intermediate(out.shape[0])
            yield from self._extend(chain[1:], out, count_only)

    def _process(self, frame: np.ndarray, count_only: bool) -> Iterator[Union[np.ndarray, int]]:
        choice = self._route(frame)
        for j in np.unique(choice):
            chain, _, _, columns = self._tails[j]
            for out in self._extend(chain, frame[choice == j], count_only):
                yield out if count_only or columns is None else out[:, columns]


class BatchHashJoinOperator(BatchOperator):
    """Hash join over columnar batches.

    Every join key is packed into one code, ``((k0*n + k1)*n + k2)...``; a
    key whose code would overflow ``_CODE_BITS`` is refused with a
    :class:`PlanError` when the operator is built.  Two ways to join:

    * :meth:`counts` (the plan's root under ``collect=False``) with no
      predicate to evaluate and no ``output_limit`` tags the codes instead
      of building a table: ``key << 1`` for every build row and
      ``key << 1 | 1`` for every probe row, ``uint32`` while ``2 * n**k``
      fits 32 bits and ``int64`` otherwise.  One in-place sort of all of
      them puts each key's build codes right before its probe codes, and
      :func:`count_tagged_pairs` sums ``build run x probe run`` per key: the
      counting join of Sections 3.2 and 4.2, build plus probe, with no
      output term and no per-row lookup.  It yields one count.
    * Otherwise the build side is sorted by code with its payload columns,
      runs of equal codes being the table's buckets, and each probe frame is
      *located* in it (its codes sorted, one ``searchsorted`` against the
      distinct build codes).  :meth:`frames` writes ``probe row x bucket``
      into one preallocated frame, column by column; a count with
      predicates or a row limit sums what passes, frame by frame.

    Predicates over the joined row (pairwise distinctness across the two
    sides under ``isomorphism``, query edges neither child covers) are
    evaluated on the expanded 1-D columns they read, before anything is
    filled.  Each side arrives pairwise distinct already, so only probe x
    payload pairs are compared, and of those only the ones whose probe
    column is not a join key: a key column equals a build key column, which
    no payload column of its row can equal.

    The probe input has one of two sources: the ``probe`` child or, under a
    ``mirror`` (the probe sub-query is the build sub-query under a renaming,
    :func:`_mirror_columns`), the build drain itself.  Then ``probe`` is
    None: the tagged count reads each build frame's probe codes through the
    mirror as it drains, and the located join keeps the build frames and
    reads them through the mirror as probe frames.  Either source records
    the same ``hash_probes``.
    """

    def __init__(
        self,
        node: HashJoinNode,
        build: BatchOperator,
        probe: Optional[BatchOperator],
        *args,
        mirror: Optional[np.ndarray] = None,
        **kwargs,
    ) -> None:
        super().__init__(node, *args, **kwargs)
        self._name = node.display_name()
        build_key_idx, probe_key_idx, build_payload_idx, self._filter_edges = (
            resolve_hash_join(node)
        )
        k, n = len(build_key_idx), self.graph.num_vertices
        if not _codes_fit(k, n):
            raise PlanError(
                f"{self._name}: a join key of {k} vertex ids needs {k * math.log2(n):.1f} "
                f"bits at num_vertices={n}, over the {_CODE_BITS} of a join code"
            )
        self.build_child = build
        self.probe_child = probe
        self._build_key_idx = np.array(build_key_idx, dtype=np.int64)
        self._probe_key_idx = np.array(probe_key_idx, dtype=np.int64)
        self._mirror = mirror
        #: The drained build frames a mirrored located join probes with.
        self._mirrored: Deque[np.ndarray] = deque()
        self._build_payload_idx = np.array(build_payload_idx, dtype=np.int64)
        self._probe_width = len(node.probe.out_vertices)
        self._distinct_pairs = (
            [
                (i, self._probe_width + j)
                for i in range(self._probe_width)
                if i not in probe_key_idx
                for j in range(len(build_payload_idx))
            ]
            if self.config.isomorphism
            else []
        )
        #: Output columns the predicates read.
        self._predicate_columns = sorted(
            {c for pair in self._distinct_pairs for c in pair}
            | {c for src, dst, _ in self._filter_edges for c in (src, dst)}
        )

    # ------------------------------------------------------------------ #
    def _record_build(self, entries: int) -> None:
        """Accounting of a drained, non-empty build side."""
        self.profile.hash_table_entries += entries
        if self._mirror is not None:
            self.profile.mirrored_joins += 1
            self.profile.record_operator(self._name, mirrored=1)

    def _build(self) -> bool:
        """Drain the build child into the sorted table; False when it is empty."""
        key_parts: List[np.ndarray] = []
        payload_parts: List[np.ndarray] = []
        for frame in self.build_child.frames():
            t0 = time.perf_counter()
            key_parts.append(_pack(frame[:, self._build_key_idx], self.graph.num_vertices))
            payload_parts.append(frame[:, self._build_payload_idx])
            if self._mirror is not None:
                self._mirrored.append(frame)
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)
        if not key_parts:
            return False
        t0 = time.perf_counter()
        keys = np.concatenate(key_parts)
        key_parts.clear()  # let the parts go before the sort
        self._record_build(keys.shape[0])
        order = np.argsort(keys)
        keys = keys[order]
        self._table_starts, self._table_counts, _ = _group_runs(keys, rows=False)
        self._unique_codes = keys[self._table_starts]
        # One contiguous array per payload column: the fill gathers the
        # columns one at a time.
        self._payload = np.ascontiguousarray(np.concatenate(payload_parts)[order].T)
        self.profile.record_operator_time(self._name, time.perf_counter() - t0)
        return True

    def _locate(self, probe_frame: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The probe rows that hit and the bucket of the sorted build side
        each of them hit.  Sorted needles walk the table front to back."""
        keys = _pack(probe_frame[:, self._probe_key_idx], self.graph.num_vertices)
        order = np.argsort(keys)
        loc, hit = locate_sorted(self._unique_codes, keys[order])
        hits = np.flatnonzero(hit)
        return probe_frame[order[hits]], loc[hits]

    def _expanded_columns(
        self, rows: np.ndarray, buckets: np.ndarray, counts: np.ndarray, wanted: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Output columns ``wanted`` of ``rows`` x their buckets, as 1-D arrays."""
        positions = _ragged_positions(self._table_starts[buckets], counts)
        return {
            c: np.repeat(rows[:, c], counts)
            if c < self._probe_width
            else self._payload[c - self._probe_width][positions]
            for c in wanted
        }

    def _predicate_mask(
        self, columns: Dict[int, np.ndarray], total: int
    ) -> Optional[np.ndarray]:
        """Which expanded rows pass the predicates; None when all do."""
        if not self._predicate_columns:
            return None
        mask = np.ones(total, dtype=bool)
        for i, j in self._distinct_pairs:
            mask &= columns[i] != columns[j]
        n_vertices = self.graph.num_vertices
        for src_idx, dst_idx, label in self._filter_edges:
            keys = self.graph.adjacency_keys(Direction.FORWARD, label, ANY_LABEL)
            mask &= keys.contains(columns[src_idx] * n_vertices + columns[dst_idx])
        return None if mask.all() else mask

    def _run(self, count_only: bool) -> Iterator[Union[np.ndarray, int]]:
        """Locate probe frame by probe frame and expand every hit: output
        frames or, under ``count_only``, how many expanded rows pass the
        predicates."""
        if not self._build():
            return
        width = len(self.node.out_vertices)
        wanted = self._predicate_columns if count_only else range(width)
        cap = max(1, self.config.batch_size)
        for probe_frame in self._probe_frames():
            self._check_deadline()
            t0 = time.perf_counter()
            self.profile.hash_probes += probe_frame.shape[0]
            rows, buckets = self._locate(probe_frame)
            match_counts = self._table_counts[buckets]
            # Chunk the expansion so heavily duplicated join keys cannot blow
            # up a single output frame (same bound as the E/I operator).
            for lo, hi in _expansion_segments(match_counts, cap):
                counts = match_counts[lo:hi]
                total = int(counts.sum())
                columns = self._expanded_columns(rows[lo:hi], buckets[lo:hi], counts, wanted)
                keep = self._predicate_mask(columns, total)
                if keep is not None:
                    total = int(np.count_nonzero(keep))
                if total == 0:
                    continue
                if count_only:
                    out = total
                else:
                    out = np.empty((total, width), dtype=np.int64)
                    for c, column in columns.items():
                        out[:, c] = column if keep is None else column[keep]
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
                self._account_frame(self._name, total)
                yield out
                self._check_deadline()
                t0 = time.perf_counter()
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)

    def _probe_frames(self) -> Iterator[np.ndarray]:
        """The probe side's frames: the probe child's or, under a mirror, the
        drained build frames with their columns permuted, each let go as it
        is handed out."""
        if self._mirror is None:
            yield from self.probe_child.frames()
            return
        while self._mirrored:
            yield self._mirrored.popleft()[:, self._mirror]

    def _count_tagged(self) -> Iterator[int]:
        """Σ build rows x probe rows per join key, from one sort of both
        sides' tagged codes; one count, or none when no key matches.  An
        empty build side leaves the probe side unopened."""
        n_keys = self.graph.num_vertices ** len(self._build_key_idx)
        dtype = np.uint32 if 2 * n_keys <= 2**32 else np.int64

        def tagged(frame: np.ndarray, key_idx: np.ndarray, tag: int) -> np.ndarray:
            codes = _pack(frame[:, key_idx], self.graph.num_vertices)
            codes <<= 1
            codes |= tag
            return codes.astype(dtype, copy=False)

        parts: List[np.ndarray] = []
        entries = 0
        mirror_key_idx = None if self._mirror is None else self._mirror[self._probe_key_idx]
        for frame in self.build_child.frames():
            t0 = time.perf_counter()
            parts.append(tagged(frame, self._build_key_idx, 0))
            if mirror_key_idx is not None:
                parts.append(tagged(frame, mirror_key_idx, 1))
            entries += frame.shape[0]
            self.profile.record_operator_time(self._name, time.perf_counter() - t0)
        if not parts:
            return
        self._record_build(entries)
        if mirror_key_idx is not None:
            self.profile.hash_probes += entries
        else:
            for frame in self.probe_child.frames():
                self._check_deadline()
                t0 = time.perf_counter()
                self.profile.hash_probes += frame.shape[0]
                parts.append(tagged(frame, self._probe_key_idx, 1))
                self.profile.record_operator_time(self._name, time.perf_counter() - t0)
        self._check_deadline()
        t0 = time.perf_counter()
        codes = np.concatenate(parts)
        parts.clear()
        codes.sort()
        total = count_tagged_pairs(codes)
        del codes  # not held while the count waits at the yield
        self.profile.record_operator_time(self._name, time.perf_counter() - t0)
        if total:
            self._account_frame(self._name, total)
            yield total

    def frames(self) -> Iterator[np.ndarray]:
        return self._run(count_only=False)

    def counts(self) -> Iterator[int]:
        if self._predicate_columns or self.config.output_limit is not None:
            return self._run(count_only=True)
        return self._count_tagged()


def build_batch_operator_tree(
    node: PlanNode,
    graph: Graph,
    profile: ExecutionProfile,
    config: ExecutionConfig,
    is_root: bool = True,
    demand: Optional[int] = None,
) -> BatchOperator:
    """Recursively wire batch operators for a plan subtree.

    ``demand`` (the query's ``output_limit``) goes down child and probe
    edges only, so it reaches the SCAN the pipeline pulls rows from -- the
    one :func:`repro.executor.parallel.primary_scan` finds -- and never a
    HASH-JOIN build side, which is drained in full whatever the limit."""
    if isinstance(node, ScanNode):
        return BatchScanOperator(node, graph, profile, config, is_root, demand=demand)
    if isinstance(node, ExtendNode):
        child = build_batch_operator_tree(node.child, graph, profile, config, False, demand)
        return BatchExtendIntersectOperator(node, child, graph, profile, config, is_root)
    if isinstance(node, AdaptiveNode):
        child = build_batch_operator_tree(node.child, graph, profile, config, False, demand)
        return BatchAdaptiveOperator(node, child, graph, profile, config, is_root)
    if isinstance(node, HashJoinNode):
        build = build_batch_operator_tree(node.build, graph, profile, config, False)
        # A morsel ranges the probe side's scan, so its probe rows are a
        # subset of the build side's: mirroring is for whole runs only.
        mirror = _mirror_columns(node) if config.scan_range is None else None
        probe = (
            build_batch_operator_tree(node.probe, graph, profile, config, False, demand)
            if mirror is None
            else None
        )
        return BatchHashJoinOperator(
            node, build, probe, graph, profile, config, is_root, mirror=mirror
        )
    raise PlanError(f"unknown plan node type: {type(node).__name__}")


def _mirror_columns(node: HashJoinNode) -> Optional[np.ndarray]:
    """The build column of every probe column when the probe sub-query is
    the build sub-query under a vertex renaming ``phi``, else None.

    The matches of a query graph do not depend on its vertex names, so the
    probe side's rows are then the build side's, column ``i`` read from the
    build column of ``phi(probe.out_vertices[i])``."""
    phi = isomorphism_mapping(node.probe.sub_query, node.build.sub_query)
    if phi is None:
        return None
    build_order = node.build.out_vertices
    return np.array([build_order.index(phi[v]) for v in node.probe.out_vertices], dtype=np.int64)


def execute_plan_vectorized(
    plan: Plan,
    graph: Graph,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
):
    """Run ``plan`` with the batch-at-a-time engine.

    Semantics match :func:`repro.executor.pipeline.execute_plan`: deadlines
    are checked per batch, and the run stops as soon as ``output_limit``
    rows have reached the sink.  The limit is also the pipeline SCAN's
    demand (:class:`BatchScanOperator`), so a row-limited query costs in
    proportion to its limit rather than to a ``batch_size`` frame.
    With ``collect`` the root operator's frames are kept; without it the
    root is asked for row counts only (:meth:`BatchOperator.counts`), so the
    final operator's output is never built.  Both record the same profile,
    except the root's ``batches``: an E/I root without isomorphism counts
    once per input frame and a HASH-JOIN root without predicates or a row
    limit counts once, from one sort of both sides' tagged join codes,
    where collecting yields one frame per ``batch_size`` rows.
    """
    from repro.executor.pipeline import ExecutionResult

    config = config or ExecutionConfig()
    profile = ExecutionProfile()
    root = build_batch_operator_tree(
        plan.root, graph, profile, config, is_root=True, demand=config.output_limit
    )
    frames: Optional[List[np.ndarray]] = [] if collect else None
    count = 0
    truncated = False
    deadline_exceeded = False
    start = time.perf_counter()
    try:
        for out in root.frames() if collect else root.counts():
            if collect:
                frames.append(out)  # type: ignore[union-attr]
                count += out.shape[0]
            else:
                count += out
            if config.output_limit is not None and count >= config.output_limit:
                overshoot = count - config.output_limit
                if overshoot and collect:
                    frames[-1] = out[: out.shape[0] - overshoot]  # type: ignore[index]
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
