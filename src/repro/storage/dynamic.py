"""The mutable graph: an immutable CSR base plus a delta overlay.

:class:`DynamicGraph` is the storage subsystem's front end.  Writers call
:meth:`add_edges` / :meth:`delete_edges` / :meth:`add_vertices`; each batch
is packed into arrays once and produces a new immutable
:class:`~repro.storage.delta.DeltaStore` (one vectorised lookup and merge per
batch, untouched partitions shared) and bumps the version counter.  Readers call
:meth:`snapshot` to pin an O(1) consistent view; the whole
:class:`~repro.graph.graph.Graph` read API is also available directly on the
dynamic graph (delegating to the current snapshot), so a ``DynamicGraph`` can
be dropped anywhere a ``Graph`` is consumed.

When the overlay grows past ``compact_ratio`` of the base edge count (or
``compact_min_edges``, whichever is larger), the next write triggers
:meth:`compact`, which merges base + delta into a fresh CSR base.  Compaction
never disturbs concurrent readers: existing snapshots keep their old
``(base, delta)`` references, and the logical content — hence the version —
is unchanged.

With a :class:`~repro.storage.compaction.CompactionManager` attached
(:meth:`set_write_listener`), synchronous threshold compaction is disabled:
writes merely notify the manager and return immediately, and the manager
merges base + delta on its own thread via :meth:`try_compact` — the heavy
materialization runs without the write lock, and the new base is installed
with a compare-and-swap on the epoch counter so a racing write simply makes
the install retry.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.graph import ANY_LABEL, Direction, Graph, label_of
from repro.storage.delta import DeltaStore, Edge
from repro.storage.snapshot import GraphSnapshot


def normalize_edges(edges: Iterable[Tuple[int, ...]]) -> List[Edge]:
    """Normalize an iterable of ``(src, dst[, label])`` tuples into unique
    ``(src, dst, label)`` triples, rejecting self-loops."""
    batch: List[Edge] = []
    seen = set()
    for edge in edges:
        if len(edge) == 2:
            key = (int(edge[0]), int(edge[1]), 0)
        elif len(edge) == 3:
            key = (int(edge[0]), int(edge[1]), int(edge[2]))
        else:
            raise GraphConstructionError(f"cannot interpret edge tuple {edge!r}")
        if key[0] < 0 or key[1] < 0:
            raise GraphConstructionError("vertex ids must be non-negative")
        if key[0] == key[1]:
            raise GraphConstructionError("self-loops are not supported")
        if key not in seen:
            seen.add(key)
            batch.append(key)
    return batch


def _pack(batch: Sequence[Edge]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A normalized batch as contiguous ``(src, dst, label)`` arrays."""
    src, dst, lab = np.array(batch, dtype=np.int64).reshape(-1, 3).T.copy()
    return src, dst, lab


def compaction_threshold(base_edges: int, ratio: float, min_edges: int) -> int:
    """Overlay size beyond which compaction should run — the single
    definition shared by the synchronous write path and the background
    :class:`~repro.storage.compaction.CompactionManager`."""
    return max(min_edges, int(ratio * base_edges))


class _State(NamedTuple):
    """One atomically-swapped storage state (everything a snapshot pins)."""

    base: Graph
    delta: DeltaStore
    vertex_labels: np.ndarray
    version: int

    @property
    def is_clean(self) -> bool:
        """Nothing beyond the base: no delta edges, no appended vertices
        (compaction would be a no-op)."""
        return self.delta.is_empty and len(self.vertex_labels) == self.base.num_vertices


class DynamicGraph:
    """A mutable, versioned graph with MVCC snapshot reads.

    Example
    -------
    >>> from repro.graph.builder import graph_from_edges
    >>> g = DynamicGraph(graph_from_edges([(0, 1), (1, 2)]))
    >>> before = g.snapshot()
    >>> g.add_edges([(0, 2)])
    [(0, 2, 0)]
    >>> before.num_edges, g.num_edges
    (2, 3)
    """

    def __init__(
        self,
        base: Graph,
        compact_ratio: float = 0.25,
        compact_min_edges: int = 4096,
        auto_compact: bool = True,
    ) -> None:
        labels = np.asarray(base.vertex_labels, dtype=np.int64)
        self._state = _State(base=base, delta=DeltaStore.empty(), vertex_labels=labels, version=0)
        self._lock = threading.RLock()
        self.compact_ratio = compact_ratio
        self.compact_min_edges = compact_min_edges
        self.auto_compact = auto_compact
        self.compactions = 0
        self._snapshot_cache: Optional[GraphSnapshot] = None
        # Called (with the write lock held) after every version bump; a
        # CompactionManager registers a cheap Event.set here.  When set,
        # threshold compaction is the listener's job — writes never compact.
        self._write_listener: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, materialize: bool = False) -> Union[GraphSnapshot, Graph]:
        """An immutable view of the current state.

        With ``materialize=False`` (default) this is O(1): the snapshot pins
        the current ``(base, delta)`` pair.  With ``materialize=True`` the
        graph is compacted first (if dirty) and the resulting flat
        :class:`Graph` base is returned — the form the vectorized executor
        gets its columnar arrays from at full speed.
        """
        if materialize:
            with self._lock:
                self.compact()
                return self._state.base
        state = self._state
        cached = self._snapshot_cache
        if cached is not None and cached.version == state.version and cached.base is state.base:
            return cached
        snap = GraphSnapshot(
            base=state.base,
            delta=state.delta,
            vertex_labels=state.vertex_labels,
            version=state.version,
        )
        self._snapshot_cache = snap
        return snap

    @property
    def version(self) -> int:
        """Monotonic epoch counter; bumped by every effective write batch."""
        return self._state.version

    @property
    def base(self) -> Graph:
        """The current immutable CSR base (changes only on compaction)."""
        return self._state.base

    @property
    def delta_edges(self) -> int:
        """Current overlay size (inserted + deleted edges since compaction)."""
        return self._state.delta.num_delta_edges

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def add_edges(
        self, edges: Iterable[Tuple[int, ...]], _normalized: bool = False
    ) -> List[Edge]:
        """Insert a batch of ``(src, dst[, label])`` edges.

        Edges already present are ignored; vertices referenced beyond the
        current id range are created with label 0.  Returns the triples
        actually inserted.  ``_normalized`` lets callers that already ran
        :func:`normalize_edges` (the durable write path does, before WAL
        logging) skip the second validation pass.
        """
        batch = list(edges) if _normalized else normalize_edges(edges)
        if not batch:
            return []
        src, dst, lab = _pack(batch)
        with self._lock:
            state = self._state
            labels = state.vertex_labels
            grow = int(max(src.max(), dst.max())) + 1 - len(labels)
            if grow > 0:
                labels = np.concatenate([labels, np.zeros(grow, dtype=np.int64)])
            delta, applied = state.delta.with_insertions(state.base, src, dst, lab, labels)
            if not applied.any() and grow <= 0:
                return []
            self._state = _State(
                base=state.base,
                delta=delta,
                vertex_labels=labels,
                version=state.version + 1,
            )
            self._maybe_compact()
            return [batch[i] for i in np.flatnonzero(applied)]

    def delete_edges(
        self, edges: Iterable[Tuple[int, ...]], _normalized: bool = False
    ) -> List[Edge]:
        """Delete a batch of edges; missing edges are ignored.  Returns the
        triples actually removed."""
        batch = list(edges) if _normalized else normalize_edges(edges)
        if not batch:
            return []
        src, dst, lab = _pack(batch)
        with self._lock:
            state = self._state
            delta, applied = state.delta.with_deletions(
                state.base, src, dst, lab, state.vertex_labels
            )
            if not applied.any():
                return []
            self._state = _State(
                base=state.base,
                delta=delta,
                vertex_labels=state.vertex_labels,
                version=state.version + 1,
            )
            self._maybe_compact()
            return [batch[i] for i in np.flatnonzero(applied)]

    def add_vertices(
        self, count: Optional[int] = None, labels: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Append ``count`` label-0 vertices (or one per entry of ``labels``)
        and return their new ids."""
        if (count is None) == (labels is None):
            raise GraphConstructionError("pass exactly one of count= or labels=")
        new_labels = (
            np.zeros(count, dtype=np.int64)
            if labels is None
            else np.asarray(list(labels), dtype=np.int64)
        )
        if len(new_labels) == 0:
            return []
        with self._lock:
            state = self._state
            first = len(state.vertex_labels)
            self._state = _State(
                base=state.base,
                delta=state.delta,
                vertex_labels=np.concatenate([state.vertex_labels, new_labels]),
                version=state.version + 1,
            )
            return list(range(first, first + len(new_labels)))

    def has_edge(self, src: int, dst: int, edge_label: Optional[int] = ANY_LABEL) -> bool:
        return self.snapshot().has_edge(src, dst, edge_label)

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def set_write_listener(self, listener: Optional[Callable[[], None]]) -> None:
        """Register (or clear, with ``None``) the post-write notification.

        The listener runs with the write lock held, so it must be cheap and
        must not take other locks — a ``threading.Event.set`` is the intended
        payload.  While a listener is registered, writes never compact
        synchronously regardless of ``auto_compact``.
        """
        with self._lock:
            self._write_listener = listener

    @property
    def compaction_threshold(self) -> int:
        """Overlay size beyond which compaction should run."""
        return compaction_threshold(
            self._state.base.num_edges, self.compact_ratio, self.compact_min_edges
        )

    def needs_compaction(self) -> bool:
        return self._state.delta.num_delta_edges > self.compaction_threshold

    def _maybe_compact(self) -> None:
        if self._write_listener is not None:
            self._write_listener()
            return
        if not self.auto_compact:
            return
        if self.needs_compaction():
            self.compact()

    def compact(self) -> Graph:
        """Merge the delta overlay into a fresh immutable CSR base.

        Logical content (and therefore the version) is unchanged; existing
        snapshots keep reading their pinned old state.
        """
        with self._lock:
            state = self._state
            if state.is_clean:
                return state.base
            snap = GraphSnapshot(
                base=state.base,
                delta=state.delta,
                vertex_labels=state.vertex_labels,
                version=state.version,
            )
            new_base = snap.materialize(name=state.base.name)
            self._state = _State(
                base=new_base,
                delta=DeltaStore.empty(),
                vertex_labels=new_base.vertex_labels,
                version=state.version,
            )
            self.compactions += 1
            return new_base

    def try_compact(self) -> bool:
        """One off-lock compaction attempt (the background-compaction
        primitive).

        The current state is pinned, base + delta are materialized into a
        fresh CSR **without holding the write lock** (writers proceed
        concurrently), and the new base is installed only if the epoch
        counter still matches the pinned state — logical content and version
        are unchanged by a successful install, exactly like :meth:`compact`.
        Returns ``False`` when a concurrent write raced the materialization
        (nothing is installed; the caller may retry against the newer state).
        """
        state = self._state
        if state.is_clean:
            return True
        snap = GraphSnapshot(
            base=state.base,
            delta=state.delta,
            vertex_labels=state.vertex_labels,
            version=state.version,
        )
        new_base = snap.materialize(name=state.base.name)  # heavy, lock-free
        with self._lock:
            current = self._state
            if current.version != state.version or current.base is not state.base:
                return False
            self._state = _State(
                base=new_base,
                delta=DeltaStore.empty(),
                vertex_labels=new_base.vertex_labels,
                version=current.version,
            )
            self.compactions += 1
            return True

    # ------------------------------------------------------------------ #
    # Graph read API (delegated to the current snapshot)
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._state.base.name

    @property
    def num_vertices(self) -> int:
        return int(len(self._state.vertex_labels))

    @property
    def num_edges(self) -> int:
        state = self._state
        return state.base.num_edges - state.delta.num_deleted + state.delta.num_inserted

    @property
    def vertex_labels(self) -> np.ndarray:
        return self._state.vertex_labels

    @property
    def edge_src(self) -> np.ndarray:
        return self.snapshot().edge_src

    @property
    def edge_dst(self) -> np.ndarray:
        return self.snapshot().edge_dst

    @property
    def edge_labels(self) -> np.ndarray:
        return self.snapshot().edge_labels

    @property
    def edge_label_values(self) -> np.ndarray:
        return self.snapshot().edge_label_values

    @property
    def vertex_label_values(self) -> np.ndarray:
        return np.unique(self._state.vertex_labels)

    def vertex_label(self, vertex: int) -> int:
        return label_of(self._state.vertex_labels, vertex)

    def vertices_with_label(self, label: Optional[int]) -> np.ndarray:
        return self.snapshot().vertices_with_label(label)

    def neighbors(self, *args, **kwargs) -> np.ndarray:
        return self.snapshot().neighbors(*args, **kwargs)

    def degree(self, *args, **kwargs) -> int:
        return self.snapshot().degree(*args, **kwargs)

    def degree_array(self, *args, **kwargs) -> np.ndarray:
        return self.snapshot().degree_array(*args, **kwargs)

    def csr(self, *args, **kwargs):
        return self.snapshot().csr(*args, **kwargs)

    def adjacency_keys(self, *args, **kwargs):
        return self.snapshot().adjacency_keys(*args, **kwargs)

    @property
    def delta_ratio(self) -> float:
        return self.snapshot().delta_ratio

    def partition_delta_ratio(self, *args, **kwargs) -> float:
        return self.snapshot().partition_delta_ratio(*args, **kwargs)

    def edges(self, *args, **kwargs) -> Tuple[np.ndarray, np.ndarray]:
        return self.snapshot().edges(*args, **kwargs)

    def scan_edges(self, *args, **kwargs) -> Tuple[np.ndarray, np.ndarray]:
        return self.snapshot().scan_edges(*args, **kwargs)

    def count_edges(self, *args, **kwargs) -> int:
        return self.snapshot().count_edges(*args, **kwargs)

    def iter_edges(self):
        return self.snapshot().iter_edges()

    def __repr__(self) -> str:
        state = self._state
        return (
            f"DynamicGraph(name={state.base.name!r}, version={state.version}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, "
            f"delta=+{state.delta.num_inserted}/-{state.delta.num_deleted}, "
            f"compactions={self.compactions})"
        )


__all__ = ["DynamicGraph", "compaction_threshold", "normalize_edges"]
