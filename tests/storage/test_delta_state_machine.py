"""A stateful check of ``DynamicGraph`` against a Python set model.

Hypothesis drives random sequences of writes (inserts that resurrect deleted
base edges or reach beyond the vertex range, deletes of base, delta and
absent edges), ``add_vertices``, ``compact`` and snapshot pins.  After every
step, every pinned snapshot and the live one must answer the whole read API
exactly as the model of its own version does: per-vertex ``neighbors`` /
``degree`` / ``has_edge``, the columnar ``csr`` / ``adjacency_keys``, the edge
scans in scan order, the batch engine's full scan (``scan_edges``) in
``(src, dst)`` order, and the per-partition delta sizes the cost model reads.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.graph.builder import graph_from_edges
from repro.graph.graph import ANY_LABEL, Direction
from repro.storage import DynamicGraph

Edge = Tuple[int, int, int]

BASE_VERTICES = 8
EDGE_LABELS = (0, 1)
#: A small multi-label base: 0 -> 1 and 1 -> 3 under both edge labels, so a
#: neighbour is reached through two labels and a delete must drop one entry.
BASE_EDGES: List[Edge] = [
    (0, 1, 0), (0, 1, 1), (1, 2, 0), (2, 0, 1), (2, 3, 0), (1, 3, 0), (1, 3, 1),
    (3, 4, 1), (4, 0, 0), (5, 6, 1), (6, 7, 0), (7, 5, 0), (3, 5, 1),
]
FILTERS = (ANY_LABEL, 0, 1, 2)

vertex_ids = st.integers(0, BASE_VERTICES + 3)
edges = st.tuples(vertex_ids, vertex_ids, st.sampled_from(EDGE_LABELS)).filter(
    lambda e: e[0] != e[1]
)


class Version(NamedTuple):
    """The model of one version: what a snapshot of it must answer."""

    edges: frozenset
    labels: Tuple[int, ...]
    base: frozenset
    #: The edge scan: surviving base edges in base order, then inserts in
    #: the order they were written.
    scan: Tuple[Edge, ...]


def matches(value, wanted) -> bool:
    return wanted is ANY_LABEL or value == wanted


class DynamicGraphMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        labels = {v: v % 2 for v in range(BASE_VERTICES)}
        base = graph_from_edges(BASE_EDGES, vertex_labels=labels)
        self.graph = DynamicGraph(base, auto_compact=False)
        self.edges = set(BASE_EDGES)
        self.labels = [labels[v] for v in range(BASE_VERTICES)]
        self.base = frozenset(BASE_EDGES)
        self.base_order = list(self.graph.base.iter_edges())
        self.arrivals: List[Edge] = []
        self.dropped: List[Edge] = []
        self.pinned: List[Tuple[object, Version]] = []

    def version(self) -> Version:
        scan = [e for e in self.base_order if e in self.edges] + self.arrivals
        return Version(frozenset(self.edges), tuple(self.labels), self.base, tuple(scan))

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def _insert(self, batch: List[Edge]) -> None:
        batch = list(dict.fromkeys(batch))
        expected = [e for e in batch if e not in self.edges]
        assert self.graph.add_edges(batch) == expected
        top = max(max(s, d) for s, d, _ in batch)
        self.labels += [0] * (top + 1 - len(self.labels))
        for edge in expected:
            self.edges.add(edge)
            if edge not in self.base:
                self.arrivals.append(edge)

    def _delete(self, batch: List[Edge]) -> None:
        batch = list(dict.fromkeys(batch))
        applied = self.graph.delete_edges(batch)
        assert sorted(applied) == sorted(e for e in batch if e in self.edges)
        for edge in applied:
            self.edges.discard(edge)
            if edge in self.arrivals:
                self.arrivals.remove(edge)
                self.dropped.append(edge)

    @rule(batch=st.lists(edges, min_size=1, max_size=5))
    def insert(self, batch):
        """Fresh edges, present ones, and vertices beyond the range."""
        self._insert(batch)

    @rule(data=st.data())
    def resurrect(self, data):
        """Re-insert base edges, deleted or not."""
        self._insert(data.draw(st.lists(st.sampled_from(BASE_EDGES), min_size=1, max_size=3)))

    @rule(data=st.data())
    def reinsert(self, data):
        """Re-insert edges deleted since the base, which go to the end of the
        write order again."""
        if self.dropped:
            self._insert(data.draw(st.lists(st.sampled_from(self.dropped), min_size=1, max_size=3)))

    @rule(batch=st.lists(st.sampled_from(BASE_EDGES), min_size=1, max_size=3))
    def delete_base(self, batch):
        self._delete(batch)

    @rule(data=st.data())
    def delete_inserted(self, data):
        """Delete edges written since the base, with an absent one."""
        inserted = sorted(self.edges - self.base)
        batch = data.draw(st.lists(st.sampled_from(inserted), max_size=3)) if inserted else []
        self._delete(batch + [data.draw(edges)])

    @rule(labels=st.lists(st.sampled_from((0, 1)), min_size=1, max_size=2))
    def add_vertices(self, labels):
        first = len(self.labels)
        assert self.graph.add_vertices(labels=labels) == list(range(first, first + len(labels)))
        self.labels += labels

    @rule()
    def compact(self):
        self.base_order = [e for e in self.base_order if e in self.edges] + self.arrivals
        self.arrivals = []
        self.base = frozenset(self.edges)
        self.graph.compact()

    @rule()
    def pin(self):
        self.pinned = self.pinned[-2:] + [(self.graph.snapshot(), self.version())]

    # ------------------------------------------------------------------ #
    # every pinned version reads as its model
    # ------------------------------------------------------------------ #
    @invariant()
    def snapshots_read_as_their_versions(self):
        for snapshot, version in self.pinned + [(self.graph.snapshot(), self.version())]:
            check_snapshot(snapshot, version)


def check_snapshot(snap, version: Version) -> None:
    labels, n = version.labels, len(version.labels)
    assert snap.num_vertices == n and snap.num_edges == len(version.edges)
    assert list(snap.iter_edges()) == list(version.scan)
    for direction in Direction:
        forward = direction is Direction.FORWARD
        for el in FILTERS:
            for nl in FILTERS:
                expected = {v: [] for v in range(n)}
                for s, d, label in version.edges:
                    anchor, neighbour = (s, d) if forward else (d, s)
                    if matches(label, el) and matches(labels[neighbour], nl):
                        expected[anchor].append(neighbour)
                csr = snap.csr(direction, el, nl)
                codes = []
                for v in range(n):
                    run = sorted(expected[v])
                    assert snap.neighbors(v, direction, el, nl).tolist() == run
                    assert snap.degree(v, direction, el, nl) == len(run)
                    assert csr.neighbors(v).tolist() == run
                    codes += [v * n + w for w in run]
                assert snap.adjacency_keys(direction, el, nl).codes.tolist() == codes
                changed = version.edges ^ version.base
                assert snap.delta.partition_delta_edges(direction, el, nl) == sum(
                    matches(label, el) and matches(labels[d if forward else s], nl)
                    for s, d, label in changed
                )
    for el in FILTERS:
        for src_label in FILTERS:
            for dst_label in FILTERS:
                want = sorted(
                    (s, d)
                    for s, d, label in version.edges
                    if matches(label, el) and matches(labels[s], src_label)
                    and matches(labels[d], dst_label)
                )
                src, dst = snap.edges(el, src_label, dst_label)
                assert sorted(zip(src.tolist(), dst.tolist())) == want
                # The batch engine's full scan: the same edges, sorted.
                src, dst = snap.scan_edges(el, src_label, dst_label)
                assert list(zip(src.tolist(), dst.tolist())) == want
                assert snap.count_edges(el, src_label, dst_label) == len(want)
    for s in range(n):
        for d in range(n):
            for el in FILTERS:
                want = any(e[:2] == (s, d) and matches(e[2], el) for e in version.edges)
                assert snap.has_edge(s, d, el) == want


DynamicGraphMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestDynamicGraphMachine = DynamicGraphMachine.TestCase
