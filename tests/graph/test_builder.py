"""GraphBuilder against a list-plus-set reference model, and the edge-list
loader that builds through it."""

import os
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph import io
from repro.graph.builder import GraphBuilder


class ReferenceBuilder:
    """One tuple per edge in a list, repeats caught by a set on the way in."""

    def __init__(self, deduplicate: bool) -> None:
        self.labels: Dict[int, int] = {}
        self.edges: List[Tuple[int, int, int]] = []
        self.seen: set = set()
        self.deduplicate = deduplicate

    def add_vertex(self, v: int, label: int) -> None:
        if v < 0:
            raise GraphConstructionError("negative id")
        self.labels[v] = label

    def add_edge(self, s: int, d: int, label: int) -> None:
        if s < 0 or d < 0:
            raise GraphConstructionError("negative id")
        if s == d:
            raise GraphConstructionError("self-loop")
        key = (s, d, label)
        if self.deduplicate:
            if key in self.seen:
                return
            self.seen.add(key)
        self.edges.append(key)
        self.labels.setdefault(s, 0)
        self.labels.setdefault(d, 0)

    def add_edge_arrays(self, src, dst, labels) -> None:
        """All of the call's edges or, when one is invalid, none."""
        for s, d in zip(src, dst):
            if s < 0 or d < 0 or s == d:
                raise GraphConstructionError("invalid edge")
        for edge in zip(src, dst, labels):
            self.add_edge(*edge)

    def build(self, num_vertices: Optional[int]):
        max_seen = max(self.labels, default=-1)
        if num_vertices is not None and max_seen >= num_vertices:
            raise GraphConstructionError("id >= num_vertices")
        n = max_seen + 1 if num_vertices is None else num_vertices
        vertex_labels = [0] * n
        for v, label in self.labels.items():
            vertex_labels[v] = label
        columns = [list(c) for c in zip(*self.edges)] or [[], [], []]
        return vertex_labels, columns


# Ids in -1..7 and labels in 0..2 make repeats, self-loops and negative ids
# common; a vertex op may relabel an id an edge already mentioned.  An
# "edges" op adds its triples in one add_edge_arrays call.
ids = st.integers(min_value=-1, max_value=7)
triples = st.tuples(ids, ids, st.integers(min_value=0, max_value=2))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), ids, ids, st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("vertex"), ids, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("edges"), st.lists(triples, max_size=6)),
    ),
    max_size=40,
)


def _apply(target, op) -> bool:
    """Apply ``op``; True when it raised GraphConstructionError."""
    try:
        if op[0] == "edge":
            target.add_edge(op[1], op[2], op[3])
        elif op[0] == "edges":
            src, dst, labels = (list(c) for c in zip(*op[1])) if op[1] else ([], [], [])
            target.add_edge_arrays(np.array(src, dtype=np.int64), dst, labels)
        else:
            target.add_vertex(op[1], op[2])
    except GraphConstructionError:
        return True
    return False


class TestBuilderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        stream=ops,
        deduplicate=st.booleans(),
        num_vertices=st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    )
    def test_stream(self, stream, deduplicate, num_vertices):
        builder = GraphBuilder(deduplicate=deduplicate)
        ref = ReferenceBuilder(deduplicate)
        for op in stream:
            assert _apply(builder, op) == _apply(ref, op)
        assert builder.num_edges == len(ref.edges)
        assert builder.num_vertices == len(ref.labels)
        try:
            want_labels, (want_src, want_dst, want_lab) = ref.build(num_vertices)
        except GraphConstructionError:
            with pytest.raises(GraphConstructionError):
                builder.build(num_vertices=num_vertices)
            return
        g = builder.build(num_vertices=num_vertices)
        for got, want in (
            (g.vertex_labels, want_labels),
            (g.edge_src, want_src),
            (g.edge_dst, want_dst),
            (g.edge_labels, want_lab),
        ):
            assert got.dtype == np.int64
            assert got.tolist() == want
        # build() does not consume the builder.
        assert builder.build(num_vertices=num_vertices).edge_src.tolist() == want_src

    def test_bulk_columns_of_unequal_length_are_refused(self):
        builder = GraphBuilder().add_edge(0, 1)
        with pytest.raises(GraphConstructionError):
            builder.add_edge_arrays([1, 2], [2], [0, 0])
        with pytest.raises(GraphConstructionError):
            builder.add_edge_arrays([[1]], [[2]], [[0]])
        assert builder.num_edges == 1


raw_ids = st.sampled_from([3, 17, 17, 42, 1000, 7, 999])


class TestEdgeListRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(raw_ids, raw_ids, st.one_of(st.none(), st.integers(0, 2))), max_size=30
        )
    )
    def test_load_matches_a_line_by_line_parse(self, lines):
        """Ids are remapped in first-seen order, self-loops skipped, repeated
        triples kept once at their first line."""
        id_map: Dict[int, int] = {}
        want: List[Tuple[int, int, int]] = []
        for s, d, label in lines:
            s, d = (id_map.setdefault(raw, len(id_map)) for raw in (s, d))
            triple = (s, d, label or 0)
            if s != d and triple not in want:
                want.append(triple)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w") as f:
                f.write("# raw ids\n")
                for s, d, label in lines:
                    f.write(f"{s} {d}\n" if label is None else f"{s} {d} {label}\n")
            g = io.load_edge_list(path)
        assert list(g.iter_edges()) == want
        assert g.num_vertices == 1 + max((max(s, d) for s, d, _ in want), default=-1)

    def test_save_then_load_is_the_identity(self, tmp_path):
        b = GraphBuilder()
        for s, d, label in [(0, 1, 0), (1, 2, 1), (2, 0, 0), (0, 2, 2), (2, 3, 1)]:
            b.add_edge(s, d, label)
        for v, label in enumerate([4, 0, 2, 1]):
            b.add_vertex(v, label)
        g = b.build(name="g")
        edge_path, label_path = str(tmp_path / "g.txt"), str(tmp_path / "labels.txt")
        io.save_edge_list(g, edge_path)
        io.save_vertex_labels(g, label_path)
        loaded = io.load_edge_list(edge_path, vertex_label_path=label_path)
        for field in ("vertex_labels", "edge_src", "edge_dst", "edge_labels"):
            assert getattr(loaded, field).tolist() == getattr(g, field).tolist()
