"""Incremental construction of :class:`repro.graph.graph.Graph` objects."""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.graph import Graph


class GraphBuilder:
    """Accumulates vertices and edges, then freezes them into a ``Graph``.

    Vertices may be added explicitly with :meth:`add_vertex` (to assign
    labels) or implicitly by being mentioned in :meth:`add_edge`, in which case
    they receive label ``0``.

    Edges are held in three ``array('q')`` columns (src, dst, label), 24 bytes
    an edge with no Python object per edge.  With ``deduplicate`` a repeated
    ``(src, dst, label)`` triple is dropped once, in :meth:`build`, keeping its
    first occurrence in insertion order.

    Example
    -------
    >>> b = GraphBuilder()
    >>> b.add_edge(0, 1)
    >>> b.add_edge(1, 2, label=3)
    >>> g = b.build(name="tiny")
    >>> g.num_vertices, g.num_edges
    (3, 2)
    """

    def __init__(self, deduplicate: bool = True) -> None:
        self._vertex_labels: Dict[int, int] = {}
        self._src = array("q")
        self._dst = array("q")
        self._labels = array("q")
        self._deduplicate = deduplicate

    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: int, label: int = 0) -> "GraphBuilder":
        if vertex < 0:
            raise GraphConstructionError("vertex ids must be non-negative")
        self._vertex_labels[vertex] = label
        return self

    def add_edge(self, src: int, dst: int, label: int = 0) -> "GraphBuilder":
        """Add the directed edge ``src -> dst``. Self-loops are rejected
        (subgraph queries in the paper are over simple directed graphs)."""
        if src < 0 or dst < 0:
            raise GraphConstructionError("vertex ids must be non-negative")
        if src == dst:
            raise GraphConstructionError("self-loops are not supported")
        self._src.append(src)
        self._dst.append(dst)
        self._labels.append(label)
        return self

    def add_edge_arrays(self, src, dst, labels) -> "GraphBuilder":
        """Add the edges ``src[i] -> dst[i]`` with label ``labels[i]`` in one
        call, in order.  Validated as :meth:`add_edge` validates; on an error
        no edge of the call is added."""
        columns = [np.asarray(c, dtype=np.int64) for c in (src, dst, labels)]
        src, dst, labels = columns
        if not (src.shape == dst.shape == labels.shape) or src.ndim != 1:
            raise GraphConstructionError("src, dst and labels must be 1-D and of equal length")
        if (src < 0).any() or (dst < 0).any():
            raise GraphConstructionError("vertex ids must be non-negative")
        if (src == dst).any():
            raise GraphConstructionError("self-loops are not supported")
        for column, values in zip((self._src, self._dst, self._labels), columns):
            column.frombytes(values.tobytes())
        return self

    def add_edges(self, edges: Iterable[Tuple[int, ...]]) -> "GraphBuilder":
        """Add edges from an iterable of ``(src, dst)`` or ``(src, dst, label)``."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            elif len(edge) == 3:
                self.add_edge(edge[0], edge[1], edge[2])
            else:
                raise GraphConstructionError(f"cannot interpret edge tuple {edge!r}")
        return self

    @property
    def num_vertices(self) -> int:
        """Distinct vertex ids added or mentioned by an edge so far."""
        ids = np.concatenate(
            [np.fromiter(self._vertex_labels, np.int64, len(self._vertex_labels)), self._src, self._dst]
        )
        return int(len(np.unique(ids)))

    @property
    def num_edges(self) -> int:
        """Edges :meth:`build` would keep (distinct triples when deduplicating)."""
        return int(len(self._edge_columns()[0]))

    # ------------------------------------------------------------------ #
    def _edge_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = np.array(self._src, dtype=np.int64)
        dst = np.array(self._dst, dtype=np.int64)
        labels = np.array(self._labels, dtype=np.int64)
        if self._deduplicate:
            # lexsort is stable, so each run of equal triples starts at the
            # triple's first occurrence.
            order = np.lexsort((labels, dst, src))
            s, d, lab = src[order], dst[order], labels[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1]) | (lab[1:] != lab[:-1])
            if not first.all():
                keep = np.sort(order[first])
                src, dst, labels = src[keep], dst[keep], labels[keep]
        return src, dst, labels

    def build(self, name: str = "graph", num_vertices: Optional[int] = None) -> Graph:
        """Freeze the accumulated vertices and edges into a ``Graph``.

        Vertex ids must be dense (0..n-1); if ``num_vertices`` is given,
        vertices up to that count exist even if isolated.
        """
        src, dst, labels = self._edge_columns()
        max_seen = max(
            max(self._vertex_labels, default=-1),
            int(src.max(initial=-1)),
            int(dst.max(initial=-1)),
        )
        n = max_seen + 1 if num_vertices is None else num_vertices
        if num_vertices is not None and max_seen >= num_vertices:
            raise GraphConstructionError(
                f"vertex id {max_seen} exceeds declared num_vertices={num_vertices}"
            )
        vertex_labels = np.zeros(n, dtype=np.int64)
        for v, lab in self._vertex_labels.items():
            vertex_labels[v] = lab
        return Graph(
            vertex_labels=vertex_labels,
            edge_src=src,
            edge_dst=dst,
            edge_labels=labels,
            name=name,
        )


def graph_from_edges(
    edges: Iterable[Tuple[int, ...]],
    vertex_labels: Optional[Dict[int, int]] = None,
    name: str = "graph",
) -> Graph:
    """Convenience helper: build a graph from an edge iterable in one call."""
    builder = GraphBuilder()
    if vertex_labels:
        for v, lab in vertex_labels.items():
            builder.add_vertex(v, lab)
    builder.add_edges(edges)
    return builder.build(name=name)
