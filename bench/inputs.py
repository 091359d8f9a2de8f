"""Seeded inputs and independent oracles.

The program under test sees only what this module generates.  The graph
*structure* of a workload is a fixed dataset archetype (as the paper's
datasets are fixed); ``--seed`` draws the vertex numbering and edge order the
program is given, the order and variable names of the requests, and the update
stream.  Renumbering keeps every match count, so ``expected.json`` checks every
seed, while each seed still hands the program different adjacency lists.
(Generating a different structure per seed moves a pass by ~13 % between
seeds — more than any bound a metric could carry.)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import Graph, QueryGraph, datasets
from repro.query.parser import format_query

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: ``--smoke`` shrinks every graph to about a twentieth.
SMOKE_SCALE = 0.05

Edge = Tuple[int, int]


def graph_key(dataset: str, scale: float) -> str:
    return f"{dataset}@{scale:g}"


def load_graph(dataset: str, scale: float, seed: int) -> Graph:
    """The archetype's fixed structure under a seeded renumbering."""
    base = datasets.load(dataset, scale=scale, use_cache=False)
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(base.num_vertices)
    order = rng.permutation(base.num_edges)
    labels = np.empty_like(base.vertex_labels)
    labels[perm] = base.vertex_labels
    return Graph(
        labels,
        perm[base.edge_src][order],
        perm[base.edge_dst][order],
        base.edge_labels[order],
        name=graph_key(dataset, scale),
    )


def load_expected() -> Dict[str, Dict[str, int]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def renamed_pattern(query: QueryGraph, rng: np.random.Generator) -> Tuple[str, QueryGraph]:
    """The query as a pattern string with freshly drawn vertex names, and the
    renamed query the string denotes."""
    tags = rng.choice(10**6, size=query.num_vertices, replace=False)
    renamed = query.rename_vertices({v: f"v{t}" for v, t in zip(query.vertices, tags)})
    return format_query(renamed), renamed


def rows_match(query: QueryGraph, rows: Sequence[dict], edges) -> bool:
    """Every returned row binds every query edge to an edge of the graph."""
    return all((row[e.src], row[e.dst]) in edges for row in rows for e in query.edges)


class EdgeModel:
    """The benchmark's own copy of an unlabeled graph under updates, kept as
    adjacency sets, with the triangle count (``a->b, b->c, a->c``) maintained
    edge by edge — the oracle for every read of the write workload,
    independent of both engines."""

    def __init__(self, graph: Graph) -> None:
        self.num_vertices = graph.num_vertices
        self.out: Dict[int, set] = {v: set() for v in range(self.num_vertices)}
        self.inc: Dict[int, set] = {v: set() for v in range(self.num_vertices)}
        self.edges: List[Edge] = list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
        self._slot = {e: i for i, e in enumerate(self.edges)}
        for u, v in self.edges:
            self.out[u].add(v)
            self.inc[v].add(u)
        self.triangles = 0

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._slot

    def __len__(self) -> int:
        return len(self.edges)

    def count_triangles(self) -> int:
        """From scratch; each match is found at its ``a->b`` edge."""
        self.triangles = sum(len(self.out[u] & self.out[v]) for u, v in self.edges)
        return self.triangles

    def _through(self, u: int, v: int) -> int:
        """Matches using ``u->v``: as a->b, as b->c, or as a->c."""
        out, inc = self.out, self.inc
        return len(out[u] & out[v]) + len(inc[u] & inc[v]) + len(out[u] & inc[v])

    def insert(self, edge: Edge) -> None:
        u, v = edge
        self.triangles += self._through(u, v)
        self.out[u].add(v)
        self.inc[v].add(u)
        self._slot[edge] = len(self.edges)
        self.edges.append(edge)

    def delete(self, edge: Edge) -> None:
        u, v = edge
        self.out[u].discard(v)
        self.inc[v].discard(u)
        self.triangles -= self._through(u, v)
        slot = self._slot.pop(edge)
        last = self.edges.pop()
        if last != edge:
            self.edges[slot] = last
            self._slot[last] = slot

    def next_batch(
        self, rng: np.random.Generator, inserts: int, deletes: int
    ) -> Tuple[List[Edge], List[Edge]]:
        """Draw a batch of absent edges to insert and present edges to
        delete, and apply it to the model."""
        gone = []
        for _ in range(deletes):
            edge = self.edges[int(rng.integers(len(self.edges)))]
            self.delete(edge)
            gone.append(edge)
        new = []
        while len(new) < inserts:
            u, v = (int(x) for x in rng.integers(self.num_vertices, size=2))
            # The program applies a batch's inserts before its deletes, so an
            # edge deleted above must not come back in the same batch.
            if u != v and (u, v) not in self and (u, v) not in gone:
                self.insert((u, v))
                new.append((u, v))
        return new, gone
