"""Generalized hypertree decompositions (GHDs) and fractional edge covers.

EmptyHeaded's plan for a query is a minimum-width GHD: a join tree whose nodes
("bags") are sub-queries evaluated with Generic Join and whose results are
combined with binary joins.  The width of a GHD is the maximum, over its bags,
of the bag's minimum fractional edge cover (the exponent of its AGM bound).

We enumerate decompositions with one or two bags, which covers every query in
the paper's workload (Q8 = two triangles, Q10 = diamond + triangle, ...); the
general (arbitrary-bag-count) construction is not needed for the evaluation
and is documented as a limitation in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from repro.query.query_graph import QueryGraph


def fractional_edge_cover(query: QueryGraph) -> float:
    """Minimum fractional edge cover number (the AGM exponent) of the query.

    Solved as a small linear program: minimise the sum of edge weights subject
    to every query vertex being covered by total weight at least 1.  scipy
    is imported here, on the first solve, so that importing the package (the
    CLI, the server, the benchmark) does not pay its ~45 MiB.
    """
    from scipy.optimize import linprog

    vertices = list(query.vertices)
    edges = list(query.edges)
    if not edges:
        return 0.0
    # Constraint matrix: -sum of weights of edges touching v <= -1.
    a_ub = np.zeros((len(vertices), len(edges)))
    for j, e in enumerate(edges):
        for i, v in enumerate(vertices):
            if e.touches(v):
                a_ub[i, j] = -1.0
    b_ub = -np.ones(len(vertices))
    c = np.ones(len(edges))
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * len(edges), method="highs")
    if not result.success:  # pragma: no cover - defensive
        return float(len(vertices)) / 2.0
    return float(result.fun)


@dataclass
class GHDBag:
    """One bag (sub-query) of a decomposition."""

    vertices: Tuple[str, ...]
    sub_query: QueryGraph
    width: float


@dataclass
class GHD:
    """A (one- or two-bag) generalized hypertree decomposition."""

    query: QueryGraph
    bags: List[GHDBag] = field(default_factory=list)

    @property
    def width(self) -> float:
        return max(bag.width for bag in self.bags)

    @property
    def num_bags(self) -> int:
        return len(self.bags)

    def shared_vertices(self) -> Tuple[str, ...]:
        if len(self.bags) < 2:
            return ()
        return tuple(sorted(set(self.bags[0].vertices) & set(self.bags[1].vertices)))

    def describe(self) -> str:
        parts = [
            f"bag{i}({','.join(bag.vertices)}, width={bag.width:.2f})"
            for i, bag in enumerate(self.bags)
        ]
        return f"GHD[width={self.width:.2f}]: " + " JOIN ".join(parts)


def _bag(query: QueryGraph, vertices: Tuple[str, ...]) -> Optional[GHDBag]:
    if not query.connected_projection_exists(vertices):
        return None
    sub = query.project(vertices)
    return GHDBag(vertices=tuple(vertices), sub_query=sub, width=fractional_edge_cover(sub))


def enumerate_ghds(query: QueryGraph, max_bags: int = 2) -> List[GHD]:
    """All 1- and 2-bag decompositions whose bags cover every query edge and
    that satisfy the connectedness (running-intersection) requirement."""
    decompositions: List[GHD] = []
    all_vertices = tuple(query.vertices)
    whole = _bag(query, all_vertices)
    if whole is not None:
        decompositions.append(GHD(query=query, bags=[whole]))
    if max_bags < 2 or query.num_vertices < 4:
        return decompositions

    query_edges = {(e.src, e.dst, e.label) for e in query.edges}
    seen: set = set()
    for size_a in range(3, query.num_vertices):
        for vset_a in combinations(all_vertices, size_a):
            bag_a = _bag(query, vset_a)
            if bag_a is None:
                continue
            edges_a = {(e.src, e.dst, e.label) for e in bag_a.sub_query.edges}
            for size_b in range(3, query.num_vertices):
                for vset_b in combinations(all_vertices, size_b):
                    if set(vset_a) | set(vset_b) != set(all_vertices):
                        continue
                    if not (set(vset_a) & set(vset_b)):
                        continue
                    key = frozenset((frozenset(vset_a), frozenset(vset_b)))
                    if key in seen:
                        continue
                    seen.add(key)
                    bag_b = _bag(query, vset_b)
                    if bag_b is None:
                        continue
                    edges_b = {(e.src, e.dst, e.label) for e in bag_b.sub_query.edges}
                    if edges_a | edges_b != query_edges:
                        continue
                    decompositions.append(GHD(query=query, bags=[bag_a, bag_b]))
    return decompositions


def minimum_width_ghds(query: QueryGraph, max_bags: int = 2, tolerance: float = 1e-6) -> List[GHD]:
    """All decompositions whose width equals the minimum width."""
    ghds = enumerate_ghds(query, max_bags=max_bags)
    if not ghds:
        return []
    best = min(g.width for g in ghds)
    return [g for g in ghds if g.width <= best + tolerance]
