"""Synthetic directed-graph generators.

The paper evaluates on SNAP graphs (Amazon, Epinions, Google, BerkStan,
LiveJournal, Twitter).  Those graphs are neither shipped with this repository
nor downloadable in the offline reproduction environment, so the dataset
registry (:mod:`repro.datasets`) builds scaled-down *structural archetypes*
with these generators.  The experiments in the paper hinge on three structural
properties which all generators expose as parameters:

* degree skew (how uneven forward/backward adjacency list sizes are),
* clustering / cyclicity (how many triangles and cliques the graph contains),
* reciprocity and direction asymmetry (how different forward and backward
  lists of the same vertex are).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def erdos_renyi(
    num_vertices: int, num_edges: int, seed: Optional[int] = 0, name: str = "erdos-renyi"
) -> Graph:
    """Uniform random directed graph with ``num_edges`` distinct edges."""
    rng = _rng(seed)
    builder = GraphBuilder()
    seen = set()
    target = min(num_edges, num_vertices * (num_vertices - 1))
    while len(seen) < target:
        batch = rng.integers(0, num_vertices, size=(max(64, target - len(seen)), 2))
        for s, d in batch:
            if s != d and (s, d) not in seen:
                seen.add((int(s), int(d)))
                builder.add_edge(int(s), int(d))
                if len(seen) >= target:
                    break
    return builder.build(name=name, num_vertices=num_vertices)


def power_law(
    num_vertices: int,
    num_edges: int,
    out_exponent: float = 2.2,
    in_exponent: float = 2.2,
    seed: Optional[int] = 0,
    name: str = "power-law",
) -> Graph:
    """Directed configuration-model-like graph with power-law in/out degrees.

    Source and destination endpoints are drawn independently from Zipfian
    weights with the given exponents; smaller exponents give heavier skew.
    """
    rng = _rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    out_weights = ranks ** (-1.0 / max(out_exponent - 1.0, 0.1))
    in_weights = ranks ** (-1.0 / max(in_exponent - 1.0, 0.1))
    out_weights /= out_weights.sum()
    in_weights /= in_weights.sum()
    out_perm = rng.permutation(num_vertices)
    in_perm = rng.permutation(num_vertices)
    builder = GraphBuilder()
    seen = set()
    attempts = 0
    max_attempts = num_edges * 20
    while len(seen) < num_edges and attempts < max_attempts:
        size = max(256, num_edges - len(seen))
        srcs = out_perm[rng.choice(num_vertices, size=size, p=out_weights)]
        dsts = in_perm[rng.choice(num_vertices, size=size, p=in_weights)]
        for s, d in zip(srcs, dsts):
            attempts += 1
            if s != d and (s, d) not in seen:
                seen.add((int(s), int(d)))
                builder.add_edge(int(s), int(d))
                if len(seen) >= num_edges:
                    break
    return builder.build(name=name, num_vertices=num_vertices)


def preferential_attachment(
    num_vertices: int,
    edges_per_vertex: int = 4,
    reciprocity: float = 0.3,
    seed: Optional[int] = 0,
    name: str = "preferential-attachment",
) -> Graph:
    """Barabási–Albert-style growth producing heavy-tailed degrees and many
    triangles.  ``reciprocity`` controls how often the reverse edge is added,
    which increases the symmetric-triangle (cycle) density."""
    rng = _rng(seed)
    builder = GraphBuilder()
    targets = list(range(min(edges_per_vertex, num_vertices)))
    repeated: list = list(targets)
    for v in range(len(targets), num_vertices):
        chosen = set()
        while len(chosen) < min(edges_per_vertex, len(repeated)):
            chosen.add(int(repeated[rng.integers(0, len(repeated))]))
        for t in chosen:
            if t == v:
                continue
            builder.add_edge(v, t)
            repeated.append(t)
            repeated.append(v)
            if rng.random() < reciprocity:
                builder.add_edge(t, v)
    return builder.build(name=name, num_vertices=num_vertices)


def clustered_social(
    num_vertices: int,
    avg_degree: int = 8,
    clustering: float = 0.4,
    reciprocity: float = 0.4,
    seed: Optional[int] = 0,
    name: str = "clustered-social",
) -> Graph:
    """Social-network archetype: power-law hubs plus triadic closure.

    A fraction ``clustering`` of edges is created by closing open wedges
    (connecting two neighbours of a common vertex), which directly controls the
    graph's clustering coefficient and therefore its triangle/clique density.
    """
    rng = _rng(seed)
    base = preferential_attachment(
        num_vertices,
        edges_per_vertex=max(1, avg_degree // 2),
        reciprocity=reciprocity,
        seed=seed,
        name=name,
    )
    builder = GraphBuilder()
    builder.add_edge_arrays(base.edge_src, base.edge_dst, base.edge_labels)
    # Triadic closure: for random vertices, connect two of their neighbours.
    extra = int(clustering * base.num_edges)
    from repro.graph.graph import Direction

    out_deg = base.degree_array(Direction.FORWARD)
    candidates = np.flatnonzero(out_deg >= 2)
    added = 0
    guard = 0
    while added < extra and len(candidates) and guard < extra * 20:
        guard += 1
        v = int(candidates[rng.integers(0, len(candidates))])
        nbrs = base.neighbors(v, Direction.FORWARD)
        if len(nbrs) < 2:
            continue
        a, b = rng.choice(nbrs, size=2, replace=False)
        if a != b:
            builder.add_edge(int(a), int(b))
            added += 1
            if rng.random() < reciprocity:
                builder.add_edge(int(b), int(a))
    return builder.build(name=name, num_vertices=num_vertices)


def web_graph(
    num_vertices: int,
    avg_degree: int = 10,
    hub_fraction: float = 0.02,
    seed: Optional[int] = 0,
    name: str = "web",
) -> Graph:
    """Web-graph archetype (BerkStan/Google-like): strong asymmetry between
    forward and backward list sizes — a few hub pages are pointed to by very
    many pages while out-degrees stay moderate."""
    rng = _rng(seed)
    num_hubs = max(1, int(hub_fraction * num_vertices))
    hubs = rng.choice(num_vertices, size=num_hubs, replace=False)
    builder = GraphBuilder()
    num_edges = num_vertices * avg_degree
    seen = set()
    attempts = 0
    while len(seen) < num_edges and attempts < num_edges * 20:
        attempts += 1
        s = int(rng.integers(0, num_vertices))
        # 60% of links point at hubs, the rest are uniform.
        if rng.random() < 0.6:
            d = int(hubs[rng.integers(0, num_hubs)])
        else:
            d = int(rng.integers(0, num_vertices))
        if s != d and (s, d) not in seen:
            seen.add((s, d))
            builder.add_edge(s, d)
    # Add some intra-site cliques for locality-driven cycles.
    site_size = 6
    for start in range(0, num_vertices - site_size, num_vertices // max(1, num_vertices // 200)):
        members = list(range(start, start + site_size))
        for i in members:
            for j in members:
                if i != j and rng.random() < 0.3 and (i, j) not in seen:
                    seen.add((i, j))
                    builder.add_edge(i, j)
    return builder.build(name=name, num_vertices=num_vertices)


def grid_with_chords(
    side: int, chord_probability: float = 0.05, seed: Optional[int] = 0, name: str = "grid"
) -> Graph:
    """Sparse, low-clustering control graph used in tests."""
    rng = _rng(seed)
    builder = GraphBuilder()
    num_vertices = side * side
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                builder.add_edge(v, v + 1)
            if r + 1 < side:
                builder.add_edge(v, v + side)
            if rng.random() < chord_probability:
                w = int(rng.integers(0, num_vertices))
                if w != v:
                    builder.add_edge(v, w)
    return builder.build(name=name, num_vertices=num_vertices)


def complete_graph(num_vertices: int, name: str = "complete") -> Graph:
    """Fully connected directed graph (every ordered pair); used to exercise
    clique queries and worst-case intersection paths in tests."""
    builder = GraphBuilder()
    for i in range(num_vertices):
        for j in range(num_vertices):
            if i != j:
                builder.add_edge(i, j)
    return builder.build(name=name, num_vertices=num_vertices)
