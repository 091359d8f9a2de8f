"""Aggregation over query results.

The applications that motivate subgraph queries in the paper's introduction —
recommendation from diamonds in a follower network, community detection from
clique counts, fraud detection from cyclic payment patterns — rarely want the
raw list of matches.  They want *aggregates*: how many cliques touch each
vertex, which accounts participate in the most cycles, how many distinct
(buyer, seller) pairs appear in a fraud pattern.

This module provides streaming aggregation over a plan's output.  The batch
engine's root operator hands over one columnar frame at a time and each frame
is grouped as it arrives (matches are never collected in a list), so
aggregations run in memory proportional to the number of *groups* plus one
frame rather than the number of matches — the same reason the paper's SINK
operator counts rather than collects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanError
from repro.executor.operators import ExecutionConfig
from repro.executor.profile import ExecutionProfile
from repro.executor.vectorized import build_batch_operator_tree
from repro.graph.graph import Graph
from repro.planner.plan import Plan


@dataclass
class AggregateResult:
    """Outcome of a streaming aggregation over a plan's matches."""

    plan: Plan
    group_by: Tuple[str, ...]
    counts: Dict[Tuple[int, ...], int]
    total_matches: int
    profile: ExecutionProfile = field(default_factory=ExecutionProfile)

    @property
    def num_groups(self) -> int:
        return len(self.counts)

    def top(self, k: int = 10) -> List[Tuple[Tuple[int, ...], int]]:
        """The ``k`` groups with the most matches (count-descending, then key)."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def count_for(self, *key: int) -> int:
        """Number of matches whose group-by columns equal ``key``."""
        return self.counts.get(tuple(key), 0)

    def __repr__(self) -> str:
        return (
            f"AggregateResult(query={self.plan.query.name!r}, groups={self.num_groups}, "
            f"matches={self.total_matches}, group_by={self.group_by})"
        )


def _column_positions(plan: Plan, vertices: Sequence[str]) -> List[int]:
    order = plan.root.out_vertices
    positions = []
    for vertex in vertices:
        if vertex not in order:
            raise PlanError(
                f"query vertex {vertex!r} is not produced by the plan (has {order})"
            )
        positions.append(order.index(vertex))
    return positions


def _match_frames(
    plan: Plan, graph: Graph, config: ExecutionConfig, profile: ExecutionProfile
) -> Iterator[np.ndarray]:
    """The plan's matches as batch-engine frames (columns in the root's
    ``out_vertices`` order), cut off after ``config.output_limit`` rows."""
    root = build_batch_operator_tree(
        plan.root, graph, profile, config, is_root=True, demand=config.output_limit
    )
    remaining = config.output_limit
    for frame in root.frames():
        if remaining is not None:
            if frame.shape[0] >= remaining:
                yield frame[:remaining]
                return
            remaining -= frame.shape[0]
        yield frame


def group_count(
    plan: Plan,
    graph: Graph,
    group_by: Sequence[str],
    config: Optional[ExecutionConfig] = None,
) -> AggregateResult:
    """Count matches grouped by the bindings of ``group_by`` query vertices.

    Example: grouping the triangle query by ``a1`` gives, for every data
    vertex, the number of triangles in which it plays the role of ``a1``.
    The plan runs on the batch engine whatever ``config.vectorized`` says.
    """
    if not group_by:
        raise PlanError("group_count requires at least one group-by query vertex")
    config = config or ExecutionConfig()
    profile = ExecutionProfile()
    positions = _column_positions(plan, group_by)
    counts: Dict[Tuple[int, ...], int] = {}
    total = 0
    start = time.perf_counter()
    for frame in _match_frames(plan, graph, config, profile):
        keys, sizes = np.unique(frame[:, positions], axis=0, return_counts=True)
        for key, size in zip(map(tuple, keys.tolist()), sizes.tolist()):
            counts[key] = counts.get(key, 0) + size
        total += frame.shape[0]
    profile.elapsed_seconds = time.perf_counter() - start
    return AggregateResult(
        plan=plan,
        group_by=tuple(group_by),
        counts=counts,
        total_matches=total,
        profile=profile,
    )


def distinct_count(
    plan: Plan,
    graph: Graph,
    vertices: Sequence[str],
    config: Optional[ExecutionConfig] = None,
) -> int:
    """Number of distinct bindings of ``vertices`` across all matches.

    Example: the number of distinct vertices that appear as the apex of a
    diamond, regardless of how many diamonds they participate in.
    """
    return group_count(plan, graph, vertices, config=config).num_groups


def top_k_vertices(
    plan: Plan,
    graph: Graph,
    vertex: str,
    k: int = 10,
    config: Optional[ExecutionConfig] = None,
) -> List[Tuple[int, int]]:
    """The ``k`` data vertices that bind ``vertex`` in the most matches.

    Returns ``(vertex_id, match_count)`` pairs sorted by descending count.
    This is the "who is in the most cliques / fraud cycles" query that the
    motivating applications ask.
    """
    result = group_count(plan, graph, [vertex], config=config)
    return [(key[0], count) for key, count in result.top(k)]


def per_vertex_participation(
    plan: Plan,
    graph: Graph,
    config: Optional[ExecutionConfig] = None,
) -> Dict[int, int]:
    """For every data vertex, the number of matches it participates in
    (counted once per match even if it fills several query vertices)."""
    config = config or ExecutionConfig()
    participation: Dict[int, int] = {}
    for frame in _match_frames(plan, graph, config, ExecutionProfile()):
        # Sorting each row puts a vertex's repeats side by side; keeping the
        # first of each run counts every vertex once per match.
        rows = np.sort(frame, axis=1)
        first = np.ones(rows.shape, dtype=bool)
        first[:, 1:] = rows[:, 1:] != rows[:, :-1]
        vertices, sizes = np.unique(rows[first], return_counts=True)
        for vertex_id, size in zip(vertices.tolist(), sizes.tolist()):
            participation[vertex_id] = participation.get(vertex_id, 0) + size
    return participation


__all__ = [
    "AggregateResult",
    "group_count",
    "distinct_count",
    "top_k_vertices",
    "per_vertex_participation",
]
