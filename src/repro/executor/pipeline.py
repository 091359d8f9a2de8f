"""Plan execution entry points."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from repro.errors import DeadlineExceededError
from repro.executor.operators import ExecutionConfig, build_operator_tree
from repro.executor.profile import ExecutionProfile
from repro.graph.graph import Graph
from repro.planner.plan import Plan


@dataclass
class ExecutionResult:
    """The outcome of running one plan on one graph, whichever executor ran it
    (the batch engine, the reference executor, or morsels of either on
    threads or processes)."""

    plan: Plan
    num_matches: int
    profile: ExecutionProfile
    # Collected rows (``collect=True``); None when only counting.  A morsel
    # run merges per-morsel rows in range order, capped at ``output_limit``.
    matches: Optional[List[Tuple[int, ...]]] = None
    vertex_order: Tuple[str, ...] = ()
    truncated: bool = False
    deadline_exceeded: bool = False
    num_workers: int = 1
    # Morsel runs: i-cost + matches attributed to each worker.
    per_worker_work: List[int] = field(default_factory=list)
    # Process transport only: one dict per executed morsel with the
    # worker-side stage timings (queue_wait, deserialize, base_load,
    # overlay_rebuild, execute, started_at) plus worker_id/morsel_index/rows
    # -- the raw material the trace merge turns into worker child spans.
    # Empty otherwise (stage boundaries are not observable in-process).
    morsel_records: List[dict] = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        return self.profile.elapsed_seconds

    @property
    def work_based_speedup(self) -> float:
        """Ideal speed-up implied by the work partition: total work divided by
        the maximum work any single worker performed (1.0 for a serial run)."""
        worst = max(self.per_worker_work, default=0)
        return sum(self.per_worker_work) / worst if worst else 1.0

    def matches_as_dicts(self, rename: Optional[Mapping[str, str]] = None) -> List[dict]:
        """Matches keyed by query-vertex name (only if matches were
        collected); ``rename`` maps the plan's vertex names to the caller's."""
        if self.matches is None:
            return []
        order = self.vertex_order
        if rename is not None:
            order = tuple(rename[v] for v in order)
        return [dict(zip(order, m)) for m in self.matches]

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(query={self.plan.query.name!r}, matches={self.num_matches}, "
            f"i_cost={self.profile.intersection_cost}, elapsed={self.elapsed_seconds:.3f}s)"
        )


def execute_plan(
    plan: Plan,
    graph: Graph,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
) -> ExecutionResult:
    """Run ``plan`` on ``graph``.

    Parameters
    ----------
    config:
        Execution knobs (intersection cache, isomorphism semantics, scan range,
        output limit).  A default config is used when omitted.  The
        batch-at-a-time engine of :mod:`repro.executor.vectorized` runs the
        plan unless ``config.vectorized`` is False, which runs the
        tuple-at-a-time reference executor of
        :mod:`repro.executor.operators` (identical match counts; match order
        may differ).
    collect:
        When True the matches themselves are materialised (tuples of vertex ids
        in the plan root's ``out_vertices`` order); otherwise only counted.
        The batch engine asks its root operator for row counts, so the last
        operator's output frames are never assembled; the reference executor
        counts the tuples its root yields.
    """
    config = config or ExecutionConfig()
    if config.vectorized:
        from repro.executor.vectorized import execute_plan_vectorized

        return execute_plan_vectorized(plan, graph, config=config, collect=collect)
    profile = ExecutionProfile()
    root = build_operator_tree(plan.root, graph, profile, config, is_root=True)
    matches: Optional[List[Tuple[int, ...]]] = [] if collect else None
    count = 0
    truncated = False
    deadline_exceeded = False
    start = time.perf_counter()
    try:
        for t in root:
            count += 1
            if collect:
                matches.append(t)  # type: ignore[union-attr]
            if config.output_limit is not None and count >= config.output_limit:
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
    # The root operator's own accounting may not have run if we broke early.
    profile.output_matches = count
    return ExecutionResult(
        plan=plan,
        num_matches=count,
        profile=profile,
        matches=matches,
        vertex_order=tuple(plan.root.out_vertices),
        truncated=truncated,
        deadline_exceeded=deadline_exceeded,
    )


def count_matches(plan: Plan, graph: Graph, config: Optional[ExecutionConfig] = None) -> int:
    """Convenience wrapper returning only the number of matches."""
    return execute_plan(plan, graph, config=config, collect=False).num_matches
