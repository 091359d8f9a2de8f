"""Morsel-parallel plan execution (Section 7 / Figure 11): the coordinator.

Graphflow parallelises plans by giving every worker a copy of the plan and
letting workers steal ranges of the SCAN operator's edges from a shared queue;
E/I extensions then proceed without coordination.  :func:`run_morsels` is that
scheme once: partition the scan (:func:`morsel_ranges`), let a *transport*
execute the ranges, fold one :class:`MorselOutcome` per range into the
:class:`~repro.executor.pipeline.ExecutionResult` a serial run would return.

The thread transport is here; because CPython threads share the GIL its
wall-clock speed-ups are bounded, so the result also reports the *work-based*
speed-up (total work over the busiest worker's), which is what the paper's
near-linear scaling measures on a JVM.  The process transport is
:class:`repro.executor.multiprocess.MorselProcessPool`.  Either way a range
executes through :func:`repro.executor.pipeline.execute_plan` with the
caller's config, so under the batch engine (the default) every worker
processes its morsel as columnar frames (and NumPy kernels release the GIL).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ProcessExecutionUnsupported
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import ExecutionResult, execute_plan
from repro.executor.profile import ExecutionProfile
from repro.graph.graph import Graph
from repro.planner.plan import Plan, ScanNode

#: Morsel sizing, one policy for both transports: ``total / (workers * 4)``
#: edges per morsel -- enough morsels for the queue to balance a skewed
#: range, few enough that per-morsel set-up (see :func:`primary_scan`) stays
#: a constant factor -- clamped to ``[min_morsel_size, MAX_MORSEL_SIZE]``.
MORSELS_PER_WORKER = 4
MIN_MORSEL_SIZE = 256
MAX_MORSEL_SIZE = 65536


class MorselOutcome(NamedTuple):
    """What a transport reports for one executed scan range."""

    count: int
    rows: Optional[List[Tuple[int, ...]]]
    profile: ExecutionProfile
    truncated: bool
    deadline_exceeded: bool
    worker_id: int
    # Worker-side stage timings; only the process transport can observe them.
    timings: Optional[dict] = None


def check_execution_mode(execution_mode: str) -> str:
    """Validate the name of a morsel transport (``"thread"``/``"process"``)."""
    if execution_mode not in ("thread", "process"):
        raise ValueError(
            f"unknown execution_mode {execution_mode!r}; expected 'thread' or 'process'"
        )
    return execution_mode


def primary_scan(plan: Plan) -> Optional[ScanNode]:
    """The scan whose edge range the morsels partition: the first scan
    reached by walking probe/child pointers from the root."""
    node = plan.root
    while True:
        children = node.children()
        if not children:
            return node if isinstance(node, ScanNode) else None
        # HashJoinNode.children() returns (build, probe): only the probe-side
        # scan is ranged.  Every morsel therefore recomputes the HASH-JOIN
        # build side over its full input, which is why the morsel count is
        # tied to the worker count (workers * MORSELS_PER_WORKER) and not to
        # the size of the scan.
        node = children[-1]


def morsel_ranges(
    total_edges: int, num_workers: int, min_morsel_size: int = MIN_MORSEL_SIZE
) -> List[Tuple[int, int]]:
    """Partition ``[0, total_edges)`` into contiguous scan ranges."""
    if total_edges <= 0:
        return [(0, 0)]
    size = -(-total_edges // max(1, num_workers * MORSELS_PER_WORKER))  # ceil
    size = max(min_morsel_size, min(MAX_MORSEL_SIZE, size))
    return [(lo, min(lo + size, total_edges)) for lo in range(0, total_edges, size)]


def run_morsel(
    plan: Plan,
    graph: Graph,
    config: ExecutionConfig,
    collect: bool,
    scan_vertices: Tuple[str, ...],
    scan_range: Tuple[int, int],
    worker_id: int,
) -> MorselOutcome:
    """Execute one scan range.  Every other knob of ``config`` carries over,
    so a morsel runs exactly as the serial path would over those edges."""
    config = replace(config, scan_range=scan_range, scan_range_vertices=scan_vertices)
    r = execute_plan(plan, graph, config=config, collect=collect)
    return MorselOutcome(
        r.num_matches, r.matches, r.profile, r.truncated, r.deadline_exceeded, worker_id
    )


def run_morsels(
    plan: Plan,
    graph: Graph,
    scan: ScanNode,
    num_workers: int,
    min_morsel_size: int,
    config: ExecutionConfig,
    collect: bool,
    transport: Callable[[Sequence[Tuple[int, int]]], Sequence[MorselOutcome]],
) -> ExecutionResult:
    """Partition ``scan``, let ``transport`` execute the ranges (it returns
    their outcomes in range order), and fold them into one result.

    Rows concatenate in range order, so the reference executor reproduces the
    serial row order exactly.  A global output limit cannot be partitioned
    across morsels: each morsel stops at the limit on its own and the merged
    count and rows are capped here.
    """
    edge = scan.edge
    total_edges = graph.count_edges(
        edge_label=edge.label,
        src_label=scan.sub_query.vertex_label(edge.src),
        dst_label=scan.sub_query.vertex_label(edge.dst),
    )
    start = time.perf_counter()
    outcomes = transport(morsel_ranges(total_edges, num_workers, min_morsel_size))
    elapsed = time.perf_counter() - start

    result = ExecutionResult(
        plan=plan,
        num_matches=0,
        profile=ExecutionProfile(),
        matches=[] if collect else None,
        vertex_order=tuple(plan.root.out_vertices),
        num_workers=num_workers,
        per_worker_work=[0] * num_workers,
    )
    for index, morsel in enumerate(outcomes):
        result.num_matches += morsel.count
        result.profile = result.profile.merge(morsel.profile)
        work = morsel.profile.intersection_cost + morsel.count
        result.per_worker_work[morsel.worker_id] += work
        result.truncated |= morsel.truncated
        result.deadline_exceeded |= morsel.deadline_exceeded
        if collect and morsel.rows:
            result.matches.extend(morsel.rows)
        if morsel.timings is not None:
            record = {"morsel_index": index, "worker_id": morsel.worker_id, "rows": morsel.count}
            result.morsel_records.append({**record, **morsel.timings})
    limit = config.output_limit
    if limit is not None and result.num_matches >= limit:
        result.num_matches = limit
        result.truncated = True
        if collect:
            del result.matches[limit:]
    result.profile.elapsed_seconds = elapsed
    result.profile.output_matches = result.num_matches
    # One profile per *morsel* was merged; the meaningful busy-vs-wall
    # normalisation factor is the worker count.
    result.profile.workers = num_workers
    return result


def execute_parallel(
    plan: Plan,
    graph: Graph,
    num_workers: int = 2,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
    min_morsel_size: int = MIN_MORSEL_SIZE,
    pool=None,
    base_path: Optional[str] = None,
) -> ExecutionResult:
    """Execute ``plan`` over scan-range morsels.

    With ``pool`` (a :class:`~repro.executor.multiprocess.MorselProcessPool`)
    the morsels run on its worker processes, ``base_path`` being handed to
    :meth:`~repro.executor.multiprocess.MorselProcessPool.execute`; a query
    the pool cannot ship is counted as a fallback on the pool and runs on
    ``num_workers`` threads, as does every query without a pool.  A single
    worker (or a plan without a scan leaf) is a plain serial run.
    """
    config = config or ExecutionConfig()
    if pool is not None:
        try:
            return pool.execute(plan, graph, config=config, collect=collect, base_path=base_path)
        except ProcessExecutionUnsupported as exc:
            pool.note_fallback(str(exc))
    scan = primary_scan(plan) if num_workers > 1 else None
    if scan is None:
        return execute_plan(plan, graph, config=config, collect=collect)
    scan_vertices = tuple(scan.out_vertices)

    def on_threads(ranges: Sequence[Tuple[int, int]]) -> List[MorselOutcome]:
        # Work is attributed round-robin by range index; map() keeps range order.
        with ThreadPoolExecutor(max_workers=num_workers) as threads:
            return list(
                threads.map(
                    lambda i: run_morsel(
                        plan, graph, config, collect, scan_vertices, ranges[i], i % num_workers
                    ),
                    range(len(ranges)),
                )
            )

    return run_morsels(
        plan, graph, scan, num_workers, min_morsel_size, config, collect, on_threads
    )
