"""One plan, every way to run it: the same ``ExecutionResult`` from each.

The morsel coordinator (``executor/parallel.py``) sits above two transports
and below two engines; whichever combination runs, the result must carry
what a serial ``execute_plan`` carries.  One parametrised test walks

    plan      Q1 (WCO), Q2 / Q8 (HASH-JOIN: the ranged scan is the probe-side
              one, ``scan_range_vertices``), diamond-X (WCO, two E/I levels),
              and diamond-X with its two E/Is replaced by the adaptive
              operator (batch engine only), checked against the *fixed*
              serial plan's matches
    transport serial (``execute_parallel``'s fall-through), 3 threads,
              2 processes
    engine    iterator, vectorized
    case      count, collect, ``output_limit`` at total-1 / total / total+1,
              an already-expired deadline
    graph     a clean ``Graph``, a dirty ``DynamicGraph`` snapshot

and checks every cell against the serial reference of the same engine.
"""

import time
from collections import Counter

import pytest

from repro.executor.adaptive import adapt
from repro.executor.multiprocess import MorselProcessPool
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import (
    MAX_MORSEL_SIZE,
    MORSELS_PER_WORKER,
    execute_parallel,
    morsel_ranges,
    primary_scan,
)
from repro.executor.pipeline import execute_plan
from repro.planner.plan import HashJoinNode, Plan, make_hash_join, wco_plan_from_order
from repro.query import catalog_queries as cq

from tests.storage.conftest import build_mutated_pair

MIN_MORSEL = 64  # several morsels on graphs of a few hundred edges


def _join_plan(query, build_order, probe_order):
    def sub(order):
        return wco_plan_from_order(query.project(order), order).root

    return Plan(query=query, root=make_hash_join(query, sub(build_order), sub(probe_order)))


ADAPTIVE = "diamond-X+adaptive"
#: The shapes the optimizer picks for these queries on the benchmark graphs.
PLANS = {
    "Q1": wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3")),
    "Q2": _join_plan(cq.q2(), ("a1", "a2", "a4"), ("a3", "a4", "a2")),
    "Q8": _join_plan(cq.q8(), ("a1", "a2", "a3"), ("a3", "a4", "a5")),
    "diamond-X": wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4")),
    # The fixed plan the reference runs; every cell runs ``adapt`` of it.  Above
    # SCAN(a2, a3) the two orderings cost alike, so both get rows to extend.
    ADAPTIVE: wco_plan_from_order(cq.diamond_x(), ("a2", "a3", "a1", "a4")),
}
ENGINES = {
    "iterator": dict(vectorized=False),
    "vectorized": dict(vectorized=True, batch_size=97),
}
#: transport -> worker count
TRANSPORTS = {"serial": 1, "thread": 3, "process": 2}
CASES = ("count", "collect", "limit-1", "limit", "limit+1", "deadline")


@pytest.fixture(scope="module")
def graphs(random_graph):
    dynamic, _ = build_mutated_pair(num_vertices=120, avg_degree=5, inserts_per_round=30)
    snapshot = dynamic.snapshot()
    assert not snapshot.is_clean
    return {"clean": random_graph, "dirty": snapshot}


@pytest.fixture(scope="module")
def pool():
    with MorselProcessPool(num_workers=TRANSPORTS["process"], min_morsel_size=MIN_MORSEL) as p:
        yield p


@pytest.fixture(scope="module")
def reference():
    """Serial ``execute_plan(collect=True)`` per (graph, plan, engine)."""
    cache = {}

    def lookup(graph_name, graph, plan_name, engine):
        key = (graph_name, plan_name, engine)
        if key not in cache:
            cache[key] = execute_plan(
                PLANS[plan_name], graph, ExecutionConfig(**ENGINES[engine]), collect=True
            )
        return cache[key]

    return lookup


def _run(transport, pool, plan, graph, config, collect):
    if transport == "process":
        return pool.execute(plan, graph, config=config, collect=collect)
    return execute_parallel(
        plan,
        graph,
        num_workers=TRANSPORTS[transport],
        config=config,
        collect=collect,
        min_morsel_size=MIN_MORSEL,
    )


def _expected_i_cost(plan, graph, engine, serial, ranges):
    """Iterator engine: a WCO plan costs what it costs serially and a
    HASH-JOIN plan pays its build side once per morsel.  The vectorized E/I
    deduplicates adjacency keys per batch and morsel boundaries move the
    batch boundaries, so there the reference is the ranges run one by one
    (as it is for an adaptive plan, whose ``serial`` is the fixed plan's)."""
    if engine == "vectorized" and (len(ranges) > 1 or plan.adaptive):
        scan_vertices = tuple(primary_scan(plan).out_vertices)
        return sum(
            execute_plan(
                plan,
                graph,
                ExecutionConfig(
                    scan_range=r, scan_range_vertices=scan_vertices, **ENGINES[engine]
                ),
            ).profile.intersection_cost
            for r in ranges
        )
    if not isinstance(plan.root, HashJoinNode):
        return serial.profile.intersection_cost
    build = plan.root.build
    build_cost = execute_plan(
        Plan(query=build.sub_query, root=build), graph, ExecutionConfig(**ENGINES[engine])
    ).profile.intersection_cost
    return serial.profile.intersection_cost + (len(ranges) - 1) * build_cost


def _cells():
    for transport in TRANSPORTS:
        marks = [pytest.mark.process] if transport == "process" else []
        for plan_name in PLANS:
            for engine in ENGINES:
                if plan_name == ADAPTIVE and engine != "vectorized":
                    continue
                for graph_name in ("clean", "dirty"):
                    for case in CASES:
                        yield pytest.param(
                            transport, plan_name, engine, graph_name, case,
                            marks=marks,
                            id=f"{transport}-{plan_name}-{engine}-{graph_name}-{case}",
                        )


@pytest.mark.parametrize("transport,plan_name,engine,graph_name,case", list(_cells()))
def test_every_cell_returns_the_serial_result(
    request, graphs, reference, transport, plan_name, engine, graph_name, case
):
    pool = request.getfixturevalue("pool") if transport == "process" else None
    plan, graph = PLANS[plan_name], graphs[graph_name]
    serial = reference(graph_name, graph, plan_name, engine)
    if plan_name == ADAPTIVE:
        plan = adapt(plan, graph)
        assert plan.adaptive and len(plan.root.tails) == 2
    total = serial.num_matches
    assert total > 10
    workers = TRANSPORTS[transport]
    ranges = (
        [(0, graph.count_edges())] if transport == "serial"
        else morsel_ranges(graph.count_edges(), workers, MIN_MORSEL)
    )
    num_morsels = len(ranges)
    assert transport == "serial" or num_morsels > workers
    # The iterator engine's rows come back in serial order from every
    # transport, on a dirty snapshot too: a worker rebuilds it with the
    # inserts in the delta's own order, so it scans in the coordinator's.
    ordered = engine == "iterator"

    knobs = dict(ENGINES[engine])
    collect = case != "count"
    limit = None
    if case.startswith("limit"):
        limit = total + {"limit-1": -1, "limit": 0, "limit+1": 1}[case]
        knobs["output_limit"] = limit
    if case == "deadline":
        knobs["deadline"] = time.monotonic() - 1.0
    result = _run(transport, pool, plan, graph, ExecutionConfig(**knobs), collect)

    # -- the surface every engine shares ---------------------------------- #
    assert result.plan is plan
    assert result.vertex_order == serial.vertex_order
    assert result.num_workers == result.profile.workers == workers
    assert bool(result.morsel_records) == (transport == "process")
    assert result.profile.output_matches == result.num_matches
    assert result.elapsed_seconds == result.profile.elapsed_seconds > 0
    if transport == "serial":
        assert result.per_worker_work == [] and result.work_based_speedup == 1.0
    else:
        assert len(result.per_worker_work) == workers
        assert sum(result.per_worker_work) >= result.num_matches
        assert 1.0 <= result.work_based_speedup <= workers
    if transport == "process":
        assert [r["morsel_index"] for r in result.morsel_records] == list(range(num_morsels))
        assert {r["worker_id"] for r in result.morsel_records} <= set(range(workers))
    if engine == "vectorized" and case != "deadline":
        assert result.profile.batches > 0

    if case == "deadline":
        assert result.deadline_exceeded and result.truncated
        # An iterator morsel may yield one row before it looks at the clock.
        assert result.num_matches <= num_morsels
        assert len(result.matches) == result.num_matches
        return

    assert not result.deadline_exceeded
    assert result.num_matches == (total if limit is None else min(limit, total))
    assert result.truncated == (limit is not None and limit <= total)
    if not collect:
        assert result.matches is None
    else:
        assert len(result.matches) == result.num_matches
        if ordered:
            assert result.matches == serial.matches[: result.num_matches]
        else:
            assert not Counter(result.matches) - Counter(serial.matches)
    if not result.truncated:
        if collect:
            assert sorted(result.matches) == sorted(serial.matches)
        i_cost = result.profile.intersection_cost
        assert i_cost == _expected_i_cost(plan, graph, engine, serial, ranges)
        if transport != "serial":
            assert sum(result.per_worker_work) == i_cost + result.num_matches


@pytest.mark.process
@pytest.mark.parametrize(
    "plan_name,engine",
    [(p, e) for p in PLANS for e in ENGINES if p != ADAPTIVE or e == "vectorized"],
)
def test_processes_return_the_threads_row_sequence_on_a_dirty_snapshot(
    graphs, pool, plan_name, engine
):
    """Same ranges, same rows in the same sequence, same i-cost: a worker's
    rebuilt snapshot must scan the multi-batch delta in the coordinator's
    order, not in sorted order."""
    graph = graphs["dirty"]
    src, dst, _ = graph.delta.inserted_edges()
    inserts = list(zip(src.tolist(), dst.tolist()))
    assert inserts != sorted(inserts), "the delta must not already be in sorted order"
    plan = PLANS[plan_name]
    if plan_name == ADAPTIVE:
        plan = adapt(plan, graph)
    config = ExecutionConfig(**ENGINES[engine])
    threads = execute_parallel(
        plan, graph, num_workers=TRANSPORTS["process"], config=config, collect=True,
        min_morsel_size=MIN_MORSEL,
    )
    processes = pool.execute(plan, graph, config=config, collect=True)
    assert processes.matches == threads.matches
    assert processes.profile.intersection_cost == threads.profile.intersection_cost


def test_morsel_ranges():
    assert morsel_ranges(0, 4) == [(0, 0)]
    for total, workers, floor in [(1, 1, 1), (900, 3, 64), (900, 3, 256), (10_000, 8, 256),
                                  (5_000_000, 2, 256), (257, 16, 256)]:
        ranges = morsel_ranges(total, workers, floor)
        # contiguous, in order, tiling [0, total) exactly once
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [stop - start for start, stop in ranges]
        assert all(size > 0 for size in sizes)
        # one size for every morsel but the last, clamped at both ends
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
        assert sizes[0] <= MAX_MORSEL_SIZE
        assert sizes[0] >= min(floor, total)
        if floor <= -(-total // (workers * MORSELS_PER_WORKER)) <= MAX_MORSEL_SIZE:
            assert len(ranges) <= workers * MORSELS_PER_WORKER
    assert len(morsel_ranges(900, 3, 64)) == 12  # ceil(900 / 12) = 75 edges each
    assert morsel_ranges(900, 3, 1024) == [(0, 900)]  # floor above the scan
    assert morsel_ranges(5_000_000, 2)[0] == (0, MAX_MORSEL_SIZE)  # ceiling
