"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import time
from itertools import combinations, permutations, product
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.generators import clustered_social, complete_graph, erdos_renyi
from repro.graph.graph import Graph
from repro.planner.cost_model import CostConstants
from repro.planner.plan import wco_plan_from_order
from repro.planner.qvo import enumerate_orderings
from repro.query.query_graph import QueryGraph


# --------------------------------------------------------------------------- #
# per-test wall-time ceiling
# --------------------------------------------------------------------------- #
#: Ceiling on one test's call phase, in seconds.  ``--durations=10`` puts the
#: slowest tier-1 test at 7.4 s (``test_chosen_plan_is_correct[Q11]``, 2-vCPU
#: container) and the next at 5.3 s, so 30 s is 4x headroom over today and
#: far under the 75 s one brute-force oracle once took.  There is no
#: ``pytest-timeout`` here: the test is not interrupted, it runs to its end
#: and then fails by name.
TEST_SECONDS_CEILING = 30.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    outcome = yield
    seconds = time.perf_counter() - start
    if outcome.excinfo is None and seconds > TEST_SECONDS_CEILING:
        outcome.force_exception(
            pytest.fail.Exception(
                f"{item.nodeid} took {seconds:.1f} s; the per-test ceiling is "
                f"{TEST_SECONDS_CEILING:.0f} s (tests/conftest.py). Shrink its input or "
                "check it against a cheaper oracle.",
                pytrace=False,
            )
        )


# --------------------------------------------------------------------------- #
# timing helpers
# --------------------------------------------------------------------------- #
def wait_until(
    predicate: Callable[[], bool],
    timeout: float = 5.0,
    interval: float = 0.005,
) -> bool:
    """Poll ``predicate`` until it is truthy or ``timeout`` elapses.

    The standard alternative to a fixed ``time.sleep`` when a test waits on a
    background thread (compaction, catalogue refresh, checkpointing): it
    returns as soon as the condition holds, so tests are fast on quick
    machines and tolerant on slow ones.  Returns the predicate's final value
    so call sites read ``assert wait_until(...)``.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


# --------------------------------------------------------------------------- #
# reference matcher
# --------------------------------------------------------------------------- #
def brute_force_count(
    graph: Graph, query: QueryGraph, isomorphism: bool = False
) -> int:
    """Count matches by brute-force backtracking over all assignments.

    Homomorphism semantics by default (matching the executor); pass
    ``isomorphism=True`` for injective matches.  Only suitable for small graphs.
    """
    vertices = list(query.vertices)
    candidates: Dict[str, List[int]] = {}
    for qv in vertices:
        label = query.vertex_label(qv)
        candidates[qv] = [
            v for v in range(graph.num_vertices) if label is None or graph.vertex_label(v) == label
        ]

    count = 0

    def backtrack(idx: int, assignment: Dict[str, int]) -> None:
        nonlocal count
        if idx == len(vertices):
            count += 1
            return
        qv = vertices[idx]
        for v in candidates[qv]:
            if isomorphism and v in assignment.values():
                continue
            assignment[qv] = v
            ok = True
            for e in query.edges:
                if e.src in assignment and e.dst in assignment:
                    if not graph.has_edge(assignment[e.src], assignment[e.dst], e.label):
                        ok = False
                        break
            if ok:
                backtrack(idx + 1, assignment)
            del assignment[qv]

    backtrack(0, {})
    return count


# --------------------------------------------------------------------------- #
# reference WCO enumeration (DP case (i))
# --------------------------------------------------------------------------- #
#: The paper's unit weights (Sections 3.3 and 4.2), zeroing every batch-engine
#: term: a second constant set, so cost-model properties are checked under
#: two sets, not only under the one plans are priced with.
PAPER_UNIT_WEIGHTS = CostConstants(
    scan_weight=1.0,
    intersect_weight=1.0,
    emit_weight=0.0,
    build_weight=2.0,
    probe_weight=1.0,
    batch_overhead=0.0,
    delta_scan_weight=0.0,
)


def reference_best_wco(cost_model, query: QueryGraph) -> Dict:
    """The cheapest WCO plan of every connected sub-query of ``query``, found
    one sub-query at a time: every ordering of the sub-query's projection is
    built and costed from scratch, and the first one seen wins a tie.
    Returns ``{vertex set: (cost, root)}``."""
    best = {}
    for k in range(3, query.num_vertices + 1):
        for subset in combinations(query.vertices, k):
            if not query.connected_projection_exists(subset):
                continue
            vset = frozenset(subset)
            sub = query.project(vset)
            for ordering in enumerate_orderings(sub):
                plan = wco_plan_from_order(sub, ordering)
                cost = cost_model.plan_cost(plan)
                if vset not in best or cost < best[vset][0]:
                    best[vset] = (cost, plan.root)
    return best


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A small hand-built graph with known triangles and diamonds.

    Edges: a 4-clique on {0,1,2,3} (acyclic orientation), a pendant path
    4 -> 5, and a reciprocal pair 1 <-> 4.
    """
    b = GraphBuilder()
    for i in range(4):
        for j in range(i + 1, 4):
            b.add_edge(i, j)
    b.add_edge(4, 5)
    b.add_edge(1, 4)
    b.add_edge(4, 1)
    return b.build(name="tiny")


@pytest.fixture(scope="session")
def labeled_graph() -> Graph:
    """A small graph with 2 vertex labels and 2 edge labels."""
    b = GraphBuilder()
    b.add_vertex(0, 0)
    b.add_vertex(1, 1)
    b.add_vertex(2, 0)
    b.add_vertex(3, 1)
    b.add_vertex(4, 0)
    b.add_edge(0, 1, 0)
    b.add_edge(1, 2, 1)
    b.add_edge(0, 2, 0)
    b.add_edge(2, 3, 1)
    b.add_edge(3, 4, 0)
    b.add_edge(0, 3, 1)
    b.add_edge(2, 4, 0)
    return b.build(name="tiny-labeled")


@pytest.fixture(scope="session")
def random_graph() -> Graph:
    """A 120-vertex Erdos-Renyi graph used for cross-checking plan results."""
    return erdos_renyi(120, 900, seed=42, name="er-120")


@pytest.fixture(scope="session")
def social_graph() -> Graph:
    """A clustered social-style graph with plenty of triangles."""
    return clustered_social(250, avg_degree=8, clustering=0.4, seed=3, name="social-250")


@pytest.fixture(scope="session")
def clique_graph() -> Graph:
    """Complete directed graph on 8 vertices (stress for clique queries)."""
    return complete_graph(8)
