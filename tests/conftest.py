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
from repro.errors import PlanError
from repro.planner.plan import (
    HashJoinNode,
    Plan,
    PlanNode,
    make_extend,
    make_hash_join,
    make_scan,
    wco_plan_from_order,
)
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


def reference_wco_walk(cost_model, query: QueryGraph) -> Dict:
    """:func:`reference_best_wco` found the way the DP asks the cost model:
    one depth-first walk over the query's connected orderings, building and
    costing an E/I node for each prefix once, in the order the walk meets
    them.  A tie goes to the ordering :func:`enumerate_orderings` of the
    vertex set's projection meets first.  The order matters where the
    catalogue fills lazily: an entry is measured on the first of several
    isomorphic sub-queries that asks for it.  Returns ``{vertex set: (cost,
    root)}``."""
    best: Dict[frozenset, Tuple[float, PlanNode]] = {}
    ranks: Dict[frozenset, Tuple] = {}
    induced: Dict[frozenset, QueryGraph] = {}

    def rank(node: PlanNode) -> Tuple:
        position = node.sub_query.vertices.index
        order = node.out_vertices
        return (position(order[0]), order[1]) + tuple(position(v) for v in order[2:])

    def visit(node: PlanNode, cost: float, members: frozenset) -> None:
        if len(members) >= 3 and (members not in best or cost <= best[members][0]):
            key = rank(node)
            if members not in best or cost < best[members][0] or key < ranks[members]:
                best[members] = (cost, node)
                ranks[members] = key
        for v in query.vertices:
            if v not in members and not query.neighbors(v).isdisjoint(members):
                grown = members | {v}
                if grown not in induced:
                    induced[grown] = query.project(grown)
                child = make_extend(query, node, v, induced[grown])
                visit(child, cost + cost_model.extend_cost(child), grown)

    for first in query.vertices:
        for second in sorted(query.neighbors(first)):
            edge = query.edges_between(first, second)[0]
            scan = make_scan(query, edge, reverse=edge.src != first)
            visit(scan, float(cost_model.scan_cost(scan)), frozenset((first, second)))
    return best


def reference_optimize(
    cost_model,
    query: QueryGraph,
    enable_binary_joins: bool = True,
    output_limit: Optional[int] = None,
    large_query_threshold: int = 10,
    beam_width: int = 5,
) -> Plan:
    """The DP optimizer's plan for ``query``, found with plan nodes: case
    (i) from :func:`reference_wco_walk`, cases (ii) and (iii) by building
    and costing an E/I or HASH-JOIN node for every way to make each vertex
    set from stored plans.  Ties go to the first seen: case (i), then (ii)
    by sorted vertex name, then (iii) by sorted vertex-name tuples.  Queries
    above ``large_query_threshold`` vertices keep ``beam_width`` vertex sets
    per level and skip case (i)."""
    large = query.num_vertices > large_query_threshold
    best: Dict[frozenset, Tuple[float, PlanNode]] = {}
    for edge in query.edges:
        vset = frozenset((edge.src, edge.dst))
        scan = make_scan(query, edge)
        cost = cost_model.scan_cost(scan)
        if vset not in best or cost < best[vset][0]:
            best[vset] = (cost, scan)
    best_wco = {} if large else reference_wco_walk(cost_model, query)

    def cheapest(vset: frozenset) -> Optional[Tuple[float, PlanNode]]:
        sub = query.project(vset)
        winner = best_wco.get(vset)

        def consider(cost: float, root: PlanNode) -> None:
            nonlocal winner
            if winner is None or cost < winner[0]:
                winner = (cost, root)

        for v in sorted(vset):
            rest = vset - {v}
            if rest not in best:
                continue
            child_cost, child = best[rest]
            try:
                node = make_extend(sub, child, v)
            except PlanError:
                continue
            consider(child_cost + cost_model.extend_cost(node), node)
        if enable_binary_joins:
            stored = sorted(
                (s for s in best if s < vset and len(s) >= 3), key=lambda s: tuple(sorted(s))
            )
            for i, left in enumerate(stored):
                for right in stored[i:]:
                    if left | right != vset or not left & right:
                        continue
                    covered = query.project(left).edge_key_set() | query.project(right).edge_key_set()
                    if covered != sub.edge_key_set():
                        continue
                    if cost_model.cardinality(query.project(left)) <= cost_model.cardinality(
                        query.project(right)
                    ):
                        build, probe = best[left][1], best[right][1]
                    else:
                        build, probe = best[right][1], best[left][1]
                    node = make_hash_join(sub, build, probe)
                    consider(
                        best[left][0] + best[right][0] + cost_model.hash_join_cost(node), node
                    )
        return winner

    for k in range(3, query.num_vertices + 1):
        if large:
            grown = []
            for vset in [s for s in best if len(s) == k - 1]:
                for v in query.vertices:
                    candidate = vset | {v}
                    if v not in vset and candidate not in grown:
                        grown.append(candidate)
            subsets = [s for s in grown if query.connected_projection_exists(s)]
        else:
            subsets = [
                frozenset(s)
                for s in combinations(query.vertices, k)
                if query.connected_projection_exists(s)
            ]
        level = {vset: cheapest(vset) for vset in subsets}
        level = {vset: found for vset, found in level.items() if found is not None}
        if large and k < query.num_vertices:
            level = dict(sorted(level.items(), key=lambda kv: kv[1][0])[:beam_width])
        best.update(level)

    cost, root = best[frozenset(query.vertices)]
    wco = best_wco.get(frozenset(query.vertices))
    if (
        output_limit is not None
        and wco is not None
        and any(isinstance(n, HashJoinNode) for n in root.iter_nodes())
        and cost_model.limited_cost(wco[1], output_limit)
        < cost_model.limited_cost(root, output_limit)
    ):
        cost, root = wco
    return Plan(query=query, root=root, estimated_cost=cost, label="reference")


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
