"""Query-vertex-ordering (QVO) enumeration.

Each QVO sigma of a query Q is a different WCO plan for Q (Section 3.1).  A
valid ordering must start with two query vertices that share a query edge and
every prefix must induce a connected sub-query (Section 2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.planner.plan import Plan, wco_plan_from_order
from repro.query.isomorphism import orbit_representative_orderings
from repro.query.query_graph import QueryGraph


def enumerate_orderings(
    query: QueryGraph,
    prefix: Optional[Sequence[str]] = None,
    limit: Optional[int] = None,
) -> List[Tuple[str, ...]]:
    """All connected-prefix orderings of the query vertices.

    Parameters
    ----------
    prefix:
        When given, only orderings starting with exactly this sequence are
        enumerated (used by the adaptive rewrite, which fixes the vertices
        that are already matched and re-orders the remainder).
    limit:
        Optional cap on the number of orderings returned.
    """
    vertices = list(query.vertices)
    results: List[Tuple[str, ...]] = []

    def recurse(current: List[str]) -> None:
        if limit is not None and len(results) >= limit:
            return
        if len(current) == len(vertices):
            results.append(tuple(current))
            return
        current_set = set(current)
        for v in vertices:
            if v in current_set:
                continue
            # The next vertex must connect to the current prefix so that the
            # induced prefix sub-query stays connected.
            if current and not any(u in current_set for u in query.neighbors(v)):
                continue
            current.append(v)
            recurse(current)
            current.pop()

    if prefix:
        prefix = list(prefix)
        if len(prefix) >= 2 and not query.edges_between(prefix[0], prefix[1]):
            return []
        recurse(list(prefix))
    else:
        for first in vertices:
            # neighbors() is a set; sort so the enumeration order (and hence
            # which of several equal-cost orderings a first-seen tie-break
            # picks downstream) does not depend on hash randomization.
            for second in sorted(query.neighbors(first)):
                recurse([first, second])
    # Orderings of length < 2 cannot form plans.
    return [o for o in results if len(o) >= 2]


def enumerate_wco_plans(
    query: QueryGraph,
    deduplicate_automorphisms: bool = False,
    limit: Optional[int] = None,
) -> List[Plan]:
    """Every WCO plan of ``query`` (one per valid QVO).

    ``deduplicate_automorphisms`` collapses orderings related by query
    automorphisms, which perform exactly the same operations (Section 3.2.3
    observes e.g. that a2a3a1a4 and a2a3a4a1 are equivalent for the symmetric
    diamond-X).
    """
    orderings = enumerate_orderings(query, limit=limit)
    if deduplicate_automorphisms:
        orderings = orbit_representative_orderings(query, orderings)
    return [wco_plan_from_order(query, order) for order in orderings]


def lexicographic_ordering(query: QueryGraph) -> Tuple[str, ...]:
    """The ordering EmptyHeaded effectively uses: lexicographic over the
    variable names the user wrote, restricted to connected prefixes."""
    remaining = sorted(query.vertices)
    order: List[str] = []
    while remaining:
        placed = False
        for v in remaining:
            if not order or any(u in set(order) for u in query.neighbors(v)):
                order.append(v)
                remaining.remove(v)
                placed = True
                break
        if not placed:  # disconnected query; append arbitrarily
            order.append(remaining.pop(0))
    return tuple(order)


def degree_heuristic_ordering(query: QueryGraph) -> Tuple[str, ...]:
    """A LogicBlox-style heuristic: repeatedly pick the unmatched query vertex
    with the most query edges into the already-matched prefix (ties broken by
    total query degree, then name)."""
    order: List[str] = []
    remaining = set(query.vertices)
    # Start with the endpoints of the edge whose vertices have highest degree.
    best_edge = max(
        query.edges, key=lambda e: (query.degree(e.src) + query.degree(e.dst), e.src, e.dst)
    )
    order.extend([best_edge.src, best_edge.dst])
    remaining -= set(order)
    while remaining:
        def score(v: str) -> Tuple[int, int, str]:
            into_prefix = sum(1 for u in query.neighbors(v) if u in set(order))
            return (into_prefix, query.degree(v), v)

        candidates = [v for v in remaining if any(u in set(order) for u in query.neighbors(v))]
        if not candidates:
            candidates = list(remaining)
        nxt = max(candidates, key=score)
        order.append(nxt)
        remaining.remove(nxt)
    return tuple(order)
