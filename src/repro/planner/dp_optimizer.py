"""The dynamic-programming optimizer (Section 4.3, Algorithm 1).

For every connected, induced k-vertex sub-query ``Q_k`` of the input query the
optimizer keeps the cheapest plan found so far, considering three ways of
producing ``Q_k``:

(i)   the cheapest *WCO plan* of ``Q_k`` over all query-vertex orderings
      (enumerated exhaustively for queries up to ``large_query_threshold``
      vertices, because the best WCO plan for ``Q_k`` may extend a non-optimal
      plan for ``Q_{k-1}`` when that makes the intersection cache effective).
      Every ordering of every sub-query is a connected prefix of some
      ordering of the whole query, and a WCO node's cost depends only on its
      prefix, so one walk over the query's connected prefixes builds and
      costs each prefix once and yields this plan for every ``Q_k`` at once,
(ii)  extending the best stored plan of some ``Q_{k-1}`` by one query vertex
      with an E/I operator,
(iii) hash-joining the best stored plans of two smaller sub-queries whose
      vertex sets cover ``Q_k`` and whose query edges cover ``Q_k``'s edges
      (the projection constraint).

Hash joins with a 2-vertex child are omitted because they can always be
converted into a cheaper E/I extension (end of Section 4.3).  For queries with
more than ``large_query_threshold`` vertices the exhaustive WCO enumeration is
skipped and only the ``beam_width`` cheapest sub-queries are kept per level
(Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import OptimizerError, PlanError
from repro.planner.cost_model import CostModel
from repro.planner.plan import (
    ExtendNode,
    HashJoinNode,
    Plan,
    PlanNode,
    ScanNode,
    make_extend,
    make_hash_join,
    make_scan,
)
from repro.query.query_graph import QueryGraph


@dataclass
class _Candidate:
    root: PlanNode
    cost: float


class DynamicProgrammingOptimizer:
    """Cost-based DP optimizer producing WCO, BJ, and hybrid plans."""

    def __init__(
        self,
        cost_model: CostModel,
        large_query_threshold: int = 10,
        beam_width: int = 5,
        enable_binary_joins: bool = True,
        enumerate_all_wco: bool = True,
    ) -> None:
        self.cost_model = cost_model
        self.large_query_threshold = large_query_threshold
        self.beam_width = beam_width
        self.enable_binary_joins = enable_binary_joins
        self.enumerate_all_wco = enumerate_all_wco

    # ------------------------------------------------------------------ #
    def optimize(self, query: QueryGraph, output_limit: Optional[int] = None) -> Plan:
        """Return the cheapest plan for ``query`` under the cost model.

        With an ``output_limit`` the DP's winner is compared with the
        query's cheapest WCO plan by :meth:`CostModel.limited_cost`: a
        hybrid plan drains its build side in full, a WCO plan stops after
        the rows asked for.  Sub-plans are still chosen by unlimited cost."""
        if not query.is_connected():
            raise OptimizerError(f"query {query.name} must be connected")
        if query.num_vertices < 2:
            raise OptimizerError("queries must have at least two query vertices")
        large = query.num_vertices > self.large_query_threshold

        best: Dict[FrozenSet[str], _Candidate] = {}
        self._seed_two_vertex_plans(query, best)
        if query.num_vertices == 2:
            return self._finalize(query, best[frozenset(query.vertices)])

        best_wco = (
            self._best_wco_per_subquery(query) if (self.enumerate_all_wco and not large) else {}
        )

        for k in range(3, query.num_vertices + 1):
            level: Dict[FrozenSet[str], _Candidate] = {}
            subsets = self._candidate_subsets(query, k, best, large)
            for vset in subsets:
                candidate = self._best_plan_for_subset(query, vset, best, best_wco)
                if candidate is not None:
                    level[vset] = candidate
            if not level:
                raise OptimizerError(
                    f"no connected {k}-vertex sub-queries found for {query.name}"
                )
            if large and k < query.num_vertices:
                kept = sorted(level.items(), key=lambda kv: kv[1].cost)[: self.beam_width]
                level = dict(kept)
            best.update(level)

        vertices = frozenset(query.vertices)
        full = best.get(vertices)
        if full is None:
            raise OptimizerError(f"optimizer failed to cover query {query.name}")
        wco = best_wco.get(vertices)
        # Every pipelined plan scales by the same fraction, so only a winner
        # with a HASH-JOIN can lose to the best WCO plan under a limit.
        if (
            output_limit is not None
            and wco is not None
            and any(isinstance(n, HashJoinNode) for n in full.root.iter_nodes())
            and self.cost_model.limited_cost(wco.root, output_limit)
            < self.cost_model.limited_cost(full.root, output_limit)
        ):
            full = wco
        return self._finalize(query, full)

    # ------------------------------------------------------------------ #
    def _finalize(self, query: QueryGraph, candidate: _Candidate) -> Plan:
        plan = Plan(
            query=query,
            root=candidate.root,
            estimated_cost=candidate.cost,
            estimated_cardinality=self.cost_model.cardinality(query),
            label="dp-optimizer",
        )
        return plan

    def _seed_two_vertex_plans(
        self, query: QueryGraph, best: Dict[FrozenSet[str], _Candidate]
    ) -> None:
        for edge in query.edges:
            vset = frozenset((edge.src, edge.dst))
            scan = make_scan(query, edge)
            cost = self.cost_model.scan_cost(scan)
            existing = best.get(vset)
            if existing is None or cost < existing.cost:
                best[vset] = _Candidate(root=scan, cost=cost)

    def _connected_subsets(self, query: QueryGraph, k: int) -> List[FrozenSet[str]]:
        return [
            frozenset(subset)
            for subset in combinations(query.vertices, k)
            if query.connected_projection_exists(subset)
        ]

    def _candidate_subsets(
        self,
        query: QueryGraph,
        k: int,
        best: Dict[FrozenSet[str], _Candidate],
        large: bool,
    ) -> List[FrozenSet[str]]:
        if not large:
            return self._connected_subsets(query, k)
        # Large-query mode: grow only from the sub-queries kept so far.
        seen = set()
        result: List[FrozenSet[str]] = []
        for vset in [s for s in best if len(s) == k - 1]:
            for v in query.vertices:
                if v in vset:
                    continue
                grown = frozenset(vset | {v})
                if grown in seen:
                    continue
                seen.add(grown)
                if query.connected_projection_exists(grown):
                    result.append(grown)
        return result

    # ------------------------------------------------------------------ #
    def _best_wco_per_subquery(
        self, query: QueryGraph
    ) -> Dict[FrozenSet[str], _Candidate]:
        """Case (i): the cheapest WCO plan for every connected sub-query.

        A WCO plan's nodes are the prefixes of its ordering, and a node's cost
        depends only on its prefix, so one depth-first walk over the connected
        prefixes of ``query`` costs each prefix once and offers every prefix of
        three or more vertices to its vertex set.  Equal costs go to the
        ordering that enumerating the vertex set's projection on its own
        (:func:`repro.planner.qvo.enumerate_orderings`) would meet first."""
        best: Dict[FrozenSet[str], _Candidate] = {}
        ranks: Dict[FrozenSet[str], Tuple] = {}
        # One projection per vertex set, shared by every node over that set.
        induced: Dict[FrozenSet[str], QueryGraph] = {}
        neighbors = {v: query.neighbors(v) for v in query.vertices}

        def rank(node: PlanNode) -> Tuple:
            # Where enumerate_orderings(node.sub_query) meets this ordering:
            # first vertex by its position in the projection, second by
            # name, the rest by position again.
            position = node.sub_query.vertices.index
            order = node.out_vertices
            return (position(order[0]), order[1]) + tuple(position(v) for v in order[2:])

        def scans() -> Iterator[Tuple[PlanNode, float, FrozenSet[str]]]:
            for first in query.vertices:
                for second in sorted(neighbors[first]):
                    edge = query.edges_between(first, second)[0]
                    scan = make_scan(query, edge, reverse=edge.src != first)
                    yield scan, float(self.cost_model.scan_cost(scan)), frozenset((first, second))

        def extensions(
            node: PlanNode, cost: float, members: FrozenSet[str]
        ) -> Iterator[Tuple[PlanNode, float, FrozenSet[str]]]:
            for v in query.vertices:
                if v not in members and not neighbors[v].isdisjoint(members):
                    grown = members | {v}
                    sub = induced.get(grown)
                    if sub is None:
                        sub = induced[grown] = query.project(grown)
                    child = make_extend(query, node, v, sub)
                    yield child, float(cost + self.cost_model.extend_cost(child)), grown

        # Depth first, each node built and costed just before it is visited.
        # A stack, not a recursive closure: that would refer to itself and
        # keep the cost model, and the graph under it, alive until the next
        # full garbage collection.
        stack = [scans()]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                continue
            node, cost, members = step
            existing = best.get(members)
            if len(members) >= 3 and (existing is None or cost <= existing.cost):
                key = rank(node)
                if existing is None or cost < existing.cost or key < ranks[members]:
                    best[members] = _Candidate(root=node, cost=cost)
                    ranks[members] = key
            stack.append(extensions(node, cost, members))
        return best

    def _best_plan_for_subset(
        self,
        query: QueryGraph,
        vset: FrozenSet[str],
        best: Dict[FrozenSet[str], _Candidate],
        best_wco: Dict[FrozenSet[str], _Candidate],
    ) -> Optional[_Candidate]:
        sub = query.project(vset)
        winner: Optional[_Candidate] = None

        def consider(root: PlanNode, cost: float) -> None:
            nonlocal winner
            if winner is None or cost < winner.cost:
                winner = _Candidate(root=root, cost=cost)

        # (i) the cheapest full WCO plan for this sub-query.
        wco = best_wco.get(vset)
        if wco is not None:
            consider(wco.root, wco.cost)

        # (ii) extend a stored (k-1)-vertex plan by one query vertex.  The
        # frozenset is iterated in sorted order: ties are broken first-seen,
        # so enumeration order must not depend on hash randomization.
        for v in sorted(vset):
            rest = frozenset(vset - {v})
            if len(rest) < 2 or rest not in best:
                continue
            child = best[rest]
            try:
                node = make_extend(sub, child.root, v)
            except PlanError:
                continue
            cost = child.cost + self.cost_model.extend_cost(node)
            consider(node, cost)

        # (iii) hash-join two stored sub-plans covering this sub-query.
        if self.enable_binary_joins:
            # Sorted for the same reason as case (ii): the (left, right) pair
            # enumeration order decides equal-cost ties.
            stored = sorted(
                (s for s in best if s < vset and len(s) >= 3),
                key=lambda s: tuple(sorted(s)),
            )
            sub_edges = {(e.src, e.dst, e.label) for e in sub.edges}
            for i, left in enumerate(stored):
                for right in stored[i:]:
                    if left | right != vset or not (left & right):
                        continue
                    covered = {
                        (e.src, e.dst, e.label)
                        for source in (query.project(left), query.project(right))
                        for e in source.edges
                    }
                    if covered != sub_edges:
                        continue
                    left_cand, right_cand = best[left], best[right]
                    # Build on the side with the smaller estimated cardinality.
                    left_card = self.cost_model.cardinality(query.project(left))
                    right_card = self.cost_model.cardinality(query.project(right))
                    if left_card <= right_card:
                        build_cand, probe_cand = left_cand, right_cand
                    else:
                        build_cand, probe_cand = right_cand, left_cand
                    try:
                        node = make_hash_join(sub, build_cand.root, probe_cand.root)
                    except PlanError:
                        continue
                    cost = (
                        left_cand.cost
                        + right_cand.cost
                        + self.cost_model.hash_join_cost(node)
                    )
                    consider(node, cost)

        return winner
