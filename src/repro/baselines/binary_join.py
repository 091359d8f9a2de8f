"""A binary-join-only planner (the BJ plans of the paper).

BJ plans use only SCAN leaves and HASH-JOIN internal nodes; under the
projection constraint every node's sub-query is the induced projection of the
query onto its vertex set and the children's edges must cover it.  As the
paper notes, this means cyclic cores such as triangles have *no* BJ plan in
the space (the open-triangle-then-close plans of traditional optimizers are
deliberately excluded); acyclic and sparsely-cyclic queries do, and for those
queries the planner performs a standard dynamic program over join orders
(left-deep and bushy), costed with the same cardinality estimates as the main
optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional

from repro.errors import OptimizerError, PlanError
from repro.planner.cost_model import CostModel
from repro.planner.plan import Plan, PlanNode, make_hash_join, make_scan
from repro.query.query_graph import QueryGraph


@dataclass
class _Candidate:
    root: PlanNode
    cost: float


class BinaryJoinPlanner:
    """DP over hash-join orders only."""

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    def optimize(self, query: QueryGraph) -> Plan:
        plan = self.try_optimize(query)
        if plan is None:
            raise OptimizerError(
                f"query {query.name} has no binary-join-only plan under the projection constraint"
            )
        return plan

    def try_optimize(self, query: QueryGraph) -> Optional[Plan]:
        best: Dict[FrozenSet[str], _Candidate] = {}
        for edge in query.edges:
            vset = frozenset((edge.src, edge.dst))
            scan = make_scan(query, edge)
            cost = self.cost_model.scan_cost(scan)
            existing = best.get(vset)
            if existing is None or cost < existing.cost:
                best[vset] = _Candidate(root=scan, cost=cost)

        vertices = list(query.vertices)
        for k in range(3, query.num_vertices + 1):
            for subset in combinations(vertices, k):
                vset = frozenset(subset)
                if not query.connected_projection_exists(subset):
                    continue
                sub = query.project(subset)
                sub_edges = {(e.src, e.dst, e.label) for e in sub.edges}
                winner: Optional[_Candidate] = None
                stored = [s for s in best if s < vset and len(s) >= 2]
                for i, left in enumerate(stored):
                    for right in stored[i:]:
                        if left | right != vset or not (left & right):
                            continue
                        covered = {
                            (e.src, e.dst, e.label)
                            for part in (left, right)
                            for e in query.project(part).edges
                        }
                        if covered != sub_edges:
                            continue
                        left_cand, right_cand = best[left], best[right]
                        left_card = self.cost_model.cardinality(query.project(left))
                        right_card = self.cost_model.cardinality(query.project(right))
                        build, probe = (
                            (left_cand, right_cand)
                            if left_card <= right_card
                            else (right_cand, left_cand)
                        )
                        try:
                            node = make_hash_join(sub, build.root, probe.root)
                        except PlanError:
                            continue
                        cost = (
                            left_cand.cost
                            + right_cand.cost
                            + self.cost_model.hash_join_cost(node)
                        )
                        if winner is None or cost < winner.cost:
                            winner = _Candidate(root=node, cost=cost)
                if winner is not None:
                    best[vset] = winner

        full = best.get(frozenset(query.vertices))
        if full is None:
            return None
        return Plan(
            query=query,
            root=full.root,
            estimated_cost=full.cost,
            estimated_cardinality=self.cost_model.cardinality(query),
            label="binary-join-only",
        )

    # ------------------------------------------------------------------ #
    def enumerate_plans(self, query: QueryGraph, max_plans: int = 500) -> List[Plan]:
        """All BJ plans of the query (for the B(n) points of the spectrums)."""
        from repro.planner.full_enumeration import PlanSpaceEnumerator

        enumerator = PlanSpaceEnumerator(query, enable_binary_joins=True)
        plans = enumerator.all_plans()
        return [p for p in plans if p.is_binary_join_only][:max_plans]
