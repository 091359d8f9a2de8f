"""Exhaustive plan-space enumeration.

Used for two purposes:

* as a *verification* optimizer: the paper notes that dynamic programming can
  in principle miss the cheapest plan (an E/I following a HASH-JOIN may want
  to extend a non-optimal sub-plan to exploit the intersection cache), but
  verified that in practice the DP optimizer returned the same plan as a full
  enumeration; we expose the same check;
* to generate the *plan spectrums* of Figure 7 — every WCO, BJ, and hybrid
  plan of a query (up to a configurable cap), so that the plan the optimizer
  picks can be placed within the full runtime distribution.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import OptimizerError, PlanError
from repro.planner.cost_model import CostModel
from repro.planner.plan import (
    Plan,
    PlanNode,
    make_extend,
    make_hash_join,
    make_scan,
)
from repro.query.query_graph import QueryGraph


class PlanSpaceEnumerator:
    """Enumerates every plan in the paper's plan space for small queries."""

    def __init__(
        self,
        query: QueryGraph,
        enable_binary_joins: bool = True,
        max_plans_per_subquery: int = 2000,
    ) -> None:
        self.query = query
        self.enable_binary_joins = enable_binary_joins
        self.max_plans_per_subquery = max_plans_per_subquery
        self._memo: Dict[FrozenSet[str], List[PlanNode]] = {}

    # ------------------------------------------------------------------ #
    def plans_for(self, vset: FrozenSet[str]) -> List[PlanNode]:
        """All plan roots computing the induced sub-query on ``vset``."""
        if vset in self._memo:
            return self._memo[vset]
        sub = self.query.project(vset)
        roots: List[PlanNode] = []
        seen: set = set()

        def add(root: PlanNode) -> None:
            sig = root.signature()
            if sig not in seen and len(roots) < self.max_plans_per_subquery:
                seen.add(sig)
                roots.append(root)

        if len(vset) == 2:
            for edge in sub.edges:
                for reverse in (False, True):
                    add(make_scan(sub, edge, reverse=reverse))
            self._memo[vset] = roots
            return roots

        # E/I extensions of every plan for every (k-1)-subset.
        for v in sorted(vset):
            rest = frozenset(vset - {v})
            if len(rest) < 2 or not self.query.connected_projection_exists(rest):
                continue
            for child in self.plans_for(rest):
                try:
                    add(make_extend(sub, child, v))
                except PlanError:
                    continue

        # Hash joins of plans of two covering sub-queries.
        if self.enable_binary_joins and len(vset) >= 4:
            sub_edges = {(e.src, e.dst, e.label) for e in sub.edges}
            proper = [
                frozenset(c)
                for size in range(3, len(vset))
                for c in combinations(sorted(vset), size)
                if self.query.connected_projection_exists(c)
            ]
            for i, left in enumerate(proper):
                for right in proper[i:]:
                    if left | right != vset or not (left & right):
                        continue
                    covered = {
                        (e.src, e.dst, e.label)
                        for part in (left, right)
                        for e in self.query.project(part).edges
                    }
                    if covered != sub_edges:
                        continue
                    for build in self.plans_for(left):
                        for probe in self.plans_for(right):
                            try:
                                add(make_hash_join(sub, build, probe))
                            except PlanError:
                                continue
                        if len(roots) >= self.max_plans_per_subquery:
                            break
        self._memo[vset] = roots
        return roots

    def all_plans(self) -> List[Plan]:
        vset = frozenset(self.query.vertices)
        return [
            Plan(query=self.query, root=root, label="enumerated")
            for root in self.plans_for(vset)
        ]


class FullEnumerationOptimizer:
    """Picks the cheapest plan by enumerating the entire plan space."""

    def __init__(
        self,
        cost_model: CostModel,
        enable_binary_joins: bool = True,
        max_plans_per_subquery: int = 2000,
    ) -> None:
        self.cost_model = cost_model
        self.enable_binary_joins = enable_binary_joins
        self.max_plans_per_subquery = max_plans_per_subquery

    def optimize(self, query: QueryGraph, output_limit: Optional[int] = None) -> Plan:
        """The plan with the least :meth:`CostModel.limited_cost` under
        ``output_limit`` (``plan_cost`` without one)."""
        enumerator = PlanSpaceEnumerator(
            query,
            enable_binary_joins=self.enable_binary_joins,
            max_plans_per_subquery=self.max_plans_per_subquery,
        )
        plans = enumerator.all_plans()
        if not plans:
            raise OptimizerError(f"no plans found for {query.name}")
        best: Optional[Tuple[float, Plan]] = None
        for plan in plans:
            plan.estimated_cost = self.cost_model.plan_cost(plan)
            cost = self.cost_model.limited_cost(plan, output_limit)
            if best is None or cost < best[0]:
                best = (cost, plan)
        assert best is not None
        best[1].label = "full-enumeration"
        return best[1]
