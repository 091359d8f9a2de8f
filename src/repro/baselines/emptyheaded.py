"""EmptyHeaded-style planner (Section 1.1 and 8.4).

EmptyHeaded (EH) evaluates a query by picking a minimum-width GHD, running
Generic Join inside every bag, and joining the bag results with binary joins.
Its two shortcomings relative to the paper's optimizer are reproduced
faithfully:

* the query-vertex ordering used inside a bag is *not* optimized — it is the
  lexicographic order of the variable names the user wrote (so rewriting the
  query with different variable names changes EH's plan, which is how the
  paper constructs the EH-good / EH-bad comparison), and
* the width cost metric depends only on the query, never on the data graph.

The planner emits plans in this repository's plan representation so that they
run on the same executor as Graphflow plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baselines.ghd import GHD, minimum_width_ghds
from repro.errors import OptimizerError, PlanError
from repro.planner.plan import Plan, PlanNode, make_hash_join, wco_plan_from_order
from repro.planner.qvo import enumerate_orderings, lexicographic_ordering
from repro.query.query_graph import QueryGraph


@dataclass
class EmptyHeadedPlan:
    """An EH plan: a GHD plus one query-vertex ordering per bag."""

    ghd: GHD
    bag_orderings: Tuple[Tuple[str, ...], ...]
    plan: Plan

    def describe(self) -> str:
        orders = " | ".join("".join(o) for o in self.bag_orderings)
        return f"{self.ghd.describe()} with orderings {orders}"


class EmptyHeadedPlanner:
    """Builds EH plans: minimum-width GHD + per-bag WCO sub-plans + hash joins."""

    def __init__(self, max_bags: int = 2) -> None:
        self.max_bags = max_bags

    # ------------------------------------------------------------------ #
    def _bag_ordering(
        self, bag_query: QueryGraph, preferred: Optional[Sequence[str]], join_vertices: Sequence[str]
    ) -> Tuple[str, ...]:
        """EH's ordering heuristic: lexicographic, except that the orderings of
        joined bags start with the join vertices when possible."""
        if preferred is not None:
            order = [v for v in preferred if bag_query.has_vertex(v)]
            if len(order) == bag_query.num_vertices:
                candidates = enumerate_orderings(bag_query)
                if tuple(order) in candidates:
                    return tuple(order)
        join_first = [v for v in sorted(join_vertices) if bag_query.has_vertex(v)]
        for ordering in enumerate_orderings(bag_query):
            if list(ordering[: len(join_first)]) == join_first:
                return ordering
        orderings = enumerate_orderings(bag_query)
        if not orderings:
            raise OptimizerError(f"no valid ordering for bag {bag_query.name}")
        lex = lexicographic_ordering(bag_query)
        return lex if lex in orderings else orderings[0]

    def _assemble(self, query: QueryGraph, ghd: GHD, orderings: Sequence[Tuple[str, ...]]) -> Plan:
        bag_roots: List[PlanNode] = []
        for bag, ordering in zip(ghd.bags, orderings):
            sub_plan = wco_plan_from_order(bag.sub_query, ordering)
            bag_roots.append(sub_plan.root)
        if len(bag_roots) == 1:
            root = bag_roots[0]
        else:
            root = make_hash_join(query, bag_roots[0], bag_roots[1])
        return Plan(query=query, root=root, label="emptyheaded")

    # ------------------------------------------------------------------ #
    def plan(
        self,
        query: QueryGraph,
        orderings: Optional[Sequence[Sequence[str]]] = None,
    ) -> EmptyHeadedPlan:
        """EH's chosen plan for the query.

        ``orderings`` overrides the per-bag query-vertex orderings (one
        sequence per bag); without it EH uses its lexicographic default — this
        is the EH-bad configuration unless the user happened to write good
        variable names.
        """
        ghds = minimum_width_ghds(query, max_bags=self.max_bags)
        if not ghds:
            raise OptimizerError(f"no GHD found for {query.name}")
        # EH arbitrarily picks one minimum-width GHD; we take the first, which
        # for multi-bag ties prefers the decomposition enumerated first.
        ghd = ghds[0]
        join_vertices = ghd.shared_vertices()
        chosen: List[Tuple[str, ...]] = []
        for i, bag in enumerate(ghd.bags):
            preferred = None
            if orderings is not None and i < len(orderings):
                preferred = list(orderings[i])
            chosen.append(self._bag_ordering(bag.sub_query, preferred, join_vertices))
        plan = self._assemble(query, ghd, chosen)
        return EmptyHeadedPlan(ghd=ghd, bag_orderings=tuple(chosen), plan=plan)

    def plan_with_good_orderings(self, query: QueryGraph, cost_model) -> EmptyHeadedPlan:
        """EH-good: force EH's bags to use the orderings a cost-based
        optimizer (ours) would pick for each bag."""
        from repro.planner.dp_optimizer import DynamicProgrammingOptimizer

        ghds = minimum_width_ghds(query, max_bags=self.max_bags)
        if not ghds:
            raise OptimizerError(f"no GHD found for {query.name}")
        ghd = ghds[0]
        orderings: List[Tuple[str, ...]] = []
        for bag in ghd.bags:
            optimizer = DynamicProgrammingOptimizer(cost_model, enable_binary_joins=False)
            bag_plan = optimizer.optimize(bag.sub_query)
            qvo = bag_plan.qvo()
            if qvo is None:
                qvo = enumerate_orderings(bag.sub_query, limit=1)[0]
            orderings.append(qvo)
        plan = self._assemble(query, ghd, orderings)
        return EmptyHeadedPlan(ghd=ghd, bag_orderings=tuple(orderings), plan=plan)

    # ------------------------------------------------------------------ #
    def plan_spectrum(self, query: QueryGraph, max_plans: int = 200) -> List[EmptyHeadedPlan]:
        """Every EH plan obtainable by rewriting the query with different
        variable names: for each minimum-width GHD, every combination of valid
        per-bag orderings (Section 8.4.1)."""
        plans: List[EmptyHeadedPlan] = []
        for ghd in minimum_width_ghds(query, max_bags=self.max_bags):
            per_bag = [enumerate_orderings(bag.sub_query) for bag in ghd.bags]
            if len(ghd.bags) == 1:
                combos = [(o,) for o in per_bag[0]]
            else:
                combos = [(a, b) for a in per_bag[0] for b in per_bag[1]]
            for combo in combos:
                if len(plans) >= max_plans:
                    return plans
                try:
                    plan = self._assemble(query, ghd, combo)
                except PlanError:
                    continue
                plans.append(EmptyHeadedPlan(ghd=ghd, bag_orderings=tuple(combo), plan=plan))
        return plans
