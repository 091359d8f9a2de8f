"""Plan-spectrum generation (Figures 7, 8, and 9).

A *plan spectrum* runs every plan of a query (WCO plans = one per QVO, plus
the BJ and hybrid plans the full plan space contains) and records their
runtimes, so that the plan the optimizer picks can be placed inside the
distribution.  Figure 8 repeats the exercise with adaptive ordering selection,
and Figure 9 does it for the EmptyHeaded plan space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.catalogue.catalogue import SubgraphCatalogue
from repro.executor.adaptive import execute_adaptive
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import execute_plan
from repro.graph.graph import Graph
from repro.planner.full_enumeration import PlanSpaceEnumerator
from repro.planner.plan import Plan
from repro.planner.qvo import enumerate_wco_plans
from repro.query.query_graph import QueryGraph


@dataclass
class SpectrumPoint:
    """One executed plan inside a spectrum."""

    plan: Plan
    plan_type: str
    seconds: float
    num_matches: int
    i_cost: int
    intermediate_matches: int
    is_optimizer_choice: bool = False
    adaptive: bool = False


@dataclass
class Spectrum:
    """All executed plans of one query on one graph."""

    query_name: str
    graph_name: str
    points: List[SpectrumPoint] = field(default_factory=list)

    def by_type(self) -> Dict[str, List[SpectrumPoint]]:
        grouped: Dict[str, List[SpectrumPoint]] = {}
        for p in self.points:
            grouped.setdefault(p.plan_type, []).append(p)
        return grouped

    @property
    def best(self) -> SpectrumPoint:
        return min(self.points, key=lambda p: p.seconds)

    @property
    def worst(self) -> SpectrumPoint:
        return max(self.points, key=lambda p: p.seconds)

    @property
    def optimizer_choice(self) -> Optional[SpectrumPoint]:
        for p in self.points:
            if p.is_optimizer_choice:
                return p
        return None

    def optimality_ratio(self) -> float:
        """How far the optimizer's plan is from the fastest plan (1.0 = optimal)."""
        chosen = self.optimizer_choice
        if chosen is None or self.best.seconds <= 0:
            return float("nan")
        return chosen.seconds / self.best.seconds

    def summary(self) -> str:
        counts = {k: len(v) for k, v in self.by_type().items()}
        ratio = self.optimality_ratio()
        return (
            f"{self.query_name} on {self.graph_name}: {counts}, "
            f"best={self.best.seconds:.3f}s worst={self.worst.seconds:.3f}s "
            f"optimizer-within={ratio:.2f}x"
        )


def _plan_matches_signature(plan: Plan, chosen: Optional[Plan]) -> bool:
    return chosen is not None and plan.signature() == chosen.signature()


def generate_spectrum(
    query: QueryGraph,
    graph: Graph,
    catalogue: Optional[SubgraphCatalogue] = None,
    chosen_plan: Optional[Plan] = None,
    include_hybrid: bool = True,
    max_plans: int = 120,
    config: Optional[ExecutionConfig] = None,
    adaptive: bool = False,
) -> Spectrum:
    """Run (up to ``max_plans``) plans of ``query`` on ``graph``.

    ``chosen_plan`` marks the optimizer's pick inside the spectrum.  With
    ``adaptive=True`` each plan is executed with adaptive ordering selection
    (the Figure 8 variant) -- on the batch engine, the only one with the
    adaptive operator, so the fixed spectrum it is compared with has to run
    on the batch engine as well (the default ``config``).
    """
    config = config or ExecutionConfig()
    plans: List[Plan] = list(enumerate_wco_plans(query))
    if include_hybrid:
        enumerator = PlanSpaceEnumerator(query, enable_binary_joins=True)
        seen = {p.signature() for p in plans}
        for plan in enumerator.all_plans():
            if plan.signature() not in seen:
                seen.add(plan.signature())
                plans.append(plan)
    if len(plans) > max_plans:
        # Truncate while preserving plan-type diversity: round-robin across
        # WCO / hybrid / BJ plans, so the hybrid plans of larger queries (the
        # best plans for e.g. Q8) are not pushed out by the many WCO orderings.
        buckets: Dict[str, List[Plan]] = {}
        for p in plans:
            buckets.setdefault(p.plan_type, []).append(p)
        ordered_buckets = [buckets[t] for t in ("wco", "hybrid", "bj") if t in buckets]
        selected: List[Plan] = []
        depth = 0
        while len(selected) < max_plans and any(depth < len(b) for b in ordered_buckets):
            for bucket in ordered_buckets:
                if depth < len(bucket) and len(selected) < max_plans:
                    selected.append(bucket[depth])
            depth += 1
        plans = selected
    if chosen_plan is not None and all(
        p.signature() != chosen_plan.signature() for p in plans
    ):
        # Always include (and therefore mark) the optimizer's pick, even when
        # the enumerated spectrum was truncated.
        plans.append(chosen_plan)

    spectrum = Spectrum(query_name=query.name, graph_name=graph.name)
    for plan in plans:
        if adaptive:
            result = execute_adaptive(plan, graph, catalogue=catalogue, config=config)
        else:
            result = execute_plan(plan, graph, config=config)
        spectrum.points.append(
            SpectrumPoint(
                plan=plan,
                plan_type=plan.plan_type,
                seconds=result.profile.elapsed_seconds,
                num_matches=result.num_matches,
                i_cost=result.profile.intersection_cost,
                intermediate_matches=result.profile.intermediate_matches,
                is_optimizer_choice=_plan_matches_signature(plan, chosen_plan),
                adaptive=adaptive,
            )
        )
    return spectrum


def generate_emptyheaded_spectrum(
    query: QueryGraph,
    graph: Graph,
    max_plans: int = 60,
    config: Optional[ExecutionConfig] = None,
) -> Spectrum:
    """Figure 9: the runtimes of every EmptyHeaded plan (all minimum-width
    GHDs x all per-bag orderings)."""
    from repro.baselines.emptyheaded import EmptyHeadedPlanner

    config = config or ExecutionConfig()
    planner = EmptyHeadedPlanner()
    spectrum = Spectrum(query_name=query.name, graph_name=graph.name)
    for eh_plan in planner.plan_spectrum(query, max_plans=max_plans):
        result = execute_plan(eh_plan.plan, graph, config=config)
        spectrum.points.append(
            SpectrumPoint(
                plan=eh_plan.plan,
                plan_type="emptyheaded",
                seconds=result.profile.elapsed_seconds,
                num_matches=result.num_matches,
                i_cost=result.profile.intersection_cost,
                intermediate_matches=result.profile.intermediate_matches,
            )
        )
    return spectrum
