"""Adaptive WCO plan evaluation (Section 6) as a plan rewrite.

A fixed plan's WCO part (a chain of two or more E/I operators) commits to one
query-vertex ordering chosen from *average* statistics.  :func:`adapt`
replaces the topmost such chain by one
:class:`~repro.planner.plan.AdaptiveNode` carrying every ordering of the
chain's query vertices; the batch engine's operator for that node
(:class:`repro.executor.vectorized.BatchAdaptiveOperator`) re-costs the
orderings for every partial match arriving from below the chain, with the
*actual* adjacency-list sizes of the matched data vertices, and extends the
match with the cheapest one (Example 6.2).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.catalogue.catalogue import SubgraphCatalogue
from repro.catalogue.estimation import extension_statistics
from repro.errors import CatalogueError
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import ExecutionResult, execute_plan
from repro.graph.graph import Graph
from repro.planner.plan import AdaptiveNode, AdaptiveTail, ExtendNode, Plan, PlanNode, make_extend
from repro.planner.qvo import enumerate_orderings


def _step_statistics(
    node: ExtendNode, graph: Graph, catalogue: Optional[SubgraphCatalogue]
) -> Tuple[float, float]:
    """``(summed average list sizes, mu)`` of one E/I from the catalogue; the
    graph's average degree per list without one, or when it has no entry."""
    if catalogue is not None:
        try:
            sizes, mu = extension_statistics(
                catalogue, node.child.sub_query, node.descriptors, node.to_vertex_label, graph=graph
            )
        except CatalogueError:
            pass
        else:
            return float(sum(sizes)), float(mu)
    return len(node.descriptors) * graph.num_edges / max(graph.num_vertices, 1), 1.0


def _tail(
    plan: Plan,
    base: PlanNode,
    ordering: Tuple[str, ...],
    graph: Graph,
    catalogue: Optional[SubgraphCatalogue],
) -> AdaptiveTail:
    """The E/I chain extending ``base`` in ``ordering`` and its re-costing
    constants.  For a partial match whose first E/I reads lists of summed
    size ``d``, the expected matches flowing into the later steps are the
    catalogue's ``mu`` scaled by ``d / average d``, and every later step
    costs its average list sizes per match flowing in (Example 6.2):
    ``cost = d + mu_1 * (d / avg_1) * (avg_2 + mu_2 * avg_3 + ...)``."""
    root = base
    stats: List[Tuple[float, float]] = []
    for to_vertex in ordering[len(base.out_vertices):]:
        root = make_extend(plan.query, root, to_vertex)
        stats.append(_step_statistics(root, graph, catalogue))
    (avg_first, mu_first), later, flowing = stats[0], 0.0, 1.0
    for avg, mu in stats[1:]:
        later += flowing * avg
        flowing *= mu
    if avg_first > 0:
        return AdaptiveTail(root, 1.0 + mu_first * later / avg_first, 0.0)
    return AdaptiveTail(root, 1.0, mu_first * later)


def adapt(plan: Plan, graph: Graph, catalogue: Optional[SubgraphCatalogue] = None) -> Plan:
    """``plan`` with its topmost E/I chain replaced by one adaptive node; a
    plan whose chain is shorter than two operators (pure WCO plans of 4+
    vertices always have one) is returned as is."""
    base = plan.root
    while isinstance(base, ExtendNode):
        base = base.child
    if len(plan.root.out_vertices) - len(base.out_vertices) < 2:
        return plan
    orderings = enumerate_orderings(plan.query, prefix=base.out_vertices)
    if not orderings:
        return plan
    root = AdaptiveNode(
        sub_query=plan.root.sub_query,
        out_vertices=plan.root.out_vertices,
        child=base,
        tails=tuple(_tail(plan, base, o, graph, catalogue) for o in orderings),
    )
    # The adaptive operator produces what the chain's last E/I would have.
    estimates = plan.operator_estimates
    if estimates and plan.root.display_name() in estimates:
        estimates = {**estimates, root.display_name(): estimates[plan.root.display_name()]}
    label = (plan.label + "+adaptive") if plan.label else "adaptive"
    return replace(plan, root=root, label=label, operator_estimates=estimates)


def execute_adaptive(
    plan: Plan,
    graph: Graph,
    catalogue: Optional[SubgraphCatalogue] = None,
    config: Optional[ExecutionConfig] = None,
    collect: bool = False,
) -> ExecutionResult:
    """Run ``adapt(plan)`` on the batch engine, the only one with an
    operator for the adaptive node."""
    config = replace(config or ExecutionConfig(), vectorized=True)
    return execute_plan(adapt(plan, graph, catalogue), graph, config=config, collect=collect)
