"""The cost model (Sections 3.3, 4.2, 5.2).

WCO (E/I) operators are costed with *i-cost* — the estimated total size of the
adjacency lists the operator will access — computed from the subgraph
catalogue.  HASH-JOIN operators are costed as ``w1 * n1 + w2 * n2`` i-cost
units, where ``n1``/``n2`` are the estimated cardinalities of the build and
probe inputs and the weights are either defaults or fitted empirically from
profiled runs (:func:`calibrate_hash_join_weights`).

The model is *cache-conscious*: when every adjacency list an E/I operator
intersects is anchored at query vertices matched strictly before the child's
last vertex, consecutive input tuples repeat the same intersection and the
intersection cache serves them, so the lists are charged once per match of
that smaller prefix instead of once per input tuple (Section 5.2, estimation
2).  Setting ``cache_conscious=False`` gives the cache-oblivious model the
paper compares against.

Every plan is priced with one constant set, :data:`COST_CONSTANTS`, set for
the batch engine that runs the plans (Section 4.2 fits the hash-join weights
to the engine; :func:`calibrate_hash_join_weights` shows how).  That engine
amortises interpreter cost over whole frames and shares one intersection per
distinct adjacency-key group, so per-tuple terms are small and every frame
pays a fixed per-batch overhead.  A plan, its cost and its plan-cache entry
therefore do not depend on which executor runs it.
``CostModel(constants=...)`` prices under another set, for tests.

Every cost above is for a run to completion.  A query with an output limit
stops early, but only in its pipeline: a HASH-JOIN build side is drained in
full before the first row comes out.  :meth:`CostModel.limited_cost` prices
that run, and both optimizers rank a limited query's plans by it, so a
hybrid plan that is cheapest for the whole answer can lose to a WCO plan
that pipelines its first rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalogue.catalogue import SubgraphCatalogue
from repro.catalogue.estimation import estimate_cardinality, extension_statistics
from repro.errors import CatalogueError
from repro.executor.operators import ExecutionConfig
from repro.graph.graph import Graph
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import ExtendNode, HashJoinNode, Plan, PlanNode, ScanNode
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class CostConstants:
    """Operator cost constants (all in i-cost units).

    Attributes
    ----------
    scan_weight:
        Cost per tuple emitted by a SCAN.
    intersect_weight:
        Cost per adjacency-list element an E/I operator reads.
    emit_weight:
        Cost per output tuple an E/I operator materialises (the batch engine
        physically builds each frame with ``np.repeat`` expansions).
    build_weight / probe_weight:
        The ``w1``/``w2`` HASH-JOIN weights of Section 4.2.
    batch_overhead:
        Fixed cost per ``batch_size``-row frame an operator processes: the
        batch engine's per-frame bookkeeping (packing each row's key into one
        code, sorting the codes when the frame arrives out of key order,
        boundary detection).
    delta_scan_weight:
        Extra cost per scanned tuple, scaled by the scanned partition's
        delta ratio, when the plan runs against a *dirty*
        :class:`~repro.storage.snapshot.GraphSnapshot`: the batch engine
        serves dirty partitions through lazily merged CSR views, and the
        merge (plus the lost base-array cache reuse) costs roughly in
        proportion to the overlay share of the partition.
    """

    scan_weight: float = 0.25
    intersect_weight: float = 1.0
    emit_weight: float = 0.02
    build_weight: float = 0.6
    probe_weight: float = 0.25
    batch_overhead: float = 4.0
    delta_scan_weight: float = 1.5


#: The one constant set every plan is priced with: per-tuple scan/probe work
#: is amortised over columnar frames (the measured batch-executor speedups
#: are 3-12x on scan/probe-dominated plans), intersections still dominate but
#: are shared per distinct adjacency key, and every frame pays a small fixed
#: overhead.
COST_CONSTANTS = CostConstants()


@dataclass
class CostBreakdown:
    """Per-operator cost report, useful for EXPLAIN output and tests."""

    total: float
    per_operator: List[Tuple[str, float]]


class CostModel:
    """Estimates plan costs from a subgraph catalogue."""

    def __init__(
        self,
        graph: Graph,
        catalogue: SubgraphCatalogue,
        build_weight: Optional[float] = None,
        probe_weight: Optional[float] = None,
        cache_conscious: bool = True,
        constants: Optional[CostConstants] = None,
        batch_size: int = ExecutionConfig.batch_size,
    ) -> None:
        self.graph = graph
        self.catalogue = catalogue
        self.constants = constants if constants is not None else COST_CONSTANTS
        # Explicit weights (e.g. from calibrate_hash_join_weights) override
        # the constant set.
        self.build_weight = build_weight if build_weight is not None else self.constants.build_weight
        self.probe_weight = probe_weight if probe_weight is not None else self.constants.probe_weight
        self.cache_conscious = cache_conscious
        self.batch_size = max(int(batch_size), 1)
        # Both memos live as long as the model: whoever changes the catalogue
        # or the graph under it builds a new one (GraphflowDB drops its cost
        # models on every catalogue install and every write).
        self._cardinality_cache: Dict[QueryGraph, float] = {}
        self._extension_stats_cache: Dict[
            Tuple[QueryGraph, Tuple[AdjListDescriptor, ...], Optional[int]],
            Tuple[List[float], float],
        ] = {}

    # ------------------------------------------------------------------ #
    # cardinalities
    # ------------------------------------------------------------------ #
    def cardinality(self, sub_query: QueryGraph, ordering: Optional[Sequence[str]] = None) -> float:
        """Estimated number of matches of ``sub_query`` (cached)."""
        if ordering is None and sub_query in self._cardinality_cache:
            return self._cardinality_cache[sub_query]
        value = estimate_cardinality(
            self.catalogue, sub_query, graph=self.graph, ordering=ordering
        )
        if ordering is None:
            self._cardinality_cache[sub_query] = value
        return value

    def extension_stats(
        self,
        sub_query: QueryGraph,
        descriptors: Sequence[AdjListDescriptor],
        to_label: Optional[int],
    ) -> Tuple[List[float], float]:
        """``(|A|, mu)`` of one extension (cached: many prefixes of the
        DP's walk, and its other two cases, extend the same sub-query by the
        same descriptors, and each catalogue lookup canonicalises its key
        over all vertex permutations).  Every caller
        is handed the cached list itself; it is not theirs to change."""
        key = (sub_query, tuple(descriptors), to_label)
        stats = self._extension_stats_cache.get(key)
        if stats is None:
            stats = extension_statistics(
                self.catalogue, sub_query, descriptors, to_label, graph=self.graph
            )
            self._extension_stats_cache[key] = stats
        return stats

    # ------------------------------------------------------------------ #
    # per-operator costs
    # ------------------------------------------------------------------ #
    def _batch_cost(self, tuples: float) -> float:
        """Fixed per-frame overhead for processing ``tuples`` rows in
        ``batch_size``-row frames."""
        if tuples <= 0:
            return 0.0
        batches = float(np.ceil(tuples / self.batch_size))
        return batches * self.constants.batch_overhead

    def _scan_delta_penalty(self, node: ScanNode, count: float) -> float:
        """Per-partition dirty-snapshot surcharge for a SCAN.

        When the plan's graph is a dirty :class:`GraphSnapshot` (duck-typed
        via ``partition_delta_ratio``), the scanned edge partition pays
        ``delta_scan_weight`` extra i-cost units per tuple, scaled by the
        overlay share of that partition — partitions the delta never touched
        cost exactly what they cost on a flat CSR.
        """
        if count <= 0:
            return 0.0
        ratio_fn = getattr(self.graph, "partition_delta_ratio", None)
        if ratio_fn is None:
            return 0.0
        from repro.graph.graph import Direction

        edge = node.edge
        ratio = ratio_fn(
            Direction.FORWARD, edge.label, node.sub_query.vertex_label(edge.dst)
        )
        if ratio <= 0.0:
            return 0.0
        return count * min(ratio, 1.0) * self.constants.delta_scan_weight

    def scan_cost(self, node: ScanNode) -> float:
        """A SCAN costs its output cardinality (the selectivity of the label
        on the scanned query edge — the DP's base case), weighted by the
        per-tuple scan constant, plus a per-partition
        surcharge when scanning a dirty snapshot's lazily merged views."""
        edge = node.edge
        count = self.catalogue.edge_count(
            edge.label,
            node.sub_query.vertex_label(edge.src),
            node.sub_query.vertex_label(edge.dst),
        )
        return (
            count * self.constants.scan_weight
            + self._batch_cost(count)
            + self._scan_delta_penalty(node, count)
        )

    def _cache_prefix_length(self, node: ExtendNode) -> int:
        """Number of leading child vertices the intersection actually depends
        on.  If it is smaller than the child's arity, consecutive child tuples
        sharing that prefix hit the intersection cache."""
        child_order = node.child.out_vertices
        positions = [child_order.index(d.from_vertex) for d in node.descriptors]
        return max(positions) + 1

    def extend_cost(self, node: ExtendNode) -> float:
        """Estimated i-cost of one E/I operator (Eq. 2 and its cache-aware
        refinement)."""
        child_query = node.child.sub_query
        sizes, _ = self.extension_stats(child_query, node.descriptors, node.to_vertex_label)
        total_list_size = float(sum(sizes))
        multiplier = self.cardinality(child_query)
        if self.cache_conscious:
            prefix_len = self._cache_prefix_length(node)
            child_order = node.child.out_vertices
            if prefix_len < len(child_order):
                prefix = child_order[:prefix_len]
                if len(prefix) >= 2 and node.sub_query.connected_projection_exists(prefix):
                    multiplier = min(
                        multiplier, self.cardinality(child_query.project(prefix))
                    )
                elif len(prefix) == 1:
                    # The intersection depends on a single already-matched
                    # vertex: it repeats once per distinct binding of that
                    # vertex, bounded by the number of graph vertices.
                    multiplier = min(multiplier, float(self.graph.num_vertices))
        cost = multiplier * total_list_size * self.constants.intersect_weight
        cost += self.cardinality(node.sub_query) * self.constants.emit_weight
        cost += self._batch_cost(self.cardinality(child_query))
        return cost

    def hash_join_cost(self, node: HashJoinNode) -> float:
        n_build = self.cardinality(node.build.sub_query)
        n_probe = self.cardinality(node.probe.sub_query)
        return (
            self.build_weight * n_build
            + self.probe_weight * n_probe
            + self._batch_cost(n_build + n_probe)
        )

    def operator_cost(self, node: PlanNode) -> float:
        if isinstance(node, ScanNode):
            return self.scan_cost(node)
        if isinstance(node, ExtendNode):
            return self.extend_cost(node)
        if isinstance(node, HashJoinNode):
            return self.hash_join_cost(node)
        raise TypeError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------------ #
    # plan costs
    # ------------------------------------------------------------------ #
    def plan_cost(self, plan_or_node) -> float:
        root = plan_or_node.root if isinstance(plan_or_node, Plan) else plan_or_node
        return float(sum(self.operator_cost(n) for n in root.iter_nodes()))

    def limited_cost(self, plan_or_node, limit: Optional[int]) -> float:
        """What a run stopped after ``limit`` output rows costs.

        Every HASH-JOIN build side reachable down the pipeline is drained in
        full, so its subtree and the join's build term are charged in full.
        The pipeline above the primary SCAN stops early, so the rest of
        :meth:`plan_cost` is charged at ``limit / cardinality(query)``.
        ``None``, or a limit at or above the estimate, is ``plan_cost``.
        """
        root = plan_or_node.root if isinstance(plan_or_node, Plan) else plan_or_node
        total = self.plan_cost(root)
        if limit is None or limit >= self.cardinality(root.sub_query):
            return total
        blocking = 0.0
        node = root
        while node.children():
            if isinstance(node, HashJoinNode):
                n_build = self.cardinality(node.build.sub_query)
                blocking += (
                    self.plan_cost(node.build)
                    + self.build_weight * n_build
                    + self._batch_cost(n_build)
                )
                node = node.probe
            else:
                node = node.children()[0]
        return blocking + limit / self.cardinality(root.sub_query) * (total - blocking)

    def cost_breakdown(self, plan: Plan) -> CostBreakdown:
        rows = [
            (node._describe_line(), self.operator_cost(node)) for node in plan.root.iter_nodes()
        ]
        return CostBreakdown(total=float(sum(c for _, c in rows)), per_operator=rows)


def annotate_operator_estimates(plan: Plan, cost_model: CostModel) -> Plan:
    """Record each operator's estimated output cardinality on the plan.

    The mapping is keyed by ``display_name()`` — the same string the
    executors use as the per-operator profile key — so traces can join the
    executor's *actual* output counts with these estimates into per-operator
    q-errors.  Two operators can share a display name (e.g. duplicate SCANs
    of the same query edge in a bushy plan); their estimates are summed,
    matching how the executor sums their counters under one profile key.
    A catalogue lookup that fails leaves the plan unannotated: it then
    yields traces without q-errors, never a failed query.
    """
    estimates: Dict[str, float] = {}
    try:
        for node in plan.root.iter_nodes():
            name = node.display_name()
            estimates[name] = estimates.get(name, 0.0) + float(
                cost_model.cardinality(node.sub_query)
            )
    except CatalogueError:
        return plan
    plan.operator_estimates = estimates
    return plan


# --------------------------------------------------------------------------- #
# hash-join weight calibration (Section 4.2)
# --------------------------------------------------------------------------- #
def calibrate_hash_join_weights(
    graph: Graph,
    catalogue: SubgraphCatalogue,
    sample_queries: Optional[Sequence[QueryGraph]] = None,
) -> Tuple[float, float]:
    """Fit ``(w1, w2)`` from profiled runs.

    We execute a handful of WCO plans to learn how much wall-clock time one
    i-cost unit represents, then execute hash-join plans, convert their times
    into i-cost units, and least-squares fit ``w1 * n1 + w2 * n2``.
    Falls back to :data:`COST_CONSTANTS`' weights when there is not enough
    signal.
    """
    from repro.executor.pipeline import execute_plan
    from repro.planner.plan import make_hash_join, make_scan, wco_plan_from_order
    from repro.query import catalog_queries

    queries = list(sample_queries) if sample_queries else [catalog_queries.asymmetric_triangle()]
    icost_time: List[Tuple[float, float]] = []
    for query in queries:
        from repro.planner.qvo import enumerate_orderings

        orderings = enumerate_orderings(query, limit=2)
        for ordering in orderings:
            plan = wco_plan_from_order(query, ordering)
            result = execute_plan(plan, graph)
            if result.profile.intersection_cost > 0:
                icost_time.append(
                    (float(result.profile.intersection_cost), result.profile.elapsed_seconds)
                )
    if not icost_time:
        return COST_CONSTANTS.build_weight, COST_CONSTANTS.probe_weight
    seconds_per_icost = float(
        np.median([t / c for c, t in icost_time if c > 0]) or 1e-9
    )

    # Hash-join samples: join two edge scans of a 2-path query.
    two_path = catalog_queries.path(3, "calibration-2-path")
    rows: List[Tuple[float, float, float]] = []
    scan_a = make_scan(two_path, two_path.edges[0])
    scan_b = make_scan(two_path, two_path.edges[1])
    join = make_hash_join(two_path, scan_a, scan_b)
    plan = Plan(query=two_path, root=join, label="calibration-join")
    result = execute_plan(plan, graph)
    n1 = float(result.profile.hash_table_entries)
    n2 = float(result.profile.hash_probes)
    if n1 > 0 and n2 > 0 and seconds_per_icost > 0:
        converted = result.profile.elapsed_seconds / seconds_per_icost
        rows.append((n1, n2, converted))
    if not rows:
        return COST_CONSTANTS.build_weight, COST_CONSTANTS.probe_weight
    a = np.array([[r[0], r[1]] for r in rows])
    b = np.array([r[2] for r in rows])
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    w1, w2 = float(solution[0]), float(solution[1])
    if not np.isfinite(w1) or not np.isfinite(w2) or w1 <= 0 or w2 <= 0:
        return COST_CONSTANTS.build_weight, COST_CONSTANTS.probe_weight
    return w1, w2
