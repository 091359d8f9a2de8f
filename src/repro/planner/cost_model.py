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
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalogue.catalogue import SubgraphCatalogue
from repro.catalogue.estimation import estimate_cardinality, extension_statistics
from repro.errors import CatalogueError
from repro.executor.operators import ExecutionConfig
from repro.graph.graph import Graph
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import (
    ExtendNode,
    HashJoinNode,
    Plan,
    PlanNode,
    ScanNode,
    extension_descriptors,
)
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

    def price_extend(
        self, child_order: Sequence[str], to_vertex: str, memo: "SubQueryMemo"
    ) -> float:
        """Estimated i-cost of the E/I that extends matches of ``memo``'s
        sub-query on ``child_order`` to ``to_vertex`` (Eq. 2 and its
        cache-aware refinement)."""
        bit = memo.bit
        child = 0
        for v in child_order:
            child |= bit[v]
        _, total_list_size, anchors = memo.extension(child, to_vertex)
        multiplier = memo.cardinality(child)
        if self.cache_conscious:
            # The intersection depends only on the shortest prefix of the
            # child's order that holds every list's anchor.  If that prefix
            # is shorter than the child, consecutive child tuples sharing it
            # hit the intersection cache.
            prefix = prefix_len = 0
            for v in child_order:
                prefix |= bit[v]
                prefix_len += 1
                if anchors & prefix == anchors:
                    break
            if prefix_len < len(child_order):
                if prefix_len >= 2 and memo.connected(prefix):
                    multiplier = min(multiplier, memo.cardinality(prefix))
                elif prefix_len == 1:
                    # The intersection depends on a single already-matched
                    # vertex: it repeats once per distinct binding of that
                    # vertex, bounded by the number of graph vertices.
                    multiplier = min(multiplier, float(self.graph.num_vertices))
        cost = multiplier * total_list_size * self.constants.intersect_weight
        cost += memo.cardinality(child | bit[to_vertex]) * self.constants.emit_weight
        cost += self._batch_cost(memo.cardinality(child))
        return cost

    def extend_cost(self, node: ExtendNode) -> float:
        """:meth:`price_extend` of one E/I node, with the node's own
        descriptors and to-vertex label."""
        child = node.child
        memo = SubQueryMemo(self, node.sub_query, known=(child.sub_query,))
        memo.hold_extension(
            memo.mask(child.out_vertices), node.to_vertex, node.descriptors, node.to_vertex_label
        )
        return self.price_extend(child.out_vertices, node.to_vertex, memo)

    def join_cost(self, n_build: float, n_probe: float) -> float:
        """A HASH-JOIN's cost for build and probe sides of ``n_build`` and
        ``n_probe`` estimated matches (Section 4.2)."""
        return (
            self.build_weight * n_build
            + self.probe_weight * n_probe
            + self._batch_cost(n_build + n_probe)
        )

    def hash_join_cost(self, node: HashJoinNode) -> float:
        return self.join_cost(
            self.cardinality(node.build.sub_query), self.cardinality(node.probe.sub_query)
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


class SubQueryMemo:
    """What one planning call knows about the sub-queries of ``query``, keyed
    by the bitmask of their query vertices (bit ``i`` is
    ``query.vertices[i]``).

    Per vertex set it keeps one projection, whether that projection is
    connected, its estimated cardinality and the mask of the query edges it
    induces (bit ``i`` is ``query.edges[i]``).  Per (vertex set, to-vertex)
    it keeps the descriptors of the E/I that extends the set to that vertex,
    their summed list sizes ``Σ|A|`` and the mask of their anchor vertices.
    Everything is computed on first use, so the cost model is asked in the
    order the caller prices things: a lazily sampled catalogue entry is
    measured on the first sub-query that asks for it, so that order decides
    which of several isomorphic sub-queries it is measured on.

    A memo belongs to the call that made it: the cost model's own memos,
    keyed by sub-query, are what outlive a call.  ``known`` hands it
    projections of ``query`` the caller already holds; ``query`` itself is
    the projection onto all of its vertices.
    """

    def __init__(
        self, cost_model: CostModel, query: QueryGraph, known: Sequence[QueryGraph] = ()
    ) -> None:
        self.cost_model = cost_model
        self.query = query
        self.vertices = query.vertices
        self.bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        self.full = (1 << len(self.vertices)) - 1
        self._projections: Dict[int, QueryGraph] = {self.full: query}
        for sub in known:
            self._projections[self.mask(sub.vertices)] = sub
        self._connected: Dict[int, bool] = {}
        self._cardinalities: Dict[int, float] = {}
        self._edge_masks: Dict[int, int] = {}
        self._extensions: Dict[
            Tuple[int, str], Tuple[Tuple[AdjListDescriptor, ...], float, int]
        ] = {}

    # Built on first use: pricing one plan node needs neither.
    @cached_property
    def adjacent(self) -> Dict[str, int]:
        """Per query vertex, the mask of its neighbours."""
        adjacent = dict.fromkeys(self.vertices, 0)
        for e in self.query.edges:
            adjacent[e.src] |= self.bit[e.dst]
            adjacent[e.dst] |= self.bit[e.src]
        return adjacent

    @cached_property
    def _edge_ends(self) -> List[int]:
        return [self.bit[e.src] | self.bit[e.dst] for e in self.query.edges]

    def mask(self, vertices: Iterable[str]) -> int:
        mask = 0
        for v in vertices:
            mask |= self.bit[v]
        return mask

    def names(self, mask: int) -> Tuple[str, ...]:
        """The vertices of ``mask``, in the query's order."""
        return tuple(v for v in self.vertices if mask & self.bit[v])

    def projection(self, mask: int) -> QueryGraph:
        sub = self._projections.get(mask)
        if sub is None:
            sub = self._projections[mask] = self.query.project(self.names(mask))
        return sub

    def connected(self, mask: int) -> bool:
        """Whether the projection onto ``mask`` is connected and has an edge."""
        connected = self._connected.get(mask)
        if connected is None:
            reached = frontier = mask & -mask
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = self.adjacent[self.vertices[low.bit_length() - 1]] & mask & ~reached
                reached |= grown
                frontier |= grown
            connected = self._connected[mask] = reached == mask and mask & (mask - 1) != 0
        return connected

    def cardinality(self, mask: int) -> float:
        card = self._cardinalities.get(mask)
        if card is None:
            card = self._cardinalities[mask] = self.cost_model.cardinality(self.projection(mask))
        return card

    def edge_mask(self, mask: int) -> int:
        edges = self._edge_masks.get(mask)
        if edges is None:
            edges = 0
            for i, ends in enumerate(self._edge_ends):
                if ends & mask == ends:
                    edges |= 1 << i
            self._edge_masks[mask] = edges
        return edges

    def extension(
        self, mask: int, to_vertex: str
    ) -> Tuple[Tuple[AdjListDescriptor, ...], float, int]:
        """``(descriptors, Σ|A|, anchor mask)`` of the E/I that extends the
        projection onto ``mask`` to ``to_vertex``, a neighbour of it."""
        extension = self._extensions.get((mask, to_vertex))
        if extension is None:
            extension = self.hold_extension(
                mask,
                to_vertex,
                extension_descriptors(self.query, self.names(mask), to_vertex),
                self.query.vertex_label(to_vertex),
            )
        return extension

    def hold_extension(
        self,
        mask: int,
        to_vertex: str,
        descriptors: Tuple[AdjListDescriptor, ...],
        to_label: Optional[int],
    ) -> Tuple[Tuple[AdjListDescriptor, ...], float, int]:
        """Keep, and return, the extension of ``mask`` to ``to_vertex`` by
        ``descriptors`` into a vertex labelled ``to_label``: what
        :meth:`extension` answers from then on."""
        sizes, _ = self.cost_model.extension_stats(self.projection(mask), descriptors, to_label)
        anchors = self.mask(d.from_vertex for d in descriptors)
        extension = self._extensions[(mask, to_vertex)] = (
            descriptors,
            float(sum(sizes)),
            anchors,
        )
        return extension


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
