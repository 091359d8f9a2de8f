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
      prefix, so one walk over the query's connected prefixes prices each
      prefix once and yields this plan for every ``Q_k`` at once,
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

One call keys everything by the bitmask of a sub-query's vertices: a
:class:`~repro.planner.cost_model.SubQueryMemo` holds each vertex set's
projection, connectivity, cardinality and induced edges, and each extension's
descriptors and list sizes, so all three cases price from stored values.  A
vertex set's winner is kept as its cost, its root's vertex order and the step
that makes it; plan nodes are built only for the plan returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import OptimizerError
from repro.planner.cost_model import CostModel, SubQueryMemo
from repro.planner.plan import (
    HashJoinNode,
    Plan,
    PlanNode,
    make_extend,
    make_hash_join,
    make_scan,
)
from repro.query.query_graph import QueryGraph


@dataclass
class _Candidate:
    """The cheapest plan found so far for one vertex set, as its cost, its
    root's output order and the step that makes its root from stored plans:
    ``("scan", node)``, ``("wco",)`` (the E/I chain of ``order``),
    ``("extend", child mask, to-vertex)`` or ``("join", build mask, probe
    mask)``.  Nodes are built only for the plan returned."""

    cost: float
    order: Tuple[str, ...]
    step: Tuple



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
        # Everything this call learns about a sub-query, keyed by its vertex
        # mask; it goes with the call.
        memo = SubQueryMemo(self.cost_model, query)

        best: Dict[int, _Candidate] = {}
        self._seed_two_vertex_plans(memo, best)
        best_wco = (
            self._best_wco_per_subquery(memo) if (self.enumerate_all_wco and not large) else {}
        )
        # Case (iii) pairs stored plans of three or more vertices in the order
        # of their sorted vertex names: the first pair seen wins a tie.
        joinable: List[int] = []
        for k in range(3, query.num_vertices + 1):
            level: Dict[int, _Candidate] = {}
            for vset in self._candidate_subsets(memo, k, best, large):
                candidate = self._cheapest(memo, vset, best, best_wco.get(vset), joinable)
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
            joinable = sorted(joinable + list(level), key=lambda m: sorted(memo.names(m)))

        full = best.get(memo.full)
        if full is None:
            raise OptimizerError(f"optimizer failed to cover query {query.name}")
        root = self._build(memo, best, memo.full)
        wco = best_wco.get(memo.full)
        # Every pipelined plan scales by the same fraction, so only a winner
        # with a HASH-JOIN can lose to the best WCO plan under a limit.
        if (
            output_limit is not None
            and wco is not None
            and any(isinstance(n, HashJoinNode) for n in root.iter_nodes())
        ):
            wco_root = self._wco_chain(memo, wco.order)
            if self.cost_model.limited_cost(wco_root, output_limit) < self.cost_model.limited_cost(
                root, output_limit
            ):
                full, root = wco, wco_root
        return Plan(
            query=query,
            root=root,
            estimated_cost=full.cost,
            estimated_cardinality=memo.cardinality(memo.full),
            label="dp-optimizer",
        )

    # ------------------------------------------------------------------ #
    def _seed_two_vertex_plans(self, memo: SubQueryMemo, best: Dict[int, _Candidate]) -> None:
        for edge in memo.query.edges:
            vset = memo.bit[edge.src] | memo.bit[edge.dst]
            scan = make_scan(memo.query, edge, sub_query=memo.projection(vset))
            cost = self.cost_model.scan_cost(scan)
            existing = best.get(vset)
            if existing is None or cost < existing.cost:
                best[vset] = _Candidate(cost, scan.out_vertices, ("scan", scan))

    def _candidate_subsets(
        self, memo: SubQueryMemo, k: int, best: Dict[int, _Candidate], large: bool
    ) -> List[int]:
        if not large:
            bits = [memo.bit[v] for v in memo.vertices]
            masks = (sum(chosen) for chosen in combinations(bits, k))
            return [mask for mask in masks if memo.connected(mask)]
        # Large-query mode: grow only from the sub-queries kept so far.
        seen = set()
        result: List[int] = []
        # A popcount; int.bit_count needs Python 3.10 and setup.py allows 3.9.
        for vset in [s for s in best if bin(s).count("1") == k - 1]:
            for v in memo.vertices:
                grown = vset | memo.bit[v]
                if grown == vset or grown in seen:
                    continue
                seen.add(grown)
                if memo.connected(grown):
                    result.append(grown)
        return result

    # ------------------------------------------------------------------ #
    def _best_wco_per_subquery(self, memo: SubQueryMemo) -> Dict[int, _Candidate]:
        """Case (i): the cheapest WCO plan for every connected sub-query.

        A WCO plan's nodes are the prefixes of its ordering, and a node's cost
        depends only on its prefix, so one depth-first walk over the connected
        prefixes of the query prices each prefix once and offers every prefix
        of three or more vertices to its vertex set.  Equal costs go to the
        ordering that enumerating the vertex set's projection on its own
        (:func:`repro.planner.qvo.enumerate_orderings`) would meet first."""
        query, bit, adjacent = memo.query, memo.bit, memo.adjacent
        price = self.cost_model.price_extend
        best: Dict[int, _Candidate] = {}
        ranks: Dict[int, Tuple] = {}

        def rank(order: Tuple[str, ...], members: int) -> Tuple:
            # Where enumerate_orderings(projection) meets this ordering: first
            # vertex by its position in the projection, second by name, the
            # rest by position again.
            position = memo.projection(members).vertices.index
            return (position(order[0]), order[1]) + tuple(position(v) for v in order[2:])

        def scans() -> Iterator[Tuple[Tuple[str, ...], float, int]]:
            for first in query.vertices:
                for second in sorted(query.neighbors(first)):
                    members = bit[first] | bit[second]
                    edge = query.edges_between(first, second)[0]
                    scan = make_scan(
                        query, edge, reverse=edge.src != first, sub_query=memo.projection(members)
                    )
                    yield (first, second), float(self.cost_model.scan_cost(scan)), members

        def extensions(
            order: Tuple[str, ...], cost: float, members: int
        ) -> Iterator[Tuple[Tuple[str, ...], float, int]]:
            for v in query.vertices:
                if not members & bit[v] and adjacent[v] & members:
                    yield order + (v,), float(cost + price(order, v, memo)), members | bit[v]

        # Depth first, each prefix priced just before it is visited.  A
        # stack, not a recursive closure: that would refer to itself and keep
        # the cost model, and the graph under it, alive until the next full
        # garbage collection.
        stack = [scans()]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                continue
            order, cost, members = step
            existing = best.get(members)
            if len(order) >= 3 and (existing is None or cost <= existing.cost):
                key = rank(order, members)
                if existing is None or cost < existing.cost or key < ranks[members]:
                    best[members] = _Candidate(cost, order, ("wco",))
                    ranks[members] = key
            stack.append(extensions(order, cost, members))
        return best

    def _cheapest(
        self,
        memo: SubQueryMemo,
        vset: int,
        best: Dict[int, _Candidate],
        wco: Optional[_Candidate],
        joinable: List[int],
    ) -> Optional[_Candidate]:
        # (i) the cheapest full WCO plan for this sub-query.  Later cases
        # replace it only when strictly cheaper.
        winner = wco

        # (ii) extend a stored (k-1)-vertex plan by one query vertex, trying
        # the vertices by name: ties are broken first-seen.
        for v in sorted(memo.names(vset)):
            rest = vset ^ memo.bit[v]
            child = best.get(rest)
            if child is None or not memo.adjacent[v] & rest:
                continue
            cost = child.cost + self.cost_model.price_extend(child.order, v, memo)
            if winner is None or cost < winner.cost:
                winner = _Candidate(cost, child.order + (v,), ("extend", rest, v))

        # (iii) hash-join two stored sub-plans whose vertices and induced
        # query edges cover this sub-query's (the projection constraint).
        if self.enable_binary_joins:
            edges = memo.edge_mask(vset)
            inside = [s for s in joinable if s & vset == s]
            for i, left in enumerate(inside):
                for right in inside[i:]:
                    if left | right != vset or not left & right:
                        continue
                    if memo.edge_mask(left) | memo.edge_mask(right) != edges:
                        continue
                    # Build on the side with the smaller estimated cardinality.
                    left_card, right_card = memo.cardinality(left), memo.cardinality(right)
                    if left_card <= right_card:
                        build, probe, n_build, n_probe = left, right, left_card, right_card
                    else:
                        build, probe, n_build, n_probe = right, left, right_card, left_card
                    cost = (
                        best[left].cost
                        + best[right].cost
                        + self.cost_model.join_cost(n_build, n_probe)
                    )
                    if winner is None or cost < winner.cost:
                        probe_order = best[probe].order
                        order = probe_order + tuple(
                            v for v in best[build].order if v not in probe_order
                        )
                        winner = _Candidate(cost, order, ("join", build, probe))

        return winner

    # ------------------------------------------------------------------ #
    def _build(self, memo: SubQueryMemo, best: Dict[int, _Candidate], vset: int) -> PlanNode:
        """The plan tree of ``best[vset]``."""
        step = best[vset].step
        if step[0] == "scan":
            return step[1]
        if step[0] == "wco":
            return self._wco_chain(memo, best[vset].order)
        sub = memo.projection(vset)
        if step[0] == "extend":
            _, rest, v = step
            return make_extend(memo.query, self._build(memo, best, rest), v, sub)
        _, build, probe = step
        return make_hash_join(
            memo.query, self._build(memo, best, build), self._build(memo, best, probe), sub
        )

    @staticmethod
    def _wco_chain(memo: SubQueryMemo, order: Tuple[str, ...]) -> PlanNode:
        """The WCO plan of ``order``: a SCAN of the first query edge between
        its first two vertices, then one E/I per vertex after them."""
        query = memo.query
        edge = query.edges_between(order[0], order[1])[0]
        members = memo.mask(order[:2])
        node: PlanNode = make_scan(
            query, edge, reverse=edge.src != order[0], sub_query=memo.projection(members)
        )
        for v in order[2:]:
            members |= memo.bit[v]
            node = make_extend(query, node, v, memo.projection(members))
        return node
