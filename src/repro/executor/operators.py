"""The tuple-at-a-time reference executor, plus the execution config and
the column-resolution helpers both executors share.

The batch engine of :mod:`repro.executor.vectorized` runs every plan by
default.  The operators here run one only when a caller asks for
``vectorized=False``; the tests and ``bench expected`` use them as an
independent reference for the batch engine's match counts.

The executor follows Graphflow's Volcano-style pipeline (Section 7): SCAN
leaves emit matched data edges as 2-matches, EXTEND/INTERSECT (E/I) operators
extend partial matches by one query vertex through multiway adjacency-list
intersections (with an intersection cache over consecutive identical
intersections), and HASH-JOIN operators join the matches of two sub-plans.

Partial matches are plain tuples of vertex ids aligned with the plan node's
``out_vertices`` order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import DeadlineExceededError, PlanError
from repro.executor.profile import ExecutionProfile
from repro.graph.graph import Direction, Graph
from repro.graph.intersect import contains_sorted, intersect_multiway
from repro.planner.plan import ExtendNode, HashJoinNode, PlanNode, ScanNode


@dataclass
class ExecutionConfig:
    """Knobs controlling plan execution.

    Attributes
    ----------
    enable_intersection_cache:
        The E/I intersection cache of Section 3.1 (Table 3 toggles this).
    isomorphism:
        When True, partial matches must map query vertices to *distinct* data
        vertices (subgraph-isomorphism semantics, used for the CFL comparison);
        the default False matches the join/homomorphism semantics of WCOJ
        systems such as Graphflow and EmptyHeaded.
    scan_range:
        Optional ``(start, stop)`` slice over the SCAN operator's edge list;
        the morsel coordinator partitions work this way.
    scan_range_vertices:
        When a plan contains several SCAN leaves (hash-join plans), the range
        is applied only to the scan whose ``out_vertices`` equal this tuple;
        all other scans read their full edge list.
    output_limit:
        Stop after this many output matches (Appendix C limits output sizes).
        The batch engine also treats it as the pipeline's demand: the SCAN
        the root pulls from starts with a batch of this many edges and
        doubles up to ``batch_size``, so a limited query does work in
        proportion to its limit; below a frame that SCAN reads the input
        edge order rather than ``(src, dst)`` order.  A HASH-JOIN build side
        is still built in full.
    deadline:
        Optional absolute ``time.monotonic()`` timestamp.  Operators check it
        periodically while iterating and raise
        :class:`repro.errors.DeadlineExceededError` once it has passed, so a
        query with a deadline cannot hang even when it produces no output
        rows.  :func:`repro.executor.pipeline.execute_plan` converts the
        exception into a partial (truncated) result.
    vectorized:
        Which executor runs the plan.  True (the default) is the
        batch-at-a-time engine of :mod:`repro.executor.vectorized`:
        operators exchange 2-D ``int64`` frames of bound tuples instead of
        per-tuple Python generators, which removes interpreter overhead from
        the hot path.  False is the tuple-at-a-time reference executor of
        this module.  Match counts are identical; only the order in which
        matches are produced may differ.  The plan, and its cost, are the
        same either way.
    batch_size:
        Rows per columnar frame emitted by the batch SCAN operator, the cap
        on the frames E/I and HASH-JOIN expand into, and the granularity of
        deadline checks in the batch engine; under ``output_limit`` the
        largest frame the SCAN grows to.  8,192 rows: every kernel call has
        a fixed cost per frame.  Two in-process sweeps of Q5 on
        livejournal@2 (2 vCPUs) ran 8,192-row frames in 0.80x and 0.98x the
        time of 2,048-row ones, and 16,384 or 32,768 rows no faster beyond
        that spread, with two to four times the frame memory.  The cost
        model and the query service default to this value, so plans are
        priced at the frame the engine runs.

    How a run is *distributed* is not set here: ``num_workers`` and
    ``execution_mode`` are arguments of :meth:`repro.api.GraphflowDB.execute`,
    and the morsel coordinator (:mod:`repro.executor.parallel`) runs every
    morsel under this config with ``scan_range`` filled in.
    """

    enable_intersection_cache: bool = True
    isomorphism: bool = False
    scan_range: Optional[Tuple[int, int]] = None
    scan_range_vertices: Optional[Tuple[str, ...]] = None
    output_limit: Optional[int] = None
    deadline: Optional[float] = None
    vectorized: bool = True
    batch_size: int = 8192


# How many tuples an operator processes between deadline checks; keeps the
# time.monotonic() overhead off the per-tuple hot path.
DEADLINE_CHECK_STRIDE = 256


def resolve_extend_descriptors(
    node: ExtendNode, child_order: Tuple[str, ...]
) -> List[Tuple[int, Direction, Optional[int]]]:
    """Resolve an E/I node's descriptors to ``(tuple index, direction, edge
    label)`` triples against the child's output order (shared by the iterator
    and vectorized executors)."""
    index_of = {v: i for i, v in enumerate(child_order)}
    return [
        (index_of[d.from_vertex], d.direction, d.edge_label) for d in node.descriptors
    ]


def resolve_hash_join(
    node: HashJoinNode,
) -> Tuple[List[int], List[int], List[int], List[Tuple[int, int, Optional[int]]]]:
    """Column resolution for a HASH-JOIN node, shared by both executors.

    Returns ``(build_key_idx, probe_key_idx, build_payload_idx,
    filter_edges)``: key/payload column positions in the children's output
    orders, plus the query edges of the joined sub-query covered by neither
    child, resolved to ``(src column, dst column, edge label)`` in the node's
    own output order (verified as post-filters).
    """
    build_order = node.build.out_vertices
    probe_order = node.probe.out_vertices
    build_key_idx = [build_order.index(v) for v in node.join_vertices]
    probe_key_idx = [probe_order.index(v) for v in node.join_vertices]
    probe_set = set(probe_order)
    build_payload_idx = [i for i, v in enumerate(build_order) if v not in probe_set]
    covered = {
        (e.src, e.dst, e.label)
        for child in (node.build, node.probe)
        for e in child.sub_query.edges
    }
    out_index = {v: i for i, v in enumerate(node.out_vertices)}
    filter_edges = [
        (out_index[e.src], out_index[e.dst], e.label)
        for e in node.sub_query.edges
        if (e.src, e.dst, e.label) not in covered
    ]
    return build_key_idx, probe_key_idx, build_payload_idx, filter_edges


def scan_edge_arrays(
    scan_node: ScanNode, graph: Graph, config: ExecutionConfig, adjacency_order: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` edge arrays for a SCAN leaf, with the config's scan
    range applied when it targets this scan (shared by the iterator and
    vectorized executors).  The edges come in the graph's input order
    (``graph.edges``) or, under ``adjacency_order``, in ``(src, dst)`` order
    (``graph.scan_edges``); the scan range indexes whichever is read."""
    edge = scan_node.edge
    query = scan_node.sub_query
    read = graph.scan_edges if adjacency_order else graph.edges
    src, dst = read(
        edge_label=edge.label,
        src_label=query.vertex_label(edge.src),
        dst_label=query.vertex_label(edge.dst),
    )
    if config.scan_range is not None and (
        config.scan_range_vertices is None
        or tuple(config.scan_range_vertices) == tuple(scan_node.out_vertices)
    ):
        start, stop = config.scan_range
        src, dst = src[start:stop], dst[start:stop]
    return src, dst


class Operator:
    """Base class for physical operators; subclasses implement ``__iter__``."""

    def __init__(
        self,
        node: PlanNode,
        graph: Graph,
        profile: ExecutionProfile,
        config: ExecutionConfig,
        is_root: bool,
    ) -> None:
        self.node = node
        self.graph = graph
        self.profile = profile
        self.config = config
        self.is_root = is_root

    def __iter__(self) -> Iterator[Tuple[int, ...]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _emit(self, count: int) -> None:
        """Account for ``count`` tuples produced by this operator."""
        if self.is_root:
            self.profile.output_matches += count
        else:
            self.profile.record_intermediate(count)

    def _check_deadline(self) -> None:
        if (
            self.config.deadline is not None
            and time.monotonic() > self.config.deadline
        ):
            raise DeadlineExceededError(
                f"query deadline exceeded in {type(self).__name__}"
            )


class ScanOperator(Operator):
    """Scans data edges matching a single query edge.

    When the scan's sub-query contains additional (parallel or reciprocal)
    query edges between the same two query vertices, they are verified as
    filters so that multi-edge queries such as Q6 stay correct.
    """

    def __init__(self, node: ScanNode, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.scan_node = node
        query = node.sub_query
        edge = node.edge
        self._extra_edges = [
            e
            for e in query.edges
            if not (e.src == edge.src and e.dst == edge.dst and e.label == edge.label)
        ]
        self._reversed = node.out_vertices[0] != edge.src

    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return scan_edge_arrays(self.scan_node, self.graph, self.config)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        edge = self.scan_node.edge
        src, dst = self._edge_arrays()
        emitted = 0
        ticks = 0
        for u, v in zip(src, dst):
            ticks += 1
            if ticks % DEADLINE_CHECK_STRIDE == 0:
                self._check_deadline()
            u, v = int(u), int(v)
            if self.config.isomorphism and u == v:
                continue
            ok = True
            for extra in self._extra_edges:
                s, d = (u, v) if extra.src == edge.src else (v, u)
                if not self.graph.has_edge(s, d, extra.label):
                    ok = False
                    break
            if not ok:
                continue
            emitted += 1
            yield (v, u) if self._reversed else (u, v)
        self._emit(emitted)
        self.profile.record_operator(self.scan_node.display_name(), out=emitted)


class ExtendIntersectOperator(Operator):
    """EXTEND/INTERSECT with the intersection cache of Section 3.1."""

    def __init__(self, node: ExtendNode, child: Operator, *args, **kwargs) -> None:
        super().__init__(node, *args, **kwargs)
        self.extend_node = node
        self.child = child
        self._resolved = resolve_extend_descriptors(node, child.node.out_vertices)
        self._to_label = node.to_vertex_label
        self._cache_key: Optional[Tuple] = None
        self._cache_value: Optional[np.ndarray] = None

    def _extension_set(self, t: Tuple[int, ...]) -> np.ndarray:
        key = tuple(t[idx] for idx, _, _ in self._resolved)
        if (
            self.config.enable_intersection_cache
            and self._cache_key is not None
            and key == self._cache_key
        ):
            self.profile.record_cache_hit()
            return self._cache_value  # type: ignore[return-value]
        self.profile.record_cache_miss()
        lists = []
        accessed = 0
        for idx, direction, edge_label in self._resolved:
            adj = self.graph.neighbors(t[idx], direction, edge_label, self._to_label)
            accessed += len(adj)
            lists.append(adj)
        self.profile.record_intersection(accessed)
        extension = lists[0] if len(lists) == 1 else intersect_multiway(lists)
        if self.config.enable_intersection_cache:
            self._cache_key = key
            self._cache_value = extension
        return extension

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        emitted = 0
        ticks = 0
        isomorphism = self.config.isomorphism
        for t in self.child:
            ticks += 1
            if ticks % DEADLINE_CHECK_STRIDE == 0:
                self._check_deadline()
            extension = self._extension_set(t)
            if len(extension) == 0:
                continue
            if isomorphism:
                used = set(t)
                new_vertices = [int(w) for w in extension if int(w) not in used]
            else:
                new_vertices = [int(w) for w in extension]
            emitted += len(new_vertices)
            for w in new_vertices:
                yield t + (w,)
        self._emit(emitted)
        self.profile.record_operator(self.extend_node.display_name(), out=emitted)


class HashJoinOperator(Operator):
    """Classic hash join on the shared query vertices of its children.

    Query edges of the joined sub-query that are covered by neither child
    (possible only for plans outside the optimizer's space, but supported for
    robustness and for baseline planners) are verified as post-filters.
    """

    def __init__(
        self, node: HashJoinNode, build: Operator, probe: Operator, *args, **kwargs
    ) -> None:
        super().__init__(node, *args, **kwargs)
        self.join_node = node
        self.build_child = build
        self.probe_child = probe
        (
            self._build_key_idx,
            self._probe_key_idx,
            self._build_payload_idx,
            self._filter_edges,
        ) = resolve_hash_join(node)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        table: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        entries = 0
        for t in self.build_child:
            key = tuple(t[i] for i in self._build_key_idx)
            table.setdefault(key, []).append(tuple(t[i] for i in self._build_payload_idx))
            entries += 1
        self.profile.hash_table_entries += entries

        emitted = 0
        ticks = 0
        isomorphism = self.config.isomorphism
        for t in self.probe_child:
            ticks += 1
            if ticks % DEADLINE_CHECK_STRIDE == 0:
                self._check_deadline()
            self.profile.hash_probes += 1
            key = tuple(t[i] for i in self._probe_key_idx)
            payloads = table.get(key)
            if not payloads:
                continue
            for payload in payloads:
                out = t + payload
                if isomorphism and len(set(out)) != len(out):
                    continue
                ok = True
                for si, di, lab in self._filter_edges:
                    if not self.graph.has_edge(out[si], out[di], lab):
                        ok = False
                        break
                if not ok:
                    continue
                emitted += 1
                yield out
        self._emit(emitted)
        self.profile.record_operator(
            self.join_node.display_name(),
            out=emitted,
            entries=entries,
        )


def build_operator_tree(
    node: PlanNode,
    graph: Graph,
    profile: ExecutionProfile,
    config: ExecutionConfig,
    is_root: bool = True,
) -> Operator:
    """Recursively wire physical operators for a plan subtree."""
    if isinstance(node, ScanNode):
        return ScanOperator(node, graph, profile, config, is_root)
    if isinstance(node, ExtendNode):
        child = build_operator_tree(node.child, graph, profile, config, is_root=False)
        return ExtendIntersectOperator(node, child, graph, profile, config, is_root)
    if isinstance(node, HashJoinNode):
        build = build_operator_tree(node.build, graph, profile, config, is_root=False)
        probe = build_operator_tree(node.probe, graph, profile, config, is_root=False)
        return HashJoinOperator(node, build, probe, graph, profile, config, is_root)
    raise PlanError(f"unknown plan node type: {type(node).__name__}")
