"""The batch SCAN's edge order.

An unlimited batch SCAN reads ``graph.scan_edges``: exactly the multiset of
edges ``graph.edges`` returns, in ``(src, dst)`` order, off the forward CSR
partition E/I reads, on clean graphs and dirty snapshots alike.  Morsel scan
ranges index that order.  A SCAN whose row demand is below a frame keeps the
input order.  The E/I
directly above an unlimited SCAN then receives every frame in key order, which
``ExecutionProfile.sorted_frames`` counts.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import morsel_ranges
from repro.executor.pipeline import execute_plan
from repro.executor.profile import ExecutionProfile
from repro.executor.vectorized import (
    BatchExtendIntersectOperator,
    BatchScanOperator,
    build_batch_operator_tree,
)
from repro.graph.generators import clustered_social
from repro.graph.graph import ANY_LABEL, Graph
from repro.obs.trace import QueryTrace, operator_stats_from_profile
from repro.planner.plan import make_scan
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryGraph
from repro.storage import DynamicGraph

from tests.executor.test_vectorized import _dirty_snapshot

LABELS = (0, 1)
FILTERS = (ANY_LABEL, 0, 1)


def _edges(n):
    vertex = st.integers(min_value=0, max_value=n - 1)
    return st.tuples(vertex, vertex, st.sampled_from(LABELS)).filter(lambda e: e[0] != e[1])


@st.composite
def labelled_graphs(draw):
    """A random graph with two vertex and two edge labels, or a snapshot of
    it after uncompacted inserts, deletes and appended vertices."""
    n = draw(st.integers(min_value=2, max_value=10))
    edges = draw(st.lists(_edges(n), unique=True, max_size=40))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    src, dst, lab = (np.array([e[i] for e in edges], dtype=np.int64) for i in range(3))
    graph = Graph(vertex_labels=labels, edge_src=src, edge_dst=dst, edge_labels=lab)
    if not draw(st.booleans()):
        return graph
    dynamic = DynamicGraph(graph, auto_compact=False)
    new = draw(st.lists(st.sampled_from(LABELS), max_size=2))
    if new:
        dynamic.add_vertices(labels=new)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        dynamic.add_edges(draw(st.lists(_edges(n + len(new)), max_size=8)))
        if edges:
            dynamic.delete_edges(draw(st.lists(st.sampled_from(edges), max_size=6)))
    return dynamic.snapshot()


def _pairs(src, dst):
    return list(zip(src.tolist(), dst.tolist()))


def _scan(graph, edge_label, src_label, dst_label, config, demand=None):
    """The rows of a batch SCAN over one query edge with these labels."""
    query = QueryGraph([("a", "b", edge_label)], vertex_labels={"a": src_label, "b": dst_label})
    scan = BatchScanOperator(
        make_scan(query, query.edges[0]), graph, ExecutionProfile(), config, True, demand=demand
    )
    return [tuple(row) for frame in scan.frames() for row in frame.tolist()]


@given(graph=labelled_graphs(), batch_size=st.sampled_from([1, 3, 8192]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_full_scan_is_the_edge_multiset_in_adjacency_order(graph, batch_size, data):
    config = ExecutionConfig(batch_size=batch_size)
    workers = data.draw(st.integers(min_value=1, max_value=4))
    demand = data.draw(st.integers(min_value=1, max_value=12))
    for edge_label in FILTERS:
        for src_label in FILTERS:
            for dst_label in FILTERS:
                labels = (edge_label, src_label, dst_label)
                edges = _pairs(*graph.edges(*labels))
                ordered = _pairs(*graph.scan_edges(*labels))
                assert Counter(ordered) == Counter(edges)
                assert ordered == sorted(edges)
                assert _scan(graph, *labels, config) == ordered
                ranges = morsel_ranges(len(edges), workers, 1)
                assert [
                    row
                    for scan_range in ranges
                    for row in _scan(graph, *labels, ExecutionConfig(
                        batch_size=batch_size, scan_range=scan_range
                    ))
                ] == ordered
                # A SCAN whose demand is below a frame reads the input order;
                # a demand of a frame or more runs as unlimited.
                limited = _scan(graph, *labels, config, demand=demand)
                assert limited == (edges if demand < batch_size else ordered)


def _first_extends(root):
    """Every E/I of a batch operator tree whose child is a SCAN."""
    while isinstance(root, BatchExtendIntersectOperator):
        if isinstance(root.child, BatchScanOperator):
            return [root]
        root = root.child
    return []


#: Queries whose every WCO plan closes a triangle on its scanned edge first,
#: so the first E/I keys on both of the SCAN's columns.
CYCLIC = [cq.q1(), cq.directed_3cycle(), cq.q5(), cq.q7()]


@pytest.fixture(scope="module")
def cyclic_graphs():
    graph = clustered_social(200, avg_degree=8, clustering=0.5, seed=5)
    return {"clean": graph, "dirty": _dirty_snapshot(graph, seed=5)}


@pytest.mark.parametrize("state", ["clean", "dirty"])
@pytest.mark.parametrize("query", CYCLIC, ids=lambda q: q.name)
def test_an_ei_over_a_full_scan_sorts_no_frame(cyclic_graphs, state, query):
    graph = cyclic_graphs[state]
    for plan in enumerate_wco_plans(query):
        config = ExecutionConfig(batch_size=64)
        profile = ExecutionProfile()
        root = build_batch_operator_tree(plan.root, graph, profile, config)
        (first,) = _first_extends(root)
        # Only the first E/I has to run: it reads every frame the SCAN emits.
        assert sum(first.counts()) > 0
        assert profile.per_operator[first.child._name]["batches"] > 1
        assert "sorted" not in profile.per_operator[first._name]
        assert profile.sorted_frames == 0


def test_a_row_limited_scan_feeds_unsorted_frames(cyclic_graphs):
    """The counter sees the frames a row-limited SCAN sends in input order,
    and the trace shows it on the E/I that sorted them."""
    graph = cyclic_graphs["clean"]
    plan = enumerate_wco_plans(cq.q1())[0]
    limit = 1_000
    limited = execute_plan(plan, graph, ExecutionConfig(output_limit=limit))
    assert limited.num_matches == limit
    assert limited.profile.sorted_frames > 0
    name = plan.root.display_name()
    assert limited.profile.per_operator[name]["sorted"] == limited.profile.sorted_frames
    assert limited.profile.as_dict()["sorted_frames"] == limited.profile.sorted_frames
    operators = operator_stats_from_profile(
        limited.profile.per_operator, limited.profile.operator_seconds, None
    )
    assert [op.sorted_frames for op in operators if op.name == name] == [
        limited.profile.sorted_frames
    ]
    (row,) = [
        line for line in QueryTrace("Q1", operators=operators).format().splitlines()
        if line.strip().startswith(name)
    ]
    assert row.endswith(f"sorted {limited.profile.sorted_frames} input frame(s)")
    for config in (ExecutionConfig(), ExecutionConfig(output_limit=ExecutionConfig().batch_size)):
        assert execute_plan(plan, graph, config).profile.sorted_frames == 0
