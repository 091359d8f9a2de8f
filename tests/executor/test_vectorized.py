"""Vectorized-vs-iterator equivalence tests.

For every query shape the integration fixtures exercise (triangles, tailed
triangle, diamonds, cliques, labeled variants), the batch engine must produce
bit-identical match counts and identical sorted match sets; deadline and
``output_limit`` semantics must carry over to batch mode as well.
"""

import dataclasses
import itertools
import math
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.leapfrog import LeapfrogTrieJoin
from repro.errors import PlanError
from repro.executor.adaptive import adapt
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import primary_scan
from repro.executor.pipeline import count_matches, execute_plan
import repro.executor.vectorized as vectorized
from repro.executor.vectorized import (
    BatchExtendIntersectOperator,
    BatchHashJoinOperator,
    BatchScanOperator,
    _codes_fit,
    _distinct,
    _expansion_segments,
    _group_runs,
    _mirror_columns,
    _ragged_positions,
    _sort_by_key,
    build_batch_operator_tree,
    count_tagged_pairs,
)
from repro.executor.profile import ExecutionProfile
from repro.graph.builder import GraphBuilder
from repro.graph.generators import clustered_social, complete_graph, erdos_renyi, power_law
from repro.graph.intersect import KeySet
from repro.graph.labeling import with_random_labels, with_random_vertex_labels
from repro.obs.trace import QueryTrace, operator_stats_from_profile
from repro.planner.plan import (
    HashJoinNode,
    Plan,
    ScanNode,
    make_extend,
    make_hash_join,
    make_scan,
    wco_plan_from_order,
)
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq
from repro.query.generator import random_connected_query
from repro.query.isomorphism import isomorphism_mapping
from repro.query.query_graph import QueryGraph
from repro.storage.dynamic import DynamicGraph

from tests.storage.conftest import build_mutated_pair

VEC = dict(vectorized=True)
# The tuple-at-a-time reference executor every batch result is checked against.
ITER = dict(vectorized=False)

QUERY_SHAPES = [
    ("triangle", cq.triangle()),
    ("directed-3-cycle", cq.directed_3cycle()),
    ("tailed-triangle", cq.tailed_triangle()),
    ("diamond-x", cq.diamond_x()),
    ("symmetric-diamond-x", cq.symmetric_diamond_x()),
    ("4-cycle", cq.q2()),
    ("4-clique", cq.q5()),
    ("two-triangles", cq.q8()),
]

LABELED_SHAPES = [
    (
        "labeled-path",
        QueryGraph(
            [("a1", "a2", 0), ("a2", "a3", 1)],
            vertex_labels={"a1": 0, "a2": 0, "a3": 1},
        ),
    ),
    ("labeled-triangle", QueryGraph([("a1", "a2", 0), ("a2", "a3", 0), ("a1", "a3", 0)])),
]


def assert_equivalent(plan, graph, config_kwargs=None, batch_size=97):
    """The vectorized run must match the iterator run exactly: same count and
    the same sorted set of collected matches."""
    config_kwargs = config_kwargs or {}
    iterator = execute_plan(plan, graph, ExecutionConfig(**ITER, **config_kwargs), collect=True)
    vectorized = execute_plan(
        plan,
        graph,
        ExecutionConfig(vectorized=True, batch_size=batch_size, **config_kwargs),
        collect=True,
    )
    assert iterator.num_matches == vectorized.num_matches
    assert sorted(iterator.matches) == sorted(vectorized.matches)
    return iterator, vectorized


class TestEquivalenceOnQuerySet:
    @pytest.mark.parametrize("name,query", QUERY_SHAPES, ids=[n for n, _ in QUERY_SHAPES])
    def test_random_graph(self, random_graph, name, query):
        for plan in enumerate_wco_plans(query)[:3]:
            assert_equivalent(plan, random_graph)

    @pytest.mark.parametrize("name,query", QUERY_SHAPES, ids=[n for n, _ in QUERY_SHAPES])
    def test_social_graph_counts(self, social_graph, name, query):
        plan = enumerate_wco_plans(query)[0]
        it = count_matches(plan, social_graph, ExecutionConfig(**ITER))
        vec = count_matches(plan, social_graph, ExecutionConfig(**VEC))
        assert it == vec

    @pytest.mark.parametrize(
        "name,query", LABELED_SHAPES, ids=[n for n, _ in LABELED_SHAPES]
    )
    def test_labeled_variants(self, labeled_graph, name, query):
        plan = wco_plan_from_order(query, ("a1", "a2", "a3"))
        assert_equivalent(plan, labeled_graph, batch_size=2)

    def test_isomorphism_semantics(self, tiny_graph, random_graph):
        for graph in (tiny_graph, random_graph):
            plan = wco_plan_from_order(cq.q2(), ("a1", "a2", "a3", "a4"))
            assert_equivalent(plan, graph, {"isomorphism": True})

    def test_reciprocal_edge_scan_filters(self, tiny_graph):
        q = QueryGraph([("a1", "a2"), ("a2", "a1")])
        plan = wco_plan_from_order(q, ("a1", "a2"))
        it, vec = assert_equivalent(plan, tiny_graph)
        assert vec.num_matches == 2

    def test_batch_size_one(self, tiny_graph):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        assert_equivalent(plan, tiny_graph, batch_size=1)

    def test_empty_result(self, tiny_graph):
        q = QueryGraph([("a1", "a2", 7)])  # no edges carry label 7
        plan = Plan(query=q, root=make_scan(q, q.edges[0]))
        result = execute_plan(plan, tiny_graph, ExecutionConfig(**VEC))
        assert result.num_matches == 0 and not result.truncated

    def test_intersection_cache_disabled(self, social_graph):
        plan = wco_plan_from_order(cq.diamond_x(), ("a2", "a3", "a1", "a4"))
        assert_equivalent(plan, social_graph, {"enable_intersection_cache": False})


# --------------------------------------------------------------------------- #
# chained E/I: survivors-only filtering and prefix-intersection reuse
# --------------------------------------------------------------------------- #
_Q5_EDGES = [(e.src, e.dst) for e in cq.q5().edges]

#: (name, query, ordering, E/I nodes expected to reuse their child's sets).
CHAINED_SHAPES = [
    ("Q5", cq.q5(), ("a1", "a2", "a3", "a4"), 1),
    ("Q6", cq.q6(), ("a1", "a2", "a3", "a4"), 1),
    ("Q7", cq.q7(), ("a1", "a2", "a3", "a4", "a5"), 2),
    # Its two E/I read different lists of a2, so reuse must stay off.
    ("diamond-x", cq.diamond_x(), ("a1", "a2", "a3", "a4"), 0),
    # a4 intersects exactly the lists a3 did: the child's set is the answer.
    (
        "same-direction-diamond",
        QueryGraph([("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("a1", "a4"), ("a2", "a4")]),
        ("a1", "a2", "a3", "a4"),
        1,
    ),
    # a4's lists cover the child's (a3's) one list N(a2), but a one-list
    # child's set is that list: a4 seeds from the smallest of its own lists
    # instead of reading N(a2) back off the frame.
    (
        "non-key-prefix",
        QueryGraph([("a1", "a2"), ("a2", "a3"), ("a2", "a4"), ("a3", "a4")]),
        ("a1", "a2", "a3", "a4"),
        0,
    ),
    # The same with a child that intersects: a4 reads a3's N+(a2) ∩ N-(a2)
    # back.  a1 is a prefix column outside that key, so many rows share one
    # child key, and under isomorphism each of them had a different value
    # removed from the shared set.
    (
        "non-key-prefix-intersected",
        QueryGraph([("a1", "a2"), ("a2", "a3"), ("a3", "a2"), ("a2", "a4"), ("a4", "a2")]),
        ("a1", "a2", "a3", "a4"),
        1,
    ),
    # Labelled to-vertices: reuse needs a3 and a4 to share a label; in the
    # second shape they do not.
    (
        "labelled-4-clique",
        QueryGraph(_Q5_EDGES, vertex_labels={"a1": 0, "a2": 1, "a3": 1, "a4": 1}),
        ("a1", "a2", "a3", "a4"),
        1,
    ),
    (
        "mixed-label-4-clique",
        QueryGraph(_Q5_EDGES, vertex_labels={"a1": 0, "a2": 0, "a3": 0, "a4": 1}),
        ("a1", "a2", "a3", "a4"),
        0,
    ),
]
CHAINED_IDS = [name for name, *_ in CHAINED_SHAPES]


def _ei_operators(root):
    out = []
    while isinstance(root, BatchExtendIntersectOperator):
        out.append(root)
        root = root.child
    return out


@pytest.fixture(scope="module")
def chained_graph():
    """Clustered (many cliques), reciprocal edges, two vertex labels."""
    return with_random_vertex_labels(
        clustered_social(150, avg_degree=8, clustering=0.5, seed=9), 2, seed=4
    )


@pytest.fixture(scope="module")
def dirty_pair():
    dynamic, fresh = build_mutated_pair()
    return dynamic.snapshot(), fresh


@pytest.fixture(scope="module")
def oracle():
    """Iterator-engine result per (graph, shape, semantics), checked against
    LFTJ's count where LFTJ has the semantics (homomorphism).  Computed once:
    neither depends on the cache switch or the batch size."""
    cache = {}

    def lookup(graph, name, query, order, isomorphism):
        key = (id(graph), name, isomorphism)
        if key not in cache:
            plan = wco_plan_from_order(query, order)
            iterator = execute_plan(
                plan, graph, ExecutionConfig(isomorphism=isomorphism, **ITER), collect=True
            )
            if not isomorphism:
                lftj = LeapfrogTrieJoin(graph).count(query, ordering=order)
                assert lftj.num_matches == iterator.num_matches
            cache[key] = iterator
        return cache[key]

    return lookup


class TestChainedExtendIntersect:
    def _run(self, graph, query, order, **config):
        plan = wco_plan_from_order(query, order)
        return execute_plan(plan, graph, ExecutionConfig(vectorized=True, **config), collect=True)

    @pytest.mark.parametrize("batch_size", [1, 3, 2048])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
    @pytest.mark.parametrize("name,query,order,reusing", CHAINED_SHAPES, ids=CHAINED_IDS)
    def test_agrees_with_iterator_and_leapfrog(
        self, chained_graph, oracle, name, query, order, reusing, isomorphism, cache, batch_size
    ):
        expected = oracle(chained_graph, name, query, order, isomorphism)
        got = self._run(
            chained_graph, query, order,
            isomorphism=isomorphism, enable_intersection_cache=cache, batch_size=batch_size,
        )
        assert got.num_matches == expected.num_matches
        assert sorted(got.matches) == sorted(expected.matches)

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
    @pytest.mark.parametrize("name,query,order,reusing", CHAINED_SHAPES[:7], ids=CHAINED_IDS[:7])
    def test_dirty_snapshot(
        self, dirty_pair, oracle, name, query, order, reusing, isomorphism, cache
    ):
        snapshot, fresh = dirty_pair
        expected = oracle(fresh, name, query, order, isomorphism)
        for batch_size in (3, 2048):
            got = self._run(
                snapshot, query, order,
                isomorphism=isomorphism, enable_intersection_cache=cache, batch_size=batch_size,
            )
            assert sorted(got.matches) == sorted(expected.matches)

    @pytest.mark.parametrize("name,query,order,reusing", CHAINED_SHAPES, ids=CHAINED_IDS)
    def test_reuse_applies_exactly_where_the_child_covers_a_subset(
        self, chained_graph, name, query, order, reusing
    ):
        plan = wco_plan_from_order(query, order)

        def reusing_nodes(**config):
            root = build_batch_operator_tree(
                plan.root, chained_graph, ExecutionProfile(), ExecutionConfig(vectorized=True, **config)
            )
            return sum(op._num_covered > 0 for op in _ei_operators(root))

        assert reusing_nodes() == reusing
        assert reusing_nodes(enable_intersection_cache=False) == 0

    @pytest.mark.parametrize("name,query,order,reusing", CHAINED_SHAPES, ids=CHAINED_IDS)
    def test_actual_icost(self, chained_graph, oracle, name, query, order, reusing):
        """Cache on: the batch engine reads no more than the iterator, and
        less wherever a child's set replaces the lists it was built from.
        Cache off: both engines recompute per tuple and read the same."""
        iterator = oracle(chained_graph, name, query, order, False).profile
        cached = self._run(chained_graph, query, order).profile
        assert cached.intersection_cost <= iterator.intersection_cost
        if reusing:
            assert cached.intersection_cost < iterator.intersection_cost
        plan = wco_plan_from_order(query, order)
        off = ExecutionConfig(enable_intersection_cache=False, **ITER)
        uncached_iterator = execute_plan(plan, chained_graph, off).profile
        uncached = self._run(chained_graph, query, order, enable_intersection_cache=False).profile
        assert uncached.intersection_cost == uncached_iterator.intersection_cost

    def test_a_rows_expansions_never_straddle_frames(self, chained_graph):
        """The invariant prefix reuse relies on, at caps below, at and above
        single rows' fanout."""
        plan = wco_plan_from_order(cq.q5(), ("a1", "a2", "a3", "a4"))
        for batch_size in (1, 3, 64):
            root = build_batch_operator_tree(
                plan.root, chained_graph, ExecutionProfile(),
                ExecutionConfig(vectorized=True, batch_size=batch_size),
            )
            child = root.child  # E/I -> a3, whose frames E/I -> a4 reads back
            prefixes = [set(map(tuple, frame[:, :-1].tolist())) for frame in child.frames()]
            assert len(prefixes) > 1
            assert sum(map(len, prefixes)) == len(set().union(*prefixes))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_vertices=st.integers(min_value=3, max_value=5),
        avg_degree=st.sampled_from([2.4, 3.2, 4.0]),
        labelled=st.booleans(),
        isomorphism=st.booleans(),
        cache=st.booleans(),
        batch_size=st.sampled_from([1, 3, 2048]),
        dirty=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_queries_on_random_graphs(
        self, seed, num_vertices, avg_degree, labelled, isomorphism, cache, batch_size, dirty
    ):
        """Collected == iterator == LFTJ on every plan, and on the first one
        counted == collected with every counter but the root's ``batches``
        equal (``_counters``).  The matches do not depend on the plan, so the
        oracles run once per example: the iterator's rows, read in each
        plan's column order, and LFTJ's count."""
        graph = erdos_renyi(24, 170, seed=seed)
        if labelled:
            graph = with_random_vertex_labels(graph, 2, seed=seed)
        if dirty:
            graph = _dirty_snapshot(graph, seed)
        query = random_connected_query(
            num_vertices, avg_degree=avg_degree, seed=seed, num_vertex_labels=2 if labelled else 1
        )
        config = ExecutionConfig(
            vectorized=True, isomorphism=isomorphism,
            enable_intersection_cache=cache, batch_size=batch_size,
        )
        plans = enumerate_wco_plans(query)[:3]
        iterator = execute_plan(
            plans[0], graph, ExecutionConfig(isomorphism=isomorphism, **ITER), collect=True
        )
        if not isomorphism:
            assert iterator.num_matches == LeapfrogTrieJoin(graph).count(query).num_matches
        for i, plan in enumerate(plans):
            columns = [iterator.vertex_order.index(v) for v in plan.root.out_vertices]
            expected = sorted(tuple(row[c] for c in columns) for row in iterator.matches)
            got = execute_plan(plan, graph, config, collect=True)
            assert sorted(got.matches) == expected
            if i == 0:
                counted = execute_plan(plan, graph, config)
                assert counted.num_matches == got.num_matches
                assert _counters(counted.profile, plan) == _counters(got.profile, plan)

    @pytest.mark.parametrize("batch_size", [3, 64])
    def test_a_count_is_one_per_input_frame(self, chained_graph, oracle, batch_size):
        """A count builds no frame, so a counting E/I root without
        isomorphism yields at most one count per frame its child yields,
        where collecting yields one frame per ``batch_size`` output rows."""
        name, query, order, _ = CHAINED_SHAPES[0]
        plan = wco_plan_from_order(query, order)
        config = ExecutionConfig(batch_size=batch_size, **VEC)
        expected = oracle(chained_graph, name, query, order, False).num_matches

        def batches(collect):
            profile = ExecutionProfile()
            root = build_batch_operator_tree(plan.root, chained_graph, profile, config)
            rows = [out.shape[0] for out in root.frames()] if collect else list(root.counts())
            assert sum(rows) == expected
            return (
                profile.per_operator[root._name]["batches"],
                profile.per_operator[root.child._name]["batches"],
            )

        counted, child_frames = batches(collect=False)
        collected, _ = batches(collect=True)
        assert counted <= child_frames < collected


# --------------------------------------------------------------------------- #
# shared lists: the lists anchored before the child's to-vertex, intersected
# once per distinct key of them; and one-list counts read off the degrees
# --------------------------------------------------------------------------- #
def _unshared():
    """The shared-list seed patched out: every E/I that would take it seeds
    from its smallest list instead."""
    return mock.patch.object(vectorized, "_shared_lists", lambda resolved, to_column: 0)


def _num_shared(plan, graph, **config):
    root = build_batch_operator_tree(
        plan.root, graph, ExecutionProfile(), ExecutionConfig(**config)
    )
    return [op._num_shared for op in _ei_operators(root)]


def _mixed_label_q5_graph():
    """Label-0 vertices 0-5 and label-1 vertices 6-9; 0 and 1 reach every
    label-1 vertex, 2 reaches only 6 and 3 only 7."""
    builder = GraphBuilder()
    for v in range(10):
        builder.add_vertex(v, 0 if v < 6 else 1)
    for u in (0, 1):
        for w in range(6, 10):
            builder.add_edge(u, w)
    builder.add_edge(2, 6)
    builder.add_edge(3, 7)
    return builder.build()


class TestSharedLists:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        avg_degree=st.sampled_from([2.4, 3.2, 4.0]),
        isomorphism=st.booleans(),
        batch_size=st.sampled_from([1, 3, 8192]),
        dirty=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_shared_ordering_of_generated_queries(
        self, seed, avg_degree, isomorphism, batch_size, dirty
    ):
        """On every WCO ordering with an E/I that shares lists: counted ==
        collected == reference executor == LFTJ, equal counters in both
        modes, and no more i-cost than with the shared path patched out or,
        at whole frames, than the reference executor.  The cache switch
        turns the path off."""
        graph = with_random_labels(erdos_renyi(24, 170, seed=seed), 2, 2, seed=seed)
        if dirty:
            graph = _dirty_snapshot(graph, seed)
        query = random_connected_query(
            4, avg_degree=avg_degree, seed=seed, num_edge_labels=2, num_vertex_labels=2
        )
        plans = [plan for plan in enumerate_wco_plans(query) if any(_num_shared(plan, graph))]
        assert plans
        reference = execute_plan(
            plans[0], graph, ExecutionConfig(isomorphism=isomorphism, **ITER), collect=True
        )
        if not isomorphism:
            assert LeapfrogTrieJoin(graph).count(query).num_matches == reference.num_matches
        config = ExecutionConfig(isomorphism=isomorphism, batch_size=batch_size, **VEC)
        for plan in plans:
            assert not any(_num_shared(plan, graph, enable_intersection_cache=False))
            columns = [reference.vertex_order.index(v) for v in plan.root.out_vertices]
            collected = execute_plan(plan, graph, config, collect=True)
            assert sorted(collected.matches) == sorted(
                tuple(row[c] for c in columns) for row in reference.matches
            )
            counted = execute_plan(plan, graph, config)
            assert counted.num_matches == collected.num_matches
            assert _counters(counted.profile, plan) == _counters(collected.profile, plan)
            with _unshared():
                unshared = execute_plan(plan, graph, config)
            assert unshared.num_matches == counted.num_matches
            assert unshared.profile.shared_frames == 0
            assert counted.profile.intersection_cost <= unshared.profile.intersection_cost
            if batch_size == 8192:
                iterator = execute_plan(plan, graph, ExecutionConfig(**ITER))
                assert counted.profile.intersection_cost <= iterator.profile.intersection_cost

    def test_only_runs_of_two_or_more_groups_share(self):
        """a4 of the mixed-label 4-clique keys on ``(a1, a2 | a3)``.  Rows
        (0, 1, 2) and (0, 1, 3) share the key (0, 1): N(0) ∩ N(1) is computed
        once and filtered by N(2) and by N(3).  Row (1, 0, 2) is a run of one,
        and seeds from N(2), its smallest list: one element, probed into two
        lists, where the shared set would have probed four."""
        name = "mixed-label-4-clique"
        query, order, _ = {shape[0]: shape[1:] for shape in CHAINED_SHAPES}[name]
        graph = _mixed_label_q5_graph()
        plan = wco_plan_from_order(query, order)
        probes = []
        contains = KeySet.contains

        def counting(keys, probe):
            probes.append(len(probe))
            return contains(keys, probe)

        def run(frame):
            probes.clear()
            profile = ExecutionProfile()
            root = build_batch_operator_tree(plan.root, graph, profile, ExecutionConfig())
            assert root._num_shared == 2
            with mock.patch.object(KeySet, "contains", counting):
                rows = [row for out in root._process(frame, False) for row in out.tolist()]
            return sorted(map(tuple, rows)), profile, root._name

        frame = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 2]], dtype=np.int64)
        rows, profile, name = run(frame)
        assert rows == [(0, 1, 2, 6), (0, 1, 3, 7), (1, 0, 2, 6)]
        assert profile.shared_frames == 1
        assert profile.per_operator[name]["shared"] == 1
        assert profile.per_operator[name]["shared_lists"] == 2
        # Level 1 reads N(0) and N(1) once (8); each of the two groups reads
        # the set (4) and its own list (1); the run of one reads its three.
        assert profile.intersection_cost == 8 + 2 * (4 + 1) + (4 + 4 + 1)
        # N(0) ∩ N(1): four probes; the set through N(2) and N(3): eight;
        # the run of one: N(2)'s element through N(1) and N(0).
        assert sum(probes) == 4 + 8 + 2

        rows, profile, name = run(frame[[0, 2]])
        assert rows == [(0, 1, 2, 6), (1, 0, 2, 6)]
        assert profile.shared_frames == 0
        assert "shared" not in profile.per_operator.get(name, {})
        assert profile.intersection_cost == 2 * (4 + 4 + 1)
        assert sum(probes) == 2 * 2

    def test_the_trace_names_the_shared_lists(self, chained_graph):
        name = "mixed-label-4-clique"
        query, order, _ = {shape[0]: shape[1:] for shape in CHAINED_SHAPES}[name]
        plan = wco_plan_from_order(query, order)
        profile = execute_plan(plan, chained_graph, ExecutionConfig(**VEC)).profile
        keys = profile.per_operator[plan.root.display_name()]["shared"]
        assert profile.shared_frames > 0 and keys > 0
        assert profile.as_dict()["shared_frames"] == profile.shared_frames
        operators = operator_stats_from_profile(
            profile.per_operator, profile.operator_seconds, None
        )
        (row,) = [
            line for line in QueryTrace(name, operators=operators).format().splitlines()
            if line.strip().startswith(plan.root.display_name())
        ]
        assert row.endswith(f"shared 2 lists over {keys} keys")
        off = execute_plan(
            plan, chained_graph, ExecutionConfig(enable_intersection_cache=False, **VEC)
        ).profile
        assert off.shared_frames == 0


#: A labelled path whose last E/I reads one list and filters its to-vertex's
#: label: (a1 -0-> a2 -1-> a3), a3 labelled 1.
ONE_LIST_PATH = QueryGraph(
    [("a1", "a2", 0), ("a2", "a3", 1)], vertex_labels={"a1": 0, "a2": 0, "a3": 1}
)


class TestOneListCount:
    @pytest.fixture(scope="class")
    def graphs(self):
        graph = with_random_labels(erdos_renyi(40, 400, seed=8), 2, 2, seed=8)
        return {"clean": graph, "dirty": _dirty_snapshot(graph, seed=8)}

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("state", ["clean", "dirty"])
    @pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
    def test_a_count_reads_degrees_and_equals_the_gather(
        self, graphs, state, cache, isomorphism
    ):
        """The count equals the collected rows and the reference executor's,
        with every counter but the root's ``batches`` equal to the gathering
        run's.  Under isomorphism the count still has the frames built."""
        graph = graphs[state]
        config = ExecutionConfig(
            enable_intersection_cache=cache, isomorphism=isomorphism, batch_size=64, **VEC
        )
        reference = ExecutionConfig(isomorphism=isomorphism, **ITER)
        for plan in enumerate_wco_plans(ONE_LIST_PATH):
            root = build_batch_operator_tree(plan.root, graph, ExecutionProfile(), config)
            assert len(root._resolved) == 1
            collected = execute_plan(plan, graph, config, collect=True)
            counted = execute_plan(plan, graph, config)
            assert counted.num_matches == collected.num_matches > 0
            assert counted.num_matches == execute_plan(plan, graph, reference).num_matches
            assert _counters(counted.profile, plan) == _counters(collected.profile, plan)
            # A SCAN gathers nothing, so only the root could: a count reads
            # no list, but under isomorphism it still builds the frames.
            assert isinstance(root.child, BatchScanOperator)
            with mock.patch.object(
                vectorized, "_ragged_positions", wraps=vectorized._ragged_positions
            ) as gather:
                execute_plan(plan, graph, config)
            assert gather.called == isomorphism


def _join_plan(query, build_order, probe_order, extend_to=()):
    """HASH-JOIN of the WCO sub-plans over two vertex subsets (each given as a
    valid vertex ordering), optionally extended further above the join."""

    def sub(order):
        return wco_plan_from_order(query.project(order), order).root

    node = make_hash_join(query, sub(build_order), sub(probe_order))
    for vertex in extend_to:
        node = make_extend(query, node, vertex)
    return Plan(query=query, root=node)


_DIAMOND_X_TAIL = QueryGraph(
    [(e.src, e.dst) for e in cq.diamond_x().edges] + [("a1", "a5"), ("a4", "a5")]
)

#: (name, plan).  The first three have the shape the optimizer picks on the
#: benchmark's ``hybrid_join`` graph; the last two join sub-queries that leave
#: a query edge to neither side, verified as a post-filter.
JOIN_PLANS = [
    ("Q2", _join_plan(cq.q2(), ("a1", "a2", "a4"), ("a3", "a4", "a2"))),
    ("Q3", _join_plan(cq.q3(), ("a1", "a2", "a3"), ("a2", "a3", "a4"))),
    ("Q8", _join_plan(cq.q8(), ("a1", "a2", "a3"), ("a3", "a4", "a5"))),
    (
        "join-below-extend",
        _join_plan(_DIAMOND_X_TAIL, ("a1", "a2", "a3"), ("a2", "a3", "a4"), extend_to=("a5",)),
    ),
    ("two-scan-triangle", _join_plan(cq.triangle(), ("a1", "a2"), ("a2", "a3"))),
    ("two-triangle-clique", _join_plan(cq.q5(), ("a1", "a2", "a3"), ("a2", "a3", "a4"))),
]
JOIN_IDS = [name for name, _ in JOIN_PLANS]


def _mirrored_joins(plan):
    """How many HASH-JOINs of ``plan`` match one sub-query on both sides
    under a renaming: the ones the batch engine runs mirrored when no scan
    range is set."""
    return sum(
        isinstance(n, HashJoinNode)
        and isomorphism_mapping(n.probe.sub_query, n.build.sub_query) is not None
        for n in plan.root.iter_nodes()
    )


def _assert_mirrored(result, plan, ranged):
    """A run probed with its build side's rows exactly when it could: the
    join is mirrorable, the run is not ranged and the build side is not
    empty (the plans here have at most one HASH-JOIN)."""
    built = result.profile.hash_table_entries > 0
    expected = 0 if ranged or not built else _mirrored_joins(plan)
    assert result.profile.mirrored_joins == expected


def _full_range(config, plan, graph):
    """``config`` with a scan range over every edge of the primary scan: the
    same rows, but a ranged run, which never mirrors a HASH-JOIN."""
    return dataclasses.replace(
        config,
        scan_range=(0, graph.num_edges),
        scan_range_vertices=tuple(primary_scan(plan).out_vertices),
    )


def _counters(profile, plan=None):
    """Every counter of a profile; of the timings only which operators have one.

    With ``plan``, the root's ``batches`` and the profile's total are left
    out.  A count needs no frame chunking: a counting sink reads a HASH-JOIN
    root without predicates or a row limit as one count, from one sort of
    both sides' tagged join codes, and an E/I root without isomorphism one
    count per input frame, where the materialising root yields one frame
    per ``batch_size`` output rows.  Every other counter is the same in the
    two modes."""
    counters = dataclasses.asdict(profile)
    del counters["elapsed_seconds"]
    counters["operator_seconds"] = sorted(counters["operator_seconds"])
    if plan is not None:
        del counters["batches"]
        counters["per_operator"].get(plan.root.display_name(), {}).pop("batches", None)
    return counters


@pytest.fixture(scope="module")
def join_oracle():
    """Iterator-engine matches per (graph, plan, semantics), checked against
    LFTJ's count where LFTJ has the semantics (homomorphism)."""
    cache = {}

    def lookup(graph, name, plan, isomorphism):
        key = (id(graph), name, isomorphism)
        if key not in cache:
            iterator = execute_plan(
                plan, graph, ExecutionConfig(isomorphism=isomorphism, **ITER), collect=True
            )
            if not isomorphism:
                assert LeapfrogTrieJoin(graph).count(plan.query).num_matches == iterator.num_matches
            cache[key] = sorted(iterator.matches)
        return cache[key]

    return lookup


#: The two paths every TestHashJoin case runs: as is (mirrored where the
#: join allows it) and ranged.
PATHS = (False, True)


class TestHashJoin:
    """Every case runs on both paths: as is, and ``ranged``, with a
    full-range scan range on the primary scan, which turns mirroring off and
    keeps the probe subtree running.  The property tests draw the path per
    example."""

    def _config(self, plan, graph, ranged, **config):
        config = ExecutionConfig(vectorized=True, **config)
        return _full_range(config, plan, graph) if ranged else config

    def _both_modes(self, plan, graph, ranged, **config):
        config = self._config(plan, graph, ranged, **config)
        results = (
            execute_plan(plan, graph, config),
            execute_plan(plan, graph, config, collect=True),
        )
        for result in results:
            _assert_mirrored(result, plan, ranged)
        return results

    @pytest.mark.parametrize("batch_size", [1, 3, 2048])
    @pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
    @pytest.mark.parametrize("name,plan", JOIN_PLANS, ids=JOIN_IDS)
    def test_count_collect_iterator_and_leapfrog_agree(
        self, random_graph, join_oracle, name, plan, isomorphism, batch_size
    ):
        expected = join_oracle(random_graph, name, plan, isomorphism)
        for ranged in PATHS:
            counted, collected = self._both_modes(
                plan, random_graph, ranged, isomorphism=isomorphism, batch_size=batch_size
            )
            assert sorted(collected.matches) == expected
            assert counted.num_matches == collected.num_matches == len(expected)
            assert counted.matches is None
            assert _counters(counted.profile, plan) == _counters(collected.profile, plan)

    @pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
    @pytest.mark.parametrize("name,plan", JOIN_PLANS, ids=JOIN_IDS)
    def test_dirty_snapshot(self, dirty_pair, join_oracle, name, plan, isomorphism):
        snapshot, fresh = dirty_pair
        expected = join_oracle(fresh, name, plan, isomorphism)
        for ranged, batch_size in itertools.product(PATHS, (3, 2048)):
            counted, collected = self._both_modes(
                plan, snapshot, ranged, isomorphism=isomorphism, batch_size=batch_size
            )
            assert sorted(collected.matches) == expected
            assert counted.num_matches == len(expected)

    @pytest.mark.parametrize("name", JOIN_IDS)
    def test_count_mode_honours_output_limit(self, random_graph, name):
        plan = dict(JOIN_PLANS)[name]
        total = execute_plan(plan, random_graph, ExecutionConfig(**VEC)).num_matches
        assert total > 5
        for ranged, batch_size in itertools.product(PATHS, (1, 2048)):
            for limit in (5, total - 1, total, total + 1):
                counted, collected = self._both_modes(
                    plan, random_graph, ranged, output_limit=limit, batch_size=batch_size
                )
                assert counted.num_matches == collected.num_matches == min(limit, total)
                assert counted.truncated == collected.truncated == (limit <= total)
                assert not counted.deadline_exceeded

    def test_count_mode_honours_an_expired_deadline(self, random_graph):
        plan = dict(JOIN_PLANS)["Q8"]
        for ranged in PATHS:
            result = execute_plan(
                plan,
                random_graph,
                self._config(plan, random_graph, ranged, deadline=time.monotonic() - 1.0),
            )
            assert result.deadline_exceeded and result.truncated
            assert result.num_matches == 0

    @pytest.mark.parametrize("collect", [False, True], ids=["count", "collect"])
    def test_empty_build_side_never_opens_the_probe_side(self, tiny_graph, collect):
        q = QueryGraph([("a1", "a2", 7), ("a2", "a3")])  # no edge carries label 7
        plan = _join_plan(q, ("a1", "a2"), ("a2", "a3"))
        probe = plan.root.probe
        probe_plan = Plan(query=probe.sub_query, root=probe)
        assert count_matches(probe_plan, tiny_graph, ExecutionConfig(**ITER)) > 0
        for ranged in PATHS:
            config = self._config(plan, tiny_graph, ranged)
            result = execute_plan(plan, tiny_graph, config, collect=collect)
            assert result.num_matches == 0 and not result.truncated
            assert probe.display_name() not in result.profile.per_operator
            assert result.profile.hash_probes == 0
            assert result.profile.intermediate_matches == 0

    @pytest.mark.parametrize("isomorphism", [False, True], ids=["hom", "iso"])
    @pytest.mark.parametrize("name", ["Q3", "Q8", "two-triangle-clique"])
    def test_key_packing_boundary(self, random_graph, join_oracle, monkeypatch, name, isomorphism):
        """Join keys whose codes just fit run and give the reference's
        answers; one bit less and the plan is refused before anything runs."""
        plan = dict(JOIN_PLANS)[name]
        expected = join_oracle(random_graph, name, plan, isomorphism)
        key_bits = len(plan.root.join_vertices) * math.log2(random_graph.num_vertices)
        monkeypatch.setattr(vectorized, "_CODE_BITS", math.floor(key_bits) + 1)
        for ranged in PATHS:
            counted, collected = self._both_modes(
                plan, random_graph, ranged, isomorphism=isomorphism
            )
            assert sorted(collected.matches) == expected
            assert counted.num_matches == len(expected)
            assert _counters(counted.profile, plan) == _counters(collected.profile, plan)
            assert counted.profile.operator_seconds[plan.root.display_name()] > 0
        monkeypatch.setattr(vectorized, "_CODE_BITS", math.floor(key_bits))
        for ranged, collect in itertools.product(PATHS, (False, True)):
            config = self._config(plan, random_graph, ranged, isomorphism=isomorphism)
            with pytest.raises(PlanError):
                execute_plan(plan, random_graph, config, collect=collect)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_vertices=st.integers(min_value=3, max_value=5),
        avg_degree=st.sampled_from([2.0, 2.8, 3.6]),
        split=st.integers(min_value=0, max_value=10_000),
        isomorphism=st.booleans(),
        batch_size=st.sampled_from([1, 3, 2048]),
        ranged=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_queries_split_in_two_and_joined(
        self, seed, num_vertices, avg_degree, split, isomorphism, batch_size, ranged
    ):
        graph = erdos_renyi(24, 170, seed=seed)
        query = random_connected_query(num_vertices, avg_degree=avg_degree, seed=seed)
        # Every way to cover the query with two overlapping connected sub-queries.
        parts = [
            subset
            for size in range(2, num_vertices)
            for subset in itertools.combinations(query.vertices, size)
            if query.connected_projection_exists(subset)
        ]
        splits = [
            (a, b)
            for a in parts
            for b in parts
            if set(a) & set(b) and set(a) | set(b) == set(query.vertices)
        ]
        build_vertices, probe_vertices = splits[split % len(splits)]
        join = make_hash_join(
            query,
            enumerate_wco_plans(query.project(build_vertices))[0].root,
            enumerate_wco_plans(query.project(probe_vertices))[0].root,
        )
        plan = Plan(query=query, root=join)
        iterator = execute_plan(
            plan, graph, ExecutionConfig(isomorphism=isomorphism, **ITER), collect=True
        )
        counted, collected = self._both_modes(
            plan, graph, ranged, isomorphism=isomorphism, batch_size=batch_size
        )
        assert sorted(collected.matches) == sorted(iterator.matches)
        assert counted.num_matches == iterator.num_matches
        assert _counters(counted.profile, plan) == _counters(collected.profile, plan)
        if not isomorphism:
            assert counted.num_matches == LeapfrogTrieJoin(graph).count(query).num_matches

    @pytest.mark.parametrize("name,plan", JOIN_PLANS, ids=JOIN_IDS)
    def test_distinctness_skips_the_pairs_the_join_key_implies(self, random_graph, name, plan):
        """A probe key column equals a build key column, which no payload
        column of the same pairwise-distinct build row can equal: only the
        other probe columns are compared with the payload."""
        for ranged in PATHS:
            op = build_batch_operator_tree(
                plan.root,
                random_graph,
                ExecutionProfile(),
                self._config(plan, random_graph, ranged, isomorphism=True),
            )
            while not isinstance(op, BatchHashJoinOperator):
                op = op.child
            probe_keys = set(op._probe_key_idx.tolist())
            assert not any(i in probe_keys for i, _ in op._distinct_pairs)
            others = op._probe_width - len(probe_keys)
            assert len(op._distinct_pairs) == others * len(op._build_payload_idx)
            if name == "Q2":  # HASH-JOIN[a2,a4]: only a3 != a1 is left
                assert len(op._distinct_pairs) == 1

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        index=st.integers(min_value=0, max_value=len(JOIN_PLANS) - 1),
        batch_size=st.sampled_from([1, 3, 2048]),
        dirty=st.booleans(),
        ranged=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_counting_runs_agree_on_random_graphs(self, seed, index, batch_size, dirty, ranged):
        """Counted == collected == LFTJ whether the sides arrive in many
        frames, a few or one, on clean and dirty snapshots."""
        graph = erdos_renyi(40, 320, seed=seed)
        if dirty:
            graph = _dirty_snapshot(graph, seed)
        name, plan = JOIN_PLANS[index]
        counted, collected = self._both_modes(plan, graph, ranged, batch_size=batch_size)
        assert counted.num_matches == collected.num_matches
        assert counted.num_matches == LeapfrogTrieJoin(graph).count(plan.query).num_matches
        assert _counters(counted.profile, plan) == _counters(collected.profile, plan)

    def test_a_join_key_wider_than_a_code_is_refused(self, random_graph, monkeypatch):
        """A join key whose packed code would overflow ``_CODE_BITS`` is a
        PlanError naming the key's width and the graph's vertex count."""
        plan = dict(JOIN_PLANS)["Q2"]
        monkeypatch.setattr(vectorized, "_CODE_BITS", 13)  # 2 x log2(120) = 13.8
        for ranged in PATHS:
            config = self._config(plan, random_graph, ranged)
            message = r"2 vertex ids needs 13\.8 bits at num_vertices=120"
            with pytest.raises(PlanError, match=message):
                build_batch_operator_tree(plan.root, random_graph, ExecutionProfile(), config)

    @pytest.mark.parametrize("batch_size", [1, 3, 2048])
    def test_codes_that_just_fit_count_once(self, random_graph, monkeypatch, batch_size):
        """With ``_CODE_BITS`` at the key's width, an unlimited count is one
        sort of both sides' tagged codes and one count: counted == collected
        == LFTJ, with every other counter as the collecting run's."""
        plan = dict(JOIN_PLANS)["Q2"]
        key_bits = len(plan.root.join_vertices) * math.log2(random_graph.num_vertices)
        monkeypatch.setattr(vectorized, "_CODE_BITS", math.floor(key_bits) + 1)
        expected = LeapfrogTrieJoin(random_graph).count(plan.query).num_matches
        for ranged in PATHS:
            counted, collected = self._both_modes(
                plan, random_graph, ranged, batch_size=batch_size
            )
            assert counted.num_matches == collected.num_matches == expected > 0
            assert counted.profile.per_operator[plan.root.display_name()]["batches"] == 1
            assert _counters(counted.profile, plan) == _counters(collected.profile, plan)

    @pytest.mark.parametrize("name", ["Q2", "Q3"])
    def test_int64_tagged_codes_count_end_to_end(self, monkeypatch, name):
        """On a graph with more vertices than ``2 * n**2`` fits in 32 bits
        the tagged codes of a two-vertex key are ``int64``: counted ==
        collected == LFTJ on both paths."""
        small = erdos_renyi(40, 320, seed=5)
        builder = GraphBuilder()
        builder.add_edge_arrays(small.edge_src * 1250, small.edge_dst * 1250, small.edge_labels)
        graph = builder.build(num_vertices=50_000)
        assert 2 * graph.num_vertices**2 > 2**32
        plan = dict(JOIN_PLANS)[name]
        assert len(plan.root.join_vertices) == 2
        dtypes = []

        def spy(codes):
            dtypes.append(codes.dtype)
            return count_tagged_pairs(codes)

        monkeypatch.setattr(vectorized, "count_tagged_pairs", spy)
        expected = LeapfrogTrieJoin(graph).count(plan.query).num_matches
        for ranged in PATHS:
            counted, collected = self._both_modes(plan, graph, ranged)
            assert counted.num_matches == collected.num_matches == expected > 0
        assert dtypes == [np.dtype(np.int64)] * len(PATHS)


#: JOIN_PLANS and two joins whose probe side lists the build side's columns
#: in another order.  The optimizer's plans for Q2, Q3 and Q8 line the
#: columns up, so their mirror is the identity.
MIRROR_PLANS = JOIN_PLANS + [
    ("Q3-probe-reordered", _join_plan(cq.q3(), ("a1", "a2", "a3"), ("a4", "a3", "a2"))),
    ("two-scan-triangle-reversed", _join_plan(cq.triangle(), ("a1", "a2"), ("a3", "a2"))),
]


class TestMirroredHashJoin:
    """A HASH-JOIN whose probe sub-query is its build sub-query under a
    renaming drains the build side once and probes with those rows, columns
    permuted; the probe subtree is never built.  A scan range turns that off,
    so the two paths can be compared on the same plan."""

    def test_which_joins_are_mirrored(self):
        mirrors = {
            name: _mirror_columns(plan.root).tolist()
            for name, plan in MIRROR_PLANS
            if isinstance(plan.root, HashJoinNode) and _mirrored_joins(plan)
        }
        assert mirrors["Q2"] == mirrors["Q3"] == mirrors["Q8"] == [0, 1, 2]
        assert mirrors["Q3-probe-reordered"] == [2, 1, 0]
        assert mirrors["two-scan-triangle-reversed"] == [1, 0]
        assert _mirror_columns(LIMIT_PLANS["tailed-triangle-join"].root) is None

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        index=st.integers(min_value=0, max_value=len(MIRROR_PLANS) - 1),
        dirty=st.booleans(),
        isomorphism=st.booleans(),
        collect=st.booleans(),
        batch_size=st.sampled_from([1, 3, 2048]),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
    )
    @settings(max_examples=40, deadline=None)
    def test_mirrored_equals_unmirrored_equals_the_reference(
        self, seed, index, dirty, isomorphism, collect, batch_size, limit
    ):
        """Rows as multisets and counts as numbers agree across the mirrored
        run, the ranged (unmirrored) run and the reference executor; a
        limited run is a prefix of the unlimited one on the same path:
        exactly on the mirrored path, whose probe frames do not depend on
        the limit, and as a sub-multiset on the ranged one, whose probe scan
        sizes its frames to the limit."""
        graph = erdos_renyi(30, 200, seed=seed)
        if dirty:
            graph = _dirty_snapshot(graph, seed)
        name, plan = MIRROR_PLANS[index]
        reference = execute_plan(
            plan, graph, ExecutionConfig(isomorphism=isomorphism, **ITER), collect=True
        )
        whole = ExecutionConfig(isomorphism=isomorphism, batch_size=batch_size, **VEC)
        ranged = _full_range(whole, plan, graph)
        for config in (whole, ranged):
            full = execute_plan(plan, graph, config, collect=collect)
            _assert_mirrored(full, plan, config is ranged)
            mirrored = full.profile.mirrored_joins
            assert full.num_matches == reference.num_matches
            if mirrored:
                assert full.profile.hash_probes == full.profile.hash_table_entries
            if collect:
                assert Counter(full.matches) == Counter(reference.matches)
            if limit is None:
                continue
            limited = execute_plan(
                plan, graph, dataclasses.replace(config, output_limit=limit), collect=collect
            )
            assert limited.num_matches == min(limit, full.num_matches)
            assert limited.truncated == (limit <= full.num_matches)
            if collect and mirrored:
                assert limited.matches == full.matches[:limit]
            elif collect:
                assert not Counter(limited.matches) - Counter(full.matches)


class TestBatchModeResourceBounds:
    def test_output_limit_truncates_final_frame(self, random_graph):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        result = execute_plan(
            plan, random_graph, ExecutionConfig(output_limit=5, **VEC), collect=True
        )
        assert result.num_matches == 5
        assert result.truncated and not result.deadline_exceeded
        assert len(result.matches) == 5

    def test_output_limit_without_collect(self, random_graph):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        result = execute_plan(plan, random_graph, ExecutionConfig(output_limit=7, **VEC))
        assert result.num_matches == 7 and result.truncated

    def test_expired_deadline_reports_partial(self, random_graph):
        plan = wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4"))
        result = execute_plan(
            plan,
            random_graph,
            ExecutionConfig(deadline=time.monotonic() - 1.0, **VEC),
        )
        assert result.deadline_exceeded and result.truncated
        assert result.num_matches == 0

    def test_generous_deadline_is_not_triggered(self, tiny_graph):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        result = execute_plan(
            plan, tiny_graph, ExecutionConfig(deadline=time.monotonic() + 60.0, **VEC)
        )
        assert not result.deadline_exceeded
        assert result.num_matches == count_matches(plan, tiny_graph, ExecutionConfig(**ITER))


def _scan_operators(op):
    """Every SCAN operator of a batch operator tree."""
    if isinstance(op, BatchScanOperator):
        yield op
    for attr in ("child", "build_child", "probe_child"):
        if hasattr(op, attr):
            yield from _scan_operators(getattr(op, attr))


def _power_law_state(seed, dirty):
    """A small power-law graph, or a snapshot of it after three write
    batches (inserts and deletes) that were never compacted."""
    graph = power_law(48, 360, seed=seed)
    return _dirty_snapshot(graph, seed) if dirty else graph


def _dirty_snapshot(graph, seed):
    """A snapshot of ``graph`` after three uncompacted write batches."""
    dynamic = DynamicGraph(graph, auto_compact=False)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        inserts = rng.integers(0, graph.num_vertices, size=(30, 2))
        dynamic.add_edges([(int(s), int(d)) for s, d in inserts if s != d])
        deletes = rng.choice(graph.num_edges, size=10, replace=False)
        dynamic.delete_edges(
            [(int(graph.edge_src[i]), int(graph.edge_dst[i])) for i in deletes]
        )
    snapshot = dynamic.snapshot()
    assert not snapshot.is_clean
    return snapshot


#: The plans a row limit is checked on: two WCO chains, two HASH-JOINs
#: (whose build side must not see the limit; Q2's sides match one sub-query
#: under a renaming, the tailed triangle's do not) and, built per graph, the
#: adaptive operator over a fixed diamond-X plan.
ADAPTIVE_DIAMOND_X = "diamond-X+adaptive"
LIMIT_PLANS = {
    "triangle": wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3")),
    "tailed-triangle": wco_plan_from_order(cq.tailed_triangle(), ("a1", "a2", "a3", "a4")),
    "Q2": dict(JOIN_PLANS)["Q2"],
    "tailed-triangle-join": _join_plan(cq.tailed_triangle(), ("a1", "a2", "a3"), ("a2", "a4")),
    ADAPTIVE_DIAMOND_X: wco_plan_from_order(cq.diamond_x(), ("a2", "a3", "a1", "a4")),
}


class TestRowLimitDemand:
    """A row limit is the pipeline's demand: the SCAN the root pulls from
    starts with a batch of ``output_limit`` edges and doubles up to
    ``batch_size``."""

    def test_a_row_limit_reads_about_its_rows_not_a_frame(self):
        """Every edge of a complete digraph closes triangles, so ten rows
        need ten scanned edges.  Extending a whole ``batch_size`` frame
        first reads the two adjacency lists of each of its edges.  The graph
        grows with the default frame, so it holds more than two frames."""
        batch = ExecutionConfig().batch_size
        n = math.isqrt(2 * batch) + 2
        graph = complete_graph(n)
        assert graph.num_edges > 2 * batch
        plan = LIMIT_PLANS["triangle"]
        whole_frame_i_cost = batch * 2 * (n - 1)
        for collect in (False, True):
            result = execute_plan(
                plan, graph, ExecutionConfig(output_limit=10, **VEC), collect=collect
            )
            assert result.num_matches == 10 and result.truncated
            assert result.profile.per_operator[plan.root.child.display_name()]["out"] <= 10
            assert result.profile.intersection_cost < whole_frame_i_cost / 50

    def test_a_limit_of_a_frame_or_more_runs_as_unlimited(self):
        graph = complete_graph(70)
        plan = LIMIT_PLANS["triangle"]
        unlimited = execute_plan(plan, graph, ExecutionConfig(**VEC)).profile
        total = unlimited.output_matches
        assert total > ExecutionConfig().batch_size
        for limit in (total, total + 1):
            limited = execute_plan(plan, graph, ExecutionConfig(output_limit=limit, **VEC))
            assert limited.num_matches == total
            assert limited.profile.batches == unlimited.batches
            assert limited.profile.per_operator == unlimited.per_operator
            assert limited.profile.intersection_cost == unlimited.intersection_cost

    @pytest.mark.parametrize("name", list(LIMIT_PLANS))
    def test_the_demand_reaches_only_the_primary_scan(self, random_graph, name):
        """Unless the run is ranged, a HASH-JOIN whose sides match one
        sub-query under a renaming builds no probe-side SCAN at all: it
        probes with its build side's rows, which see no demand."""
        plan = LIMIT_PLANS[name]
        if name == ADAPTIVE_DIAMOND_X:
            plan = adapt(plan, random_graph)
        for ranged in PATHS:
            config = ExecutionConfig(**VEC)
            if ranged:
                config = _full_range(config, plan, random_graph)
            root = build_batch_operator_tree(
                plan.root, random_graph, ExecutionProfile(), config, demand=5
            )
            demands = {op.node.display_name(): op._demand for op in _scan_operators(root)}
            mirrored = not ranged and bool(_mirrored_joins(plan))
            assert mirrored == (name == "Q2" and not ranged)
            unbuilt = (
                {n.display_name() for n in plan.root.probe.iter_nodes()} if mirrored else set()
            )
            assert demands == {
                n.display_name(): 5 if n is primary_scan(plan) else None
                for n in plan.root.iter_nodes()
                if isinstance(n, ScanNode) and n.display_name() not in unbuilt
            }
            if mirrored:
                assert root.probe_child is None
                assert primary_scan(plan).display_name() not in demands

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dirty=st.booleans(),
        name=st.sampled_from(sorted(LIMIT_PLANS)),
        batch_size=st.sampled_from([1, 7, 97, 2048]),
        collect=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_limited_runs_return_a_prefix_of_the_answer(
        self, seed, dirty, name, batch_size, collect
    ):
        graph = _power_law_state(seed, dirty)
        plan = LIMIT_PLANS[name]
        if name == ADAPTIVE_DIAMOND_X:
            plan = adapt(plan, graph)
        build_scan = None
        if isinstance(plan.root, HashJoinNode):
            (build_scan,) = [
                n.display_name() for n in plan.root.build.iter_nodes() if isinstance(n, ScanNode)
            ]
        config = ExecutionConfig(batch_size=batch_size, **VEC)
        full = execute_plan(plan, graph, config, collect=True)
        total = full.num_matches
        limits = {1, 7, batch_size - 1, batch_size, batch_size + 1, total - 1, total, total + 1}
        for limit in sorted(limit for limit in limits if limit >= 1):
            result = execute_plan(
                plan, graph, dataclasses.replace(config, output_limit=limit), collect=collect
            )
            assert result.num_matches == min(limit, total)
            assert result.truncated == (limit <= total)
            assert not result.deadline_exceeded
            if collect:
                assert len(result.matches) == result.num_matches
                assert len(set(result.matches)) == len(result.matches)
                assert not Counter(result.matches) - Counter(full.matches)
            if build_scan is not None:
                assert (
                    result.profile.per_operator.get(build_scan)
                    == full.profile.per_operator.get(build_scan)
                )


def _largest_packable(num_columns):
    """The largest vertex count whose ``num_columns``-column keys still pack."""
    n = int(2 ** (vectorized._CODE_BITS / num_columns))
    while not _codes_fit(num_columns, n):
        n -= 1
    while _codes_fit(num_columns, n + 1):
        n += 1
    return n


@st.composite
def _keyed_frames(draw):
    """A frame, its key columns (any subset, in any order) and a vertex
    count, small or at the packing boundary."""
    width = draw(st.integers(min_value=1, max_value=5))
    num_keys = draw(st.integers(min_value=1, max_value=min(4, width)))
    key_idx = draw(st.permutations(range(width)))[:num_keys]
    n = draw(st.sampled_from([1, 2, 7, _largest_packable(num_keys)]))
    # A few distinct values, the extremes among them, so keys repeat.
    pool = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4))
    rows = draw(st.integers(min_value=0, max_value=24))
    values = draw(st.lists(st.sampled_from(pool + [0, n - 1]), min_size=rows * width,
                           max_size=rows * width))
    frame = np.array(values, dtype=np.int64).reshape(rows, width)
    arrangement = draw(st.sampled_from(["drawn", "in key order", "reversed"]))
    if arrangement != "drawn":
        frame = frame[np.lexsort(frame[:, key_idx[::-1]].T)]
        if arrangement == "reversed":
            frame = frame[::-1]
    return frame, np.array(key_idx, dtype=np.int64), n, arrangement


#: WCO plans the packed-key oracle runs: Q5 and Q7 reuse their child's sets.
PACKING_PLANS = {
    "Q1": wco_plan_from_order(cq.q1(), ("a1", "a2", "a3")),
    "Q3": enumerate_wco_plans(cq.q3())[0],
    "Q5": wco_plan_from_order(cq.q5(), ("a1", "a2", "a3", "a4")),
    "Q7": wco_plan_from_order(cq.q7(), ("a1", "a2", "a3", "a4", "a5")),
    "Q8": enumerate_wco_plans(cq.q8())[0],
    "Q5+adaptive": wco_plan_from_order(cq.q5(), ("a1", "a2", "a3", "a4")),
}


@pytest.fixture(scope="module")
def packing_graphs(request):
    social = request.getfixturevalue("social_graph")
    return {"clean": social, "dirty": _dirty_snapshot(social, seed=11)}


class TestPackedKeyGrouping:
    """E/I orders a frame by one packed code per row, and sorts only frames
    that are out of order.  Below the packing boundary it lexsorts the key
    columns, which is the oracle here."""

    @given(case=_keyed_frames())
    @settings(max_examples=300, deadline=None)
    def test_packed_grouping_equals_the_lexsort_grouping(self, case):
        frame, key_idx, n, arrangement = case
        assert _codes_fit(len(key_idx), n)
        packed_frame, codes = _sort_by_key(frame, key_idx, n, packed=True)
        lexsorted_frame, keys = _sort_by_key(frame, key_idx, n, packed=False)
        assert codes.ndim == 1 and keys.shape == (frame.shape[0], len(key_idx))
        np.testing.assert_array_equal(packed_frame, lexsorted_frame)
        for got, expected in zip(_group_runs(codes), _group_runs(keys)):
            np.testing.assert_array_equal(got, expected)
        if arrangement == "in key order":
            assert packed_frame is frame

    @pytest.mark.parametrize("num_columns", [1, 2, 3, 4])
    def test_the_largest_packable_key_does_not_overflow(self, num_columns):
        n = _largest_packable(num_columns)
        largest = np.full((1, num_columns), n - 1, dtype=np.int64)
        assert int(vectorized._pack(largest, n)[0]) == n ** num_columns - 1

    @pytest.mark.parametrize("batch_size", [97, 2048])
    @pytest.mark.parametrize("collect", [False, True], ids=["count", "collect"])
    @pytest.mark.parametrize("state", ["clean", "dirty"])
    @pytest.mark.parametrize("name", list(PACKING_PLANS))
    def test_rows_and_profile_equal_the_lexsort_path(
        self, packing_graphs, monkeypatch, name, state, collect, batch_size
    ):
        graph = packing_graphs[state]
        plan = PACKING_PLANS[name]
        if name.endswith("+adaptive"):
            plan = adapt(plan, graph)
        config = ExecutionConfig(batch_size=batch_size, **VEC)

        def run(code_bits):
            monkeypatch.setattr(vectorized, "_CODE_BITS", code_bits)
            root = build_batch_operator_tree(plan.root, graph, ExecutionProfile(), config)
            chains = [chain for chain, *_ in getattr(root, "_tails", [])] or [[root]]
            fits = {op._codes_fit for chain in chains for op in _ei_operators(chain[-1])}
            return fits, execute_plan(plan, graph, config, collect=collect)

        packed_fits, packed = run(62)
        lexsorted_fits, lexsorted = run(math.floor(math.log2(graph.num_vertices)))
        assert packed_fits == {True} and lexsorted_fits == {False}
        assert packed.num_matches == lexsorted.num_matches > 0
        assert packed.matches == lexsorted.matches
        assert _counters(packed.profile) == _counters(lexsorted.profile)

    def test_distinct_sorts_only_codes_out_of_order(self):
        increasing = np.array([1, 4, 9], dtype=np.int64)
        assert _distinct(increasing) is increasing
        assert len(_distinct(np.array([], dtype=np.int64))) == 0
        for codes in ([4, 4, 9], [9, 4, 1], [1, 9, 4, 4]):
            codes = np.array(codes, dtype=np.int64)
            np.testing.assert_array_equal(_distinct(codes), np.unique(codes))

    def test_sibling_codes_out_of_order_take_the_unique_route(
        self, chained_graph, oracle, monkeypatch
    ):
        """Rows sharing the child's key but not its input row (a1 sits outside
        the child's key a2) repeat the child's extensions, so their sibling
        codes are not strictly increasing."""
        name = "non-key-prefix-intersected"
        query, order, _ = {shape[0]: shape[1:] for shape in CHAINED_SHAPES}[name]
        seen = []

        def spy(codes):
            seen.append(bool(np.all(codes[1:] > codes[:-1])))
            return _distinct(codes)

        monkeypatch.setattr(vectorized, "_distinct", spy)
        plan = wco_plan_from_order(query, order)
        got = execute_plan(plan, chained_graph, ExecutionConfig(**VEC), collect=True)
        assert False in seen
        expected = oracle(chained_graph, name, query, order, False)
        assert sorted(got.matches) == sorted(expected.matches)


class TestBatchProfile:
    def test_batch_counters_and_operator_times(self, random_graph):
        plan = wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4"))
        result = execute_plan(plan, random_graph, ExecutionConfig(batch_size=64, **VEC))
        profile = result.profile
        assert profile.batches > 0
        assert any("batches" in entry for entry in profile.per_operator.values())
        assert profile.operator_seconds  # wall time per operator recorded
        assert profile.intersection_cost > 0
        assert "batches" in profile.as_dict()

    def test_grouping_subsumes_intersection_cache(self, social_graph):
        # A cache-friendly ordering (duplicate adjacency keys) must register
        # cache hits through the batch grouping as well.
        plan = wco_plan_from_order(cq.symmetric_diamond_x(), ("a2", "a3", "a1", "a4"))
        result = execute_plan(plan, social_graph, ExecutionConfig(**VEC))
        assert result.profile.cache_hits > 0


class TestScanRange:
    def test_partitioned_scan_counts_add_up(self, random_graph):
        plan = wco_plan_from_order(cq.triangle(), ("a1", "a2", "a3"))
        full = count_matches(plan, random_graph, ExecutionConfig(**VEC))
        m = random_graph.num_edges
        half1 = count_matches(
            plan, random_graph, ExecutionConfig(scan_range=(0, m // 2), **VEC)
        )
        half2 = count_matches(
            plan, random_graph, ExecutionConfig(scan_range=(m // 2, m), **VEC)
        )
        assert half1 + half2 == full


class TestModeComposition:
    def test_adaptive_base_streams_batches(self, random_graph):
        from repro.executor.adaptive import execute_adaptive

        plan = wco_plan_from_order(cq.diamond_x(), ("a1", "a2", "a3", "a4"))
        fixed = count_matches(plan, random_graph, ExecutionConfig(**ITER))
        adaptive = execute_adaptive(plan, random_graph, config=ExecutionConfig(**VEC))
        assert adaptive.num_matches == fixed

    def test_api_and_service_expose_the_mode(self, random_graph):
        from repro.api import GraphflowDB
        from repro.server.service import QueryService

        db = GraphflowDB(random_graph)
        db.build_catalogue(z=50)
        expected = db.execute(cq.triangle(), vectorized=False).num_matches
        assert db.execute(cq.triangle()).trace.mode == "vectorized"
        assert db.execute(cq.triangle()).num_matches == expected
        assert db.execute(cq.triangle(), adaptive=True).num_matches == expected
        with QueryService(db) as service:
            served = service.execute(cq.triangle())
            assert served.status == "ok" and served.num_matches == expected
            limited = service.execute(cq.triangle(), row_limit=3)
            assert limited.status == "truncated" and limited.num_matches == 3
        with QueryService(db, vectorized=False) as service:
            assert service.execute(cq.triangle()).num_matches == expected


def _tagged_sides():
    """Build and probe join keys over a few distinct values placed just below
    the top of the code type (keys repeat, often on one side only), the code
    type, and a slice size."""
    dtype = st.sampled_from([np.uint32, np.int64])
    return dtype.flatmap(
        lambda dtype: st.tuples(
            st.just(dtype),
            st.lists(st.integers(0, 6), max_size=40),
            st.lists(st.integers(0, 6), max_size=40),
            st.sampled_from([0, (np.iinfo(dtype).max >> 1) - 6]),
            st.sampled_from([1, 2, 3, 1 << 17]),
        )
    )


class TestTaggedPairCount:
    """``count_tagged_pairs`` against a Counter model: Σ over keys of
    build multiplicity x probe multiplicity."""

    @staticmethod
    def _codes(build, probe, dtype):
        codes = np.array(
            [k << 1 for k in build] + [k << 1 | 1 for k in probe], dtype=dtype
        )
        codes.sort()
        return codes

    @given(case=_tagged_sides())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_counter_model(self, case):
        dtype, build, probe, base, slice_size = case
        build = [base + k for k in build]
        probe = [base + k for k in probe]
        probes = Counter(probe)
        expected = sum(n * probes[k] for k, n in Counter(build).items())
        codes = self._codes(build, probe, dtype)
        assert codes.dtype == dtype
        assert count_tagged_pairs(codes, slice_size) == expected

    @pytest.mark.parametrize("slice_size", [1, 2, 3, 1 << 17])
    def test_one_key_across_many_slices(self, slice_size):
        codes = self._codes([5] * 50 + [6, 9], [4, 5] * 30 + [9], np.uint32)
        assert count_tagged_pairs(codes, slice_size) == 50 * 30 + 1

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_empty_sides(self, dtype):
        assert count_tagged_pairs(np.array([], dtype=dtype), 2) == 0
        assert count_tagged_pairs(self._codes([1, 1, 2], [], dtype), 2) == 0
        assert count_tagged_pairs(self._codes([], [1, 2, 2], dtype), 2) == 0


class TestVectorizedHelpers:
    def test_ragged_positions(self):
        starts = np.array([10, 0, 5], dtype=np.int64)
        counts = np.array([2, 0, 3], dtype=np.int64)
        assert _ragged_positions(starts, counts).tolist() == [10, 11, 5, 6, 7]

    def test_ragged_positions_empty(self):
        empty = np.array([], dtype=np.int64)
        assert len(_ragged_positions(empty, empty)) == 0

    def test_expansion_segments_respect_cap(self):
        counts = np.array([3, 3, 3, 10, 1, 1], dtype=np.int64)
        segments = list(_expansion_segments(counts, cap=6))
        assert segments[0] == (0, 2)  # 3 + 3 == cap
        assert all(lo < hi for lo, hi in segments)
        assert segments[-1][1] == len(counts)
        covered = [i for lo, hi in segments for i in range(lo, hi)]
        assert covered == list(range(len(counts)))
        # Every segment's total is <= cap unless it is a single oversized row.
        for lo, hi in segments:
            assert counts[lo:hi].sum() <= 6 or hi - lo == 1

    def test_output_frames_are_bounded(self, social_graph):
        # A clique query on a clustered graph has high fanout; no frame
        # handed upstream may grow far beyond batch_size regardless.
        plan = wco_plan_from_order(cq.q5(), ("a1", "a2", "a3", "a4"))
        config = ExecutionConfig(vectorized=True, batch_size=32)
        root = build_batch_operator_tree(
            plan.root, social_graph, ExecutionProfile(), config
        )
        max_fanout = 0
        for frame in root.frames():
            # Bound: cap plus one oversized row's own fanout.
            assert frame.shape[0] <= 32 + social_graph.num_vertices
            max_fanout = max(max_fanout, frame.shape[0])
        assert max_fanout > 0
