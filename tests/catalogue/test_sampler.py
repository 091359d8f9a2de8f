"""The batch catalogue sampler against the per-tuple one it replaced
(``tests/catalogue/sampler_oracle.py``): same sampled edges for the same
``rng`` state, integer sums, so ``(sizes, mu, n)`` must be *equal*."""

import functools
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datasets
from repro.api import GraphflowDB
from repro.catalogue import construction
from repro.catalogue.construction import (
    _edge_count_statistics,
    build_catalogue,
    extension_triples_for_query,
    measure_extension,
)
from repro.executor import vectorized
from repro.executor.operators import ExecutionConfig
from repro.executor.vectorized import BatchExtendIntersectOperator
from repro.graph.builder import graph_from_edges
from repro.graph.graph import Graph
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import wco_plan_from_order
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryEdge, QueryGraph
from repro.storage.dynamic import DynamicGraph
from tests.catalogue import sampler_oracle
from tests.conftest import brute_force_count

NUM_VERTICES = 14

#: Shapes whose triples reach every part of the sampler: one and two E/Is
#: below the measuring one, prefix-intersection reuse (diamond-X extends the
#: triangle by lists the triangle's E/I already intersected), labelled
#: partitions, and reciprocal query edges, which the sampled SCAN must verify.
SHAPES = {
    "triangle": cq.triangle(),
    "diamond-x": cq.diamond_x(),
    "tailed-triangle": QueryGraph([("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("a3", "a4")]),
    "labelled": QueryGraph(
        [("a1", "a2", 0), ("a2", "a3", 1), ("a1", "a3", 0), ("a3", "a4", 1)],
        vertex_labels={"a1": 0, "a2": 1, "a3": 0, "a4": 1},
    ),
    "reciprocal": QueryGraph(
        [("a1", "a2"), ("a2", "a1"), ("a2", "a3"), ("a1", "a3"), ("a3", "a4")]
    ),
    # a4 closes the 2-path a1 -> a2 -> a3 through all three: the measuring
    # E/I shares the two lists of the scanned edge's columns.
    "shared-2-path": QueryGraph(
        [("a1", "a2"), ("a2", "a3"), ("a1", "a4"), ("a2", "a4"), ("a4", "a3")]
    ),
    # Every entry extends by one list: the measuring E/I counts degrees.
    "one-list-path": QueryGraph([("a1", "a2"), ("a2", "a3"), ("a4", "a3")]),
}

#: The queries of the benchmark's plan_cold workload.
PLAN_COLD = ("Q1", "Q2", "Q3", "Q5", "Q6", "Q7", "Q11", "Q12", "Q13")


def _random_edges(rng, count, num_edge_labels):
    edges = set()
    while len(edges) < count:
        s, d = (int(x) for x in rng.integers(0, NUM_VERTICES, 2))
        if s == d:
            continue
        label = int(rng.integers(0, num_edge_labels))
        edges.add((s, d, label))
        if rng.random() < 0.3:
            edges.add((d, s, label))
    return sorted(edges)


def _graph(seed, labelled, dirty, hub=False):
    """A random graph with reciprocal edges; ``dirty`` serves it as the
    snapshot of a DynamicGraph after three insert/delete batches.  A ``hub``
    adds vertex 0's edges to and from every other vertex."""
    rng = np.random.default_rng(seed)
    vertex_labels = {
        v: int(rng.integers(0, 2)) if labelled else 0 for v in range(NUM_VERTICES)
    }
    edges = _random_edges(rng, 60, 2 if labelled else 1)
    if hub:
        spokes = [(0, v, 0) for v in range(1, NUM_VERTICES)]
        spokes += [(v, 0, 0) for v in range(1, NUM_VERTICES)]
        edges = sorted(set(edges) | set(spokes))
    if not dirty:
        return graph_from_edges(edges, vertex_labels=vertex_labels)
    dynamic = DynamicGraph(
        graph_from_edges(edges[:35], vertex_labels=vertex_labels), auto_compact=False
    )
    rest = edges[35:]
    for batch in range(3):
        dynamic.add_edges(rest[batch::3])
        dynamic.delete_edges([edges[int(i)] for i in rng.integers(0, 35, 3)])
    assert dynamic.delta_edges > 0
    return dynamic.snapshot()


def _both(graph, sub, descriptors, to_label, z, seed=0):
    return (
        measure_extension(graph, sub, descriptors, to_label, z, np.random.default_rng(seed)),
        sampler_oracle.measure_extension(
            graph, sub, descriptors, to_label, z, np.random.default_rng(seed)
        ),
    )


class TestBatchSamplerEqualsOracle:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.sampled_from(sorted(SHAPES)),
        dirty=st.booleans(),
        # Relative to the edge count, which is the scanned partition's on the
        # unlabelled shapes and above it on the labelled one.
        # "hub" is one above the hub's fan-out.
        z=st.sampled_from(["few", "hub", "below", "at", "above"]),
        # One match per frame, a few, and every match of these graphs in one.
        batch_size=st.sampled_from([1, 7, 2048]),
        hub=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_triple(self, seed, shape, dirty, z, batch_size, hub):
        graph = _graph(seed, labelled=shape == "labelled", dirty=dirty, hub=hub)
        z = {"few": 4, "hub": NUM_VERTICES, "below": graph.num_edges - 1,
             "at": graph.num_edges, "above": graph.num_edges + 7}[z]
        triples = extension_triples_for_query(SHAPES[shape], h=3)
        assert triples
        # The sampler runs at the query default frame size; it imports the
        # config class when called, so patching it here reframes the run.
        framed = functools.partial(ExecutionConfig, batch_size=batch_size)
        with mock.patch("repro.executor.operators.ExecutionConfig", framed):
            for sub, descriptors, to_label in triples:
                got, expected = _both(graph, sub, descriptors, to_label, z, seed)
                assert got == expected, (sub, descriptors, to_label)

    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    def test_the_shared_and_one_list_entries_take_their_paths(self, dirty):
        """Every edge of a hub graph sampled: the 2-path entry's measuring
        E/I shares the lists of the scanned edge's two columns, and a
        one-list entry's counts its matches' degrees without gathering."""
        graph = _graph(3, labelled=False, dirty=dirty, hub=True)
        calls = {"shared": 0, "measuring gathers": 0}
        shared = BatchExtendIntersectOperator._extensions_from_shared
        intersect = BatchExtendIntersectOperator._intersect

        def sharing(op, *args):
            calls["shared"] += 1
            return shared(op, *args)

        def gathering(op, *args):
            # The measuring E/I extends to a vertex no sub-query names.
            calls["measuring gathers"] += op.extend_node.to_vertex.endswith("'")
            return intersect(op, *args)

        for name in ("shared-2-path", "one-list-path"):
            query = SHAPES[name]
            sub = query.project(["a1", "a2", "a3"])
            descriptors = [
                AdjListDescriptor.for_extension(e, "a4") for e in query.edges_touching("a4")
            ]
            calls.update({"shared": 0, "measuring gathers": 0})
            with mock.patch.multiple(
                BatchExtendIntersectOperator, _extensions_from_shared=sharing, _intersect=gathering
            ):
                got, expected = _both(graph, sub, descriptors, None, graph.num_edges)
            assert got == expected and got[2] > graph.num_edges
            if name == "shared-2-path":
                assert calls["shared"] > 0
            else:
                assert calls == {"shared": 0, "measuring gathers": 0}

    def test_plan_cold_entries_do_not_depend_on_the_shared_path(self, monkeypatch):
        """The entries the benchmark's cold-planned queries draw, with the
        shared-list seed and with it patched out (smallest-list seeds)."""
        graph = datasets.load("livejournal", scale=0.1)
        queries = [cq.get(name) for name in PLAN_COLD]
        shared_lists = vectorized._shared_lists
        sharing = []

        def spy(resolved, to_column):
            sharing.append(shared_lists(resolved, to_column))
            return sharing[-1]

        monkeypatch.setattr(vectorized, "_shared_lists", spy)
        shared = build_catalogue(graph, seed=5, queries=queries)
        assert any(sharing)
        monkeypatch.setattr(vectorized, "_shared_lists", lambda resolved, to_column: 0)
        unshared = build_catalogue(graph, seed=5, queries=queries)
        assert shared.num_entries == unshared.num_entries > 0
        for key, entry in shared.entries.items():
            other = unshared.entries[key]
            assert (entry.avg_list_sizes, entry.mu, entry.num_samples) == (
                other.avg_list_sizes, other.mu, other.num_samples,
            )

    def test_full_sample_is_the_exact_average(self, social_graph):
        """With every scan edge sampled, ``n`` and ``n * mu`` are the match
        counts of ``Q_{k-1}`` and ``Q_k``."""
        tri = cq.triangle()
        sub = tri.project(["a1", "a2"])
        descriptors = [AdjListDescriptor.for_extension(e, "a3") for e in tri.edges_touching("a3")]
        rng = np.random.default_rng(0)
        _, mu, n = measure_extension(social_graph, sub, descriptors, None, 10**9, rng)
        assert n == social_graph.num_edges
        assert round(mu * n) == brute_force_count(social_graph, tri)

    def test_empty_partition_falls_back_to_average_degree(self, labeled_graph):
        """No edge carries label 7: nothing to sample."""
        sub = QueryGraph([("a1", "a2", 7)])
        descriptors = [AdjListDescriptor.for_extension(QueryEdge("a2", "a3"), "a3")]
        got, expected = _both(labeled_graph, sub, descriptors, None, 50)
        average = labeled_graph.num_edges / labeled_graph.num_vertices
        assert got == expected == ([average], 0.0, 0)

    def test_no_surviving_match_falls_back_to_average_degree(self):
        """Edges to sample, but none of them closes a 2-path."""
        graph = graph_from_edges([(0, 1), (2, 3)])
        sub = QueryGraph([("a1", "a2"), ("a2", "a3")])
        descriptors = [AdjListDescriptor.for_extension(QueryEdge("a3", "a4"), "a4")]
        got, expected = _both(graph, sub, descriptors, None, 50)
        assert got == expected == ([0.5], 0.0, 0)

    def test_catalogue_entries_equal_the_oracles(self, social_graph, monkeypatch):
        batch = build_catalogue(social_graph, z=80, seed=3, queries=[cq.diamond_x()])
        monkeypatch.setattr(construction, "measure_extension", sampler_oracle.measure_extension)
        per_tuple = build_catalogue(social_graph, z=80, seed=3, queries=[cq.diamond_x()])
        assert batch.num_entries == per_tuple.num_entries > 0
        for key, entry in batch.entries.items():
            other = per_tuple.entries[key]
            assert (entry.avg_list_sizes, entry.mu, entry.num_samples) == (
                other.avg_list_sizes, other.mu, other.num_samples,
            )


class TestSamplingMemory:
    def test_a_hub_entry_stays_small(self):
        """Q3's ``(a1->a2->a4; a1->, a2->, a4<-)`` entry: the child E/I reads
        one list, N(a2).  Reading that set back off a frame instead of
        seeding from the smallest list made every row through a hub ``a2``
        gather all of N(a2), a transient of 21 MiB per 2,048-row frame."""
        graph = datasets.load("livejournal", scale=1)
        q3 = cq.q3()
        sub = q3.project(["a1", "a2", "a4"])
        descriptors = [AdjListDescriptor.for_extension(e, "a3") for e in q3.edges_touching("a3")]
        measure_extension(graph, sub, descriptors, None, 1000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            _, mu, n = measure_extension(
                graph, sub, descriptors, None, 1000, np.random.default_rng(1)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n > 0 and mu > 0
        assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestEdgeCountStatistics:
    def test_equals_the_per_edge_loop(self, labeled_graph, social_graph):
        for graph in (labeled_graph, social_graph, _graph(5, labelled=True, dirty=True)):
            counts = _edge_count_statistics(graph)
            assert counts == sampler_oracle.edge_count_statistics(graph)
            assert all(type(x) is int for key in counts for x in key)
            assert all(type(count) is int for count in counts.values())

    def test_empty_graph(self):
        empty = Graph(
            vertex_labels=np.zeros(3, dtype=np.int64),
            edge_src=np.array([], dtype=np.int64),
            edge_dst=np.array([], dtype=np.int64),
            edge_labels=np.array([], dtype=np.int64),
        )
        assert _edge_count_statistics(empty) == sampler_oracle.edge_count_statistics(empty) == {}


class TestErrorsSurface:
    def test_sampler_error_reaches_the_caller_of_plan(self, social_graph, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("sampler bug")

        monkeypatch.setattr(construction, "measure_extension", broken)
        db = GraphflowDB(social_graph)
        db.build_catalogue(z=50)
        with pytest.raises(TypeError, match="sampler bug"):
            db.plan(cq.diamond_x(), use_cache=False)

    def test_reciprocal_edges_on_one_vertex_make_a_plan(self, tiny_graph):
        """Extending to a2 after a1 reads a1's forward and backward lists: two
        descriptors on one vertex, which the optimizer used to drop as an
        un-sortable candidate behind ``except Exception``."""
        q6 = cq.q6()
        plan = wco_plan_from_order(q6, ("a1", "a3", "a2", "a4"))
        directions = [d.direction.value for d in plan.root.child.descriptors[:2]]
        assert sorted(directions) == ["bwd", "fwd"]
        db = GraphflowDB(tiny_graph)
        assert db.execute(plan).num_matches == brute_force_count(tiny_graph, q6)


class TestMemoLifetime:
    """``CostModel.extension_stats`` is memoised per model; the database drops
    its models whenever the catalogue or the graph under them changes."""

    def _planned(self, social_graph):
        db = GraphflowDB(social_graph)
        db.build_catalogue(z=60)
        db.plan(cq.diamond_x(), use_cache=False)
        model = db.cost_model
        assert model._extension_stats_cache
        return db, model

    def test_repeated_lookup_is_served_from_the_memo(self, social_graph, monkeypatch):
        db, model = self._planned(social_graph)
        key, stats = next(iter(model._extension_stats_cache.items()))
        monkeypatch.setattr(
            "repro.planner.cost_model.extension_statistics",
            lambda *args, **kwargs: pytest.fail("looked up again"),
        )
        assert model.extension_stats(*key) is stats

    def test_write_drops_the_memo(self, social_graph):
        db, model = self._planned(social_graph)
        db.apply_updates(inserts=[(0, social_graph.num_vertices - 1)])
        fresh = db.cost_model
        assert fresh is not model and not fresh._extension_stats_cache

    def test_installed_catalogue_is_what_a_fresh_model_reads(self, social_graph):
        db, model = self._planned(social_graph)
        (sub, descriptors, to_label), (sizes, mu) = next(
            (key, stats)
            for key, stats in model._extension_stats_cache.items()
            if key[0].num_vertices <= db.catalogue.h
        )
        refreshed = build_catalogue(social_graph, z=60)
        refreshed.put(sub, descriptors, to_label, sizes, mu + 1000.0, 1)
        assert db.install_refreshed_catalogue(refreshed, expected_epoch=db.catalogue.epoch)
        fresh = db.cost_model
        assert fresh is not model
        assert fresh.extension_stats(sub, descriptors, to_label)[1] == mu + 1000.0
        assert model.extension_stats(sub, descriptors, to_label)[1] == mu


@pytest.mark.parametrize("module", ["repro.catalogue", "repro.executor", "repro.planner"])
def test_imports_in_a_fresh_interpreter(module):
    """``executor/__init__`` -> ``adaptive`` -> ``catalogue.estimation`` ->
    ``construction`` -> ``executor.vectorized`` would be a cycle at module top."""
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
