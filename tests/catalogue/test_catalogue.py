"""Tests for the subgraph catalogue: keys, construction, estimation, q-error."""

import numpy as np
import pytest

from repro.catalogue.catalogue import SubgraphCatalogue, canonical_key
from repro.catalogue.construction import (
    build_catalogue,
    ensure_entry,
    extension_triples_for_query,
    measure_extension,
    sample_subquery_matches,
)
from repro.catalogue.estimation import (
    estimate_cardinality,
    estimate_cardinality_min_over_orderings,
    extension_statistics,
)
from repro.catalogue.qerror import q_error, qerror_distribution
from repro.executor.pipeline import count_matches
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import wco_plan_from_order
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryEdge, QueryGraph


def _edge_query():
    return QueryGraph([("a1", "a2")], name="edge")


class TestCanonicalKey:
    def test_isomorphic_keys_equal(self):
        q1 = _edge_query()
        q2 = QueryGraph([("b7", "b9")], name="edge2")
        d1 = [AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3")]
        d2 = [AdjListDescriptor.for_extension(QueryEdge("b7", "b3"), "b3")]
        assert canonical_key(q1, d1, None) == canonical_key(q2, d2, None)

    def test_different_descriptor_direction_differs(self):
        q = _edge_query()
        fwd = [AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3")]
        bwd = [AdjListDescriptor.for_extension(QueryEdge("a3", "a1"), "a3")]
        assert canonical_key(q, fwd, None) != canonical_key(q, bwd, None)

    def test_target_label_part_of_key(self):
        q = _edge_query()
        d = [AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3")]
        assert canonical_key(q, d, 0) != canonical_key(q, d, 1)

    def test_put_and_get_roundtrip(self):
        catalogue = SubgraphCatalogue()
        q = _edge_query()
        d = [AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3")]
        catalogue.put(q, d, None, [4.5], 2.5, 100)
        entry = catalogue.get(q, d, None)
        assert entry is not None
        assert entry.mu == pytest.approx(2.5)
        assert entry.total_list_size == pytest.approx(4.5)

    def test_get_missing_returns_none(self):
        catalogue = SubgraphCatalogue()
        q = _edge_query()
        d = [AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3")]
        assert catalogue.get(q, d, None) is None


class TestConstruction:
    def test_edge_counts(self, labeled_graph):
        catalogue = build_catalogue(labeled_graph, z=50)
        total = sum(catalogue.edge_counts.values())
        assert total == labeled_graph.num_edges
        assert catalogue.edge_count(None) == labeled_graph.num_edges

    def test_edge_count_label_filter(self, labeled_graph):
        catalogue = build_catalogue(labeled_graph, z=50)
        by_label = catalogue.edge_count(0) + catalogue.edge_count(1)
        assert by_label == labeled_graph.num_edges

    def test_extension_triples_cover_triangle(self):
        triples = extension_triples_for_query(cq.triangle(), h=3)
        assert len(triples) == 3  # one per removable vertex
        for sub, descriptors, _ in triples:
            assert sub.num_vertices == 2
            assert len(descriptors) == 2

    def test_extension_triples_respect_h(self):
        triples_h2 = extension_triples_for_query(cq.diamond_x(), h=2)
        triples_h3 = extension_triples_for_query(cq.diamond_x(), h=3)
        assert len(triples_h3) > len(triples_h2)
        assert all(sub.num_vertices <= 2 for sub, _, _ in triples_h2)

    def test_sample_subquery_matches(self, social_graph):
        rng = np.random.default_rng(0)
        q = cq.triangle()
        matches = sample_subquery_matches(social_graph, q, ("a1", "a2", "a3"), 50, rng)
        assert matches.node.out_vertices == ("a1", "a2", "a3")
        rows = [tuple(row) for frame in matches.frames() for row in frame.tolist()]
        assert rows
        # Every match grows from one of the 50 sampled scan edges.
        assert len({t[:2] for t in rows}) <= 50
        for t in rows:
            assert social_graph.has_edge(t[0], t[1])
            assert social_graph.has_edge(t[1], t[2])
            assert social_graph.has_edge(t[0], t[2])

    def test_sampled_scan_checks_reciprocal_first_edges(self, tiny_graph):
        """tiny_graph's only reciprocal pair is 1 <-> 4."""
        q = QueryGraph([("a1", "a2"), ("a2", "a1")])
        rng = np.random.default_rng(0)
        matches = sample_subquery_matches(tiny_graph, q, ("a1", "a2"), 1000, rng)
        rows = sorted(tuple(row) for frame in matches.frames() for row in frame.tolist())
        assert rows == [(1, 4), (4, 1)]

    def test_measure_extension_mu_positive_on_social_graph(self, social_graph):
        rng = np.random.default_rng(0)
        edge = _edge_query()
        descriptors = [
            AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3"),
            AdjListDescriptor.for_extension(QueryEdge("a2", "a3"), "a3"),
        ]
        sizes, mu, n = measure_extension(social_graph, edge, descriptors, None, 200, rng)
        assert n > 0
        assert len(sizes) == 2
        assert mu >= 0

    def test_build_with_queries_precomputes(self, social_graph):
        catalogue = build_catalogue(social_graph, z=50, queries=[cq.diamond_x()])
        assert catalogue.num_entries > 0
        assert catalogue.construction_seconds > 0

    def test_ensure_entry_idempotent(self, social_graph):
        catalogue = build_catalogue(social_graph, z=50)
        edge = _edge_query()
        descriptors = [AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3")]
        ensure_entry(catalogue, social_graph, edge, descriptors, None)
        first = catalogue.num_entries
        ensure_entry(catalogue, social_graph, edge, descriptors, None)
        assert catalogue.num_entries == first

    def test_ensure_entry_respects_h(self, social_graph):
        catalogue = build_catalogue(social_graph, h=2, z=50)
        tri = cq.triangle()
        descriptors = [AdjListDescriptor.for_extension(QueryEdge("a3", "a4"), "a4")]
        ensure_entry(catalogue, social_graph, tri, descriptors, None)
        assert catalogue.num_entries == 0  # 3-vertex sub-query > h=2


class TestEstimation:
    def test_edge_cardinality_exact(self, social_graph):
        catalogue = build_catalogue(social_graph, z=100)
        est = estimate_cardinality(catalogue, _edge_query(), social_graph)
        assert est == pytest.approx(social_graph.num_edges)

    def test_triangle_estimate_reasonable(self, social_graph):
        catalogue = build_catalogue(social_graph, z=400)
        q = cq.triangle()
        est = estimate_cardinality(catalogue, q, social_graph)
        true = count_matches(wco_plan_from_order(q, ("a1", "a2", "a3")), social_graph)
        assert q_error(est, true) < 4.0

    def test_diamond_estimate_reasonable(self, social_graph):
        catalogue = build_catalogue(social_graph, z=400)
        q = cq.diamond_x()
        est = estimate_cardinality(catalogue, q, social_graph)
        true = count_matches(wco_plan_from_order(q, ("a1", "a2", "a3", "a4")), social_graph)
        assert q_error(est, true) < 8.0

    def test_missing_entry_rule_used_for_large_subqueries(self, social_graph):
        catalogue = build_catalogue(social_graph, h=2, z=200)
        q = cq.diamond_x()
        # h=2 means extending the 3-vertex triangle sub-query has no entry and
        # must go through the removal rule; the estimate must stay finite.
        est = estimate_cardinality(catalogue, q, social_graph)
        assert np.isfinite(est)
        assert est >= 0

    def test_min_over_orderings_variant(self, social_graph):
        catalogue = build_catalogue(social_graph, z=200)
        q = cq.diamond_x()
        est = estimate_cardinality_min_over_orderings(catalogue, q, social_graph)
        assert np.isfinite(est) and est >= 0

    def test_extension_statistics_shapes(self, social_graph):
        catalogue = build_catalogue(social_graph, z=100)
        edge = _edge_query()
        descriptors = [
            AdjListDescriptor.for_extension(QueryEdge("a1", "a3"), "a3"),
            AdjListDescriptor.for_extension(QueryEdge("a2", "a3"), "a3"),
        ]
        sizes, mu = extension_statistics(catalogue, edge, descriptors, None, social_graph)
        assert len(sizes) == 2
        assert mu >= 0

    def test_larger_h_does_not_hurt_much(self, social_graph):
        q = cq.diamond_x()
        true = count_matches(wco_plan_from_order(q, ("a1", "a2", "a3", "a4")), social_graph)
        err = {}
        for h in (2, 3):
            catalogue = build_catalogue(social_graph, h=h, z=300, queries=[q])
            est = estimate_cardinality(catalogue, q, social_graph)
            err[h] = q_error(est, true)
        assert err[3] <= err[2] * 2.0  # h=3 should not be dramatically worse


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(100, 100) == 1.0

    def test_symmetry(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_zero_clamped(self):
        assert q_error(0, 5) == 5.0
        assert q_error(5, 0) == 5.0
        assert q_error(0, 0) == 1.0

    def test_distribution_buckets(self):
        pairs = [(1, 1), (2, 1), (10, 1), (100, 1)]
        dist = qerror_distribution(pairs)
        assert dist["<=2"] == 2
        assert dist["<=10"] == 3
        assert dist[">20"] == 1
        assert dist["total"] == 4


class TestStaleness:
    """Drift accounting for the sampled mu / |A| entries (the exact per-label
    edge counts are maintained incrementally and are never stale)."""

    def test_fresh_catalogue_reports_zero(self, social_graph):
        catalogue = build_catalogue(social_graph, h=2, z=50)
        assert catalogue.stale_fraction == 0.0
        assert catalogue.edges_at_build == social_graph.num_edges

    def test_drift_counts_inserts_and_deletes(self, social_graph):
        catalogue = build_catalogue(social_graph, h=2, z=50)
        labels = social_graph.vertex_labels
        catalogue.apply_edge_delta([(0, 1, 0), (1, 2, 0)], [], labels)
        catalogue.apply_edge_delta([], [(0, 1, 0)], labels)
        assert catalogue.drift_edges == 3
        assert catalogue.stale_fraction == pytest.approx(3 / social_graph.num_edges)

    def test_stale_fraction_can_exceed_one(self):
        catalogue = SubgraphCatalogue()
        catalogue.edges_at_build = 2
        catalogue.num_graph_edges = 2
        labels = np.zeros(10, dtype=np.int64)
        catalogue.apply_edge_delta([(0, 1, 0), (1, 2, 0), (2, 3, 0)], [], labels)
        assert catalogue.stale_fraction > 1.0

    def test_rebuild_resets_staleness(self, social_graph):
        catalogue = build_catalogue(social_graph, h=2, z=50)
        catalogue.apply_edge_delta([(0, 1, 0)], [], social_graph.vertex_labels)
        assert catalogue.stale_fraction > 0
        rebuilt = build_catalogue(social_graph, h=2, z=50)
        assert rebuilt.stale_fraction == 0.0

    def test_db_exposes_stale_fraction(self, social_graph):
        from repro.api import GraphflowDB

        db = GraphflowDB(social_graph)
        assert db.catalogue_stale_fraction == 0.0  # no catalogue yet
        db.build_catalogue(z=50)
        assert db.catalogue_stale_fraction == 0.0
        n = social_graph.num_vertices
        result = db.apply_updates(inserts=[(0, n - 1, 0), (1, n - 2, 0)])
        assert db.catalogue_stale_fraction == pytest.approx(
            result.num_applied / social_graph.num_edges
        )
        # Rebuilding the catalogue clears the drift.
        db.build_catalogue(z=50)
        assert db.catalogue_stale_fraction == 0.0
