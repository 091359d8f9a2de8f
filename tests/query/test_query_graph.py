"""Tests for the query model, parser, and query library."""

import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidQueryError, QueryParseError
from repro.query import catalog_queries as cq
from repro.query.generator import random_connected_query
from repro.query.parser import format_query, parse_query
from repro.query.query_graph import QueryEdge, QueryGraph


class TestQueryGraph:
    def test_vertices_in_first_mention_order(self):
        q = QueryGraph([("a1", "a2"), ("a2", "a3")])
        assert q.vertices == ("a1", "a2", "a3")

    def test_requires_edges(self):
        with pytest.raises(InvalidQueryError):
            QueryGraph([])

    def test_rejects_self_loops(self):
        with pytest.raises(InvalidQueryError):
            QueryGraph([("a1", "a1")])

    def test_deduplicates_identical_edges(self):
        q = QueryGraph([("a1", "a2"), ("a1", "a2")])
        assert q.num_edges == 1

    def test_keeps_reciprocal_edges(self):
        q = QueryGraph([("a1", "a2"), ("a2", "a1")])
        assert q.num_edges == 2

    def test_neighbors_and_degree(self):
        q = cq.diamond_x()
        assert q.neighbors("a2") == {"a1", "a3", "a4"}
        assert q.degree("a2") == 3

    def test_is_connected(self):
        assert cq.triangle().is_connected()

    def test_is_acyclic(self):
        assert cq.q11().is_acyclic()
        assert not cq.triangle().is_acyclic()
        assert not cq.q12().is_acyclic()

    def test_is_clique(self):
        assert cq.q5().is_clique()
        assert cq.q7().is_clique()
        assert not cq.diamond_x().is_clique()

    def test_project_induced(self):
        q = cq.diamond_x()
        sub = q.project(["a1", "a2", "a3"])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # the triangle a1,a2,a3

    def test_project_unknown_vertex(self):
        with pytest.raises(InvalidQueryError):
            cq.triangle().project(["a1", "zz"])

    def test_project_empty_edges_raises(self):
        q = cq.q11()
        with pytest.raises(InvalidQueryError):
            q.project(["a1", "a5"])  # no edge between them

    def test_connected_projection_exists(self):
        q = cq.q8()
        assert q.connected_projection_exists(["a1", "a2", "a3"])
        assert not q.connected_projection_exists(["a1", "a4"])

    def test_edges_between(self):
        q = cq.q6()
        assert len(q.edges_between("a1", "a2")) == 2  # reciprocal pair

    def test_equality_and_hash(self):
        assert cq.triangle() == cq.triangle()
        assert hash(cq.triangle()) == hash(cq.triangle())
        assert cq.triangle() != cq.q2()

    def test_relabel_edges(self):
        q = cq.triangle().relabel_edges({("a1", "a2"): 7})
        labels = {(e.src, e.dst): e.label for e in q.edges}
        assert labels[("a1", "a2")] == 7
        assert labels[("a2", "a3")] is None

    def test_with_random_edge_labels(self):
        q = cq.diamond_x().with_random_edge_labels(3, seed=1)
        assert all(e.label in (0, 1, 2) for e in q.edges)

    def test_rename_vertices(self):
        q = cq.triangle().rename_vertices({"a1": "x", "a2": "y", "a3": "z"})
        assert set(q.vertices) == {"x", "y", "z"}
        assert q.num_edges == 3

    def test_query_edge_other(self):
        e = QueryEdge("a1", "a2")
        assert e.other("a1") == "a2"
        assert e.other("a2") == "a1"
        with pytest.raises(KeyError):
            e.other("a3")


random_queries = st.builds(
    random_connected_query,
    num_vertices=st.integers(min_value=2, max_value=6),
    avg_degree=st.floats(min_value=1.5, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_edge_labels=st.integers(min_value=1, max_value=2),
    num_vertex_labels=st.integers(min_value=1, max_value=2),
)


def unmemoised_hash(q: QueryGraph) -> int:
    """The hash before it was memoised, recomputed from the edges."""
    edges = frozenset((e.src, e.dst, e.label) for e in q.edges)
    return hash((edges, frozenset(q.vertex_labels.items())))


class TestHashAndEquality:
    """``hash`` and ``==`` are memoised / short-circuited; they must still
    mean structural equality."""

    @settings(max_examples=60, deadline=None)
    @given(random_queries, st.data())
    def test_hash_and_eq_agree_with_structural_equality(self, q, data):
        renaming = dict(zip(q.vertices, data.draw(st.permutations(q.vertices))))
        family = [q, q.rename_vertices(renaming), q.rename_vertices({})]
        for k in range(2, q.num_vertices + 1):
            for subset in combinations(q.vertices, k):
                if q.connected_projection_exists(subset):
                    family.append(q.project(subset))
        for a in family:
            assert hash(a) == unmemoised_hash(a)
            for b in family:
                assert (a == b) == a.structurally_equal(b)
                if a == b:
                    assert hash(a) == hash(b)

    @settings(max_examples=30, deadline=None)
    @given(random_queries)
    def test_name_is_not_part_of_the_hash(self, q):
        before = hash(q)
        copy = QueryGraph(q.edges, vertex_labels=q.vertex_labels, name="other")
        q.name = "renamed"
        assert hash(q) == before == hash(copy)
        assert q == copy

    @settings(max_examples=30, deadline=None)
    @given(random_queries)
    def test_projection_onto_every_vertex_is_the_query(self, q):
        full = q.project(q.vertices)
        assert full == q and hash(full) == hash(q)

    def test_pickled_copy_rehashes(self):
        q = cq.q8()
        hash(q)
        copy = pickle.loads(pickle.dumps(q))
        assert "_hash" not in copy.__dict__
        assert copy == q and hash(copy) == hash(q)


class TestParser:
    def test_parse_triangle(self):
        q = parse_query("(a1)-->(a2), (a2)-->(a3), (a1)-->(a3)")
        assert q.num_vertices == 3
        assert q.num_edges == 3

    def test_parse_reverse_arrow(self):
        q = parse_query("(a1)<--(a2)")
        assert q.edges[0].src == "a2"
        assert q.edges[0].dst == "a1"

    def test_parse_labels(self):
        q = parse_query("(a1:0)-[2]->(a2:1)")
        assert q.vertex_label("a1") == 0
        assert q.vertex_label("a2") == 1
        assert q.edges[0].label == 2

    def test_parse_rejects_undirected(self):
        with pytest.raises(QueryParseError):
            parse_query("(a1)--(a2)")

    def test_parse_rejects_bidirectional(self):
        with pytest.raises(QueryParseError):
            parse_query("(a1)<-->(a2)")

    def test_parse_rejects_garbage(self):
        with pytest.raises(QueryParseError):
            parse_query("a1 -> a2")

    def test_parse_rejects_empty(self):
        with pytest.raises(QueryParseError):
            parse_query("   ")

    def test_conflicting_vertex_labels(self):
        with pytest.raises(QueryParseError):
            parse_query("(a1:0)-->(a2), (a1:1)-->(a3)")

    def test_format_roundtrip(self):
        q = parse_query("(a1:0)-[2]->(a2:1), (a2:1)-->(a3)")
        again = parse_query(format_query(q))
        assert again.edge_key_set() == q.edge_key_set()
        assert again.vertex_labels == q.vertex_labels


class TestCatalogQueries:
    def test_all_benchmark_queries_valid(self):
        for name, query in cq.all_benchmark_queries().items():
            assert query.is_connected(), name
            assert query.num_vertices >= 3
            assert query.num_edges >= 2

    def test_query_sizes_match_paper(self):
        assert cq.q1().num_vertices == 3
        assert cq.q5().num_vertices == 4 and cq.q5().num_edges == 6
        assert cq.q7().num_vertices == 5 and cq.q7().num_edges == 10
        assert cq.q12().num_vertices == 6 and cq.q12().num_edges == 6
        assert cq.q14().num_vertices == 7 and cq.q14().num_edges == 21

    def test_diamond_x_shape(self):
        q = cq.diamond_x()
        assert q.num_vertices == 4
        assert q.num_edges == 5

    def test_q8_is_two_triangles_sharing_a3(self):
        q = cq.q8()
        left = q.project(["a1", "a2", "a3"])
        right = q.project(["a3", "a4", "a5"])
        assert left.num_edges == 3
        assert right.num_edges == 3

    def test_get_by_name(self):
        assert cq.get("Q3").name == "Q3"
        assert cq.get("diamond-X").name == "diamond-X"
        with pytest.raises(KeyError):
            cq.get("Q99")

    def test_registry_returns_fresh_objects(self):
        a = cq.get("Q5")
        b = cq.get("Q5")
        assert a == b
        assert a is not b
