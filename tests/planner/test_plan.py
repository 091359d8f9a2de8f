"""Tests for plan trees, descriptors, and WCO plan construction."""

import pytest

from repro.errors import PlanError
from repro.graph.graph import Direction
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import (
    ExtendNode,
    HashJoinNode,
    Plan,
    ScanNode,
    make_extend,
    make_hash_join,
    make_scan,
    wco_plan_from_order,
)
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryEdge


class TestDescriptors:
    def test_forward_descriptor(self):
        e = QueryEdge("a1", "a2", 3)
        d = AdjListDescriptor.for_extension(e, "a2")
        assert d.from_vertex == "a1"
        assert d.direction is Direction.FORWARD
        assert d.edge_label == 3

    def test_backward_descriptor(self):
        e = QueryEdge("a1", "a2")
        d = AdjListDescriptor.for_extension(e, "a1")
        assert d.from_vertex == "a2"
        assert d.direction is Direction.BACKWARD

    def test_unrelated_vertex_raises(self):
        e = QueryEdge("a1", "a2")
        with pytest.raises(ValueError):
            AdjListDescriptor.for_extension(e, "a3")

    def test_repr_direction_arrows(self):
        e = QueryEdge("a1", "a2")
        assert "->" in repr(AdjListDescriptor.for_extension(e, "a2"))
        assert "<-" in repr(AdjListDescriptor.for_extension(e, "a1"))


class TestPlanConstruction:
    def test_scan_orders(self):
        q = cq.triangle()
        edge = q.edges[0]
        fwd = make_scan(q, edge)
        rev = make_scan(q, edge, reverse=True)
        assert fwd.out_vertices == (edge.src, edge.dst)
        assert rev.out_vertices == (edge.dst, edge.src)

    def test_extend_descriptor_derivation(self):
        q = cq.triangle()
        scan = make_scan(q, q.edges_between("a1", "a2")[0])
        node = make_extend(q, scan, "a3")
        froms = {d.from_vertex for d in node.descriptors}
        assert froms == {"a1", "a2"}
        assert len(node.descriptors) == 2

    def test_extend_requires_connecting_edge(self):
        q = cq.q11()
        scan = make_scan(q, q.edges_between("a1", "a2")[0])
        with pytest.raises(PlanError):
            make_extend(q, scan, "a5")  # a5 only touches a4

    def test_hash_join_requires_overlap(self):
        q = cq.q8()
        left = make_scan(q, q.edges_between("a1", "a2")[0])
        right = make_scan(q, q.edges_between("a4", "a5")[0])
        with pytest.raises(PlanError):
            make_hash_join(q, left, right)

    def test_hash_join_output_order(self):
        q = cq.q8()
        left_plan = wco_plan_from_order(q.project(["a1", "a2", "a3"]), ("a1", "a2", "a3"))
        right_plan = wco_plan_from_order(q.project(["a3", "a4", "a5"]), ("a3", "a4", "a5"))
        join = make_hash_join(q, left_plan.root, right_plan.root)
        assert set(join.out_vertices) == set(q.vertices)
        assert join.join_vertices == ("a3",)

    def test_wco_plan_from_order_valid(self):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        assert plan.is_wco
        assert plan.qvo() == ("a1", "a2", "a3", "a4")
        assert plan.num_extend_operators == 2

    def test_wco_plan_invalid_first_pair(self):
        q = cq.diamond_x()
        with pytest.raises(PlanError):
            wco_plan_from_order(q, ("a1", "a4", "a2", "a3"))  # a1,a4 not an edge

    def test_wco_plan_not_a_permutation(self):
        with pytest.raises(PlanError):
            wco_plan_from_order(cq.triangle(), ("a1", "a2"))

    def test_plan_requires_full_coverage(self):
        q = cq.triangle()
        scan = make_scan(q, q.edges[0])
        with pytest.raises(PlanError):
            Plan(query=q, root=scan)


class TestPlanProperties:
    def test_plan_types(self):
        q = cq.diamond_x()
        wco = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        assert wco.plan_type == "wco"
        left = wco_plan_from_order(q.project(["a1", "a2", "a3"]), ("a1", "a2", "a3"))
        right = wco_plan_from_order(q.project(["a2", "a3", "a4"]), ("a2", "a3", "a4"))
        hybrid = Plan(query=q, root=make_hash_join(q, left.root, right.root))
        assert hybrid.plan_type == "hybrid"
        assert hybrid.num_hash_joins == 1
        assert hybrid.qvo() is None

    def test_bj_plan_type(self):
        q = cq.q2()  # 4-cycle: two 2-paths joined is a BJ plan
        left = q.project(["a1", "a2", "a3"])
        right = q.project(["a3", "a4", "a1"])
        left_plan = wco_plan_from_order(left, ("a1", "a2", "a3"))
        right_plan = wco_plan_from_order(right, ("a3", "a4", "a1"))
        plan = Plan(query=q, root=make_hash_join(q, left_plan.root, right_plan.root))
        # Each side is a chain of single-descriptor extends -> binary-join-only.
        assert plan.is_binary_join_only
        assert plan.plan_type == "bj"

    def test_signature_distinguishes_orderings(self):
        q = cq.triangle()
        a = wco_plan_from_order(q, ("a1", "a2", "a3"))
        b = wco_plan_from_order(q, ("a2", "a3", "a1"))
        assert a.signature() != b.signature()
        assert a.signature() == wco_plan_from_order(q, ("a1", "a2", "a3")).signature()

    def test_signature_of_parallel_labelled_and_unlabelled_edges(self):
        """Fails at the parent: sorting (a1, fwd, None) against (a1, fwd, 1)
        raised TypeError."""
        from dataclasses import replace

        from repro.query.parser import parse_query

        q = parse_query("(a1)-->(a2), (a2)-->(a3), (a1)-->(a3), (a1)-[1]->(a3)")
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        signature = plan.signature()
        assert hash(signature) == hash(plan.signature())
        root = plan.root
        flipped = replace(root, descriptors=tuple(reversed(root.descriptors)))
        assert flipped.descriptors != root.descriptors
        assert flipped.signature() == root.signature()

    def test_describe_mentions_operators(self):
        q = cq.diamond_x()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3", "a4"))
        text = plan.describe()
        assert "SCAN" in text
        assert "EXTEND/INTERSECT" in text

    def test_iter_nodes_postorder(self):
        q = cq.triangle()
        plan = wco_plan_from_order(q, ("a1", "a2", "a3"))
        nodes = list(plan.root.iter_nodes())
        assert isinstance(nodes[0], ScanNode)
        assert isinstance(nodes[-1], ExtendNode)
        assert plan.root.num_operators == 2

    def test_extend_node_validation(self):
        q = cq.triangle()
        scan = make_scan(q, q.edges[0])
        good = make_extend(q, scan, "a3")
        with pytest.raises(PlanError):
            ExtendNode(
                sub_query=good.sub_query,
                out_vertices=good.out_vertices,
                child=scan,
                to_vertex="a1",  # already matched
                descriptors=good.descriptors,
            )
