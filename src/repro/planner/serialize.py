"""Plan and query (de)serialization.

Plans produced by the optimizer are plain trees of SCAN, EXTEND/INTERSECT and
HASH-JOIN nodes (Section 4.1).  This module converts them to and from
JSON-compatible dictionaries so that

* chosen plans can be cached next to a dataset and replayed without
  re-optimizing (the paper's optimizer takes up to ~1.4s for large queries),
* experiment harnesses can log the exact plan that produced every measurement,
* plans can be rendered with external tooling via Graphviz DOT.

The dictionary format is stable and versioned (``FORMAT_VERSION``); round
trips preserve the plan tree exactly (including descriptor order and scan
direction), which the test suite checks structurally via ``Plan.signature``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.errors import PlanError
from repro.graph.graph import Direction
from repro.planner.descriptors import AdjListDescriptor
from repro.planner.plan import (
    AdaptiveNode,
    AdaptiveTail,
    ExtendNode,
    HashJoinNode,
    Plan,
    PlanNode,
    ScanNode,
    make_extend,
)
from repro.query.query_graph import QueryEdge, QueryGraph

FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# query graphs
# --------------------------------------------------------------------------- #
def query_to_dict(query: QueryGraph) -> Dict:
    """Encode a query graph as a JSON-compatible dictionary."""
    return {
        "name": query.name,
        "edges": [
            {"src": e.src, "dst": e.dst, "label": e.label} for e in query.edges
        ],
        "vertex_labels": dict(query.vertex_labels),
    }


def query_from_dict(data: Dict) -> QueryGraph:
    """Rebuild a query graph from :func:`query_to_dict` output."""
    edges = [QueryEdge(e["src"], e["dst"], e.get("label")) for e in data["edges"]]
    return QueryGraph(
        edges,
        vertex_labels=data.get("vertex_labels") or {},
        name=data.get("name", "query"),
    )


# --------------------------------------------------------------------------- #
# plan nodes
# --------------------------------------------------------------------------- #
def _descriptor_to_dict(descriptor: AdjListDescriptor) -> Dict:
    return {
        "from_vertex": descriptor.from_vertex,
        "direction": descriptor.direction.value,
        "edge_label": descriptor.edge_label,
    }


def _descriptor_from_dict(data: Dict) -> AdjListDescriptor:
    return AdjListDescriptor(
        from_vertex=data["from_vertex"],
        direction=Direction(data["direction"]),
        edge_label=data.get("edge_label"),
    )


def _node_to_dict(node: PlanNode) -> Dict:
    if isinstance(node, ScanNode):
        return {
            "type": "scan",
            "edge": {"src": node.edge.src, "dst": node.edge.dst, "label": node.edge.label},
            "out_vertices": list(node.out_vertices),
        }
    if isinstance(node, ExtendNode):
        return {
            "type": "extend",
            "to_vertex": node.to_vertex,
            "to_vertex_label": node.to_vertex_label,
            "descriptors": [_descriptor_to_dict(d) for d in node.descriptors],
            "out_vertices": list(node.out_vertices),
            "child": _node_to_dict(node.child),
        }
    if isinstance(node, HashJoinNode):
        return {
            "type": "hash_join",
            "join_vertices": list(node.join_vertices),
            "out_vertices": list(node.out_vertices),
            "build": _node_to_dict(node.build),
            "probe": _node_to_dict(node.probe),
        }
    if isinstance(node, AdaptiveNode):
        # A tail is its ordering and two constants; make_extend re-derives
        # the descriptors of every E/I in it from the query.
        return {
            "type": "adaptive",
            "out_vertices": list(node.out_vertices),
            "child": _node_to_dict(node.child),
            "tails": [
                {"order": list(t.root.out_vertices), "slope": t.slope, "intercept": t.intercept}
                for t in node.tails
            ],
        }
    raise PlanError(f"cannot serialize plan node of type {type(node).__name__}")


def _node_from_dict(data: Dict, query: QueryGraph) -> PlanNode:
    node_type = data.get("type")
    out_vertices = tuple(data["out_vertices"])
    if node_type == "scan":
        edge_data = data["edge"]
        edge = QueryEdge(edge_data["src"], edge_data["dst"], edge_data.get("label"))
        return ScanNode(
            sub_query=query.project([edge.src, edge.dst]),
            out_vertices=out_vertices,
            edge=edge,
        )
    if node_type == "extend":
        child = _node_from_dict(data["child"], query)
        descriptors = tuple(_descriptor_from_dict(d) for d in data["descriptors"])
        return ExtendNode(
            sub_query=query.project(out_vertices),
            out_vertices=out_vertices,
            child=child,
            to_vertex=data["to_vertex"],
            descriptors=descriptors,
            to_vertex_label=data.get("to_vertex_label"),
        )
    if node_type == "hash_join":
        build = _node_from_dict(data["build"], query)
        probe = _node_from_dict(data["probe"], query)
        return HashJoinNode(
            sub_query=query.project(out_vertices),
            out_vertices=out_vertices,
            build=build,
            probe=probe,
            join_vertices=tuple(data["join_vertices"]),
        )
    if node_type == "adaptive":
        child = _node_from_dict(data["child"], query)
        tails = []
        for tail in data["tails"]:
            root = child
            for to_vertex in tail["order"][len(child.out_vertices):]:
                root = make_extend(query, root, to_vertex)
            tails.append(AdaptiveTail(root, tail["slope"], tail["intercept"]))
        return AdaptiveNode(
            sub_query=query.project(out_vertices),
            out_vertices=out_vertices,
            child=child,
            tails=tuple(tails),
        )
    raise PlanError(f"unknown plan node type in serialized plan: {node_type!r}")


# --------------------------------------------------------------------------- #
# whole plans
# --------------------------------------------------------------------------- #
def plan_to_dict(plan: Plan) -> Dict:
    """Encode a plan (and its query) as a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "query": query_to_dict(plan.query),
        "root": _node_to_dict(plan.root),
        "estimated_cost": None if plan.estimated_cost != plan.estimated_cost else plan.estimated_cost,
        "estimated_cardinality": (
            None
            if plan.estimated_cardinality != plan.estimated_cardinality
            else plan.estimated_cardinality
        ),
        "label": plan.label,
    }


def plan_from_dict(data: Dict, query: Optional[QueryGraph] = None) -> Plan:
    """Rebuild a plan from :func:`plan_to_dict` output.

    Parameters
    ----------
    query:
        Optionally supply the query object to attach the plan to; when omitted
        the query embedded in the dictionary is reconstructed.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise PlanError(f"unsupported plan format version: {version!r}")
    if query is None:
        query = query_from_dict(data["query"])
    root = _node_from_dict(data["root"], query)
    cost = data.get("estimated_cost")
    cardinality = data.get("estimated_cardinality")
    return Plan(
        query=query,
        root=root,
        estimated_cost=float("nan") if cost is None else float(cost),
        estimated_cardinality=float("nan") if cardinality is None else float(cardinality),
        label=data.get("label", ""),
    )


def plan_to_json(plan: Plan, indent: Optional[int] = 2) -> str:
    """Serialize a plan to a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent)


def plan_from_json(text: str, query: Optional[QueryGraph] = None) -> Plan:
    """Deserialize a plan from a JSON string."""
    return plan_from_dict(json.loads(text), query=query)


def save_plan(plan: Plan, path: str) -> None:
    """Write a plan to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(plan_to_json(plan))


def load_plan(path: str, query: Optional[QueryGraph] = None) -> Plan:
    """Read a plan previously written by :func:`save_plan`."""
    with open(path, "r", encoding="utf-8") as handle:
        return plan_from_json(handle.read(), query=query)


# --------------------------------------------------------------------------- #
# Graphviz DOT rendering
# --------------------------------------------------------------------------- #
def _dot_label(node: PlanNode) -> str:
    if isinstance(node, ScanNode):
        return f"SCAN\\n{node.edge!r}"
    if isinstance(node, ExtendNode):
        descs = ", ".join(repr(d) for d in node.descriptors)
        return f"E/I -> {node.to_vertex}\\n[{descs}]"
    if isinstance(node, HashJoinNode):
        return "HASH-JOIN\\non " + ",".join(node.join_vertices)
    return node._describe_line()


def plan_to_dot(plan: Plan, graph_name: str = "plan") -> str:
    """Render a plan tree as a Graphviz DOT digraph.

    Child operators point at their parents (data flows upward, as in the
    paper's plan figures); the root is the node computing the full query.
    """
    lines: List[str] = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    ids: Dict[int, str] = {}
    for index, node in enumerate(plan.root.iter_nodes()):
        ids[id(node)] = f"n{index}"
        lines.append(f'  n{index} [label="{_dot_label(node)}"];')
    for node in plan.root.iter_nodes():
        for child in node.children():
            lines.append(f"  {ids[id(child)]} -> {ids[id(node)]};")
    lines.append("}")
    return "\n".join(lines)


def plans_equal(a: Plan, b: Plan) -> bool:
    """Structural equality of two plans (same tree, same descriptors)."""
    return a.signature() == b.signature() and a.query == b.query


__all__ = [
    "FORMAT_VERSION",
    "query_to_dict",
    "query_from_dict",
    "plan_to_dict",
    "plan_from_dict",
    "plan_to_json",
    "plan_from_json",
    "save_plan",
    "load_plan",
    "plan_to_dot",
    "plans_equal",
]
