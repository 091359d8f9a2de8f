"""Plan trees.

A plan in the full plan space (Section 4.1) is a rooted tree whose

* leaf nodes are ``SCAN`` operators matching a single query edge,
* single-child internal nodes are ``EXTEND/INTERSECT`` (E/I) operators that
  extend partial matches by one query vertex,
* two-child internal nodes are ``HASH-JOIN`` operators joining the matches of
  two sub-queries.

Every node is labeled with the sub-query it computes, and the *projection
constraint* requires that sub-query to be the induced projection of the full
query onto the node's vertex set.

WCO plans are plans with no HASH-JOIN; BJ plans have no E/I; hybrid plans mix
both.  At execution time a chain of two or more E/I operators may be replaced
by one :class:`AdaptiveNode` (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.planner.descriptors import AdjListDescriptor
from repro.query.query_graph import QueryEdge, QueryGraph


@dataclass
class PlanNode:
    """Base class of all plan nodes."""

    sub_query: QueryGraph
    out_vertices: Tuple[str, ...]

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    # ------------------------------------------------------------------ #
    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Post-order traversal of the plan tree."""
        for child in self.children():
            yield from child.iter_nodes()
        yield self

    @property
    def num_operators(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def describe(self, indent: int = 0) -> str:
        """Human-readable, indented rendering of the plan tree."""
        pad = "  " * indent
        lines = [pad + self._describe_line()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_line(self) -> str:  # pragma: no cover - overridden
        return f"{type(self).__name__}({self.out_vertices})"

    def display_name(self) -> str:
        """The operator name the executors use as the per-operator profile
        key.  Plan annotation (:func:`repro.planner.cost_model.
        annotate_operator_estimates`) and the executors must agree on this
        string so trace rows can join actuals with estimates."""
        raise NotImplementedError

    def signature(self) -> Tuple:
        """Hashable structural signature used to deduplicate plans."""
        raise NotImplementedError


@dataclass
class ScanNode(PlanNode):
    """Scans all data edges matching a single query edge and emits 2-matches.

    ``out_vertices`` is either ``(edge.src, edge.dst)`` or the reverse, which
    lets a WCO plan start its query-vertex ordering at either endpoint.
    """

    edge: QueryEdge = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.edge is None:
            raise PlanError("ScanNode requires a query edge")
        if set(self.out_vertices) != {self.edge.src, self.edge.dst}:
            raise PlanError("ScanNode out_vertices must be the edge endpoints")

    def _describe_line(self) -> str:
        return f"SCAN {self.edge!r} -> {self.out_vertices}"

    def display_name(self) -> str:
        return f"SCAN[{self.edge!r}]"

    def signature(self) -> Tuple:
        return ("scan", self.edge.src, self.edge.dst, self.edge.label, self.out_vertices)


def _descriptor_order(d: AdjListDescriptor) -> Tuple:
    """Sort key for the descriptors of one E/I.  Keyed, not the dataclass
    order: parallel query edges give two descriptors on one vertex and
    direction, and neither Direction nor a ``None`` label compares."""
    return (d.from_vertex, d.direction.value, d.edge_label is not None, d.edge_label)


@dataclass
class ExtendNode(PlanNode):
    """EXTEND/INTERSECT: extends each input (k-1)-match by one query vertex by
    intersecting the adjacency lists named by its descriptors."""

    child: PlanNode = None  # type: ignore[assignment]
    to_vertex: str = ""
    descriptors: Tuple[AdjListDescriptor, ...] = ()
    to_vertex_label: Optional[int] = None

    def __post_init__(self) -> None:
        if self.child is None or not self.to_vertex or not self.descriptors:
            raise PlanError("ExtendNode requires a child, a target vertex, and descriptors")
        if self.to_vertex in self.child.out_vertices:
            raise PlanError(f"{self.to_vertex} is already matched by the child")
        for d in self.descriptors:
            if d.from_vertex not in self.child.out_vertices:
                raise PlanError(
                    f"descriptor {d} references {d.from_vertex}, which the child does not produce"
                )
        expected = tuple(self.child.out_vertices) + (self.to_vertex,)
        if self.out_vertices != expected:
            raise PlanError("ExtendNode out_vertices must append to_vertex to the child's order")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def _describe_line(self) -> str:
        descs = ", ".join(repr(d) for d in self.descriptors)
        return f"EXTEND/INTERSECT -> {self.to_vertex} via [{descs}]"

    def display_name(self) -> str:
        return f"E/I[->{self.to_vertex}]"

    def signature(self) -> Tuple:
        return (
            "extend",
            self.to_vertex,
            tuple(
                (d.from_vertex, d.direction.value, d.edge_label)
                for d in sorted(self.descriptors, key=_descriptor_order)
            ),
            self.child.signature(),
        )


@dataclass
class HashJoinNode(PlanNode):
    """Classic hash join: builds a table on the matches of ``build`` keyed by
    the shared query vertices and probes it with the matches of ``probe``."""

    build: PlanNode = None  # type: ignore[assignment]
    probe: PlanNode = None  # type: ignore[assignment]
    join_vertices: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.build is None or self.probe is None:
            raise PlanError("HashJoinNode requires two children")
        shared = set(self.build.out_vertices) & set(self.probe.out_vertices)
        if not shared:
            raise PlanError("hash join children must share at least one query vertex")
        if set(self.join_vertices) != shared:
            raise PlanError("join_vertices must be exactly the shared query vertices")
        expected = tuple(self.probe.out_vertices) + tuple(
            v for v in self.build.out_vertices if v not in set(self.probe.out_vertices)
        )
        if self.out_vertices != expected:
            raise PlanError(
                "HashJoinNode out_vertices must be probe vertices followed by build-only vertices"
            )

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.build, self.probe)

    def _describe_line(self) -> str:
        return f"HASH-JOIN on {self.join_vertices}"

    def display_name(self) -> str:
        return f"HASH-JOIN[{','.join(self.join_vertices)}]"

    def signature(self) -> Tuple:
        return ("hashjoin", tuple(sorted(self.join_vertices)), self.build.signature(), self.probe.signature())


@dataclass(frozen=True)
class AdaptiveTail:
    """One candidate ordering of an :class:`AdaptiveNode`: the E/I chain that
    extends the node's child in that order, and the two constants of its
    re-costed i-cost ``slope * d + intercept``, ``d`` being the summed sizes
    of the adjacency lists its first E/I reads for a given input row."""

    root: ExtendNode
    slope: float
    intercept: float


@dataclass
class AdaptiveNode(PlanNode):
    """Adaptive E/I (Section 6): stands where a chain of two or more E/I
    operators stood above ``child`` and extends every input row by whichever
    of ``tails`` is cheapest for that row's actual adjacency-list sizes.
    ``out_vertices`` is the replaced chain's order, whatever the tail."""

    child: PlanNode = None  # type: ignore[assignment]
    tails: Tuple[AdaptiveTail, ...] = ()

    def __post_init__(self) -> None:
        if self.child is None or not self.tails:
            raise PlanError("AdaptiveNode requires a child and at least one tail")
        width = len(self.child.out_vertices)
        for tail in self.tails:
            order = tail.root.out_vertices
            if order[:width] != self.child.out_vertices or set(order) != set(self.out_vertices):
                raise PlanError(f"tail {order} does not extend the child to {self.out_vertices}")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def tail_chain(self, tail: AdaptiveTail) -> List[ExtendNode]:
        """The E/I nodes of ``tail`` from the one above ``child`` upwards."""
        chain = [tail.root]
        while len(chain[-1].out_vertices) > len(self.child.out_vertices) + 1:
            chain.append(chain[-1].child)
        return chain[::-1]

    def _describe_line(self) -> str:
        return f"{self.display_name()} over {len(self.tails)} orderings"

    def display_name(self) -> str:
        return f"ADAPTIVE-E/I[->{','.join(self.out_vertices[len(self.child.out_vertices):])}]"

    def signature(self) -> Tuple:
        return ("adaptive", tuple(t.root.out_vertices for t in self.tails), self.child.signature())


# --------------------------------------------------------------------------- #
# The Plan wrapper
# --------------------------------------------------------------------------- #
@dataclass
class Plan:
    """A complete plan for a query, wrapping the root node with metadata."""

    query: QueryGraph
    root: PlanNode
    estimated_cost: float = float("nan")
    estimated_cardinality: float = float("nan")
    label: str = ""
    #: Estimated output cardinality per operator ``display_name()``, annotated
    #: at optimization time so cached plans carry their estimates and every
    #: execution can compute per-operator q-error without re-running the
    #: catalogue.  None for hand-built plans.
    operator_estimates: Optional[dict] = None
    #: Epoch of the catalogue this plan was costed against (None for
    #: hand-built plans).  The invalidation-ordering tests use it to assert a
    #: served plan is never a torn mix of old plan + refreshed catalogue.
    catalogue_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if set(self.root.out_vertices) != set(self.query.vertices):
            raise PlanError("plan root must produce every query vertex")

    # ------------------------------------------------------------------ #
    @property
    def operators(self) -> List[PlanNode]:
        return list(self.root.iter_nodes())

    @property
    def num_extend_operators(self) -> int:
        return sum(1 for n in self.operators if isinstance(n, ExtendNode))

    @property
    def num_hash_joins(self) -> int:
        return sum(1 for n in self.operators if isinstance(n, HashJoinNode))

    @property
    def adaptive(self) -> bool:
        """True for the output of :func:`repro.executor.adaptive.adapt`."""
        return isinstance(self.root, AdaptiveNode)

    @property
    def is_wco(self) -> bool:
        """True for pure worst-case-optimal plans (no binary joins)."""
        return self.num_hash_joins == 0

    @property
    def is_binary_join_only(self) -> bool:
        """True when the plan never intersects more than one list at a time
        and contains at least one hash join."""
        multiway = any(
            isinstance(n, ExtendNode) and len(n.descriptors) > 1 for n in self.operators
        )
        return self.num_hash_joins > 0 and not multiway

    @property
    def is_hybrid(self) -> bool:
        return self.num_hash_joins > 0 and not self.is_binary_join_only

    @property
    def plan_type(self) -> str:
        """"wco", "bj", or "hybrid" — the categories of Figure 7."""
        if self.is_wco:
            return "wco"
        if self.is_binary_join_only:
            return "bj"
        return "hybrid"

    def qvo(self) -> Optional[Tuple[str, ...]]:
        """The query-vertex ordering when the plan is a pure WCO chain."""
        if not self.is_wco:
            return None
        return tuple(self.root.out_vertices)

    def signature(self) -> Tuple:
        return self.root.signature()

    def describe(self) -> str:
        header = f"Plan[{self.plan_type}] for {self.query.name}"
        if self.label:
            header += f" ({self.label})"
        if self.estimated_cost == self.estimated_cost:  # not NaN
            header += f" cost={self.estimated_cost:.1f}"
        return header + "\n" + self.root.describe(1)

    def __repr__(self) -> str:
        return f"Plan({self.query.name!r}, type={self.plan_type}, label={self.label!r})"


# --------------------------------------------------------------------------- #
# Construction helpers
# --------------------------------------------------------------------------- #
def make_scan(
    query: QueryGraph,
    edge: QueryEdge,
    reverse: bool = False,
    sub_query: Optional[QueryGraph] = None,
) -> ScanNode:
    """Create the SCAN leaf for ``edge``; ``reverse`` emits (dst, src) tuples.
    A caller that already holds the projection of ``query`` onto the edge's
    endpoints passes it as ``sub_query``."""
    order = (edge.dst, edge.src) if reverse else (edge.src, edge.dst)
    if sub_query is None:
        sub_query = query.project([edge.src, edge.dst])
    return ScanNode(sub_query=sub_query, out_vertices=order, edge=edge)


def extension_descriptors(
    query: QueryGraph, prior: Collection[str], to_vertex: str
) -> Tuple[AdjListDescriptor, ...]:
    """The descriptors of the E/I that extends matches of the ``prior``
    vertices to ``to_vertex``: one per query edge between them (the
    projection constraint keeps all of them), in a fixed order."""
    return tuple(
        sorted(
            (
                AdjListDescriptor.for_extension(e, to_vertex)
                for e in query.edges_touching(to_vertex)
                if e.other(to_vertex) in prior
            ),
            key=_descriptor_order,
        )
    )


def make_extend(
    query: QueryGraph,
    child: PlanNode,
    to_vertex: str,
    sub_query: Optional[QueryGraph] = None,
) -> ExtendNode:
    """Create the E/I node extending ``child`` to ``to_vertex``, with the
    :func:`extension_descriptors` of the child's vertices.  A caller that
    already holds the projection of ``query`` onto the node's vertices passes
    it as ``sub_query``."""
    prior = set(child.out_vertices)
    descriptors = extension_descriptors(query, prior, to_vertex)
    if not descriptors:
        raise PlanError(
            f"cannot extend to {to_vertex}: no query edge connects it to {sorted(prior)}"
        )
    if sub_query is None:
        sub_query = query.project(list(child.out_vertices) + [to_vertex])
    return ExtendNode(
        sub_query=sub_query,
        out_vertices=tuple(child.out_vertices) + (to_vertex,),
        child=child,
        to_vertex=to_vertex,
        descriptors=descriptors,
        to_vertex_label=query.vertex_label(to_vertex),
    )


def make_hash_join(
    query: QueryGraph,
    build: PlanNode,
    probe: PlanNode,
    sub_query: Optional[QueryGraph] = None,
) -> HashJoinNode:
    """Create a HASH-JOIN of two sub-plans on their shared query vertices.  A
    caller that already holds the projection of ``query`` onto their union
    passes it as ``sub_query``."""
    shared = tuple(sorted(set(build.out_vertices) & set(probe.out_vertices)))
    if not shared:
        raise PlanError("hash join children must overlap on at least one query vertex")
    all_vertices = list(probe.out_vertices) + [
        v for v in build.out_vertices if v not in set(probe.out_vertices)
    ]
    if sub_query is None:
        sub_query = query.project(all_vertices)
    return HashJoinNode(
        sub_query=sub_query,
        out_vertices=tuple(all_vertices),
        build=build,
        probe=probe,
        join_vertices=shared,
    )


def wco_plan_from_order(query: QueryGraph, order: Sequence[str], label: str = "") -> Plan:
    """Build the WCO plan corresponding to a query-vertex ordering.

    The first two vertices must share a query edge (the SCAN); every prefix of
    the ordering must induce a connected sub-query (Section 2).
    """
    order = tuple(order)
    if set(order) != set(query.vertices) or len(order) != query.num_vertices:
        raise PlanError(f"ordering {order} is not a permutation of the query vertices")
    first_edges = query.edges_between(order[0], order[1])
    if not first_edges:
        raise PlanError(f"the first two vertices of {order} do not share a query edge")
    edge = first_edges[0]
    reverse = edge.src != order[0]
    node: PlanNode = make_scan(query, edge, reverse=reverse)
    for k in range(2, len(order)):
        if not query.connected_projection_exists(order[: k + 1]):
            raise PlanError(f"prefix {order[:k+1]} is not connected")
        node = make_extend(query, node, order[k])
    return Plan(query=query, root=node, label=label or "wco:" + "".join(order))
