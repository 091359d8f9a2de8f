"""The plan-regression guard suite.

The optimizer's choices depend on the cost constants, the catalogue
sampling, and the DP itself — all of which the self-tuning loop now touches.
This module pins the optimizer's decisions for a canned workload (the repo's
benchmark query shapes over deterministic generated graphs) in a committed
baseline file, so any change that silently flips a join order, swaps an
operator, or shifts an estimated cost by an order of magnitude fails a test
with a readable diff instead of shipping.

A plan's *signature* is deliberately coarser than full structural equality:

* ``join_order`` — the output vertex order of the root operator (the QVO for
  WCO plans; probe-side-then-build-side order for hash-join plans),
* ``operators`` — the post-order operator kinds with their inputs
  (``scan``, ``extend[2->c]``, ``hashjoin[b,c]``),
* ``plan_type`` — ``wco`` / ``bj`` / ``hybrid``,
* ``cost_bucket`` — ``floor(log2(estimated_cost))``, so only order-of-
  magnitude cost-model shifts (a mis-weighted constant, a broken estimator)
  trip the guard, not sampling jitter.

Workload graphs come from the deterministic generators (seeded), catalogue
sampling is seeded, and the DP tie-breaks deterministically, so the suite is
reproducible across machines; ``repro plans --rebaseline`` records
intentional changes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.planner.plan import ExtendNode, HashJoinNode, Plan, ScanNode

BASELINE_VERSION = 1

#: Where the committed baseline lives, relative to the repo root (the CLI and
#: CI run from there; tests resolve it from their own location instead).
DEFAULT_BASELINE_PATH = os.path.join("tests", "baselines", "plan_regression.json")

#: Query shapes under guard: a spread of the paper's benchmark shapes —
#: cyclic (triangle, 4-cycle, 6-cycle), dense (4-clique), hybrid-prone
#: (diamond-X, bowtie, diamond+triangle), and acyclic (Q11) — so WCO-only,
#: binary-join, and hybrid plan spaces are all pinned.
DEFAULT_QUERIES: Tuple[str, ...] = ("Q1", "Q2", "Q3", "Q5", "Q8", "Q10", "Q11", "Q12")

#: ``vectorized`` plans the query to completion; ``vectorized@<limit>`` plans
#: it with ``output_limit=<limit>``, pinning the row-limited decisions (a
#: hybrid plan may lose to a WCO plan under a limit).  A plan does not depend
#: on its executor, so the ``vectorized`` prefix only names the baseline's
#: cases.
DEFAULT_MODES: Tuple[str, ...] = ("vectorized", "vectorized@100")


def _default_graphs() -> "Dict[str, Callable[[], object]]":
    from repro.graph.generators import clustered_social, erdos_renyi

    return {
        "er-150": lambda: erdos_renyi(150, 1200, seed=7, name="er-150"),
        "social-200": lambda: clustered_social(
            200, avg_degree=7, clustering=0.35, seed=11, name="social-200"
        ),
    }


# --------------------------------------------------------------------------- #
# signatures
# --------------------------------------------------------------------------- #
def _operator_codes(plan: Plan) -> List[str]:
    codes: List[str] = []
    for node in plan.root.iter_nodes():
        if isinstance(node, ScanNode):
            codes.append(f"scan[{node.edge.src}->{node.edge.dst}]")
        elif isinstance(node, ExtendNode):
            codes.append(f"extend[{len(node.descriptors)}->{node.to_vertex}]")
        elif isinstance(node, HashJoinNode):
            codes.append(f"hashjoin[{','.join(sorted(node.join_vertices))}]")
        else:
            codes.append(type(node).__name__.lower())
    return codes


def cost_bucket(cost: float) -> Optional[int]:
    """Log2 bucket of an estimated cost; None for NaN/non-positive costs."""
    if cost != cost or cost <= 0.0:
        return None
    return int(math.floor(math.log2(max(cost, 1.0))))


def plan_signature(plan: Plan) -> dict:
    """The baseline-comparable signature of one optimizer decision."""
    return {
        "join_order": list(plan.root.out_vertices),
        "operators": _operator_codes(plan),
        "plan_type": plan.plan_type,
        "cost_bucket": cost_bucket(plan.estimated_cost),
    }


# --------------------------------------------------------------------------- #
# diffs
# --------------------------------------------------------------------------- #
@dataclass
class PlanDiff:
    """One divergence between the live planner and the baseline."""

    case_id: str
    kind: str  # "changed" | "missing_baseline" | "missing_live"
    field: Optional[str] = None
    expected: Optional[object] = None
    actual: Optional[object] = None

    def render(self) -> str:
        if self.kind == "missing_baseline":
            return (
                f"{self.case_id}: not in baseline (new case?); run "
                f"`repro plans --rebaseline` to record it"
            )
        if self.kind == "missing_live":
            return f"{self.case_id}: in baseline but not produced by the live suite"
        return (
            f"{self.case_id}: {self.field} changed\n"
            f"    baseline: {self.expected!r}\n"
            f"    live:     {self.actual!r}"
        )


def format_diffs(diffs: Sequence[PlanDiff]) -> str:
    if not diffs:
        return "plan regression: no differences"
    lines = [f"plan regression: {len(diffs)} difference(s) against baseline"]
    lines += ["  " + d.render().replace("\n", "\n  ") for d in diffs]
    lines.append(
        "If these plan changes are intentional, refresh the baseline with "
        "`repro plans --rebaseline` and commit the result."
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# the suite
# --------------------------------------------------------------------------- #
class PlanRegressionSuite:
    """Plans the canned workload and diffs the signatures against a baseline."""

    def __init__(
        self,
        queries: Sequence[str] = DEFAULT_QUERIES,
        modes: Sequence[str] = DEFAULT_MODES,
        graphs: Optional[Dict[str, Callable[[], object]]] = None,
        h: int = 3,
        z: int = 150,
        seed: int = 7,
    ) -> None:
        self.queries = tuple(queries)
        self.modes = tuple(modes)
        self.graph_factories = graphs if graphs is not None else _default_graphs()
        self.h = h
        self.z = z
        self.seed = seed

    def case_ids(self) -> List[str]:
        return [
            f"{graph}/{query}/{mode}"
            for graph in self.graph_factories
            for query in self.queries
            for mode in self.modes
        ]

    def run(self) -> Dict[str, dict]:
        """Plan every case and return ``{case_id: signature}``."""
        from repro.api import GraphflowDB
        from repro.query.catalog_queries import get as get_query

        query_graphs = [get_query(name) for name in self.queries]
        signatures: Dict[str, dict] = {}
        for graph_name, factory in self.graph_factories.items():
            db = GraphflowDB(factory())
            db.build_catalogue(h=self.h, z=self.z, seed=self.seed, queries=query_graphs)
            for query_name, query in zip(self.queries, query_graphs):
                for mode in self.modes:
                    limit = mode.partition("@")[2]
                    plan = db.plan(query, output_limit=int(limit) if limit else None)
                    signatures[f"{graph_name}/{query_name}/{mode}"] = plan_signature(plan)
        return signatures

    # ------------------------------------------------------------------ #
    def check(self, baseline: Dict[str, dict]) -> List[PlanDiff]:
        """Diff live signatures against a loaded baseline's ``entries``."""
        live = self.run()
        diffs: List[PlanDiff] = []
        for case_id, signature in live.items():
            expected = baseline.get(case_id)
            if expected is None:
                diffs.append(PlanDiff(case_id=case_id, kind="missing_baseline"))
                continue
            for field in ("join_order", "operators", "plan_type", "cost_bucket"):
                if signature.get(field) != expected.get(field):
                    diffs.append(
                        PlanDiff(
                            case_id=case_id,
                            kind="changed",
                            field=field,
                            expected=expected.get(field),
                            actual=signature.get(field),
                        )
                    )
        for case_id in baseline:
            if case_id not in live:
                diffs.append(PlanDiff(case_id=case_id, kind="missing_live"))
        return diffs

    def check_path(self, path: str) -> List[PlanDiff]:
        return self.check(self.load_baseline(path))

    # ------------------------------------------------------------------ #
    @staticmethod
    def load_baseline(path: str) -> Dict[str, dict]:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        version = data.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(f"unsupported plan-regression baseline version: {version!r}")
        return data["entries"]

    def rebaseline(self, path: str) -> Dict[str, dict]:
        """Write the live signatures as the new baseline and return them."""
        entries = self.run()
        payload = {
            "version": BASELINE_VERSION,
            "generator": "repro plans --rebaseline",
            "h": self.h,
            "z": self.z,
            "seed": self.seed,
            "entries": {case_id: entries[case_id] for case_id in sorted(entries)},
        }
        parent = os.path.dirname(os.path.abspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        return entries
