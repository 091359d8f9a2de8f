"""Runners that regenerate every table and figure of the paper's evaluation.

Each function returns a list of row dictionaries (one per table row / figure
point); the benchmarks print them with
:func:`repro.experiments.harness.format_table`.  The structural *shape* of the
paper's results is what these runners reproduce: the datasets are the
scaled-down archetypes of :mod:`repro.datasets` (see DESIGN.md for the
substitution notes), so absolute numbers differ from the paper's.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cfl import CFLMatcher
from repro.baselines.emptyheaded import EmptyHeadedPlanner
from repro.baselines.naive_matcher import NaiveMatcher
from repro.baselines.postgres_estimator import IndependenceEstimator
from repro.catalogue.construction import build_catalogue
from repro.catalogue.estimation import estimate_cardinality
from repro.catalogue.qerror import q_error, qerror_distribution
from repro.errors import OptimizerError
from repro.executor.adaptive import execute_adaptive
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import execute_parallel
from repro.executor.pipeline import execute_plan
from repro.graph.graph import Graph
from repro.planner.cost_model import CostModel
from repro.planner.dp_optimizer import DynamicProgrammingOptimizer
from repro.planner.plan import Plan, wco_plan_from_order
from repro.planner.qvo import enumerate_orderings, enumerate_wco_plans
from repro.query import catalog_queries
from repro.query.generator import all_small_queries, random_query_set
from repro.query.query_graph import QueryGraph


# --------------------------------------------------------------------------- #
# Section 3 demonstration tables
# --------------------------------------------------------------------------- #
def table3_intersection_cache(graph: Graph, query: Optional[QueryGraph] = None) -> List[Dict]:
    """Table 3: runtime of every WCO plan of the diamond-X query with the
    intersection cache enabled vs disabled."""
    query = query or catalog_queries.diamond_x()
    rows: List[Dict] = []
    for plan in enumerate_wco_plans(query):
        ordering = "".join(plan.qvo() or ())
        with_cache = execute_plan(plan, graph, ExecutionConfig(enable_intersection_cache=True))
        without_cache = execute_plan(plan, graph, ExecutionConfig(enable_intersection_cache=False))
        rows.append(
            {
                "qvo": ordering,
                "cache_on_s": with_cache.profile.elapsed_seconds,
                "cache_off_s": without_cache.profile.elapsed_seconds,
                "cache_hits": with_cache.profile.cache_hits,
                "speedup": (
                    without_cache.profile.elapsed_seconds
                    / max(with_cache.profile.elapsed_seconds, 1e-9)
                ),
                "matches": with_cache.num_matches,
            }
        )
    rows.sort(key=lambda r: r["cache_on_s"])
    return rows


def _qvo_rows(query: QueryGraph, graphs: Dict[str, Graph], cache: bool = True) -> List[Dict]:
    rows: List[Dict] = []
    config = ExecutionConfig(enable_intersection_cache=cache)
    for graph_name, graph in graphs.items():
        for plan in enumerate_wco_plans(query):
            result = execute_plan(plan, graph, config)
            rows.append(
                {
                    "graph": graph_name,
                    "qvo": "".join(plan.qvo() or ()),
                    "time_s": result.profile.elapsed_seconds,
                    "partial_matches": result.profile.intermediate_matches,
                    "i_cost": result.profile.intersection_cost,
                    "matches": result.num_matches,
                }
            )
    rows.sort(key=lambda r: (r["graph"], r["time_s"]))
    return rows


def table4_asymmetric_triangle(graphs: Dict[str, Graph]) -> List[Dict]:
    """Table 4: runtime / intermediate matches / i-cost of the three
    asymmetric-triangle QVOs (list-direction effects)."""
    return _qvo_rows(catalog_queries.asymmetric_triangle(), graphs)


def table5_tailed_triangle(graphs: Dict[str, Graph]) -> List[Dict]:
    """Table 5: EDGE-TRIANGLE vs EDGE-2PATH orderings of the tailed triangle
    (intermediate-result effects); caching disabled as in the paper."""
    return _qvo_rows(catalog_queries.tailed_triangle(), graphs, cache=False)


def table6_symmetric_diamond_x(graphs: Dict[str, Graph]) -> List[Dict]:
    """Table 6: cache-utilising vs cache-oblivious orderings of the symmetric
    diamond-X query."""
    return _qvo_rows(catalog_queries.symmetric_diamond_x(), graphs)


# --------------------------------------------------------------------------- #
# Table 9: Graphflow vs EmptyHeaded
# --------------------------------------------------------------------------- #
def table9_emptyheaded_comparison(
    graphs: Dict[str, Graph],
    query_names: Sequence[str] = ("Q1", "Q3", "Q5", "Q8"),
    edge_label_counts: Sequence[int] = (1, 2),
    catalogue_z: int = 200,
    time_limit: float = 120.0,
) -> List[Dict]:
    """Table 9: Graphflow's plan vs EmptyHeaded with bad (lexicographic) and
    good (Graphflow-chosen) per-bag orderings."""
    rows: List[Dict] = []
    eh = EmptyHeadedPlanner()
    for graph_name, graph in graphs.items():
        catalogue = build_catalogue(graph, z=catalogue_z)
        cost_model = CostModel(graph, catalogue)
        optimizer = DynamicProgrammingOptimizer(cost_model)
        for qname in query_names:
            base_query = catalog_queries.get(qname)
            for labels in edge_label_counts:
                query = (
                    base_query
                    if labels <= 1
                    else base_query.with_random_edge_labels(labels, seed=1)
                )
                run_graph = graph
                if labels > 1:
                    from repro.graph.labeling import with_random_edge_labels

                    run_graph = with_random_edge_labels(graph, labels, seed=1)
                row: Dict = {
                    "graph": graph_name,
                    "query": query.name,
                }
                gf_plan = optimizer.optimize(query)
                gf = execute_plan(gf_plan, run_graph)
                row["graphflow_s"] = gf.profile.elapsed_seconds
                row["matches"] = gf.num_matches
                try:
                    eh_bad = eh.plan(query)
                    bad = execute_plan(eh_bad.plan, run_graph)
                    row["eh_bad_s"] = bad.profile.elapsed_seconds
                # No GHD or no valid bag ordering (OptimizerError), or the
                # paper's "Mem" cell (MemoryError); anything else is a bug.
                except (OptimizerError, MemoryError) as exc:
                    row["eh_bad_s"] = float("nan")
                    row["eh_note"] = type(exc).__name__
                try:
                    eh_good = eh.plan_with_good_orderings(query, cost_model)
                    good = execute_plan(eh_good.plan, run_graph)
                    row["eh_good_s"] = good.profile.elapsed_seconds
                except (OptimizerError, MemoryError) as exc:
                    row["eh_good_s"] = float("nan")
                    row["eh_note"] = type(exc).__name__
                rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Appendix B: catalogue accuracy (Tables 10 and 11)
# --------------------------------------------------------------------------- #
def _true_cardinalities(
    graph: Graph, queries: Sequence[QueryGraph]
) -> List[Tuple[QueryGraph, int]]:
    results = []
    for query in queries:
        orderings = enumerate_orderings(query, limit=1)
        if not orderings:
            continue
        plan = wco_plan_from_order(query, orderings[0])
        results.append((query, execute_plan(plan, graph).num_matches))
    return results


def table10_catalogue_sample_size(
    graph: Graph,
    z_values: Sequence[int] = (100, 500, 1000),
    h: int = 3,
    num_queries: int = 24,
    query_vertices: int = 5,
    num_edge_labels: int = 1,
    seed: int = 0,
) -> List[Dict]:
    """Table 10: catalogue construction time and q-error distribution as the
    sampling size z grows."""
    queries = all_small_queries(
        query_vertices, max_queries=num_queries, seed=seed, num_edge_labels=num_edge_labels
    )
    truths = _true_cardinalities(graph, queries)
    rows: List[Dict] = []
    for z in z_values:
        catalogue = build_catalogue(graph, h=h, z=z, seed=seed, queries=[q for q, _ in truths])
        pairs = [
            (estimate_cardinality(catalogue, query, graph), truth) for query, truth in truths
        ]
        distribution = qerror_distribution(pairs)
        row = {"z": z, "build_s": catalogue.construction_seconds}
        row.update(distribution)
        rows.append(row)
    return rows


def table11_catalogue_h(
    graph: Graph,
    h_values: Sequence[int] = (2, 3, 4),
    z: int = 500,
    num_queries: int = 24,
    query_vertices: int = 5,
    num_edge_labels: int = 1,
    seed: int = 0,
) -> List[Dict]:
    """Table 11: q-error distribution and catalogue size as h grows, with the
    independence-assumption (PostgreSQL-style) estimator as a baseline."""
    queries = all_small_queries(
        query_vertices, max_queries=num_queries, seed=seed, num_edge_labels=num_edge_labels
    )
    truths = _true_cardinalities(graph, queries)
    rows: List[Dict] = []
    for h in h_values:
        catalogue = build_catalogue(graph, h=h, z=z, seed=seed, queries=[q for q, _ in truths])
        pairs = [
            (estimate_cardinality(catalogue, query, graph), truth) for query, truth in truths
        ]
        row = {"estimator": f"catalogue h={h}", "entries": catalogue.num_entries}
        row.update(qerror_distribution(pairs))
        rows.append(row)
    postgres = IndependenceEstimator(graph)
    pairs = [(postgres.estimate(query), truth) for query, truth in truths]
    row = {"estimator": "independence (PostgreSQL-style)", "entries": 0}
    row.update(qerror_distribution(pairs))
    rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Appendix C: CFL comparison (Table 12)
# --------------------------------------------------------------------------- #
def table12_cfl_comparison(
    graph: Graph,
    query_vertex_counts: Sequence[int] = (6, 8, 10),
    queries_per_set: int = 5,
    output_limit: int = 10_000,
    num_vertex_labels: int = 20,
    seed: int = 0,
    catalogue_z: int = 200,
) -> List[Dict]:
    """Table 12: Graphflow vs (simplified) CFL on random sparse and dense
    labeled query sets, with an output-size limit.

    The paper uses 10/15/20-vertex queries with 10^5 and 10^8 output limits on
    the CFL 'human' dataset; the reproduction defaults scale those down so the
    pure-Python runtime stays in seconds, but the parameters are exposed.
    """
    catalogue = build_catalogue(graph, z=catalogue_z)
    cost_model = CostModel(graph, catalogue)
    optimizer = DynamicProgrammingOptimizer(cost_model, large_query_threshold=8)
    cfl = CFLMatcher(graph)
    config = ExecutionConfig(isomorphism=True, output_limit=output_limit)
    rows: List[Dict] = []
    for dense in (False, True):
        for num_vertices in query_vertex_counts:
            queries = random_query_set(
                queries_per_set,
                num_vertices,
                dense=dense,
                seed=seed,
                num_vertex_labels=num_vertex_labels,
            )
            gf_times, cfl_times = [], []
            for query in queries:
                try:
                    plan = optimizer.optimize(query)
                except OptimizerError:
                    plan = wco_plan_from_order(query, enumerate_orderings(query, limit=1)[0])
                gf = execute_plan(plan, graph, config)
                gf_times.append(gf.profile.elapsed_seconds)
                cfl_result = cfl.count_matches(query, output_limit=output_limit)
                cfl_times.append(cfl_result.elapsed_seconds)
            rows.append(
                {
                    "query_set": f"Q{num_vertices}{'d' if dense else 's'}",
                    "output_limit": output_limit,
                    "graphflow_avg_s": float(np.mean(gf_times)),
                    "cfl_avg_s": float(np.mean(cfl_times)),
                    "ratio": float(np.mean(cfl_times) / max(np.mean(gf_times), 1e-9)),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Appendix D: Neo4j comparison (Table 13)
# --------------------------------------------------------------------------- #
def table13_neo4j_comparison(
    graphs: Dict[str, Graph],
    query_names: Sequence[str] = ("Q1", "Q2", "Q4"),
    catalogue_z: int = 200,
    time_limit: float = 60.0,
) -> List[Dict]:
    """Table 13: Graphflow vs the naive binary-join engine (Neo4j stand-in)."""
    rows: List[Dict] = []
    for graph_name, graph in graphs.items():
        catalogue = build_catalogue(graph, z=catalogue_z)
        cost_model = CostModel(graph, catalogue)
        optimizer = DynamicProgrammingOptimizer(cost_model)
        naive = NaiveMatcher(graph)
        for qname in query_names:
            query = catalog_queries.get(qname)
            plan = optimizer.optimize(query)
            gf = execute_plan(plan, graph)
            naive_result = naive.count_matches(query, time_limit=time_limit)
            rows.append(
                {
                    "graph": graph_name,
                    "query": qname,
                    "graphflow_s": gf.profile.elapsed_seconds,
                    "neo4j_stand_in_s": naive_result.elapsed_seconds,
                    "ratio": naive_result.elapsed_seconds
                    / max(gf.profile.elapsed_seconds, 1e-9),
                    "timed_out": naive_result.truncated,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 11: scalability
# --------------------------------------------------------------------------- #
def figure11_scalability(
    graph: Graph,
    query: Optional[QueryGraph] = None,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    catalogue_z: int = 200,
) -> List[Dict]:
    """Figure 11: runtime vs number of workers for one query.

    Reports both measured wall-clock (bounded by the GIL for Python-level
    work) and the work-based speed-up implied by the morsel partition, which
    corresponds to the near-linear scaling the paper measures on the JVM.
    """
    query = query or catalog_queries.triangle()
    catalogue = build_catalogue(graph, z=catalogue_z)
    cost_model = CostModel(graph, catalogue)
    plan = DynamicProgrammingOptimizer(cost_model, enable_binary_joins=False).optimize(query)
    rows: List[Dict] = []
    baseline: Optional[float] = None
    for workers in worker_counts:
        result = execute_parallel(plan, graph, num_workers=workers)
        if baseline is None:
            baseline = result.elapsed_seconds
        rows.append(
            {
                "workers": workers,
                "elapsed_s": result.elapsed_seconds,
                "measured_speedup": baseline / max(result.elapsed_seconds, 1e-9),
                "work_based_speedup": result.work_based_speedup,
                "matches": result.num_matches,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 8 helper: adaptive vs fixed comparison rows
# --------------------------------------------------------------------------- #
def figure8_adaptive_rows(
    graph: Graph,
    query: QueryGraph,
    catalogue_z: int = 200,
    max_plans: int = 24,
) -> List[Dict]:
    """Fixed vs adaptive runtime and i-cost for every WCO plan of a query
    (Figure 8), both on the batch engine: the adaptive operator exists only
    there, and across engines the comparison would measure the engines."""
    catalogue = build_catalogue(graph, z=catalogue_z)
    config = ExecutionConfig()
    rows: List[Dict] = []
    plans = enumerate_wco_plans(query)[:max_plans]
    for plan in plans:
        fixed = execute_plan(plan, graph, config=config)
        adaptive = execute_adaptive(plan, graph, catalogue=catalogue, config=config)
        rows.append(
            {
                "qvo": "".join(plan.qvo() or ()),
                "fixed_s": fixed.profile.elapsed_seconds,
                "fixed_i_cost": fixed.profile.intersection_cost,
                "adaptive_s": adaptive.profile.elapsed_seconds,
                "adaptive_i_cost": adaptive.profile.intersection_cost,
                "improvement": fixed.profile.elapsed_seconds
                / max(adaptive.profile.elapsed_seconds, 1e-9),
                "matches_fixed": fixed.num_matches,
                "matches_adaptive": adaptive.num_matches,
            }
        )
    return rows
