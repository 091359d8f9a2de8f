"""Tests for the experiment harness, spectrum generation, and table runners."""

import pytest

from repro.catalogue.construction import build_catalogue
from repro.errors import OptimizerError
from repro.executor.operators import ExecutionConfig
from repro.experiments import tables
from repro.experiments.harness import ExperimentRow, format_table, speedup, timed
from repro.experiments.spectrum import generate_emptyheaded_spectrum, generate_spectrum
from repro.graph.generators import clustered_social
from repro.planner.cost_model import CostModel
from repro.planner.dp_optimizer import DynamicProgrammingOptimizer
from repro.query import catalog_queries as cq


@pytest.fixture(scope="module")
def small_graph():
    return clustered_social(150, avg_degree=6, clustering=0.35, seed=9, name="small")


class TestHarness:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 30, "b": 0.001}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_experiment_row_access(self):
        row = ExperimentRow({"x": 1})
        assert row["x"] == 1
        assert row.get("missing", 7) == 7

    def test_timed_context(self):
        with timed() as t:
            sum(range(1000))
        assert t["seconds"] >= 0

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        assert speedup(1.0, 0.0) == float("inf")


class TestSpectrum:
    def test_spectrum_contains_wco_plans(self, small_graph):
        spectrum = generate_spectrum(cq.triangle(), small_graph, max_plans=20)
        assert len(spectrum.points) >= 6
        assert all(p.plan_type == "wco" for p in spectrum.points if p.plan.is_wco)
        counts = {p.num_matches for p in spectrum.points}
        assert len(counts) == 1  # every plan computes the same result

    def test_spectrum_marks_optimizer_choice(self, small_graph):
        catalogue = build_catalogue(small_graph, z=100)
        cost_model = CostModel(small_graph, catalogue)
        chosen = DynamicProgrammingOptimizer(cost_model).optimize(cq.diamond_x())
        spectrum = generate_spectrum(
            cq.diamond_x(), small_graph, catalogue=catalogue, chosen_plan=chosen, max_plans=40
        )
        assert spectrum.optimizer_choice is not None
        assert spectrum.optimality_ratio() >= 1.0

    def test_spectrum_summary_and_extremes(self, small_graph):
        spectrum = generate_spectrum(cq.q2(), small_graph, max_plans=20)
        assert spectrum.best.seconds <= spectrum.worst.seconds
        assert "Q2" in spectrum.summary()

    def test_adaptive_spectrum(self, small_graph):
        catalogue = build_catalogue(small_graph, z=100)
        # Figure 8 compares like with like: both spectrums on the batch engine.
        fixed = generate_spectrum(
            cq.diamond_x(), small_graph, include_hybrid=False, max_plans=8,
            config=ExecutionConfig(vectorized=True),
        )
        adaptive = generate_spectrum(
            cq.diamond_x(),
            small_graph,
            catalogue=catalogue,
            include_hybrid=False,
            max_plans=8,
            adaptive=True,
        )
        assert {p.num_matches for p in fixed.points} == {
            p.num_matches for p in adaptive.points
        }
        assert all(p.adaptive and p.i_cost > 0 for p in adaptive.points)
        assert all(p.plan.adaptive is False for p in adaptive.points)  # the fixed plan it adapts

    def test_emptyheaded_spectrum(self, small_graph):
        spectrum = generate_emptyheaded_spectrum(cq.q8(), small_graph, max_plans=8)
        assert len(spectrum.points) >= 1
        assert all(p.plan_type == "emptyheaded" for p in spectrum.points)


class TestTableRunners:
    def test_table3_rows(self, small_graph):
        rows = tables.table3_intersection_cache(small_graph)
        assert len(rows) > 0
        assert {"qvo", "cache_on_s", "cache_off_s"} <= set(rows[0])
        assert len({r["matches"] for r in rows}) == 1

    def test_table4_rows(self, small_graph):
        rows = tables.table4_asymmetric_triangle({"g": small_graph})
        assert len(rows) == 6
        assert len({r["matches"] for r in rows}) == 1

    def test_table5_and_6_rows(self, small_graph):
        rows5 = tables.table5_tailed_triangle({"g": small_graph})
        rows6 = tables.table6_symmetric_diamond_x({"g": small_graph})
        assert rows5 and rows6
        assert all(r["i_cost"] > 0 for r in rows5)

    def test_table9_rows(self, small_graph):
        rows = tables.table9_emptyheaded_comparison(
            {"g": small_graph}, query_names=("Q1", "Q8"), edge_label_counts=(1,), catalogue_z=60
        )
        assert len(rows) == 2
        for row in rows:
            assert row["graphflow_s"] > 0

    def test_table9_records_a_missing_eh_plan(self, small_graph, monkeypatch):
        def no_ghd(self, query, *args):
            raise OptimizerError(f"no GHD found for {query.name}")

        monkeypatch.setattr(tables.EmptyHeadedPlanner, "plan", no_ghd)
        rows = tables.table9_emptyheaded_comparison(
            {"g": small_graph}, query_names=("Q1",), edge_label_counts=(1,), catalogue_z=60
        )
        assert rows[0]["eh_bad_s"] != rows[0]["eh_bad_s"]  # NaN
        assert rows[0]["eh_note"] == "OptimizerError"

    def test_table9_lets_a_bug_in_the_eh_planner_escape(self, small_graph, monkeypatch):
        def broken(self, query, *args):
            raise TypeError("eh.plan bug")

        monkeypatch.setattr(tables.EmptyHeadedPlanner, "plan", broken)
        with pytest.raises(TypeError, match="eh.plan bug"):
            tables.table9_emptyheaded_comparison(
                {"g": small_graph}, query_names=("Q1",), edge_label_counts=(1,), catalogue_z=60
            )

    def test_table10_and_11(self, small_graph):
        rows10 = tables.table10_catalogue_sample_size(
            small_graph, z_values=(50, 200), num_queries=6, query_vertices=4
        )
        assert len(rows10) == 2
        assert rows10[0]["total"] == rows10[1]["total"]
        rows11 = tables.table11_catalogue_h(
            small_graph, h_values=(2, 3), z=100, num_queries=6, query_vertices=4
        )
        assert len(rows11) == 3  # two h values + the independence baseline
        assert rows11[-1]["estimator"].startswith("independence")

    def test_table12_rows(self, small_graph):
        rows = tables.table12_cfl_comparison(
            small_graph,
            query_vertex_counts=(4,),
            queries_per_set=2,
            output_limit=200,
            num_vertex_labels=1,
            catalogue_z=60,
        )
        assert len(rows) == 2  # sparse and dense
        for row in rows:
            assert row["graphflow_avg_s"] > 0
            assert row["cfl_avg_s"] > 0

    @pytest.mark.parametrize("error", [OptimizerError, TypeError])
    def test_table12_falls_back_only_when_the_optimizer_gives_up(
        self, small_graph, monkeypatch, error
    ):
        """An ``OptimizerError`` gets the query a WCO plan; anything else is a
        bug and reaches the caller."""

        def optimize(self, query, **kwargs):
            raise error("no plan")

        monkeypatch.setattr(DynamicProgrammingOptimizer, "optimize", optimize)
        small = dict(
            query_vertex_counts=(4,),
            queries_per_set=1,
            output_limit=200,
            num_vertex_labels=1,
            catalogue_z=60,
        )
        if error is OptimizerError:
            assert len(tables.table12_cfl_comparison(small_graph, **small)) == 2
        else:
            with pytest.raises(TypeError, match="no plan"):
                tables.table12_cfl_comparison(small_graph, **small)

    def test_table13_rows(self, small_graph):
        rows = tables.table13_neo4j_comparison(
            {"g": small_graph}, query_names=("Q1",), catalogue_z=60, time_limit=10
        )
        assert len(rows) == 1
        assert rows[0]["ratio"] > 0

    def test_figure11_rows(self, small_graph):
        rows = tables.figure11_scalability(small_graph, worker_counts=(1, 2), catalogue_z=60)
        assert len(rows) == 2
        assert len({r["matches"] for r in rows}) == 1
        assert rows[1]["work_based_speedup"] >= 1.0

    def test_figure8_rows(self, small_graph):
        rows = tables.figure8_adaptive_rows(small_graph, cq.diamond_x(), catalogue_z=60, max_plans=4)
        assert len(rows) == 4
        for row in rows:
            assert row["matches_fixed"] == row["matches_adaptive"]
            assert row["fixed_i_cost"] > 0 and row["adaptive_i_cost"] > 0
