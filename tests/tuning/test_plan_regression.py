"""The plan-regression guard suite.

The committed baseline (``tests/baselines/plan_regression.json``) pins the
optimizer's join orders, operator kinds, plan types, and cost buckets for the
canned workload; these tests check the live planner against it, and — the
mutation smoke — that perturbing a cost constant actually trips the guard
with a readable diff (a guard that cannot fail guards nothing).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro.planner.cost_model as cost_model_module
from repro.cli import main
from repro.tuning.regression import (
    BASELINE_VERSION,
    PlanDiff,
    PlanRegressionSuite,
    cost_bucket,
    format_diffs,
    plan_signature,
)

COMMITTED_BASELINE = Path(__file__).resolve().parents[1] / "baselines" / "plan_regression.json"


def _mini_suite() -> PlanRegressionSuite:
    """A two-query, one-graph, unlimited-only suite for fast mutation tests."""
    from repro.graph.generators import erdos_renyi

    return PlanRegressionSuite(
        queries=("Q3", "Q8"),
        modes=("vectorized",),
        graphs={"er-100": lambda: erdos_renyi(100, 700, seed=5, name="er-100")},
        z=80,
    )


class TestGuardSuite:
    def test_committed_baseline_matches_live_planner(self):
        """The tentpole invariant: an unmodified checkout produces exactly
        the committed plan signatures for every case."""
        suite = PlanRegressionSuite()
        diffs = suite.check_path(str(COMMITTED_BASELINE))
        assert diffs == [], "\n" + format_diffs(diffs)

    def test_committed_baseline_covers_every_case(self):
        entries = PlanRegressionSuite.load_baseline(str(COMMITTED_BASELINE))
        assert sorted(entries) == sorted(PlanRegressionSuite().case_ids())

    def test_perturbed_cost_constant_trips_the_guard(self, tmp_path, monkeypatch):
        """Mutation smoke: a mis-weighted intersection constant must fail the
        suite — at minimum every cost bucket shifts by log2(64) = 6."""
        suite = _mini_suite()
        baseline_path = str(tmp_path / "mini_baseline.json")
        suite.rebaseline(baseline_path)
        assert suite.check_path(baseline_path) == []

        perturbed = dataclasses.replace(cost_model_module.COST_CONSTANTS, intersect_weight=64.0)
        monkeypatch.setattr(cost_model_module, "COST_CONSTANTS", perturbed)
        diffs = suite.check_path(baseline_path)
        assert diffs, "a 64x intersection weight must trip the guard"
        rendered = format_diffs(diffs)
        # The failure message names the case, shows both sides, and tells the
        # reader how to accept an intentional change.
        assert "er-100/" in rendered
        assert "baseline:" in rendered and "live:" in rendered
        assert "--rebaseline" in rendered

    def test_rebaseline_round_trips(self, tmp_path):
        suite = _mini_suite()
        path = str(tmp_path / "baseline.json")
        entries = suite.rebaseline(path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["version"] == BASELINE_VERSION
        assert list(payload["entries"]) == sorted(entries)
        assert suite.check_path(path) == []

    def test_baseline_version_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            PlanRegressionSuite.load_baseline(str(path))


class TestDiffRendering:
    def test_missing_cases_render_actionably(self):
        new_case = PlanDiff(case_id="g/Q1/vectorized", kind="missing_baseline")
        gone_case = PlanDiff(case_id="g/Q2/vectorized", kind="missing_live")
        assert "--rebaseline" in new_case.render()
        assert "not produced" in gone_case.render()

    def test_no_diffs_message(self):
        assert "no differences" in format_diffs([])

    def test_cost_bucket_edges(self):
        assert cost_bucket(float("nan")) is None
        assert cost_bucket(0.0) is None
        assert cost_bucket(0.5) == 0  # clamped to >= 1
        assert cost_bucket(1024.0) == 10

    def test_plan_signature_fields(self, tiny_graph):
        from repro.api import GraphflowDB
        from repro.query import catalog_queries as cq

        db = GraphflowDB(tiny_graph)
        db.build_catalogue(z=50)
        signature = plan_signature(db.plan(cq.triangle()))
        assert set(signature) == {"join_order", "operators", "plan_type", "cost_bucket"}
        assert len(signature["join_order"]) == 3
        assert signature["operators"][0].startswith("scan[")


class TestCli:
    def test_check_against_committed_baseline(self, capsys):
        assert main(["plans", "--check", "--baseline", str(COMMITTED_BASELINE)]) == 0
        out = capsys.readouterr().out
        assert "match the baseline" in out

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        assert main(["plans", "--baseline", str(tmp_path / "nope.json")]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_rebaseline_then_check(self, tmp_path, capsys):
        path = str(tmp_path / "baseline.json")
        assert main(["plans", "--rebaseline", "--baseline", path]) == 0
        assert main(["plans", "--check", "--baseline", path]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
