"""Tier-1 smoke test of the benchmark: every workload and metric that
``BENCHMARK.json`` names is emitted with its unit at ~1/20 size with no failed
operation, and the helpers the numbers rest on are right on known inputs."""

from __future__ import annotations

import json
import re
import statistics

import numpy as np
import pytest

from bench import stats
from bench.compare import verdict
from bench.inputs import EdgeModel, load_graph
from bench.runner import ROOT, run_workload
from bench.spans import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_stats_on_known_inputs():
    assert stats.median([3, 1, 2]) == 2
    values = [float(v) for v in range(1, 12)]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4)) == (3.0, 6.0, 9.0)
    assert stats.spread(values) == pytest.approx(1.0)
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    # Nearest rank; supported only with ten samples beyond the percentile.
    assert stats.percentile(range(1, 101), 95) == (95.0, False)
    assert stats.percentile(range(1, 1001), 95) == (950.0, True)
    assert stats.percentile(range(1, 201), 95) == (190.0, True)
    assert stats.percentile([7.0], 50) == (7.0, False)


def test_self_times_sum_to_the_op():
    tracer = Tracer()
    with tracer.span("op") as op:
        with tracer.span("layer.a"):
            with tracer.span("layer.b") as inner:
                pass
        with tracer.span("layer.a"):
            pass
    tracer.add_child(inner, "layer.c", 0.0)
    self_s = tracer.self_seconds("op")
    assert set(self_s) == {"op", "layer.a", "layer.b", "layer.c"}
    assert sum(self_s.values()) == pytest.approx(op["end"] - op["start"])
    assert all(s["op_id"] == 1 for s in tracer.spans)
    assert tracer.self_seconds("other") == {}


def test_edge_model_tracks_triangles_incrementally():
    model = EdgeModel(load_graph("amazon", 0.1, seed=3))
    model.count_triangles()
    rng = np.random.default_rng(0)
    for _ in range(5):
        inserts, deletes = model.next_batch(rng, 16, 8)
        assert len(set(inserts)) == 16 and not set(inserts) & set(deletes)
    incremental = model.triangles
    assert incremental == model.count_triangles()


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "regressed"
    assert verdict(steady, [v * 0.7 for v in steady], "lower", 0.1) == "improved"
    assert verdict(steady, [v * 1.3 for v in steady], "higher", 0.1) == "improved"
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.1) == "unchanged"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    detail = run_workload(workload, seed=1, seconds=0.2, trace=True, smoke=True)
    assert detail["result"]["failed"] == 0, detail["failures"]
    assert detail["result"]["attempted"] >= 1
    assert set(detail["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in detail["end_to_end"].values())
    emitted = detail["result"]["metrics"]
    assert set(emitted) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert emitted[m["name"]]["unit"] == m["unit"]
        assert isinstance(emitted[m["name"]]["value"], (int, float))
    trace = detail["trace"]
    assert trace["self_sum_s"] == pytest.approx(trace["stepped_wall_s"])
