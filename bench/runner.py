"""Runs one workload in this process and reports it by the contract of
``BENCHMARK.json``: a readable report, then one JSON object on the last line
of standard output."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from bench import stats
from bench.spans import Tracer
from bench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Set-up is repeated and its median reported, so one slow set-up (a cold
#: page cache, the first import) does not decide ``setup_s``.
SETUP_REPS = 3

clock = time.perf_counter


def _set_up(name: str, seed: int, smoke: bool, reps: int) -> Tuple[Workload, List[float], int, int]:
    """Set the workload up ``reps`` times; keep the last.  ``setup_s`` covers
    ``setup()`` and one warm-up cycle, so lazy work a change moves out of the
    timed cycles and into the first call still shows; oracle building in
    between is the benchmark's own work and is left out."""
    seconds, attempted, failed, oracle = [], 0, 0, None
    for rep in range(reps):
        workdir = OUT_DIR / f"tmp-{name}-{os.getpid()}-{rep}"
        workdir.mkdir(parents=True)
        w = WORKLOADS[name](seed, smoke, workdir)
        t0 = clock()
        w.setup()
        t1 = clock()
        oracle = w.prepare_oracle(oracle)
        t2 = clock()
        w.cycle()
        seconds.append((t1 - t0) + (clock() - t2))
        if rep < reps - 1:
            attempted, failed = attempted + w.attempted, failed + w.failed
            _tear_down(w)
            del w
            gc.collect()
    return w, seconds, attempted, failed


def _tear_down(w: Workload) -> None:
    w.close()
    shutil.rmtree(w.workdir, ignore_errors=True)


def _window(seconds: float, cycle) -> Tuple[int, float]:
    """Call ``cycle`` until ``seconds`` have passed, at least once; how many
    calls that was and how long they took."""
    begin = clock()
    calls = 0
    while True:
        cycle()
        calls += 1
        if clock() - begin >= seconds:
            return calls, clock() - begin


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Everything measured for one workload; ``result`` is the contract's
    last line, the rest is detail for the report and the result file."""
    started = clock()
    w, setup_seconds, attempted, failed = _set_up(
        name, seed, smoke, reps=1 if (trace or smoke) else SETUP_REPS
    )
    try:
        cycles: List[float] = []
        by_kind: Dict[str, List[float]] = {}

        def one_cycle() -> None:
            took, ops_done = w.cycle()
            cycles.append(took)
            for kind, latency in ops_done:
                by_kind.setdefault(kind, []).append(latency)

        _, window = _window(seconds / 2 if trace else seconds, one_cycle)
        tracer = Tracer()
        stepped_cycles = 0
        if trace:
            w.traced_setup()
            stepped_cycles, _ = _window(seconds / 2, lambda: w.stepped_cycle(tracer))
        w.finish()
        hit_rate = w.db.plan_cache.stats.hit_rate
    finally:
        _tear_down(w)
    attempted, failed = attempted + w.attempted, failed + w.failed

    ops = [latency for latencies in by_kind.values() for latency in latencies]
    slow_kind = max(by_kind, key=lambda kind: stats.median(by_kind[kind]))
    end_to_end = {
        "setup_s": stats.median(setup_seconds),
        "cycle_ms": stats.median(cycles) * 1e3,
        "op_p50_ms": stats.median(ops) * 1e3,
        "op_slow_ms": stats.median(by_kind[slow_kind]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tails = {}
    for p in (95, 99):
        value, supported = stats.percentile(ops, p)
        tails[f"op_p{p}_ms"] = {"value": value * 1e3, "supported": supported}
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": trace,
        "op": w.op,
        "graph": {"key": w.graph.name, "vertices": w.graph.num_vertices,
                  "edges": w.graph.num_edges},
        "samples": {"setups": len(setup_seconds), "cycles": len(cycles), "ops": len(ops)},
        "within_run": {
            "setup_s": stats.summary(setup_seconds),
            "cycle_ms": stats.summary([c * 1e3 for c in cycles]),
            "op_p50_ms": stats.summary([o * 1e3 for o in ops]),
            "op_slow_ms": stats.summary([o * 1e3 for o in by_kind[slow_kind]]),
            "ops_per_s": len(ops) / window,
        },
        "slow_kind": slow_kind,
        "tails_ms": tails,
        "per_kind_ms": {
            kind: stats.summary([s * 1e3 for s in v])
            for kind, v in sorted(by_kind.items())
        },
        "end_to_end": end_to_end,
        "failures": w.failures,
    }
    metrics = end_to_end
    if trace:
        metrics = _per_layer(w, tracer, stepped_cycles, hit_rate)
        detail["per_layer"] = metrics
        detail["trace"] = _trace_report(tracer, cycles, stepped_cycles)
        tracer.write(OUT_DIR / f"trace-{name}.jsonl")
    detail["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    detail["wall_s"] = clock() - started
    return detail


def _per_layer(w: Workload, tracer: Tracer, stepped_cycles: int, hit_rate: float) -> Dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``; a layer the workload
    never enters reads 0, which is the statement that it is idle there."""
    def med(name: str) -> float:
        values = w.samples.get(name)
        return stats.median(values) if values else 0.0

    def span_ms(name: str) -> float:
        values = tracer.durations(name)
        return stats.median(values) * 1e3 if values else 0.0

    def paired_ms(a: str, b: str) -> float:
        pairs = list(zip(tracer.durations(a), tracer.durations(b)))
        return stats.median([x - y for x, y in pairs]) * 1e3 if pairs else 0.0

    # Executor seconds are per stepped cycle, so they read against cycle_ms.
    total_self = tracer.self_seconds("op.stepped")
    self_s = {k: v / stepped_cycles for k, v in total_self.items()}
    ei_s = self_s.get("executor.ei", 0.0)
    i_cost = med("executor.i_cost")
    cold, warm = med("planner.optimize_cold_s"), med("planner.optimize_warm_s")
    traced_wall = sum(tracer.durations("op.stepped"))
    return {
        "executor.ei_s": ei_s,
        "executor.hash_join_s": self_s.get("executor.hash_join", 0.0),
        "executor.scan_s": self_s.get("executor.scan", 0.0),
        "executor.unaccounted_s": self_s.get("executor.execute_plan", 0.0),
        "executor.i_cost": i_cost,
        "executor.intermediate_matches": med("executor.intermediate_matches"),
        "executor.matches": med("executor.matches"),
        "executor.icache_hit_rate": med("executor.icache_hit_rate"),
        "executor.ns_per_icost": ei_s / i_cost * 1e9 if i_cost else 0.0,
        "graph.intersect.melem_per_s": med("graph.intersect.melem_per_s"),
        "planner.optimize_cold_s": cold,
        "planner.optimize_warm_s": warm,
        "planner.plan_ms": span_ms("planner.plan"),
        "catalogue.sample_s": cold - warm if warm else 0.0,
        "catalogue.build_s": med("catalogue.build_s"),
        "query.parse_ms": span_ms("query.parse"),
        "query.canonical_key_ms": span_ms("query.canonical_key"),
        "server.plan_cache.hit_rate": hit_rate,
        "api.overhead_ms": paired_ms("op.db", "op.stepped"),
        "api.materialise_ms": span_ms("api.materialise"),
        "server.service.hop_ms": paired_ms("op.service", "op.db"),
        "server.service.queue_ms": med("server.service.queue_ms"),
        "persistence.wal_ms": paired_ms("op.update", "op.twin"),
        "persistence.fsync_batch_ms": med("persistence.fsync_batch_ms"),
        "persistence.wal_append_ms": med("persistence.wal_append_ms"),
        "persistence.wal_fsync_ms": med("persistence.wal_fsync_ms"),
        "persistence.wal_fsyncs_per_batch": med("persistence.wal_fsyncs_per_batch"),
        "persistence.wal_bytes_per_edge": med("persistence.wal_bytes_per_edge"),
        "persistence.checkpoint_s": med("persistence.checkpoint_s"),
        "persistence.snapshot_bytes_per_edge": med("persistence.snapshot_bytes_per_edge"),
        "persistence.recovery_s": med("persistence.recovery_s"),
        "storage.commit_ms": span_ms("storage.commit"),
        "storage.compact_s": med("storage.compact_s"),
        "storage.delta_ratio": med("storage.delta_ratio"),
        "trace.unaccounted_frac": total_self["op.stepped"] / traced_wall,
        "trace.overhead_frac": len(tracer.spans) * _span_cost() / traced_wall,
    }


def _span_cost() -> float:
    """Seconds one span costs, measured on a throw-away tracer."""
    scratch = Tracer()
    begin = clock()
    for _ in range(2000):
        with scratch.span("x"):
            pass
    return (clock() - begin) / 2000


def _trace_report(tracer: Tracer, untraced_cycles: List[float], stepped_cycles: int) -> dict:
    """Self time per layer over the stepped ops (summing to their wall time,
    the root's own self time being the unaccounted remainder), and the raw
    difference between an untraced cycle and a stepped one."""
    self_s = tracer.self_seconds("op.stepped")
    wall = sum(tracer.durations("op.stepped"))
    return {
        "stepped_cycles": stepped_cycles,
        "spans": len(tracer.spans),
        "stepped_wall_s": wall,
        "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
        "self_sum_s": sum(self_s.values()),
        "untraced_cycle_s": stats.median(untraced_cycles),
        "stepped_cycle_s": wall / stepped_cycles,
    }


def print_report(detail: dict) -> None:
    """The readable part; the contract's JSON line comes last."""
    g, n, within = detail["graph"], detail["samples"], detail["within_run"]
    print(f"== {detail['workload']}  seed {detail['seed']}  {g['key']} "
          f"({g['vertices']} V / {g['edges']} E)  op = {detail['op']}")
    print(f"   {n['setups']} set-ups, {n['cycles']} cycles, {n['ops']} ops in the window "
          f"({within['ops_per_s']:.1f} ops/s), run took {detail['wall_s']:.1f} s")
    for name, value in detail["end_to_end"].items():
        note = ""
        if name in within:
            s = within[name]
            note = f"   [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n {s['n']}]"
        if name == "op_slow_ms":
            note += f"   slowest kind of op: {detail['slow_kind']}"
        print(f"   {name:<14}{value:>12.4f} {UNITS[name]}{note}")
    for name, tail in detail["tails_ms"].items():
        print(f"   {name:<14}{tail['value']:>12.4f} ms   [informational"
              f"{'' if tail['supported'] else ', fewer than 10 samples beyond it'}]")
    for kind, s in detail["per_kind_ms"].items():
        print(f"     {kind:<22} median {s['median']:>10.3f} ms   "
              f"[q1 {s['q1']:.3f}, q3 {s['q3']:.3f}, n {s['n']}]")
    if detail["traced"]:
        t = detail["trace"]
        print(f"   traced: {t['stepped_cycles']} stepped cycles, {t['spans']} spans -> "
              f"bench/out/trace-{detail['workload']}.jsonl")
        for name, seconds in t["self_s"].items():
            label = "unaccounted remainder" if name == "op.stepped" else name
            print(f"     self {label:<26}{seconds:>10.4f} s  {seconds / t['stepped_wall_s']:>6.1%}")
        print(f"     self times sum to {t['self_sum_s']:.4f} s of {t['stepped_wall_s']:.4f} s "
              "stepped wall time")
        print(f"     untraced cycle {t['untraced_cycle_s'] * 1e3:.3f} ms, stepped cycle "
              f"{t['stepped_cycle_s'] * 1e3:.3f} ms (stepping skips the facade's bookkeeping "
              "and adds spans)")
        for name, value in detail["per_layer"].items():
            print(f"   {name:<38}{value:>16.6g} {UNITS[name]}")
    result = detail["result"]
    print(f"   attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {result['failed'] / result['attempted']:.6f}")
    for what in detail["failures"]:
        print(f"   FAILED: {what}")
    print(json.dumps(result))
