"""``python3 -m bench expected [--rebaseline]``: the match counts the analytic
workloads are checked against, computed with the *iterator* engine — a
different executor from the timed vectorized one.  Counts do not depend on
how vertices are numbered, so one file serves every seed."""

from __future__ import annotations

import json

from repro import GraphflowDB, queries

from bench.inputs import EXPECTED_PATH, SMOKE_SCALE, graph_key, load_expected, load_graph
from bench.workloads import WORKLOADS, QueryPass


def compute() -> dict:
    expected: dict = {}
    for workload in WORKLOADS.values():
        if not issubclass(workload, QueryPass):
            continue
        for scale in (workload.scale, workload.scale * SMOKE_SCALE):
            counts = expected.setdefault(graph_key(workload.dataset, scale), {})
            db = GraphflowDB(load_graph(workload.dataset, scale, seed=1))
            for name in workload.query_names:
                if name not in counts:
                    counts[name] = db.execute(queries.get(name), vectorized=False).num_matches
                    print(f"{graph_key(workload.dataset, scale)} {name}: {counts[name]}", flush=True)
    return expected


def check_or_rebaseline(rebaseline: bool) -> int:
    fresh = compute()
    if rebaseline:
        with open(EXPECTED_PATH, "w") as fh:
            json.dump(fresh, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {EXPECTED_PATH}")
        return 0
    if fresh != load_expected():
        print("bench/expected.json differs from the iterator engine's counts")
        return 1
    print("bench/expected.json agrees with the iterator engine")
    return 0
