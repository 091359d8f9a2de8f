#!/usr/bin/env python3
"""Fail when the smoke benchmark's work counters differ from the committed ones.

Reads the newest ``bench/out/result-*.json`` (or the file given as the only
argument), which must come from ``python3 -m bench run --smoke --traced``,
and compares the traced run's ``executor.i_cost``,
``executor.intermediate_matches`` and ``executor.matches`` of every workload
named in ``tests/baselines/bench_smoke_counters.json`` with the values
there.  The counters are deterministic for a given plan and graph, so a
kernel change leaves them equal; a change that alters a plan updates the
file and says why.  ``serve_short`` and ``mixed_rw`` are not listed: their
counters depend on how many cycles fit in the time window.

Exit code 0 when every counter matches, 1 otherwise.  Run from anywhere:

    python tools/check_smoke_counters.py [result.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "tests" / "baselines" / "bench_smoke_counters.json"


def main(argv: list) -> int:
    if argv:
        path = Path(argv[0])
    else:
        results = sorted((REPO_ROOT / "bench" / "out").glob("result-*.json"))
        if not results:
            print("check_smoke_counters: no bench/out/result-*.json", file=sys.stderr)
            return 1
        path = results[-1]
    record = json.loads(path.read_text())
    if not record["provenance"]["smoke"]:
        print(f"check_smoke_counters: {path} is not a --smoke run", file=sys.stderr)
        return 1
    expected = json.loads(BASELINE.read_text())
    failures = 0
    for workload, counters in expected.items():
        measured = record["workloads"][workload].get("per_layer")
        if measured is None:
            print(f"{workload}: no traced run in {path} (run with --traced)")
            failures += 1
            continue
        for name, value in counters.items():
            if measured[name] != value:
                print(f"{workload}: {name} is {measured[name]:,.0f}, expected {value:,}")
                failures += 1
    if failures:
        print(f"check_smoke_counters: {failures} counter(s) differ from {BASELINE.name}")
        return 1
    print(f"check_smoke_counters: {path.name} matches {BASELINE.name} on {', '.join(expected)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
