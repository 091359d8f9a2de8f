"""``python3 -m bench compare A.json B.json``: one row per (end-to-end metric,
workload), judged by the bounds in ``BENCHMARK.json``."""

from __future__ import annotations

import json
from pathlib import Path

from bench import stats

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(base, change, better: str, bound: float) -> str:
    """``regressed`` / ``improved`` when the medians differ by more than the
    bound *and* more than either side's own spread; a difference the spread
    could hide is ``unresolved``, never ``unchanged``."""
    base_median, change_median = stats.median(base), stats.median(change)
    worse = (change_median - base_median) / base_median
    if better == "higher":
        worse = -worse
    noise = max(stats.spread(base), stats.spread(change))
    if abs(worse) > max(bound, noise):
        return "regressed" if worse > 0 else "improved"
    return "unresolved" if noise > bound else "unchanged"


def compare_files(base_path: str, change_path: str) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    with open(base_path) as fh:
        base = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    for label, record in (("base", base), ("change", change)):
        p = record["provenance"]
        print(f"{label:<7}{p['commit'][:12]}{' (dirty)' if p['dirty'] else ''}  seed {p['seed']}  "
              f"{p['repeat']} run(s) x {p['run_seconds']:g} s  {p['cpu_count']} cpus  "
              f"python {p['python']}  numpy {p['numpy']}")
    print("ratio = change median / base median; quartiles in brackets")
    bad = False
    for name in base["workloads"]:
        if name not in change["workloads"]:
            print(f"{name}: missing from {change_path}")
            bad = True
            continue
        a, b = base["workloads"][name], change["workloads"][name]
        for metric in spec["end_to_end"]:
            va = a["end_to_end"][metric["name"]]["values"]
            vb = b["end_to_end"][metric["name"]]["values"]
            (a1, am, a3), (b1, bm, b3) = stats.quartiles(va), stats.quartiles(vb)
            what = verdict(va, vb, metric["better"], metric["bound"])
            bad |= what == "regressed"
            print(f"{name:<12} {metric['name']:<12} {am:>11.4f} [{a1:.4f}, {a3:.4f}] -> "
                  f"{bm:>11.4f} [{b1:.4f}, {b3:.4f}] {metric['unit']:<4} ratio {bm / am:.4f} "
                  f"({metric['better']} is better, bound {metric['bound']:g})  {what}")
        fa, fb = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        more_failures = fb > fa
        bad |= more_failures
        print(f"{name:<12} failed_frac  {fa:.6f} -> {fb:.6f}  "
              f"{'regressed' if more_failures else 'unchanged'}")
    return 1 if bad else 0
