"""``run`` for one workload (the contract of ``BENCHMARK.json``) and for all of
them (a result file with provenance that ``compare`` reads)."""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
import time
from typing import Optional

import numpy

from bench import stats
from bench.runner import OUT_DIR, ROOT, SPEC, UNITS, print_report, run_workload
from bench.workloads import WORKLOADS

#: ``--smoke`` shrinks the window with the graphs.
SMOKE_SECONDS = 0.5


def _seconds(seconds: Optional[float], smoke: bool) -> float:
    if seconds is not None:
        return seconds
    return SMOKE_SECONDS if smoke else float(SPEC["run_seconds"])


def run_one(name: str, seed: int, seconds: Optional[float], trace: bool, smoke: bool,
            out: Optional[str]) -> int:
    if name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    detail = run_workload(name, seed, _seconds(seconds, smoke), trace, smoke)
    if out:
        with open(out, "w") as fh:
            json.dump(detail, fh, indent=1)
    print_report(detail)
    return 0 if detail["result"]["failed"] == 0 else 1


def _git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def provenance(seed: int, seconds: float, smoke: bool, repeat: int) -> dict:
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "run_seconds": seconds,
        "smoke": smoke,
        "repeat": repeat,
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_all(seed: int, seconds: Optional[float], trace: bool, smoke: bool,
            repeat: Optional[int], out: Optional[str]) -> int:
    """Every workload in a child process of its own, one at a time; ``repeat``
    untraced runs each (seeds ``seed``, ``seed + 1``, ...) and, with
    ``trace``, one traced run.  End-to-end numbers always come from the
    untraced runs."""
    seconds = _seconds(seconds, smoke)
    repeat = repeat if repeat is not None else (1 if smoke else 3)
    began = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    record = {"schema": 1, "provenance": provenance(seed, seconds, smoke, repeat), "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        runs = []
        for traced, run_seed in [(False, seed + i) for i in range(repeat)] + [(True, seed)] * trace:
            detail_path = OUT_DIR / f"detail-{name}-{os.getpid()}.json"
            command = [sys.executable, "-m", "bench", "run", "--workload", name,
                       "--seed", str(run_seed), "--seconds", str(seconds),
                       "--trace", str(int(traced)), "--out", str(detail_path)]
            child = subprocess.run(command + ["--smoke"] * smoke, cwd=ROOT)
            if not detail_path.exists():
                sys.exit(f"bench: {name} ended with code {child.returncode} and no result")
            runs.append(json.loads(detail_path.read_text()))
            detail_path.unlink()
        untraced = [r for r in runs if not r["traced"]]
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {
                metric: dict(stats.summary([r["end_to_end"][metric] for r in untraced]),
                             unit=UNITS[metric],
                             values=[r["end_to_end"][metric] for r in untraced])
                for metric in untraced[0]["end_to_end"]
            },
            "runs": runs,
        }
        if trace:
            entry["per_layer"] = runs[-1]["per_layer"]
        failed += entry["failed"]
        record["workloads"][name] = entry
    record["provenance"]["wall_seconds"] = time.perf_counter() - began

    stamp = record["provenance"]["started_at"].replace(":", "").replace("-", "")[:15]
    path = out or str(OUT_DIR / f"result-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"\n== all workloads: {repeat} run(s) each, {record['provenance']['wall_seconds']:.0f} s, "
          f"commit {record['provenance']['commit'][:12]}"
          f"{' (dirty)' if record['provenance']['dirty'] else ''}")
    for name, entry in record["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            print(f"   {name:<12} {metric:<12} median {s['median']:>12.4f} {s['unit']:<4} "
                  f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']}]")
        print(f"   {name:<12} failed_frac  {entry['failed'] / entry['attempted']:.6f} "
              f"({entry['failed']} of {entry['attempted']})")
    print(f"   result file: {path}")
    return 0 if failed == 0 else 1
