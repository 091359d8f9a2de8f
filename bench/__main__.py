"""``python3 -m bench {run,compare,expected}`` from the repository root."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _enter_program() -> None:
    """Make ``repro`` importable and pin the hash seed.  The benchmark builds
    nothing: the program is pure Python and runs from ``src/``.  Where there
    is no ``src/`` there is no program to measure, and the run must fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not differ from run to run; replacing this
        # process (no child is left behind) is the only way to pin it.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], env)
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload (--workload) or all of them")
    run.add_argument("--workload", help="one workload, reported by the BENCHMARK.json contract")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, help="timed window (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--smoke", action="store_true", help="graphs and window at ~1/20")
    run.add_argument("--repeat", type=int,
                     help="all workloads: runs per workload, seeds seed, seed+1, ... (default 3; 1 with --smoke)")
    run.add_argument("--out", help="write the full detail (one workload) or result file here")

    compare = sub.add_parser("compare", help="verdict per (end-to-end metric, workload)")
    compare.add_argument("base")
    compare.add_argument("change")

    expected = sub.add_parser("expected", help="check or rewrite bench/expected.json")
    expected.add_argument("--rebaseline", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.base, args.change)
    _enter_program()
    if args.command == "expected":
        from bench.expected import check_or_rebaseline

        return check_or_rebaseline(args.rebaseline)
    from bench.suite import run_one, run_all

    trace = bool(args.trace or args.traced)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, trace, args.smoke, args.out)
    return run_all(args.seed, args.seconds, trace, args.smoke, args.repeat, args.out)


if __name__ == "__main__":
    sys.exit(main())
