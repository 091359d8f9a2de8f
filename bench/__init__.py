"""The repository's benchmark: five workloads, each stressing a different
layer, with end-to-end metrics bounded in ``BENCHMARK.json`` and a traced run
that attributes time layer by layer.  See ``bench/README.md``.

Run from the repository root::

    python3 -m bench run --workload wco_cyclic --seed 1 --seconds 10 --trace 0
    python3 -m bench run            # every workload, result file under bench/out/
    python3 -m bench compare A.json B.json
"""
