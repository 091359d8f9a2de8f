"""Figure 8: fixed vs adaptive WCO plan spectrums.

Paper result: adaptive ordering selection improves most fixed plans (up to
4.3x for one Q5 plan), and — most importantly — shrinks the gap between the
best and worst plans, making the optimizer robust against bad orderings.

Both sides run on the batch engine (the adaptive operator exists only there)
and every row reports i-cost next to seconds, as the paper's Tables 4-6 do.
"""

from repro.experiments import tables
from repro.experiments.harness import format_table
from repro.query import catalog_queries as cq


def _run(graph):
    all_rows = {}
    for name in ("Q3", "Q4"):
        all_rows[name] = tables.figure8_adaptive_rows(
            graph, cq.get(name), catalogue_z=200, max_plans=12
        )
    return all_rows


def test_fig08_adaptive_spectrums(benchmark, amazon):
    all_rows = benchmark.pedantic(_run, args=(amazon,), iterations=1, rounds=1)
    for name, rows in all_rows.items():
        print()
        print(format_table(rows, title=f"Figure 8 — fixed vs adaptive spectrums, {name} (amazon archetype)"))
        # Results never change.
        assert all(r["matches_fixed"] == r["matches_adaptive"] for r in rows)
        assert all(r["fixed_i_cost"] > 0 and r["adaptive_i_cost"] > 0 for r in rows)
        # Robustness: the spread between best and worst plans should not grow
        # much when adapting (paper: the deviation shrinks).
        fixed_spread = max(r["fixed_s"] for r in rows) / max(min(r["fixed_s"] for r in rows), 1e-9)
        adaptive_spread = max(r["adaptive_s"] for r in rows) / max(
            min(r["adaptive_s"] for r in rows), 1e-9
        )
        assert adaptive_spread <= fixed_spread * 1.5
