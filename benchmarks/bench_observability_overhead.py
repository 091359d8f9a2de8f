"""Observability overhead: instrumented vs uninstrumented serving.

The unified observability layer (``src/repro/obs/``) hooks every served
query: a ``QueryTrace`` with per-operator actual-vs-estimated cardinalities
is built and recorded, latency/q-error histograms are observed, and the
cardinality-feedback table is folded.  The design claim is that all of this
stays off the hot path — trace construction is a handful of allocations,
metric increments take one child lock, and everything expensive (collector
dicts, exposition rendering, quantiles) runs at scrape time only.

This benchmark replays the same repeated-query serving workload (a small
query mix, vertices renamed per request, replayed through
:class:`repro.server.service.QueryService`) in
both modes per graph — ``Observability.enabled = True`` (the default) and
``False`` — with the timed rounds *interleaved* (instrumented, plain,
instrumented, plain, …) so slow environmental drift on a shared runner
cancels out instead of biasing one mode, and gates the instrumented best
round at **<= 5% overhead** on the largest graph.  A second phase replays the same workload through the
persistent morsel process pool (``execution_mode="process"``): worker-side
stage timing, the metrics piggyback on result messages, and the
coordinator-side merge into morsel spans all ride that path and share the
same **<= 5%** bar.  The instrumented service additionally runs its HTTP
ops plane (``QueryService(ops_addr=...)``) and a background client scrapes
``/metrics`` and ``/readyz`` every 200ms throughout the timed rounds, so
the gate covers a live monitoring stack, not an idle one.  Results are
recorded in ``BENCH_observability.json`` at the repo root.

Run directly (also the CI smoke test):

    PYTHONPATH=src python -m pytest benchmarks/bench_observability_overhead.py -q -s
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import datasets
from repro.api import GraphflowDB
from repro.obs import Observability
from repro.query import catalog_queries as cq
from repro.query.query_graph import QueryGraph
from repro.server.service import QueryService

# Ordered smallest to largest; the acceptance bar applies to the last one.
GRAPHS = [
    ("amazon", 0.5),
    ("epinions", 1.0),
    ("livejournal", 1.0),
]

NUM_REQUESTS = 30
CLIENTS = 2
#: Timed replays per mode; the best round is compared (the min is far more
#: stable than the mean on shared CI runners).
ROUNDS = 5
MAX_OVERHEAD_LARGEST = 1.05

#: Process-mode phase: the same replay served through the persistent morsel
#: process pool, instrumented vs not.  Worker-side span collection, the
#: timing piggyback on result messages, and the coordinator-side fold into
#: morsel spans + worker_* metric families all ride this path, and they
#: share the thread-mode overhead bar.  One mid-size graph, a shorter
#: request replay, and fewer rounds: each request pays cross-process
#: dispatch (~1s on epinions), so the phase is sized to stay cheap on small
#: CI runners while still executing dozens of instrumented morsels.
PROCESS_GRAPH = ("epinions", 1.0)
PROCESS_WORKERS = 2
PROCESS_REQUESTS = 12
PROCESS_ROUNDS = 2
MAX_OVERHEAD_PROCESS = MAX_OVERHEAD_LARGEST

#: Scrape cadence for the background ops-plane client during timed rounds —
#: aggressive compared to a production Prometheus (15s+), so the gate prices
#: in a monitoring stack far busier than any real one.
SCRAPE_INTERVAL_SECONDS = 0.2

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_observability.json"


class _OpsScraper:
    """A background Prometheus-style client hammering the instrumented
    service's ops plane while rounds are being timed: every interval it
    GETs ``/metrics`` (a full exposition render over every family and
    collector) and ``/readyz`` (all deep health checks).  The overhead gate
    therefore covers the ops server itself, not just in-process hooks."""

    def __init__(self, url: str, interval: float = SCRAPE_INTERVAL_SECONDS) -> None:
        self.url = url
        self.interval = interval
        self.scrapes = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-ops-scraper", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        from urllib.request import urlopen

        while not self._stop.is_set():
            for path in ("/metrics", "/readyz"):
                try:
                    with urlopen(self.url + path, timeout=5.0) as response:
                        response.read()
                    self.scrapes += 1
                except OSError:
                    self.errors += 1
            self._stop.wait(self.interval)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _workload() -> List[QueryGraph]:
    shapes = [cq.triangle(), cq.diamond_x()]
    return [
        shapes[i % len(shapes)].rename_vertices(
            {v: f"{v}_client{i}" for v in shapes[i % len(shapes)].vertices}
        )
        for i in range(NUM_REQUESTS)
    ]


def _make_db(graph, instrumented: bool) -> GraphflowDB:
    db = GraphflowDB(graph, obs=Observability(enabled=instrumented))
    db.build_catalogue(z=60)
    return db


def _replay(service: QueryService, requests: List[QueryGraph]) -> float:
    start = time.perf_counter()
    results = service.execute_batch(requests)
    elapsed = time.perf_counter() - start
    assert all(r.status == "ok" for r in results), [r.status for r in results]
    return elapsed


def _paired_replay_seconds(
    instrumented_db: GraphflowDB,
    plain_db: GraphflowDB,
    requests: List[QueryGraph],
    rounds: int = ROUNDS,
    **service_kwargs,
) -> Tuple[Dict[bool, float], int]:
    """Best replay seconds for both modes, measured with interleaved rounds.

    The two services stay open together and timed rounds alternate
    instrumented/plain, so slow environmental drift (CPU frequency, memory
    pressure, a noisy CI neighbour) hits both modes equally instead of
    biasing whichever mode happened to run second.  The instrumented
    service additionally runs its HTTP ops plane and is scraped throughout
    the timed rounds by :class:`_OpsScraper`.  Returns
    ``({True: best_instrumented, False: best_plain}, scrape_count)``.
    """
    services = {}
    scraper = None
    times: Dict[bool, List[float]] = {True: [], False: []}
    try:
        for flag, db in ((True, instrumented_db), (False, plain_db)):
            services[flag] = QueryService(
                db,
                max_concurrent=CLIENTS,
                max_queue=len(requests),
                ops_addr=("127.0.0.1", 0) if flag else None,
                **service_kwargs,
            )
            _replay(services[flag], requests)  # warm: plan cache, allocator
        scraper = _OpsScraper(services[True].ops_server.url)
        for _ in range(rounds):
            for flag in (True, False):
                times[flag].append(_replay(services[flag], requests))
    finally:
        if scraper is not None:
            scraper.close()
        for service in services.values():
            service.close()
    assert scraper.scrapes >= 1, "ops plane was never scraped during timed rounds"
    assert scraper.errors == 0, f"{scraper.errors} failed ops scrapes"
    return {flag: min(samples) for flag, samples in times.items()}, scraper.scrapes


def run_process_phase() -> Dict:
    """Instrumented vs uninstrumented serving through the morsel process pool."""
    name, scale = PROCESS_GRAPH
    graph = datasets.load(name, scale=scale)
    requests = _workload()[:PROCESS_REQUESTS]

    instrumented_db = _make_db(graph, instrumented=True)
    plain_db = _make_db(graph, instrumented=False)
    best, scrapes = _paired_replay_seconds(
        instrumented_db,
        plain_db,
        requests,
        rounds=PROCESS_ROUNDS,
        num_workers=PROCESS_WORKERS,
        execution_mode="process",
    )
    instrumented_seconds, plain_seconds = best[True], best[False]
    # The instrumented run must have merged worker-side spans and shipped
    # worker metrics back to the coordinator registry.
    last_trace = instrumented_db.obs.traces.last(kind="query")
    assert last_trace is not None and last_trace.mode == "parallel-process"
    morsel_spans = sum(1 for s in last_trace.spans if s.name == "morsel")
    assert morsel_spans >= 1, "process-mode trace carries no morsel spans"
    exposition = instrumented_db.obs.registry.expose_prometheus()
    assert "graphflow_worker_morsels_total" in exposition
    assert plain_db.obs.traces.stats()["recorded"] == 0
    instrumented_db.close()
    plain_db.close()

    overhead = instrumented_seconds / max(plain_seconds, 1e-9)
    print(
        f"{name}(x{scale}) process pool ({PROCESS_WORKERS} workers): "
        f"uninstrumented {plain_seconds * 1e3:.1f}ms, "
        f"instrumented {instrumented_seconds * 1e3:.1f}ms "
        f"({(overhead - 1) * 100:+.1f}%)"
    )
    return {
        "graph": name,
        "scale": scale,
        "workers": PROCESS_WORKERS,
        "requests": PROCESS_REQUESTS,
        "clients": CLIENTS,
        "rounds": PROCESS_ROUNDS,
        "morsel_spans_last_trace": morsel_spans,
        "ops_scrapes": scrapes,
        "uninstrumented_seconds": round(plain_seconds, 5),
        "instrumented_seconds": round(instrumented_seconds, 5),
        "overhead": round(overhead, 4),
    }


def run_benchmark() -> Dict:
    rows: List[Dict] = []
    requests = _workload()
    for name, scale in GRAPHS:
        graph = datasets.load(name, scale=scale)

        instrumented_db = _make_db(graph, instrumented=True)
        plain_db = _make_db(graph, instrumented=False)
        best, scrapes = _paired_replay_seconds(instrumented_db, plain_db, requests)
        instrumented_seconds, plain_seconds = best[True], best[False]
        # The instrumented run must actually have observed everything.
        recorded = instrumented_db.obs.traces.stats()["recorded"]
        assert recorded >= (ROUNDS + 1) * NUM_REQUESTS, recorded
        assert instrumented_db.obs.feedback.stats()["plans_tracked"] >= 2
        assert plain_db.obs.traces.stats()["recorded"] == 0
        instrumented_db.close()
        plain_db.close()

        overhead = instrumented_seconds / max(plain_seconds, 1e-9)
        rows.append(
            {
                "graph": name,
                "scale": scale,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "requests": NUM_REQUESTS,
                "clients": CLIENTS,
                "rounds": ROUNDS,
                "traces_recorded": recorded,
                "ops_scrapes": scrapes,
                "uninstrumented_seconds": round(plain_seconds, 5),
                "instrumented_seconds": round(instrumented_seconds, 5),
                "overhead": round(overhead, 4),
            }
        )
        print(
            f"{name}(x{scale}): {NUM_REQUESTS} requests x {CLIENTS} clients, "
            f"uninstrumented {plain_seconds * 1e3:.1f}ms, "
            f"instrumented {instrumented_seconds * 1e3:.1f}ms "
            f"({(overhead - 1) * 100:+.1f}%)"
        )
    largest = GRAPHS[-1][0]
    largest_row = next(r for r in rows if r["graph"] == largest)
    process_row = run_process_phase()
    return {
        "benchmark": "observability_overhead",
        "largest_graph": largest,
        "largest_overhead": largest_row["overhead"],
        "max_allowed_overhead_largest": MAX_OVERHEAD_LARGEST,
        "process_overhead": process_row["overhead"],
        "max_allowed_overhead_process": MAX_OVERHEAD_PROCESS,
        "rows": rows,
        "process": process_row,
    }


def test_observability_overhead():
    record = run_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULT_PATH}")
    assert record["largest_overhead"] <= MAX_OVERHEAD_LARGEST, (
        f"per-query tracing must cost <= "
        f"{(MAX_OVERHEAD_LARGEST - 1) * 100:.0f}% on {record['largest_graph']}, "
        f"got {(record['largest_overhead'] - 1) * 100:.1f}%"
    )
    assert record["process_overhead"] <= MAX_OVERHEAD_PROCESS, (
        f"worker-side tracing + metrics shipping must cost <= "
        f"{(MAX_OVERHEAD_PROCESS - 1) * 100:.0f}% in process mode, "
        f"got {(record['process_overhead'] - 1) * 100:.1f}%"
    )


if __name__ == "__main__":
    test_observability_overhead()
