"""Command-line interface.

A small CLI so that the reproduction can be exercised without writing Python:

    python -m repro.cli datasets
    python -m repro.cli run --dataset amazon --query Q3 --adaptive
    python -m repro.cli run --dataset amazon --query "MATCH (a)-->(b), (b)-->(c), (a)-->(c)"
    python -m repro.cli explain --dataset google --query Q8
    python -m repro.cli spectrum --dataset amazon --query Q5 --max-plans 20
    python -m repro.cli stats --dataset epinions
    python -m repro.cli catalogue --dataset amazon --z 500 --output catalogue.json --show 10
    python -m repro.cli plan --dataset amazon --query Q8 --format dot --output plan.dot
    python -m repro.cli serve --dataset amazon --queries Q1,Q3 --clients 4 --requests 80
    python -m repro.cli update --dataset amazon --queries Q1 --batches 10 --batch-size 100
    python -m repro.cli serve --dataset amazon --queries Q1 --data-dir ./amazon-store
    python -m repro.cli update --dataset amazon --data-dir ./amazon-store --batches 5
    python -m repro.cli checkpoint --data-dir ./amazon-store
    python -m repro.cli recover --data-dir ./amazon-store
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import GraphflowDB, datasets
from repro.executor.operators import ExecutionConfig
from repro.experiments.harness import format_table
from repro.experiments.spectrum import generate_spectrum
from repro.graph.statistics import compute_statistics
from repro.obs import Observability
from repro.query import catalog_queries
from repro.query.cypher import looks_like_cypher, parse_cypher
from repro.query.parser import parse_query


def _load_db(args: argparse.Namespace) -> GraphflowDB:
    # Tracing thresholds and the event log are the database's to configure
    # (`serve --slow-query-seconds / --event-log`); db.close() closes the log.
    db_kwargs = dict(
        obs=Observability(slow_query_seconds=getattr(args, "slow_query_seconds", None)),
        event_log=getattr(args, "event_log", None),
    )
    data_dir = getattr(args, "data_dir", None)
    if data_dir:
        from repro.persistence.store import store_exists

        if store_exists(data_dir):
            # Recover; lock conflicts and corruption diagnostics propagate
            # verbatim instead of being masked by a bootstrap attempt.
            db = GraphflowDB.open(data_dir, **db_kwargs)
            print(f"durable store: {db.durable_store.recovery.describe()}")
        else:
            # Genuinely empty: bootstrap from the requested dataset.
            graph = datasets.load(args.dataset, scale=args.scale, edge_labels=args.edge_labels)
            db = GraphflowDB.open(data_dir, graph=graph, **db_kwargs)
            print(f"durable store: bootstrapped {data_dir} from {graph.name}")
    else:
        graph = datasets.load(args.dataset, scale=args.scale, edge_labels=args.edge_labels)
        db = GraphflowDB(graph, **db_kwargs)
    db.build_catalogue(h=args.h, z=args.z)
    return db


def _resolve_query(text: str):
    try:
        return catalog_queries.get(text)
    except KeyError:
        if looks_like_cypher(text):
            return parse_cypher(text, name="cli-query")
        return parse_query(text, name="cli-query")


def _ops_url(base: str, path: str, params: Optional[dict] = None) -> str:
    """Join an ops-server base URL (``host:port`` accepted) with a path."""
    from urllib.parse import urlencode

    base = base.rstrip("/")
    if "://" not in base:
        base = f"http://{base}"
    url = f"{base}{path}"
    if params:
        query = urlencode({k: v for k, v in params.items() if v is not None})
        if query:
            url = f"{url}?{query}"
    return url


def _ops_get_json(url: str, timeout: float = 10.0):
    """GET a JSON document from a running ops server.

    4xx/5xx responses still carry a JSON body (the ops server always answers
    in JSON), so decode those too instead of surfacing a bare HTTPError.
    """
    import json
    from urllib.error import HTTPError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8")), response.status
    except HTTPError as exc:
        body = exc.read().decode("utf-8", errors="replace")
        try:
            return json.loads(body), exc.code
        except ValueError:
            raise RuntimeError(f"{url}: HTTP {exc.code}: {body.strip()}") from exc


def _scalar_rows(data: dict, prefix: str = "", depth: int = 0) -> list:
    """Flatten a nested stats dict into metric/value table rows (scalar
    leaves only, dotted names, two levels deep — enough for /stats)."""
    rows = []
    for key in sorted(data):
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            if depth < 2:
                rows.extend(_scalar_rows(value, prefix=f"{name}.", depth=depth + 1))
        elif isinstance(value, (list, tuple)):
            continue
        else:
            if isinstance(value, float):
                value = f"{value:.4f}"
            rows.append({"metric": name, "value": str(value)})
    return rows


def cmd_datasets(_: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "domain": spec.domain,
            "paper size": f"{spec.paper_vertices} vertices / {spec.paper_edges} edges",
            "archetype": spec.description,
        }
        for spec in datasets.DATASETS.values()
    ]
    print(format_table(rows, title="registered dataset archetypes"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Without ``--queries``: structural statistics of a dataset (original
    behaviour).  With ``--queries``: run a short workload through a
    :class:`QueryService` and print the unified service/database counters —
    the same data :meth:`QueryService.stats` exposes from Python — as a
    table or, with ``--json``, as one JSON document.  With ``--url``: fetch
    the stats of an already-running server from its ops plane (``GET
    /stats``) instead of spinning anything up locally."""
    import json

    if args.url:
        stats, _ = _ops_get_json(_ops_url(args.url, "/stats"))
        if args.json:
            print(json.dumps(stats, indent=2, default=str))
        else:
            print(
                format_table(
                    _scalar_rows(stats), title=f"service stats from {args.url}"
                )
            )
        return 0

    if not args.queries:
        graph = datasets.load(args.dataset, scale=args.scale)
        stats = compute_statistics(graph)
        if args.json:
            print(
                json.dumps(
                    {
                        "graph": graph.name,
                        "num_vertices": graph.num_vertices,
                        "num_edges": graph.num_edges,
                        "out_degree_mean": stats.out_degrees.mean,
                        "out_degree_max": stats.out_degrees.maximum,
                        "in_degree_mean": stats.in_degrees.mean,
                        "in_degree_max": stats.in_degrees.maximum,
                        "reciprocity": stats.reciprocity,
                        "average_clustering": stats.average_clustering,
                        "triangle_estimate": stats.triangle_estimate,
                    },
                    indent=2,
                )
            )
            return 0
        print(f"{graph}")
        print(f"  out-degree: mean={stats.out_degrees.mean:.2f} max={stats.out_degrees.maximum}")
        print(f"  in-degree:  mean={stats.in_degrees.mean:.2f} max={stats.in_degrees.maximum}")
        print(f"  reciprocity: {stats.reciprocity:.3f}")
        print(f"  average clustering: {stats.average_clustering:.3f}")
        print(f"  triangle estimate: {stats.triangle_estimate:.0f}")
        return 0

    import time

    from repro.server.service import QueryService

    db = _load_db(args)
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    workload = [_resolve_query(names[i % len(names)]) for i in range(args.requests)]
    with QueryService(db) as service:
        iteration = 0
        while True:
            service.execute_batch(workload)
            iteration += 1
            if args.json:
                print(json.dumps(service.stats(), indent=2, default=str))
            else:
                title = f"service stats after {iteration * len(workload)} queries ({','.join(names)})"
                if args.watch is not None:
                    title += time.strftime(" — %H:%M:%S")
                print(format_table(_scalar_rows(service.stats()), title=title))
            if args.watch is None:
                break
            # Hidden test hook: bound the refresh loop; interactive use runs
            # until Ctrl-C.
            if args.watch_iterations is not None and iteration >= args.watch_iterations:
                break
            try:
                time.sleep(args.watch)
            except KeyboardInterrupt:
                break
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Execute one query and print its full trace: spans (plan/cache lookup,
    execution) and per-operator actual-vs-estimated cardinalities with
    q-errors.

    With ``--url`` the traces come from a running server's ops plane
    instead: ``--id N`` fetches one full trace, ``--slow`` the slow-query
    ring, and neither lists recent trace summaries."""
    import json

    if args.url:
        if args.trace_id is not None:
            payload, status = _ops_get_json(
                _ops_url(args.url, f"/traces/{args.trace_id}")
            )
            if status != 200:
                print(f"error: {payload.get('error', payload)}", file=sys.stderr)
                return 1
            print(json.dumps(payload, indent=2, default=str))
            return 0
        path = "/slow" if args.slow else "/traces"
        payload, status = _ops_get_json(_ops_url(args.url, path))
        if status != 200:
            print(f"error: {payload.get('error', payload)}", file=sys.stderr)
            return 1
        traces = payload.get("traces", [])
        if args.json:
            print(json.dumps(payload, indent=2, default=str))
            return 0
        rows = [
            {
                "id": t.get("trace_id"),
                "kind": t.get("kind"),
                "query": t.get("query"),
                "status": t.get("status"),
                "mode": t.get("mode"),
                "matches": t.get("num_matches"),
                "seconds": f"{t.get('total_seconds', 0.0):.4f}",
            }
            for t in traces
        ]
        title = f"{'slow queries' if args.slow else 'recent traces'} from {args.url}"
        if rows:
            print(format_table(rows, title=title))
        else:
            print(f"{title}: none recorded")
        return 0
    if args.query is None:
        print("error: --query is required (or use --url for a remote server)", file=sys.stderr)
        return 2

    db = _load_db(args)
    query = _resolve_query(args.query)
    execute_kwargs = dict(
        adaptive=args.adaptive,
        num_workers=args.workers,
        config=ExecutionConfig(output_limit=args.row_limit),
        execution_mode=args.execution_mode,
    )
    result = db.execute(query, **execute_kwargs)
    trace = result.trace
    if trace is None:  # pragma: no cover - tracing is on by default
        print("error: tracing is disabled on this database", file=sys.stderr)
        return 1
    if args.repeat > 1:
        for _ in range(args.repeat - 1):
            result = db.execute(query, **execute_kwargs)
            trace = result.trace
    if args.json:
        print(json.dumps(trace.as_dict(), indent=2, default=str))
    else:
        print(trace.describe())
        feedback = db.obs.feedback.stats()
        if feedback["plans_tracked"]:
            print(
                f"cardinality feedback: {feedback['plans_tracked']} plan(s) tracked, "
                f"max q-error {feedback['max_q_error']:.2f}"
            )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    db = _load_db(args)
    query = _resolve_query(args.query)
    result = db.execute(
        query,
        adaptive=args.adaptive,
        num_workers=args.workers,
        execution_mode=args.execution_mode,
    )
    mode = result.trace.mode if result.trace is not None else "?"
    print(
        f"{query.name} on {db.graph.name}: {result.num_matches} matches in "
        f"{result.elapsed_seconds:.3f}s (plan={result.plan.plan_type}, "
        f"i-cost={result.i_cost}, mode={mode})"
    )
    db.close_process_pool()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    db = _load_db(args)
    print(db.explain(_resolve_query(args.query)))
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    db = _load_db(args)
    query = _resolve_query(args.query)
    chosen = db.plan(query)
    spectrum = generate_spectrum(
        query, db.graph, catalogue=db.catalogue, chosen_plan=chosen, max_plans=args.max_plans
    )
    rows = [
        {
            "type": p.plan_type,
            "seconds": p.seconds,
            "i_cost": p.i_cost,
            "chosen": "*" if p.is_optimizer_choice else "",
        }
        for p in sorted(spectrum.points, key=lambda p: p.seconds)
    ]
    print(format_table(rows, title=spectrum.summary()))
    return 0


def cmd_catalogue(args: argparse.Namespace) -> int:
    from repro.catalogue.construction import build_catalogue
    from repro.catalogue.persistence import render_entries, save_catalogue

    graph = datasets.load(args.dataset, scale=args.scale, edge_labels=args.edge_labels)
    warm = [catalog_queries.get(name) for name in args.warm_queries.split(",") if name]
    catalogue = build_catalogue(graph, h=args.h, z=args.z, queries=warm)
    print(catalogue.summary())
    if args.show:
        print(render_entries(catalogue, limit=args.show, sort_by_mu=True))
    if args.output:
        save_catalogue(catalogue, args.output)
        print(f"saved to {args.output}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.planner.serialize import plan_to_dot, plan_to_json

    db = _load_db(args)
    query = _resolve_query(args.query)
    plan = db.plan(query)
    rendered = plan_to_dot(plan) if args.format == "dot" else plan_to_json(plan)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} plan for {query.name} to {args.output}")
    else:
        print(rendered)
    return 0


def cmd_plans(args: argparse.Namespace) -> int:
    """Check (or rebaseline) the plan-regression guard suite."""
    import os

    from repro.tuning.regression import (
        DEFAULT_BASELINE_PATH,
        PlanRegressionSuite,
        format_diffs,
    )

    baseline = args.baseline if args.baseline else DEFAULT_BASELINE_PATH
    suite = PlanRegressionSuite()
    if args.rebaseline:
        entries = suite.rebaseline(baseline)
        print(f"recorded {len(entries)} plan signature(s) to {baseline}")
        print("commit the updated baseline with the change that motivated it")
        return 0
    if not os.path.exists(baseline):
        print(
            f"error: no baseline at {baseline!r}; run "
            f"`repro plans --rebaseline` first",
            file=sys.stderr,
        )
        return 2
    diffs = suite.check_path(baseline)
    if diffs:
        print(format_diffs(diffs))
        return 1
    print(
        f"plan regression: {len(suite.case_ids())} case(s) match the baseline "
        f"at {baseline}"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Replay a repeated-query workload through the QueryService and print
    the serving metrics table (QPS, latency percentiles, plan-cache stats)."""
    import time

    from repro.server.service import QueryService

    if args.clients < 1:
        print("error: --clients must be at least 1", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("error: --requests must be at least 1", file=sys.stderr)
        return 2
    db = _load_db(args)
    if args.no_plan_cache:
        db.plan_cache = None
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    base_queries = [_resolve_query(n) for n in names]
    workload = []
    for i in range(args.requests):
        query = base_queries[i % len(base_queries)]
        if args.rename:
            # Rename vertices per request so cache hits come from canonical
            # forms, not object identity.
            query = query.rename_vertices({v: f"{v}_r{i}" for v in query.vertices})
        workload.append(query)

    ops_addr = (args.ops_host, args.ops_port) if args.ops_port is not None else None
    with QueryService(
        db,
        max_concurrent=args.clients,
        max_queue=max(len(workload), 1),
        default_deadline_seconds=args.deadline,
        default_row_limit=args.row_limit,
        num_workers=args.workers,
        execution_mode=args.execution_mode,
        ops_addr=ops_addr,
    ) as service:
        if service.ops_server is not None:
            print(f"ops plane listening on {service.ops_server.url}", flush=True)
        start = time.perf_counter()
        results = service.execute_batch(workload)
        elapsed = time.perf_counter() - start
        matches = sum(r.num_matches for r in results)
        by_status: dict = {}
        for r in results:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        print(
            f"served {len(results)} queries ({','.join(names)}) on {db.graph.name} "
            f"with {args.clients} clients in {elapsed:.3f}s "
            f"({len(results) / elapsed:.1f} q/s, {matches} total matches)"
        )
        print(f"statuses: {by_status}")
        print(format_table(_scalar_rows(service.stats()), title="serving metrics"))
        if args.slow_query_seconds is not None:
            slow = service.slow_queries()
            print(f"slow queries (≥ {args.slow_query_seconds}s): {len(slow)}")
        if args.metrics_dump:
            exposition = service.metrics_prometheus()
            if args.metrics_dump == "-":
                print(exposition, end="")
            else:
                with open(args.metrics_dump, "w", encoding="utf-8") as handle:
                    handle.write(exposition)
                print(f"wrote Prometheus metrics to {args.metrics_dump}")
        if args.hold_seconds:
            # Keep serving (inside the with block: the ops server stays up,
            # /readyz stays green) so external probes and scrapers can hit a
            # live service — the CI ops smoke and ad-hoc debugging both use
            # this.  Ctrl-C ends the hold early.
            print(
                f"holding for {args.hold_seconds:.0f}s "
                "(ops endpoints live; Ctrl-C to stop)",
                flush=True,
            )
            deadline = time.perf_counter() + args.hold_seconds
            try:
                while time.perf_counter() < deadline:
                    time.sleep(min(0.2, max(0.0, deadline - time.perf_counter())))
            except KeyboardInterrupt:
                pass
    # The one shutdown: process pool, event log and, when durable, the final
    # checkpoint + WAL truncate.
    db.close()
    if db.durable_store is not None:
        print(
            f"checkpointed durable store at {db.durable_store.data_dir} "
            f"(snapshot seq {db.durable_store.snapshot_seq})"
        )
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Replay a live-update workload: random edge batches flow through
    ``GraphflowDB.apply_updates`` (versioned delta-CSR storage, incremental
    catalogue stats, plan-cache invalidation) while registered continuous
    queries maintain their match counts incrementally."""
    import time

    import numpy as np

    from repro.continuous import ContinuousQueryEngine

    if args.batches < 1 or args.batch_size < 1:
        print("error: --batches and --batch-size must be at least 1", file=sys.stderr)
        return 2
    db = _load_db(args)
    dynamic = db.to_dynamic()
    start_seq = db.durable_store.last_seq if db.durable_store is not None else 0
    if args.background_compaction:
        db.enable_background_compaction()
    engine = ContinuousQueryEngine(dynamic)
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    for name in names:
        total = engine.register(name, _resolve_query(name))
        print(f"registered {name}: {total} initial matches")

    rng = np.random.default_rng(args.seed)
    n = dynamic.num_vertices
    applied_edges = 0
    used = set()
    start = time.perf_counter()
    for batch_no in range(args.batches):
        batch = []
        while len(batch) < args.batch_size:
            src, dst = (int(x) for x in rng.integers(0, n, 2))
            if src != dst and (src, dst) not in used and not dynamic.has_edge(src, dst, 0):
                used.add((src, dst))
                batch.append((src, dst, 0))
        if db.durable_store is not None:
            # WAL-append before the in-memory commit, under the store's
            # commit lock — the engine's write goes through log_and_apply so
            # a checkpoint can never capture a seq the graph hasn't seen.
            _, results = db.durable_store.log_and_apply(
                batch, (), None, lambda: engine.insert_edges(batch)
            )
        else:
            results = engine.insert_edges(batch)
        # The engine wrote straight to the shared DynamicGraph; refresh the
        # database's catalogue stats / plan cache for the applied triples.
        db.note_external_writes(inserted=batch)
        applied_edges += len(batch)
        deltas = ", ".join(f"{r.query_name}: {r.total} ({r.delta:+d})" for r in results)
        print(f"batch {batch_no + 1}/{args.batches}: +{len(batch)} edges -> {deltas}")
    elapsed = time.perf_counter() - start
    print(
        f"applied {applied_edges} edges in {elapsed:.3f}s "
        f"({applied_edges / elapsed:.0f} updates/s), graph version {dynamic.version}, "
        f"{dynamic.compactions} compaction(s), delta overlay {dynamic.delta_edges} edges"
    )
    if args.background_compaction:
        stats = db.compaction_manager.stats()
        db.disable_background_compaction()
        print(
            f"background compaction: {stats['compactions']} run(s), "
            f"{stats['total_compaction_seconds']:.3f}s off the write path"
        )
    verify = db.execute(_resolve_query(names[0]))
    print(
        f"re-executed {names[0]} on version {db.graph_version}: "
        f"{verify.num_matches} matches (continuous total "
        f"{engine.current_count(names[0])})"
    )
    if db.durable_store is not None:
        logged = db.durable_store.last_seq - start_seq
        db.close()
        print(
            f"durable: {logged} WAL record(s) logged this run, "
            f"checkpointed to snapshot seq {db.durable_store.snapshot_seq} on close"
        )
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """Tail / filter a structured event log: the JSONL stream written by
    ``GraphflowDB(event_log=...)`` / ``serve --event-log``.  Reads every
    segment oldest-first, skips torn or malformed lines, and with
    ``--follow`` keeps polling the newest segment for appended events
    (rotation-aware) until interrupted.

    With ``--url`` the events stream over HTTP from a running server's ops
    plane (``GET /events``) — the same filters apply, and ``--follow``
    holds the NDJSON stream open until interrupted."""
    import json
    import time

    from repro.obs.events import follow_events, iter_events, log_files, tail_events

    types = (
        [t.strip() for t in args.type.split(",") if t.strip()] if args.type else None
    )

    def render(event: dict) -> str:
        if args.json:
            return json.dumps(event, sort_keys=True, default=str)
        stamp = time.strftime("%H:%M:%S", time.localtime(event.get("ts", 0.0)))
        fields = " ".join(
            f"{key}={value}"
            for key, value in event.items()
            if key not in ("v", "ts", "type")
        )
        return f"{stamp}  {event.get('type', '?'):<20} {fields}"

    if args.url:
        from urllib.request import urlopen

        url = _ops_url(
            args.url,
            "/events",
            {
                "type": args.type,
                "tail": args.tail,
                "follow": "1" if args.follow else None,
            },
        )
        try:
            # No timeout in follow mode: the stream stays open on purpose.
            with urlopen(url, timeout=None if args.follow else 10.0) as response:
                if response.status != 200:
                    print(f"error: HTTP {response.status} from {url}", file=sys.stderr)
                    return 1
                for line in response:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line.decode("utf-8", errors="replace"))
                    except ValueError:
                        continue
                    print(render(event), flush=True)
        except KeyboardInterrupt:
            pass
        except OSError as exc:
            print(f"error: {url}: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.path is None:
        print("error: --path is required (or use --url for a remote server)", file=sys.stderr)
        return 2
    if not log_files(args.path):
        print(f"error: no event log at {args.path}", file=sys.stderr)
        return 1
    if args.tail is not None:
        events = tail_events(args.path, n=args.tail, types=types)
    else:
        events = list(iter_events(args.path, types=types))
    for event in events:
        print(render(event))
    if not args.follow:
        return 0
    try:
        for event in follow_events(
            args.path, types=types, poll_interval=args.poll_interval
        ):
            print(render(event), flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Force a checkpoint of an existing durable store: compact state is
    written as a fresh snapshot file and the write-ahead log is truncated
    behind it."""
    db = GraphflowDB.open(args.data_dir)
    store = db.durable_store
    print(f"opened: {store.recovery.describe()}")
    before = store.stats()
    info = store.checkpoint(force=args.force)
    if info is None:
        print(
            f"nothing to checkpoint: snapshot seq {store.snapshot_seq} already "
            "covers every logged record (use --force to rewrite it)"
        )
    else:
        print(
            f"checkpointed {before['wal_records_since_checkpoint']} WAL record(s) "
            f"into {info.path} (seq {info.last_seq}, "
            f"{store.last_checkpoint_seconds:.3f}s)"
        )
    db.close(checkpoint=False)
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Open a durable store, report what recovery did (snapshot loaded, WAL
    records replayed, torn bytes truncated), and verify the result."""
    from repro.persistence import DurableGraphStore

    store = DurableGraphStore.open(args.data_dir)
    report = store.recovery
    print(report.describe())
    for path in report.skipped_snapshots:
        print(f"  skipped corrupt snapshot: {path}")
    dynamic = store.dynamic
    print(
        f"recovered graph: {dynamic.num_vertices} vertices, {dynamic.num_edges} edges "
        f"(snapshot seq {store.snapshot_seq}, last applied seq {store.last_seq})"
    )
    if args.checkpoint and store.dirty:
        info = store.checkpoint()
        print(f"folded WAL tail into new snapshot {info.path} (seq {info.last_seq})")
    store.close(checkpoint=False)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="amazon", help="dataset archetype name")
        p.add_argument("--scale", type=float, default=0.25, help="dataset scale factor")
        p.add_argument("--edge-labels", type=int, default=1, dest="edge_labels")
        p.add_argument("--h", type=int, default=3, help="catalogue max sub-query size")
        p.add_argument("--z", type=int, default=300, help="catalogue sample size")

    def add_execution_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--execution-mode",
            choices=("thread", "process"),
            default="thread",
            dest="execution_mode",
            help="how --workers > 1 runs its morsels: threads in-process, or a "
            "process pool mapping a shared snapshot file (GIL-free; traces "
            "then carry per-morsel worker spans and skew/critical-path summaries)",
        )

    sub.add_parser("datasets", help="list dataset archetypes").set_defaults(func=cmd_datasets)

    stats = sub.add_parser(
        "stats",
        help="structural statistics of a dataset, or (with --queries) the "
        "service/database counters after a short workload",
    )
    add_common(stats)
    stats.add_argument(
        "--queries",
        default=None,
        help="comma-separated query mix; when given, run them through a "
        "QueryService and print serving stats instead of graph structure",
    )
    stats.add_argument(
        "--requests", type=int, default=8, help="workload size for --queries mode"
    )
    stats.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    stats.add_argument(
        "--url",
        default=None,
        metavar="HOST:PORT",
        help="fetch /stats from a running server's ops plane instead of "
        "running a local workload",
    )
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --queries: re-run the workload and refresh the stats "
        "every SECONDS until interrupted",
    )
    stats.add_argument(
        # Test hook: bound the --watch loop to N refreshes.
        "--watch-iterations",
        type=int,
        default=None,
        dest="watch_iterations",
        help=argparse.SUPPRESS,
    )
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace", help="execute one query and print its trace (spans + per-operator q-error)"
    )
    add_common(trace)
    trace.add_argument("--query", default=None, help="query to execute and trace locally")
    trace.add_argument(
        "--url",
        default=None,
        metavar="HOST:PORT",
        help="read traces from a running server's ops plane instead of "
        "executing anything locally",
    )
    trace.add_argument(
        "--id",
        type=int,
        default=None,
        dest="trace_id",
        help="with --url: fetch one full trace by id",
    )
    trace.add_argument(
        "--slow",
        action="store_true",
        help="with --url: list the slow-query ring instead of recent traces",
    )
    trace.add_argument("--adaptive", action="store_true")
    trace.add_argument("--workers", type=int, default=1)
    add_execution_mode(trace)
    trace.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="execute N times and show the last trace (N>1 exercises the plan cache)",
    )
    trace.add_argument(
        "--row-limit",
        type=int,
        default=None,
        dest="row_limit",
        help="stop after this many rows; the plan span shows the limit class it was priced for",
    )
    trace.add_argument("--json", action="store_true", help="emit the trace as JSON")
    trace.set_defaults(func=cmd_trace)

    run = sub.add_parser("run", help="plan and execute a query")
    add_common(run)
    run.add_argument("--query", required=True, help="Q1..Q14, a demo query name, or a pattern string")
    run.add_argument("--adaptive", action="store_true")
    run.add_argument("--workers", type=int, default=1)
    add_execution_mode(run)
    run.set_defaults(func=cmd_run)

    explain = sub.add_parser("explain", help="show the optimizer's plan for a query")
    add_common(explain)
    explain.add_argument("--query", required=True)
    explain.set_defaults(func=cmd_explain)

    spectrum = sub.add_parser("spectrum", help="run the full plan spectrum of a query")
    add_common(spectrum)
    spectrum.add_argument("--query", required=True)
    spectrum.add_argument("--max-plans", type=int, default=30, dest="max_plans")
    spectrum.set_defaults(func=cmd_spectrum)

    catalogue = sub.add_parser("catalogue", help="build (and optionally save) a catalogue")
    add_common(catalogue)
    catalogue.add_argument("--output", default=None, help="write the catalogue to this JSON file")
    catalogue.add_argument("--show", type=int, default=0, help="print the top-N entries")
    catalogue.add_argument(
        "--warm-queries",
        default="Q1,Q3,Q4",
        dest="warm_queries",
        help="comma-separated query names whose extensions are measured eagerly",
    )
    catalogue.set_defaults(func=cmd_catalogue)

    plan = sub.add_parser("plan", help="export the optimizer's plan as JSON or Graphviz DOT")
    add_common(plan)
    plan.add_argument("--query", required=True)
    plan.add_argument("--format", choices=("json", "dot"), default="json")
    plan.add_argument("--output", default=None, help="write to this file instead of stdout")
    plan.set_defaults(func=cmd_plan)

    plans = sub.add_parser(
        "plans", help="diff the optimizer's plans for the canned workload against the baseline"
    )
    plans.add_argument(
        "--check",
        action="store_true",
        help="compare live plan signatures against the baseline (the default)",
    )
    plans.add_argument(
        "--rebaseline",
        action="store_true",
        help="record the live plan signatures as the new baseline",
    )
    plans.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: tests/baselines/plan_regression.json)",
    )
    plans.set_defaults(func=cmd_plans)

    serve = sub.add_parser(
        "serve", help="replay a repeated-query workload through the QueryService"
    )
    add_common(serve)
    serve.add_argument(
        "--queries",
        default="Q1,Q3",
        help="comma-separated query mix (names or pattern strings), cycled over",
    )
    serve.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    serve.add_argument("--requests", type=int, default=40, help="total queries to replay")
    serve.add_argument(
        "--deadline", type=float, default=None, help="per-query deadline in seconds"
    )
    serve.add_argument(
        "--row-limit", type=int, default=None, dest="row_limit", help="per-query row limit"
    )
    serve.add_argument(
        "--rename",
        action="store_true",
        help="rename query vertices per request (exercises canonical-form caching)",
    )
    serve.add_argument(
        "--no-plan-cache",
        action="store_true",
        dest="no_plan_cache",
        help="disable the plan cache (re-optimize every request, for comparison)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="morsel workers per query (1 = serial)"
    )
    add_execution_mode(serve)
    serve.add_argument(
        "--data-dir",
        default=None,
        dest="data_dir",
        help="serve durably from this store directory (recover it if it "
        "exists, else bootstrap it from --dataset); checkpoints on exit",
    )
    serve.add_argument(
        "--metrics-dump",
        default=None,
        dest="metrics_dump",
        metavar="PATH",
        help="after the workload, dump the metrics registry in Prometheus "
        "text format to PATH ('-' for stdout)",
    )
    serve.add_argument(
        "--slow-query-seconds",
        type=float,
        default=None,
        dest="slow_query_seconds",
        help="log and retain queries at least this slow (the slow-query log)",
    )
    serve.add_argument(
        "--event-log",
        default=None,
        dest="event_log",
        metavar="PATH",
        help="stream structured lifecycle events (query finishes, "
        "checkpoints, compactions, pool respawns) to this JSONL file",
    )
    serve.add_argument(
        "--ops-port",
        type=int,
        default=None,
        dest="ops_port",
        metavar="PORT",
        help="start the HTTP ops plane on this port (0 for an ephemeral "
        "one): /metrics, /healthz, /readyz, /stats, /traces, /events",
    )
    serve.add_argument(
        "--ops-host",
        default="127.0.0.1",
        dest="ops_host",
        help="bind address for --ops-port (default: loopback only)",
    )
    serve.add_argument(
        "--hold-seconds",
        type=float,
        default=None,
        dest="hold_seconds",
        metavar="SECONDS",
        help="after the workload, keep the service (and ops endpoints) up "
        "for this long before shutting down (Ctrl-C ends it early)",
    )
    serve.set_defaults(func=cmd_serve)

    events = sub.add_parser(
        "events", help="tail / filter a structured event log (JSONL)"
    )
    events.add_argument("--path", default=None, help="event log file path")
    events.add_argument(
        "--url",
        default=None,
        metavar="HOST:PORT",
        help="stream /events from a running server's ops plane instead of "
        "reading a local file",
    )
    events.add_argument(
        "--type",
        default=None,
        help="comma-separated event types to keep (e.g. slow_query,checkpoint)",
    )
    events.add_argument(
        "--tail", type=int, default=None, metavar="N", help="only the last N events"
    )
    events.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events until interrupted",
    )
    events.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        dest="poll_interval",
        help=argparse.SUPPRESS,
    )
    events.add_argument(
        "--json", action="store_true", help="print raw JSON records instead of columns"
    )
    events.set_defaults(func=cmd_events)

    update = sub.add_parser(
        "update", help="replay a live-update workload with continuous queries"
    )
    add_common(update)
    update.add_argument(
        "--queries",
        default="Q1",
        help="comma-separated continuous queries whose counts are maintained",
    )
    update.add_argument("--batches", type=int, default=10, help="number of update batches")
    update.add_argument(
        "--batch-size", type=int, default=100, dest="batch_size", help="edges per batch"
    )
    update.add_argument("--seed", type=int, default=0, help="RNG seed for generated edges")
    update.add_argument(
        "--background-compaction",
        action="store_true",
        dest="background_compaction",
        help="run delta-CSR compaction on a background thread instead of on writes",
    )
    update.add_argument(
        "--data-dir",
        default=None,
        dest="data_dir",
        help="write-ahead log every update batch into this store directory "
        "(recover it if it exists, else bootstrap from --dataset)",
    )
    update.set_defaults(func=cmd_update)

    checkpoint = sub.add_parser(
        "checkpoint", help="snapshot a durable store and truncate its write-ahead log"
    )
    checkpoint.add_argument("--data-dir", required=True, dest="data_dir")
    checkpoint.add_argument(
        "--force",
        action="store_true",
        help="rewrite the snapshot even when the WAL holds no new records",
    )
    checkpoint.set_defaults(func=cmd_checkpoint)

    recover = sub.add_parser(
        "recover",
        help="open a durable store, report the recovery (replayed records, "
        "truncated torn bytes), and verify checksums",
    )
    recover.add_argument("--data-dir", required=True, dest="data_dir")
    recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="fold the replayed WAL tail into a fresh snapshot before exiting",
    )
    recover.set_defaults(func=cmd_recover)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
