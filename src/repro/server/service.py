"""A thread-safe query-serving facade over :class:`repro.api.GraphflowDB`.

:class:`QueryService` turns the single-shot experiment API into something a
server can sit behind:

- **Admission control** — at most ``max_concurrent`` queries execute at once;
  up to ``max_queue`` more wait.  A submission beyond both bounds is rejected
  deterministically with :class:`repro.errors.AdmissionError` instead of
  growing an unbounded backlog.
- **Per-query resource bounds** — a deadline (measured from submission, so
  queue time counts) and a row limit, both enforced through the executor's
  :class:`~repro.executor.operators.ExecutionConfig`; a query that exceeds
  its deadline returns a partial result with status ``deadline_exceeded``
  rather than hanging.
- **Plan reuse** — all planning goes through the database's canonical-form
  plan cache, so a repeated query (modulo vertex renaming) invokes the
  optimizer exactly once; :meth:`execute_batch` additionally warms the cache
  for each distinct query shape before fanning the batch out.
- **Live updates with snapshot-isolated reads** — :meth:`submit_update` /
  :meth:`apply_updates` route write batches through the same admission
  control and worker pool as queries, into
  :meth:`repro.api.GraphflowDB.apply_updates`.  Each read pins an MVCC
  snapshot of the :class:`~repro.storage.dynamic.DynamicGraph` at execution
  start, so concurrent writes never change a running query's matches.
- **Observability** — rolling QPS and latency percentiles plus admission,
  status, update, and plan-cache counters via :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AdmissionError
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import check_execution_mode
from repro.obs.trace import QueryTrace
from repro.query.query_graph import QueryGraph
from repro.server.metrics import MetricsSnapshot, ServiceMetrics
from repro.server.prepared import PreparedQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future as _Future

    from repro.api import GraphflowDB, QueryResult, UpdateResult


#: Terminal statuses a served query can end in.
STATUS_OK = "ok"
STATUS_TRUNCATED = "truncated"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
STATUS_ERROR = "error"


@dataclass
class ServiceResult:
    """Outcome of one served query."""

    query_name: str
    status: str
    result: Optional["QueryResult"]
    error: Optional[str]
    queue_seconds: float
    total_seconds: float

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def num_matches(self) -> int:
        """Matches produced (possibly partial for non-``ok`` statuses)."""
        return self.result.num_matches if self.result is not None else 0

    def __repr__(self) -> str:
        return (
            f"ServiceResult({self.query_name!r}, status={self.status!r}, "
            f"matches={self.num_matches}, total={self.total_seconds:.3f}s)"
        )


class QueryService:
    """Concurrent, bounded query serving over a single ``GraphflowDB``.

    Parameters
    ----------
    db:
        The database to serve.  Its plan cache and planner counters are
        shared with direct API use.
    max_concurrent:
        Number of queries executing simultaneously (worker threads).
    max_queue:
        Additional submissions allowed to wait; beyond
        ``max_concurrent + max_queue`` in flight, :meth:`submit` raises
        :class:`AdmissionError`.
    default_deadline_seconds / default_row_limit:
        Per-query bounds applied when a submission does not override them.
    num_workers:
        Morsel-parallel workers used *within* each query's execution
        (:func:`repro.executor.parallel.execute_parallel`); 1 means the
        single-threaded pipeline.
    execution_mode:
        ``"thread"`` (default) or ``"process"``: how ``num_workers > 1``
        queries distribute their morsels.  Process mode warms a
        :class:`~repro.executor.multiprocess.MorselProcessPool` at
        construction — worker processes that map the durable store's
        snapshot file (or a spooled copy) read-only and execute morsels
        GIL-free — and shuts it down in :meth:`close`.  Queries the pool
        cannot ship (e.g. a dirty snapshot whose delta exceeds the shipping
        threshold) fall back to in-process thread execution per query.  A
        submission can override the mode per query.
    vectorized / batch_size:
        Default execution mode for served queries: when ``vectorized`` is
        True, plans run through the batch-at-a-time (columnar) engine with
        ``batch_size``-row frames instead of the tuple-at-a-time pipeline.
        Vectorized reads run on the pinned snapshot directly (dirty or not)
        — serving a dynamic graph never compacts on the query path.
        Deadline and row-limit semantics are unchanged (deadlines are checked
        per batch; the final frame is truncated to the row limit).  A
        submission can override the mode per query.
    background_compaction:
        When True, enable :meth:`GraphflowDB.enable_background_compaction`
        on the served database: update submissions return as soon as the
        delta is appended, and the CSR rebuild runs on a background thread
        with an atomic base swap (pinned snapshots keep serving the old
        base).  The manager is stopped by :meth:`close` if this service
        enabled it.
    compaction_ratio / compaction_min_delta_edges / compaction_min_interval_seconds:
        Overlay thresholds and pacing floor forwarded to the compaction
        manager (``None`` inherits the dynamic graph's / manager's own
        settings).
    data_dir:
        When set, serve durably: an existing store under ``data_dir`` is
        recovered into the database (snapshot + WAL-tail replay), an empty
        directory is bootstrapped from the database's current graph, and
        every update thereafter is write-ahead logged before its in-memory
        commit.  :meth:`close` then checkpoints the final state
        (``checkpoint_on_close``) so the next start replays nothing.
        Combine with ``background_compaction`` to turn compactions into
        checkpoints during operation.
    checkpoint_on_close / wal_sync_every:
        Graceful-shutdown checkpointing toggle and the WAL's group-commit
        width, both forwarded to the durable store.
    metrics_window_seconds:
        Width of the rolling metrics window reported by :meth:`stats`.
    trace:
        Per-query tracing toggle (default on).  When True every served
        request — queries *and* updates — leaves a
        :class:`~repro.obs.trace.QueryTrace` in the database's bounded trace
        ring: admission wait, plan/cache lookup, execution, and (for durable
        updates) WAL-append spans, plus per-operator actual-vs-estimated
        cardinalities.  When False the database records no traces, metrics,
        or cardinality feedback for requests served here.
    trace_capacity:
        Traces retained in the ring (oldest evicted first).
    slow_query_seconds:
        When set, requests at least this slow are also kept in a separate
        slow-query ring (:meth:`slow_queries`) and logged at WARNING level
        via the ``repro.obs.slowlog`` logger.
    event_log:
        A path (or :class:`~repro.obs.events.EventLog`) to stream structured
        lifecycle events to: query finishes, slow queries, update batches,
        checkpoints, compaction installs, pool respawns, fallbacks, and
        recovery — one JSON object per line, size-rotated.  A path given
        here is opened by (and closed with) this service; an ``EventLog``
        object is shared and stays open.
    self_tuning:
        When True, run the self-tuning optimizer loop for the served
        database: a :class:`~repro.tuning.CatalogueRefresher` thread
        re-samples the catalogue off the write path once its staleness
        crosses ``tuning_stale_threshold`` (installing via epoch CAS and
        invalidating the plan cache), and each cycle a
        :class:`~repro.tuning.Reoptimizer` pass re-plans cached plans whose
        worst-operator q-error drifted past ``tuning_qerror_threshold``,
        evicting only when the new plan is cheaper than the old by
        ``tuning_cost_margin``.  The loop is stopped by :meth:`close`.
    tuning_stale_threshold / tuning_qerror_threshold / tuning_cost_margin:
        The loop's sense/decide thresholds (see above).
    tuning_poll_interval_seconds / tuning_min_refresh_interval_seconds / tuning_refresh_z:
        Cadence of the staleness check, pacing floor between installed
        refreshes, and the re-sample's sample count (``None`` keeps the
        catalogue's own ``z``).
    ops_addr:
        When set, start the HTTP ops plane (:class:`~repro.obs.http.OpsServer`)
        alongside the service: an int port, a ``"port"`` / ``"host:port"``
        string, or a ``(host, port)`` tuple (port 0 picks an ephemeral one;
        the bound address is :attr:`ops_address`).  The server exposes
        ``/metrics``, ``/healthz``, ``/readyz`` (the database's health
        registry), ``/stats`` (this service's :meth:`stats`), the trace
        rings, and ``/events`` streaming.  :meth:`close` marks the node
        draining (``/readyz`` flips to 503) before tearing anything down,
        then stops the server last, so a load balancer watching ``/readyz``
        rotates the node out before in-flight queries finish draining.
    """

    def __init__(
        self,
        db: "GraphflowDB",
        max_concurrent: int = 4,
        max_queue: int = 16,
        default_deadline_seconds: Optional[float] = None,
        default_row_limit: Optional[int] = None,
        num_workers: int = 1,
        execution_mode: str = "thread",
        vectorized: bool = False,
        batch_size: int = 2048,
        background_compaction: bool = False,
        compaction_ratio: Optional[float] = None,
        compaction_min_delta_edges: Optional[int] = None,
        compaction_min_interval_seconds: Optional[float] = None,
        data_dir: Optional[str] = None,
        checkpoint_on_close: bool = True,
        wal_sync_every: int = 8,
        metrics_window_seconds: float = 60.0,
        trace: bool = True,
        trace_capacity: Optional[int] = None,
        slow_query_seconds: Optional[float] = None,
        event_log: Optional[object] = None,
        self_tuning: bool = False,
        tuning_stale_threshold: float = 0.25,
        tuning_qerror_threshold: float = 2.0,
        tuning_cost_margin: float = 0.9,
        tuning_poll_interval_seconds: float = 0.05,
        tuning_min_refresh_interval_seconds: float = 0.0,
        tuning_refresh_z: Optional[int] = None,
        ops_addr: Optional[Union[int, str, Tuple[str, int]]] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        self.db = db
        # Event log before durability/compaction so their lifecycle events
        # (recovery happens in enable_durability's recovery path, compaction
        # installs on the manager thread) have somewhere to land.
        self._owns_event_log = event_log is not None and not hasattr(event_log, "emit")
        if event_log is not None:
            db.obs.attach_event_log(event_log)
        # Durability first: the durable store owns the dynamic graph a
        # compaction manager would watch, so attach it before compaction.
        # Mirror enable_durability's attach condition exactly: a closed
        # leftover store means *this* service's call opens a fresh one, which
        # this service must then checkpoint and close.
        self._owns_durability = data_dir is not None and (
            db.durable_store is None or db.durable_store.closed
        )
        self._checkpoint_on_close = checkpoint_on_close
        if data_dir is not None:
            db.enable_durability(data_dir, sync_every=wal_sync_every)
        self._owns_compaction = background_compaction and db.compaction_manager is None
        if background_compaction:
            db.enable_background_compaction(
                compact_ratio=compaction_ratio,
                min_delta_edges=compaction_min_delta_edges,
                min_interval_seconds=compaction_min_interval_seconds,
            )
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.default_deadline_seconds = default_deadline_seconds
        self.default_row_limit = default_row_limit
        self.num_workers = num_workers
        self.execution_mode = check_execution_mode(execution_mode)
        # Process mode: warm the pool now (workers spawn, the base ships on
        # the first query) so serving latency never pays pool startup; this
        # service then owns the pool's shutdown.
        self._owns_process_pool = execution_mode == "process" and num_workers > 1
        if self._owns_process_pool:
            db.enable_process_pool(num_workers)
        self.vectorized = vectorized
        self.batch_size = batch_size
        # Self-tuning loop (catalogue auto-refresh + feedback-driven
        # re-optimization).  Started after compaction/durability so the
        # refresher watches the graph the service actually serves; owned and
        # stopped by close().
        self.reoptimizer = None
        self.catalogue_refresher = None
        self._owns_tuning = False
        if self_tuning:
            from repro.tuning import CatalogueRefresher, Reoptimizer

            self.reoptimizer = Reoptimizer(
                db,
                qerror_threshold=tuning_qerror_threshold,
                cost_margin=tuning_cost_margin,
            )
            self.catalogue_refresher = CatalogueRefresher(
                db,
                stale_threshold=tuning_stale_threshold,
                poll_interval_seconds=tuning_poll_interval_seconds,
                min_interval_seconds=tuning_min_refresh_interval_seconds,
                z=tuning_refresh_z,
                reoptimizer=self.reoptimizer,
            )
            self.catalogue_refresher.start()
            self._owns_tuning = True
            db.obs.registry.register_collector("tuning", self._collect_tuning_stats)
            from repro.obs.health import thread_alive_check

            db.health.register(
                "catalogue_refresher",
                thread_alive_check(
                    lambda: self.catalogue_refresher is not None
                    and self.catalogue_refresher.running,
                    description="catalogue refresher",
                ),
            )
        self.metrics = ServiceMetrics(window_seconds=metrics_window_seconds)
        # Observability: the database owns the registry/trace ring/feedback
        # table; the service configures them and layers request-level data
        # (rolling window, admission counters) on via a collector.
        self.obs = db.obs
        self.obs.enabled = trace
        if slow_query_seconds is not None:
            self.obs.traces.slow_seconds = slow_query_seconds
        if trace_capacity is not None:
            self.obs.traces.set_capacity(trace_capacity)
        self.obs.registry.register_collector("service", self._collect_service_stats)
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="query-service"
        )
        self._lock = threading.Lock()
        self._slots_free = threading.Condition(self._lock)
        self._in_flight = 0
        self._closed = False
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "rejected": 0,
            "updates": 0,
            "update_edges": 0,
            STATUS_OK: 0,
            STATUS_TRUNCATED: 0,
            STATUS_DEADLINE_EXCEEDED: 0,
            STATUS_ERROR: 0,
        }
        # The HTTP ops plane starts last, once every subsystem (and its
        # health check) is attached — the first /readyz can never observe a
        # half-constructed service.
        self.ops_server = None
        if ops_addr is not None:
            from repro.obs.http import OpsServer, parse_ops_addr

            host, port = parse_ops_addr(ops_addr)
            self.ops_server = OpsServer(
                self.obs,
                health=db.health,
                stats_fn=self.stats,
                host=host,
                port=port,
            )

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Total in-flight bound (running + queued)."""
        return self.max_concurrent + self.max_queue

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _admit(self, block: bool) -> None:
        with self._slots_free:
            if self._closed:
                raise AdmissionError("query service is closed")
            if not block and self._in_flight >= self.capacity:
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"service at capacity: {self._in_flight} queries in flight "
                    f"(max_concurrent={self.max_concurrent}, max_queue={self.max_queue})"
                )
            while self._in_flight >= self.capacity:
                self._slots_free.wait()
                if self._closed:
                    raise AdmissionError("query service is closed")
            self._in_flight += 1
            self.counters["submitted"] += 1

    def _release(self) -> None:
        with self._slots_free:
            self._in_flight -= 1
            self._slots_free.notify_all()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: Union[QueryGraph, str],
        collect: bool = False,
        adaptive: bool = False,
        deadline_seconds: Optional[float] = None,
        row_limit: Optional[int] = None,
        num_workers: Optional[int] = None,
        vectorized: Optional[bool] = None,
        execution_mode: Optional[str] = None,
        _block: bool = False,
    ) -> "Future[ServiceResult]":
        """Submit a query for asynchronous execution.

        Raises :class:`AdmissionError` immediately when the service is at
        capacity (running + queued ≥ ``max_concurrent + max_queue``); never
        blocks the caller otherwise.  The returned future resolves to a
        :class:`ServiceResult` and never raises for query-level failures —
        errors are reported through ``status``/``error``.
        """
        query_graph = self.db._as_query(query) if not isinstance(query, QueryGraph) else query
        self._admit(block=_block)
        submit_time = time.monotonic()
        try:
            return self._pool.submit(
                self._run,
                query_graph,
                submit_time,
                collect,
                adaptive,
                deadline_seconds if deadline_seconds is not None else self.default_deadline_seconds,
                row_limit if row_limit is not None else self.default_row_limit,
                num_workers if num_workers is not None else self.num_workers,
                vectorized if vectorized is not None else self.vectorized,
                execution_mode if execution_mode is not None else self.execution_mode,
            )
        except BaseException:
            self._release()
            raise

    def execute(self, query: Union[QueryGraph, str], **options) -> ServiceResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(query, **options).result()

    def execute_batch(
        self,
        queries: Sequence[Union[QueryGraph, str]],
        collect: bool = False,
        adaptive: bool = False,
        deadline_seconds: Optional[float] = None,
        row_limit: Optional[int] = None,
        vectorized: Optional[bool] = None,
        execution_mode: Optional[str] = None,
    ) -> List[ServiceResult]:
        """Execute a batch, sharing planning across identical query shapes.

        Each *distinct* canonical query form in the batch is planned exactly
        once: the plan cache's leader election collapses concurrent misses on
        the same canonical key, so distinct shapes plan concurrently across
        the worker pool while repeats wait for (then reuse) the leader's
        plan.  Unlike :meth:`submit`, batch admission blocks instead of
        rejecting, so a batch larger than the queue bound flows through in
        waves; results come back in input order.
        """
        graphs = [
            q if isinstance(q, QueryGraph) else self.db._as_query(q) for q in queries
        ]
        futures = [
            self.submit(
                graph,
                collect=collect,
                adaptive=adaptive,
                deadline_seconds=deadline_seconds,
                row_limit=row_limit,
                vectorized=vectorized,
                execution_mode=execution_mode,
                _block=True,
            )
            for graph in graphs
        ]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def submit_update(
        self,
        inserts: Sequence[Tuple[int, ...]] = (),
        deletes: Sequence[Tuple[int, ...]] = (),
        new_vertex_labels: Optional[Sequence[int]] = None,
        _block: bool = False,
    ) -> "_Future[UpdateResult]":
        """Submit a live update batch for asynchronous application.

        Updates share the worker pool and admission bounds with queries, so a
        write-heavy client cannot starve reads past the configured capacity.
        Reads started before the update resolves keep their pinned snapshot
        (snapshot isolation); reads submitted after it see the new version.
        """
        self._admit(block=_block)
        try:
            return self._pool.submit(self._run_update, inserts, deletes, new_vertex_labels)
        except BaseException:
            self._release()
            raise

    def apply_updates(
        self,
        inserts: Sequence[Tuple[int, ...]] = (),
        deletes: Sequence[Tuple[int, ...]] = (),
        new_vertex_labels: Optional[Sequence[int]] = None,
    ) -> "UpdateResult":
        """Synchronous convenience wrapper around :meth:`submit_update`."""
        return self.submit_update(inserts, deletes, new_vertex_labels, _block=True).result()

    def _run_update(
        self,
        inserts: Sequence[Tuple[int, ...]],
        deletes: Sequence[Tuple[int, ...]],
        new_vertex_labels: Optional[Sequence[int]],
    ) -> "UpdateResult":
        try:
            result = self.db.apply_updates(
                inserts=inserts, deletes=deletes, new_vertex_labels=new_vertex_labels
            )
        finally:
            self._release()
        with self._lock:
            self.counters["updates"] += 1
            self.counters["update_edges"] += result.num_applied
        return result

    def prepare(
        self,
        query: Union[QueryGraph, str],
        vertex_params: Optional[Dict[str, str]] = None,
        edge_params: Optional[Dict[Tuple[str, str], str]] = None,
        name: Optional[str] = None,
    ) -> PreparedQuery:
        """A :class:`PreparedQuery` against this service's database."""
        return PreparedQuery(
            self.db, query, vertex_params=vertex_params, edge_params=edge_params, name=name
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _run(
        self,
        query: QueryGraph,
        submit_time: float,
        collect: bool,
        adaptive: bool,
        deadline_seconds: Optional[float],
        row_limit: Optional[int],
        num_workers: int,
        vectorized: bool,
        execution_mode: str,
    ) -> ServiceResult:
        start = time.monotonic()
        queue_seconds = start - submit_time
        deadline = submit_time + deadline_seconds if deadline_seconds is not None else None
        result: Optional["QueryResult"] = None
        error: Optional[str] = None
        try:
            if deadline is not None and start >= deadline:
                # The deadline expired while the query sat in the queue.
                status = STATUS_DEADLINE_EXCEEDED
            else:
                config = ExecutionConfig(
                    output_limit=row_limit,
                    deadline=deadline,
                    vectorized=vectorized,
                    batch_size=self.batch_size,
                )
                result = self.db.execute(
                    query,
                    adaptive=adaptive,
                    collect=collect,
                    num_workers=num_workers,
                    config=config,
                    execution_mode=execution_mode,
                )
                if result.deadline_exceeded:
                    status = STATUS_DEADLINE_EXCEEDED
                elif result.truncated:
                    status = STATUS_TRUNCATED
                else:
                    status = STATUS_OK
        except Exception as exc:  # query-level failure, not a service failure
            status = STATUS_ERROR
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._release()
        total_seconds = time.monotonic() - submit_time
        self.metrics.record(total_seconds)
        with self._lock:
            self.counters[status] += 1
        if self.obs.enabled:
            trace = result.trace if result is not None else None
            if trace is not None:
                # The database built and recorded the trace (plan/execute
                # spans); wrap it in the serving context: the admission-wait
                # span up front, and the end-to-end total including it.
                trace.prepend_span("admission_wait", queue_seconds)
                trace.total_seconds = total_seconds
                trace.status = status
            else:
                # Queue-expired deadline or a query-level error: the database
                # never ran, but the request still leaves a trace.
                trace = QueryTrace(
                    query_name=query.name,
                    status=status,
                    mode="queued",
                    total_seconds=total_seconds,
                )
                trace.add_span("admission_wait", queue_seconds)
                if error is not None:
                    trace.add_span("error", total_seconds - queue_seconds, message=error)
                self.obs.record_query(trace)
            self.obs.admission_wait_seconds.labels().observe(queue_seconds)
        return ServiceResult(
            query_name=query.name,
            status=status,
            result=result,
            error=error,
            queue_seconds=queue_seconds,
            total_seconds=total_seconds,
        )

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #
    def recent_traces(self, n: Optional[int] = None, kind: Optional[str] = None):
        """The most recent :class:`~repro.obs.trace.QueryTrace` records
        (newest last); ``kind`` filters to ``"query"`` or ``"update"``."""
        return self.obs.traces.recent(n, kind=kind)

    def trace(self, trace_id: int):
        """Look a trace up by id (None once evicted from the ring)."""
        return self.obs.traces.get(trace_id)

    def slow_queries(self, n: Optional[int] = None):
        """Traces that crossed ``slow_query_seconds`` (newest last)."""
        return self.obs.traces.slow(n)

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of the database's registry
        (includes this service's request-level collector)."""
        return self.obs.registry.expose_prometheus()

    def _collect_tuning_stats(self) -> dict:
        """Self-tuning loop numbers for the registry's ``tuning`` collector."""
        refresher = self.catalogue_refresher
        reopt = self.reoptimizer
        out: dict = {}
        if refresher is not None:
            out.update(refresher.stats())
        if reopt is not None:
            out["reoptimizer"] = reopt.stats()
        return out

    def refresh_catalogue_now(self) -> bool:
        """Synchronously run one catalogue re-sample + install (requires
        ``self_tuning=True``); returns whether a catalogue was installed."""
        if self.catalogue_refresher is None:
            raise RuntimeError("self_tuning is disabled for this service")
        return self.catalogue_refresher.refresh_now()

    def reoptimize_now(self):
        """Synchronously run one re-optimization pass over drifting plans
        (requires ``self_tuning=True``); returns the pass report."""
        if self.reoptimizer is None:
            raise RuntimeError("self_tuning is disabled for this service")
        return self.reoptimizer.run_once()

    def _collect_service_stats(self) -> dict:
        """Request-level numbers for the metrics registry's collector (flat,
        numeric leaves only — strings are skipped by the flattener)."""
        snapshot: MetricsSnapshot = self.metrics.snapshot()
        with self._lock:
            counters = dict(self.counters)
            in_flight = self._in_flight
        return {
            "qps": snapshot.qps,
            "latency_p50_seconds": snapshot.p50_seconds,
            "latency_p95_seconds": snapshot.p95_seconds,
            "latency_p99_seconds": snapshot.p99_seconds,
            "in_flight": in_flight,
            "counters": counters,
        }

    def stats(self) -> dict:
        """Rolling metrics, status counters, and plan-cache statistics."""
        snapshot: MetricsSnapshot = self.metrics.snapshot()
        with self._lock:
            counters = dict(self.counters)
            in_flight = self._in_flight
        out = {
            "qps": snapshot.qps,
            "latency_p50_seconds": snapshot.p50_seconds,
            "latency_p95_seconds": snapshot.p95_seconds,
            "latency_p99_seconds": snapshot.p99_seconds,
            "latency_mean_seconds": snapshot.mean_seconds,
            "window_queries": snapshot.count,
            "in_flight": in_flight,
            "counters": counters,
            "planner_invocations": self.db.planner_invocations,
            "graph_version": self.db.graph_version,
            "catalogue_stale_fraction": self.db.catalogue_stale_fraction,
        }
        if self.db.plan_cache is not None:
            out["plan_cache"] = self.db.plan_cache.stats.as_dict()
        if self.db.compaction_manager is not None:
            out["compaction"] = self.db.compaction_manager.stats()
        if self.db.durable_store is not None:
            out["persistence"] = self.db.durable_store.stats()
        pool_stats = self.db._process_pool_stats()
        if pool_stats:
            out["process_pool"] = pool_stats
            # Worker section: the cross-generation per-worker totals plus the
            # pool generation, pulled up for `repro stats --json` consumers.
            out["workers"] = {
                "generation": pool_stats.get("generation", 0),
                "queue_wait_p50_seconds": pool_stats.get("queue_wait_p50_seconds", 0.0),
                "queue_wait_p99_seconds": pool_stats.get("queue_wait_p99_seconds", 0.0),
                **pool_stats.get("workers", {}),
            }
        if self.catalogue_refresher is not None:
            out["tuning"] = self._collect_tuning_stats()
        out["traces"] = self.obs.traces.stats()
        out["cardinality_feedback"] = self.obs.feedback.stats()
        out["events"] = (
            self.obs.event_log.stats()
            if self.obs.event_log is not None
            else {"attached": False}
        )
        out["health"] = self.db.health.run().as_dict()
        if self.ops_server is not None:
            out["ops"] = {"url": self.ops_server.url, "closed": self.ops_server.closed}
        return out

    def stats_rows(self) -> List[dict]:
        """The stats flattened into rows for ``format_table``."""
        stats = self.stats()
        rows = [
            {"metric": "graph version", "value": str(stats["graph_version"])},
            {"metric": "qps", "value": f"{stats['qps']:.1f}"},
            {"metric": "latency p50 (ms)", "value": f"{stats['latency_p50_seconds'] * 1e3:.2f}"},
            {"metric": "latency p95 (ms)", "value": f"{stats['latency_p95_seconds'] * 1e3:.2f}"},
            {"metric": "latency p99 (ms)", "value": f"{stats['latency_p99_seconds'] * 1e3:.2f}"},
            {"metric": "queries in window", "value": str(stats["window_queries"])},
            {"metric": "planner invocations", "value": str(stats["planner_invocations"])},
        ]
        for name, count in stats["counters"].items():
            rows.append({"metric": f"queries {name}", "value": str(count)})
        cache = stats.get("plan_cache")
        if cache:
            rows.append({"metric": "plan cache hits", "value": str(cache["hits"])})
            rows.append({"metric": "plan cache misses", "value": str(cache["misses"])})
            rows.append({"metric": "plan cache hit rate", "value": f"{cache['hit_rate']:.1%}"})
        compaction = stats.get("compaction")
        if compaction:
            rows.append(
                {"metric": "background compactions", "value": str(compaction["compactions"])}
            )
            rows.append(
                {"metric": "delta overlay edges", "value": str(compaction["delta_edges"])}
            )
        if stats["catalogue_stale_fraction"]:
            rows.append(
                {
                    "metric": "catalogue stale fraction",
                    "value": f"{stats['catalogue_stale_fraction']:.1%}",
                }
            )
        persistence = stats.get("persistence")
        if persistence:
            rows.append({"metric": "wal last seq", "value": str(persistence["last_seq"])})
            rows.append(
                {
                    "metric": "wal records since checkpoint",
                    "value": str(persistence["wal_records_since_checkpoint"]),
                }
            )
            rows.append({"metric": "checkpoints", "value": str(persistence["checkpoints"])})
        traces = stats.get("traces")
        if traces and traces.get("recorded"):
            rows.append({"metric": "traces recorded", "value": str(traces["recorded"])})
            if traces.get("slow_queries"):
                rows.append({"metric": "slow queries", "value": str(traces["slow_queries"])})
        workers = stats.get("workers")
        if workers:
            rows.append({"metric": "pool generation", "value": str(workers["generation"])})
            for name, per_worker in sorted(workers.items()):
                if isinstance(per_worker, dict):
                    rows.append(
                        {
                            "metric": f"worker {name} busy (ms)",
                            "value": f"{per_worker['busy_seconds'] * 1e3:.2f}",
                        }
                    )
        events = stats.get("events")
        if events and events.get("attached"):
            rows.append({"metric": "events emitted", "value": str(events["emitted"])})
        tuning = stats.get("tuning")
        if tuning:
            rows.append({"metric": "catalogue refreshes", "value": str(tuning["refreshes"])})
            rows.append({"metric": "catalogue epoch", "value": str(tuning["catalogue_epoch"])})
            reopt = tuning.get("reoptimizer")
            if reopt:
                rows.append({"metric": "plan replans", "value": str(reopt["replans"])})
                rows.append({"metric": "plan changes", "value": str(reopt["plan_changes"])})
        feedback = stats.get("cardinality_feedback")
        if feedback and feedback.get("plans_tracked"):
            rows.append({"metric": "plans with feedback", "value": str(feedback["plans_tracked"])})
            rows.append({"metric": "max q-error", "value": f"{feedback['max_q_error']:.2f}"})
            rows.append(
                {"metric": "plans drifting (q-error ≥ 2)", "value": str(feedback["drifting_over_2"])}
            )
        return rows

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries and (optionally) wait for in-flight ones;
        stops the background compaction manager if this service enabled it
        and, when this service attached durability, checkpoints and closes
        the durable store (graceful shutdown: restart replays nothing).

        With an ops server attached, the node is marked draining *first* —
        ``/readyz`` flips to 503 while in-flight queries finish — and the
        server itself stops *last*, so external probes watch the shutdown
        all the way through."""
        if self.ops_server is not None:
            self.db.health.set_draining(True, reason="service closing")
        with self._slots_free:
            self._closed = True
            self._slots_free.notify_all()
        # Stop the tuning loop before draining workers: it reads planner
        # state that the teardown below starts dismantling.
        if self._owns_tuning and self.catalogue_refresher is not None:
            self.catalogue_refresher.stop(wait=wait)
            self._owns_tuning = False
            self.db.health.unregister("catalogue_refresher")
        self._pool.shutdown(wait=wait)
        if self._owns_process_pool:
            self.db.close_process_pool()
            self._owns_process_pool = False
        if self._owns_compaction:
            self.db.disable_background_compaction(wait=wait)
            self._owns_compaction = False
        if self._owns_durability:
            store = self.db.durable_store
            if store is not None and not store.closed:
                store.close(checkpoint=self._checkpoint_on_close)
            self._owns_durability = False
        if self._owns_event_log:
            log = self.obs.event_log
            if log is not None:
                log.close()
            self._owns_event_log = False
        if self.ops_server is not None:
            self.ops_server.close()

    @property
    def ops_address(self) -> Optional[Tuple[str, int]]:
        """The ops server's bound ``(host, port)``, or ``None`` without one."""
        return self.ops_server.address if self.ops_server is not None else None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
