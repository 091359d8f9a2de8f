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
- **Observability** — one ``service_request_seconds`` histogram and the
  admission/status/update counters, registered in the database's metrics
  registry; :meth:`stats` is the database's stats plus those.

The service serves a database it is handed and configures nothing on it:
durability, background compaction, tracing, the event log and the tuning loop
are set up on the :class:`~repro.api.GraphflowDB` by the calls that already
exist, and shut down by :meth:`GraphflowDB.close`.
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
        queries distribute their morsels.  Process mode warms the
        database's :class:`~repro.executor.multiprocess.MorselProcessPool`
        at construction (``db.enable_process_pool``) — worker processes that
        map the durable store's snapshot file (or a spooled copy) read-only
        and execute morsels GIL-free; the pool belongs to the database and
        is shut down by ``db.close()``.  Queries the pool cannot ship (e.g.
        a dirty snapshot whose delta exceeds the shipping threshold) fall
        back to in-process thread execution per query.  A submission can
        override the mode per query.
    vectorized / batch_size:
        Which executor runs served queries: the batch-at-a-time (columnar)
        engine with ``batch_size``-row frames (True, the default) or the
        tuple-at-a-time reference executor (False).  Either runs the same
        plan.  Batch reads run on the pinned snapshot directly (dirty or not)
        — serving a dynamic graph never compacts on the query path.
        Deadlines are checked per batch; the final frame is truncated to the
        row limit.
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

    Tracing, the slow-query log and the event log are the database's
    (``GraphflowDB(obs=Observability(...), event_log=...)``); the service
    records into whatever it finds there and never switches it.
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
        vectorized: bool = True,
        batch_size: int = ExecutionConfig.batch_size,
        ops_addr: Optional[Union[int, str, Tuple[str, int]]] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        self.db = db
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.default_deadline_seconds = default_deadline_seconds
        self.default_row_limit = default_row_limit
        self.num_workers = num_workers
        self.execution_mode = check_execution_mode(execution_mode)
        # Process mode: warm the database's pool now (workers spawn, the base
        # ships on the first query) so serving latency never pays pool startup.
        if execution_mode == "process" and num_workers > 1:
            db.enable_process_pool(num_workers)
        self.vectorized = vectorized
        self.batch_size = batch_size
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
        # The database owns the registry, trace ring and feedback table; the
        # service adds its request-level instruments to that registry.
        self.obs = db.obs
        self._request_seconds = self.obs.registry.histogram(
            "service_request_seconds", "Served request latency, submit to finish"
        ).labels()
        self._started = time.monotonic()
        self.obs.registry.register_collector("service", self._collect_service_stats)
        # The HTTP ops plane starts last: the first /stats or /readyz can
        # never observe a half-constructed service.
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
        execution_mode: Optional[str] = None,
        _block: bool = False,
    ) -> "Future[ServiceResult]":
        """Submit a query for asynchronous execution.

        Raises :class:`AdmissionError` immediately when the service is at
        capacity (running + queued ≥ ``max_concurrent + max_queue``); never
        blocks the caller otherwise.  The returned future resolves to a
        :class:`ServiceResult` and never raises for query-level failures —
        errors (a pattern string that does not parse included) are reported
        through ``status``/``error``.
        """
        self._admit(block=_block)
        submit_time = time.monotonic()
        try:
            return self._pool.submit(
                self._run,
                query,
                submit_time,
                collect,
                adaptive,
                deadline_seconds if deadline_seconds is not None else self.default_deadline_seconds,
                row_limit if row_limit is not None else self.default_row_limit,
                num_workers if num_workers is not None else self.num_workers,
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
        futures = [
            self.submit(
                query,
                collect=collect,
                adaptive=adaptive,
                deadline_seconds=deadline_seconds,
                row_limit=row_limit,
                execution_mode=execution_mode,
                _block=True,
            )
            for query in queries
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
        query: Union[QueryGraph, str],
        submit_time: float,
        collect: bool,
        adaptive: bool,
        deadline_seconds: Optional[float],
        row_limit: Optional[int],
        num_workers: int,
        execution_mode: str,
    ) -> ServiceResult:
        start = time.monotonic()
        queue_seconds = start - submit_time
        deadline = submit_time + deadline_seconds if deadline_seconds is not None else None
        # A string is parsed by db.execute, inside the try: a malformed one is
        # this request's error.  "query" is the name the parsers give.
        query_name = query.name if isinstance(query, QueryGraph) else "query"
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
                    vectorized=self.vectorized,
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
        self._request_seconds.observe(total_seconds)
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
                    query_name=query_name,
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
            query_name=query_name,
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

    def _collect_service_stats(self) -> dict:
        """The ``service`` stats source: admission state, read at scrape time
        (request latency is the ``service_request_seconds`` histogram)."""
        with self._lock:
            return {"in_flight": self._in_flight, "counters": dict(self.counters)}

    def stats(self) -> dict:
        """The database's :meth:`~repro.api.GraphflowDB.stats` — every
        registered stats source — with this service's own source
        (``in_flight``, ``counters``) and its request-latency summary at the
        top level.  The percentiles are cumulative since the service started
        and are bucket upper bounds of the registry's log-scale latency
        buckets; ``window_queries`` is the number of finished requests."""
        stats = self.db.stats()
        stats.update(stats.pop("service"))
        latency = self._request_seconds
        count = latency.count
        stats.update(
            qps=count / max(time.monotonic() - self._started, 1e-9),
            latency_p50_seconds=latency.quantile(0.5),
            latency_p95_seconds=latency.quantile(0.95),
            latency_p99_seconds=latency.quantile(0.99),
            latency_mean_seconds=latency.sum / count if count else 0.0,
            window_queries=count,
        )
        if self.ops_server is not None:
            stats["ops"] = {"url": self.ops_server.url, "closed": self.ops_server.closed}
        return stats

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and (optionally) wait for in-flight ones.
        The database stays open and configured as it was: shutting it down
        (compaction, process pool, durable store, event log) is
        ``db.close()``, after this.

        With an ops server attached, the node is marked draining *first* —
        ``/readyz`` flips to 503 while in-flight queries finish — and the
        server itself stops *last*, so external probes watch the shutdown
        all the way through."""
        if self.ops_server is not None:
            self.db.health.set_draining(True, reason="service closing")
        with self._slots_free:
            self._closed = True
            self._slots_free.notify_all()
        self._pool.shutdown(wait=wait)
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
