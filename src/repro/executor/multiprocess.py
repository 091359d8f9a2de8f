"""Multi-process morsel execution over a shared mmap'd snapshot base.

The morsel coordinator (:mod:`repro.executor.parallel`) partitions the
primary SCAN's edge list into morsels; its thread transport remains
GIL-bound: it reports honest *work-based* speed-ups while wall-clock time
barely moves for Python-level work.  This module is the other transport: it
escapes the GIL with worker *processes*,
following the partition-and-stream design of distributed WCOJ dataflows
(arXiv:1802.03760): the graph is never pickled through a pipe — workers
``np.memmap`` one shared, immutable snapshot file read-only (the persistence
layer's checksummed ``.gfs`` format), rebuild the cheap derived structures
once per base, and then stream ``(plan, config, scan-range)`` tasks.

Coordinator protocol
--------------------
:class:`MorselProcessPool` owns ``num_workers`` long-lived worker processes,
one shared task queue, and one shared result queue.  For each query the
coordinator

1. resolves a *base path*: the durable store's current snapshot file when the
   caller can prove it matches the pinned snapshot (checkpoint-on-demand is
   the caller's job, see ``GraphflowDB._process_base_path``), else a spool
   file written once per distinct base object and reused across queries;
2. serialises the query **once** — plan via
   :func:`repro.planner.serialize.plan_to_dict`, config as primitives, and,
   for a *dirty* snapshot, the delta as an overlay of ``(src, dst, label)``
   triples, the inserts in the delta's own order (bounded by
   ``delta_ship_threshold``;
   anything larger raises :class:`ProcessExecutionUnsupported` so the caller
   falls back to in-process execution);
3. hands the shared coordinator (:func:`repro.executor.parallel.run_morsels`)
   its transport: enqueue one task per scan range and collect exactly one
   :class:`~repro.executor.parallel.MorselOutcome` per range, discarding
   stale messages from abandoned attempts by query id.  Range sizing and the
   fold of counts, rows (in range order, which equals the serial scan order
   for the reference executor), limits and profiles are the coordinator's, the
   same code the thread transport runs under.

Every task also carries its enqueue timestamp and every result a compact
per-morsel timing dict (queue wait, plan deserialization, base load vs
mmap-cache hit, overlay rebuild, execute) — the worker's metric deltas,
piggybacked on the result message rather than shipped separately.  The
coordinator folds them into the attached observability's ``worker_*``
registry families, computes the query's busy skew and critical path onto
the merged profile, and returns the raw records on
:attr:`~repro.executor.pipeline.ExecutionResult.morsel_records` so the
database can attach one child span per morsel to the query's trace.

Workers cache the deserialised ``(plan, graph, config)`` per query id and the
mapped base per path, so a query's cost is paid once, not per morsel.  A
worker that dies mid-query is respawned and the query retried once under a
fresh id; a second death raises :class:`~repro.errors.WorkerPoolError` while
the pool stays usable for later queries.

Determinism: match *counts* are bit-identical to the single-threaded run
for both executors (each scan edge is executed exactly once across morsels).
A worker's rebuilt snapshot scans its edges in the coordinator's order, dirty
or clean, so collected rows come back in the order the thread transport
returns them for the same ranges: exact serial order from the reference
executor; the batch engine may group rows differently within a morsel,
exactly as it already does in-process.

Deadlines ship as absolute ``time.monotonic()`` values, which is correct on
Linux (``CLOCK_MONOTONIC`` is system-wide, and child processes share the
boot clock) — the platform this pool targets.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import shutil
import tempfile
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProcessExecutionUnsupported, WorkerPoolError
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import (
    MIN_MORSEL_SIZE,
    MorselOutcome,
    primary_scan,
    run_morsel,
    run_morsels,
)
from repro.executor.pipeline import ExecutionResult
from repro.graph.graph import Graph
from repro.obs.registry import Histogram
from repro.planner.plan import Plan, ScanNode
from repro.planner.serialize import plan_from_dict, plan_to_dict

#: Mapped bases a worker keeps alive at once (current + previous, so a
#: compaction/checkpoint handover does not thrash the page cache).
_WORKER_BASE_CACHE = 2

#: Config fields shipped to workers.  Everything else on ExecutionConfig is
#: per-morsel (scan_range).
_SHIPPED_CONFIG_FIELDS = (
    "enable_intersection_cache",
    "isomorphism",
    "output_limit",
    "deadline",
    "vectorized",
    "batch_size",
)


class _WorkerDied(Exception):
    """Internal: a worker process died while a query was in flight."""


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
def _load_worker_graph(spec: dict, base_cache: Dict[str, Graph], timings: dict):
    """Map the shared base (cached per path) and apply the delta overlay.

    Fills ``timings`` with the stage costs this load actually paid:
    ``base_cache_hit`` (whether the mapped base was already cached),
    ``base_load`` seconds on a miss, and ``overlay_rebuild`` seconds for a
    dirty snapshot's delta replay.
    """
    path = spec["base_path"]
    base = base_cache.get(path)
    if base is None:
        from repro.persistence.snapshot_file import read_snapshot

        load_start = time.perf_counter()
        base, _ = read_snapshot(path, mmap=True)
        timings["base_load"] = time.perf_counter() - load_start
        timings["base_cache_hit"] = False
        while len(base_cache) >= _WORKER_BASE_CACHE:
            base_cache.pop(next(iter(base_cache)))
        base_cache[path] = base
    else:
        timings["base_cache_hit"] = True
    overlay = spec.get("overlay")
    if overlay is None:
        return base
    from repro.storage.dynamic import DynamicGraph

    rebuild_start = time.perf_counter()
    dynamic = DynamicGraph(base)
    if overlay["vertex_labels_tail"]:
        dynamic.add_vertices(labels=overlay["vertex_labels_tail"])
    if overlay["inserts"]:
        dynamic.add_edges(overlay["inserts"])
    if overlay["deletes"]:
        dynamic.delete_edges(overlay["deletes"])
    snapshot = dynamic.snapshot()
    timings["overlay_rebuild"] = time.perf_counter() - rebuild_start
    return snapshot


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker loop: deserialise a query spec once, then execute its morsels.

    Must stay importable at module top level (``spawn`` start method).
    """
    base_cache: Dict[str, Graph] = {}
    # (query_id, (plan, graph, config, collect, scan_vertices)) of the last query
    current: Optional[tuple] = None
    while True:
        task = task_queue.get()
        pickup = time.monotonic()
        if task is None:
            break
        _, query_id, morsel_index, spec_bytes, scan_range, enqueue_ts = task
        # Per-morsel stage timings, shipped back with the result.  queue_wait
        # spans coordinator enqueue -> worker pickup: CLOCK_MONOTONIC is
        # system-wide on Linux, so the two processes' readings compare
        # directly (same convention the shipped deadlines already rely on).
        timings = {"queue_wait": max(0.0, pickup - enqueue_ts)}
        try:
            if current is None or current[0] != query_id:
                deser_start = time.perf_counter()
                spec = pickle.loads(spec_bytes)
                graph = _load_worker_graph(spec, base_cache, timings)
                plan = plan_from_dict(spec["plan"])
                config = ExecutionConfig(**spec["config"])
                # Spec-unpickle + plan/config rebuild cost, excluding the
                # graph load (reported as base_load / overlay_rebuild).
                timings["deserialize"] = max(
                    0.0,
                    (time.perf_counter() - deser_start)
                    - timings.get("base_load", 0.0)
                    - timings.get("overlay_rebuild", 0.0),
                )
                current = (
                    query_id,
                    (plan, graph, config, spec["collect"], tuple(spec["scan_vertices"])),
                )
            timings["started_at"] = time.monotonic()
            busy_start = time.perf_counter()
            outcome = run_morsel(*current[1], tuple(scan_range), worker_id)
            timings["execute"] = time.perf_counter() - busy_start
            result_queue.put(
                ("result", query_id, morsel_index, outcome._replace(timings=timings))
            )
        except BaseException as exc:  # report, keep serving later queries
            current = None
            try:
                result_queue.put(
                    (
                        "error",
                        query_id,
                        morsel_index,
                        worker_id,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
            except (ValueError, OSError):
                # The result queue is closed (ValueError) or its pipe or
                # feeder thread is gone (OSError): nobody is left to report
                # to, so the worker exits.
                return


# --------------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------------- #
class MorselProcessPool:
    """A persistent pool of worker processes executing scan-range morsels.

    Parameters
    ----------
    num_workers:
        Worker processes to spawn (lazily, on the first query).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap, workers inherit the imported modules) and
        ``"spawn"`` otherwise.
    min_morsel_size:
        Lower clamp on the morsel size (edges per morsel) computed by
        :func:`repro.executor.parallel.morsel_ranges`.
    delta_ship_threshold:
        Largest dirty-snapshot overlay (edge mutations + new vertices) the
        coordinator will serialise to workers; beyond it the query raises
        :class:`ProcessExecutionUnsupported` for the caller to run in-process.
    spool_dir:
        Where bases without a durable snapshot file are materialized; a
        private temp directory (removed on close) by default.
    observability:
        Optional :class:`~repro.obs.Observability` to fold worker-side
        metrics into (``worker_*`` registry families) and to emit pool
        events through (``pool_respawn``, ``fallback_to_thread``).  The
        registry families live on the observability object, so they survive
        both generation respawns and pool replacement.

    One query executes at a time (``execute`` serialises callers); morsels of
    that query run concurrently across all workers.
    """

    def __init__(
        self,
        num_workers: int = 2,
        start_method: Optional[str] = None,
        min_morsel_size: int = MIN_MORSEL_SIZE,
        delta_ship_threshold: int = 5000,
        spool_dir: Optional[str] = None,
        poll_seconds: float = 0.1,
        retry_limit: int = 1,
        observability=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self.num_workers = num_workers
        self.start_method = start_method
        self.min_morsel_size = min_morsel_size
        self.delta_ship_threshold = delta_ship_threshold
        self.poll_seconds = poll_seconds
        self.retry_limit = retry_limit
        self._ctx = mp.get_context(start_method)
        self._task_queue = None
        self._result_queue = None
        self._workers: List = []
        self._spool_dir_given = spool_dir
        self._spool_dir: Optional[str] = None
        self._query_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._query_counter = 0
        self._ship_counter = 0
        # Base-dedup cache: id(base) -> (base, spool path).  Strong refs pin
        # the objects so a recycled id() can never alias a different graph.
        self._shipped: Dict[int, Tuple[object, str]] = {}
        self._closed = False
        # Observability (read by the registry collector wired up in api.py).
        self._observability = observability
        self.morsel_seconds = Histogram()
        self.queue_wait_seconds = Histogram()
        self._counters = {
            "queries": 0,
            "tasks": 0,
            "fallbacks": 0,
            "respawns": 0,
            "base_ships": 0,
            "overlay_queries": 0,
            "base_cache_hits": 0,
            "base_cache_misses": 0,
            "overlay_rebuilds": 0,
        }
        # Cumulative across generations: a crash-respawn rebuilds workers
        # but must not zero the per-worker totals (a scrape would read a
        # counter going backwards).  `generation` counts whole-pool
        # respawns; `carry_from` additionally preserves the totals across a
        # pool *replacement* (enable_process_pool with a new worker count).
        self._generation = 0
        self._worker_busy_seconds = [0.0] * num_workers
        self._worker_morsels = [0] * num_workers
        self._last_query_skew = 1.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_started(self) -> None:
        if self._closed:
            raise WorkerPoolError("process pool is closed")
        if self._task_queue is None:
            self._task_queue = self._ctx.Queue()
            self._result_queue = self._ctx.Queue()
        if not self._workers:
            self._workers = [self._spawn(i) for i in range(self.num_workers)]
        elif any(proc is None or not proc.is_alive() for proc in self._workers):
            self._respawn_dead()

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._task_queue, self._result_queue),
            name=f"repro-morsel-{worker_id}",
            daemon=True,
        )
        proc.start()
        return proc

    def _respawn_dead(self) -> int:
        """Rebuild the pool after a worker death: fresh queues, fresh workers.

        A worker killed while blocked in ``queue.get()`` dies *holding the
        shared queue's reader lock*, poisoning it for every sibling — so one
        death condemns the whole generation, not just the dead slot."""
        dead = sum(
            1 for proc in self._workers if proc is None or not proc.is_alive()
        )
        if not dead:
            return 0
        for proc in self._workers:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._workers = [self._spawn(i) for i in range(self.num_workers)]
        with self._state_lock:
            self._counters["respawns"] += dead
            self._generation += 1
            generation = self._generation
        self._emit_event(
            "pool_respawn",
            dead_workers=dead,
            generation=generation,
            num_workers=self.num_workers,
        )
        return dead

    def close(self) -> None:
        """Graceful shutdown: drain workers with sentinels, then reap."""
        if self._closed:
            return
        self._closed = True
        if self._task_queue is not None:
            for _ in self._workers:
                try:
                    self._task_queue.put(None)
                except (ValueError, OSError):  # pragma: no cover - queue closed or broken
                    break
        for proc in self._workers:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._workers = []
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_queue = self._result_queue = None
        self._shipped.clear()
        if self._spool_dir is not None and self._spool_dir_given is None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
        self._spool_dir = None

    def __enter__(self) -> "MorselProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # base shipping
    # ------------------------------------------------------------------ #
    def _spool(self) -> str:
        if self._spool_dir is None:
            if self._spool_dir_given is not None:
                os.makedirs(self._spool_dir_given, exist_ok=True)
                self._spool_dir = self._spool_dir_given
            else:
                self._spool_dir = tempfile.mkdtemp(prefix="repro-morsel-pool-")
        return self._spool_dir

    def _ship_base(self, base: Graph) -> str:
        """Materialize ``base`` as a snapshot file exactly once per object."""
        with self._state_lock:
            entry = self._shipped.get(id(base))
            if entry is not None and entry[0] is base:
                return entry[1]
        from repro.persistence.snapshot_file import write_snapshot

        path = os.path.join(self._spool(), f"base-{self._ship_counter}.gfs")
        self._ship_counter += 1
        write_snapshot(base, path, last_seq=0)
        with self._state_lock:
            self._shipped[id(base)] = (base, path)
            # Dedup entries for the two most recent bases are enough; spool
            # files stay on disk until close() so a worker's mapping of an
            # evicted base never dangles.
            while len(self._shipped) > 2:
                oldest = next(iter(self._shipped))
                if oldest == id(base):
                    break
                self._shipped.pop(oldest)
            self._counters["base_ships"] += 1
        return path

    # ------------------------------------------------------------------ #
    # query execution
    # ------------------------------------------------------------------ #
    def note_fallback(self, reason: str) -> None:
        """Count a per-query fallback to in-process execution."""
        with self._state_lock:
            self._counters["fallbacks"] += 1
        self._emit_event("fallback_to_thread", reason=reason)

    # ------------------------------------------------------------------ #
    # observability plumbing
    # ------------------------------------------------------------------ #
    def _emit_event(self, event_type: str, **fields) -> None:
        """Forward a pool event to the attached observability's event log
        (a no-op without one; ``emit_event`` itself never raises)."""
        obs = self._observability
        emit = getattr(obs, "emit_event", None)
        if emit is not None:
            emit(event_type, **fields)

    def carry_from(self, previous: "MorselProcessPool") -> None:
        """Adopt the cumulative counters of a pool this one replaces.

        ``enable_process_pool`` calls this when a resize swaps pools, so
        the scrape-visible totals (busy seconds, morsel counts, query and
        respawn counters, latency histograms) keep accumulating instead of
        resetting to zero; the generation counter continues past the old
        pool's.  Per-worker totals carry for the overlapping worker ids.
        """
        with previous._state_lock:
            prev_counters = dict(previous._counters)
            prev_busy = list(previous._worker_busy_seconds)
            prev_morsels = list(previous._worker_morsels)
            prev_generation = previous._generation
        with self._state_lock:
            for key, value in prev_counters.items():
                if key in self._counters:
                    self._counters[key] += value
            for worker_id in range(min(self.num_workers, len(prev_busy))):
                self._worker_busy_seconds[worker_id] += prev_busy[worker_id]
                self._worker_morsels[worker_id] += prev_morsels[worker_id]
            self._generation += prev_generation + 1
        self.morsel_seconds = previous.morsel_seconds
        self.queue_wait_seconds = previous.queue_wait_seconds

    def _fold_worker_metrics(self, records: List[dict]) -> None:
        """Fold per-morsel worker timings into the shared registry families
        (``worker_*``); skipped when no observability is attached or the
        master switch is off."""
        obs = self._observability
        if obs is None or not getattr(obs, "enabled", False):
            return
        if not hasattr(obs, "worker_queue_wait_seconds"):
            return
        for rec in records:
            obs.worker_queue_wait_seconds.labels().observe(rec.get("queue_wait", 0.0))
            obs.worker_execute_seconds.labels().observe(rec.get("execute", 0.0))
            if "base_cache_hit" in rec:
                if rec["base_cache_hit"]:
                    obs.worker_base_cache_hits_total.labels().inc()
                else:
                    obs.worker_base_cache_misses_total.labels().inc()
                    obs.worker_base_load_seconds.labels().observe(rec.get("base_load", 0.0))
            if "overlay_rebuild" in rec:
                obs.worker_overlay_rebuild_seconds.labels().observe(rec["overlay_rebuild"])
            worker = f"w{rec['worker_id']}"
            obs.worker_busy_seconds_total.labels(worker).inc(rec.get("execute", 0.0))
            obs.worker_morsels_total.labels(worker).inc()
        obs.worker_pool_generation.labels().set(float(self._generation))

    def execute(
        self,
        plan: Plan,
        graph,
        config: Optional[ExecutionConfig] = None,
        collect: bool = False,
        base_path: Optional[str] = None,
    ) -> ExecutionResult:
        """Execute ``plan`` across the worker processes.

        ``graph`` is a :class:`~repro.graph.graph.Graph`,
        :class:`~repro.storage.snapshot.GraphSnapshot`, or
        :class:`~repro.storage.dynamic.DynamicGraph` (pinned to a snapshot
        here).  ``base_path`` optionally names an existing snapshot file whose
        content equals the graph's *base* (the durable store's current
        checkpoint); without it the base is spooled on first use.

        Raises :class:`ProcessExecutionUnsupported` (before any work is
        enqueued) when the query cannot be shipped;
        :func:`repro.executor.parallel.execute_parallel` catches it and runs
        the query on threads.
        """
        from repro.storage.dynamic import DynamicGraph

        if isinstance(graph, DynamicGraph):
            graph = graph.snapshot()
        config = config or ExecutionConfig()
        scan = primary_scan(plan)
        if scan is None:
            raise ProcessExecutionUnsupported(
                "plan has no scan leaf to partition into morsels"
            )
        spec = self._build_spec(plan, graph, scan, config, collect, base_path)
        spec_bytes = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        with self._query_lock:
            self._ensure_started()
            transport = partial(self._run_query, spec_bytes)
            result = run_morsels(
                plan, graph, scan, self.num_workers, self.min_morsel_size, config, collect,
                transport,
            )
            self._merge_worker_timings(result)
        return result

    def _build_spec(
        self,
        plan: Plan,
        graph,
        scan: ScanNode,
        base_config: ExecutionConfig,
        collect: bool,
        base_path: Optional[str],
    ) -> dict:
        from repro.storage.snapshot import GraphSnapshot

        if base_config.scan_range is not None:
            raise ProcessExecutionUnsupported(
                "an explicit scan_range conflicts with morsel partitioning"
            )

        overlay = None
        if isinstance(graph, GraphSnapshot):
            base = graph.base
            if not graph.is_clean:
                delta = graph.delta
                # The inserts in the delta's own order, which is the order
                # the snapshot's edge scan appends them in: the worker's
                # rebuilt snapshot then scans, and so emits rows, in the
                # coordinator's order.
                inserts = list(zip(*(column.tolist() for column in delta.inserted_edges())))
                deletes = list(zip(*(column.tolist() for column in delta.deleted_edges())))
                tail = graph.vertex_labels[base.num_vertices:]
                overlay_size = len(inserts) + len(deletes) + len(tail)
                if overlay_size > self.delta_ship_threshold:
                    raise ProcessExecutionUnsupported(
                        f"dirty snapshot delta ({overlay_size} mutations) exceeds "
                        f"the shipping threshold ({self.delta_ship_threshold})"
                    )
                overlay = {
                    "inserts": inserts,
                    "deletes": deletes,
                    "vertex_labels_tail": [int(x) for x in tail.tolist()],
                }
                with self._state_lock:
                    self._counters["overlay_queries"] += 1
        elif isinstance(graph, Graph):
            base = graph
        else:
            raise ProcessExecutionUnsupported(
                f"unsupported graph type for process execution: {type(graph).__name__}"
            )

        if base_path is None:
            base_path = self._ship_base(base)
        return {
            "base_path": base_path,
            "overlay": overlay,
            "plan": plan_to_dict(plan),
            "config": {
                field: getattr(base_config, field) for field in _SHIPPED_CONFIG_FIELDS
            },
            "collect": collect,
            "scan_vertices": tuple(scan.out_vertices),
        }

    def _run_query(
        self, spec_bytes: bytes, ranges: Sequence[Tuple[int, int]]
    ) -> List[MorselOutcome]:
        """The process transport: one outcome per range, in range order."""
        attempts = 0
        while True:
            with self._state_lock:
                self._query_counter += 1
                query_id = self._query_counter
            try:
                return self._dispatch(query_id, spec_bytes, ranges)
            except _WorkerDied:
                self._respawn_dead()
                attempts += 1
                if attempts > self.retry_limit:
                    raise WorkerPoolError(
                        "worker process died mid-query and the retry budget is "
                        "exhausted; the query failed but the pool was respawned"
                    )
                # Retry the whole query under a fresh id: results of the
                # abandoned attempt are discarded by id on arrival.

    def _dispatch(
        self, query_id: int, spec_bytes: bytes, ranges: Sequence[Tuple[int, int]]
    ) -> List[MorselOutcome]:
        for index, scan_range in enumerate(ranges):
            # The enqueue timestamp rides with the task so the worker can
            # measure its own queue wait (monotonic clocks are shared across
            # processes on Linux; see the module docstring).
            self._task_queue.put(
                ("task", query_id, index, spec_bytes, scan_range, time.monotonic())
            )
        outcomes: Dict[int, MorselOutcome] = {}
        while len(outcomes) < len(ranges):
            try:
                message = self._result_queue.get(timeout=self.poll_seconds)
            except queue_mod.Empty:
                if self._closed:
                    raise WorkerPoolError("process pool closed mid-query")
                if any(proc is None or not proc.is_alive() for proc in self._workers):
                    raise _WorkerDied()
                continue
            if message[1] != query_id:
                continue  # stale result from an abandoned attempt
            if message[0] == "error":
                raise WorkerPoolError(
                    f"worker {message[3]} failed on morsel {message[2]}: {message[4]}"
                )
            outcomes[message[2]] = message[3]
        return [outcomes[index] for index in range(len(ranges))]

    def _merge_worker_timings(self, result: ExecutionResult) -> None:
        """Fold the query's per-morsel worker timings into the pool's
        histograms and per-worker totals, and put the busy skew and the
        critical path on the result's profile."""
        records = result.morsel_records
        query_busy = [0.0] * self.num_workers
        # Per-worker total seconds on this query including setup stages
        # (deserialize, base load, overlay rebuild) — the critical-path basis.
        query_total = [0.0] * self.num_workers
        for record in records:
            busy = record.get("execute", 0.0)
            query_busy[record["worker_id"]] += busy
            query_total[record["worker_id"]] += (
                busy
                + record.get("deserialize", 0.0)
                + record.get("base_load", 0.0)
                + record.get("overlay_rebuild", 0.0)
            )
            self.morsel_seconds.observe(busy)
            self.queue_wait_seconds.observe(record.get("queue_wait", 0.0))
        active = [b for b in query_busy if b > 0]
        skew = (max(active) * len(active) / sum(active)) if active else 1.0
        result.profile.skew = skew
        result.profile.critical_path_seconds = max(query_total)
        with self._state_lock:
            self._counters["queries"] += 1
            self._counters["tasks"] += len(records)
            for record in records:
                if "base_cache_hit" in record:
                    key = "base_cache_hits" if record["base_cache_hit"] else "base_cache_misses"
                    self._counters[key] += 1
                if "overlay_rebuild" in record:
                    self._counters["overlay_rebuilds"] += 1
                self._worker_morsels[record["worker_id"]] += 1
            for worker_id, busy in enumerate(query_busy):
                self._worker_busy_seconds[worker_id] += busy
            self._last_query_skew = skew
        self._fold_worker_metrics(records)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Pool-level counters plus per-worker busy/morsel/skew numbers
        (flattened into gauges by the metrics registry's collector)."""
        with self._state_lock:
            counters = dict(self._counters)
            busy = list(self._worker_busy_seconds)
            morsels = list(self._worker_morsels)
            skew = self._last_query_skew
            generation = self._generation
        total_busy = sum(busy)
        mean_busy = total_busy / self.num_workers if self.num_workers else 0.0
        overall_skew = (max(busy) / mean_busy) if mean_busy > 0 else 1.0
        return {
            "num_workers": self.num_workers,
            "start_method": self.start_method,
            "alive_workers": sum(
                1 for proc in self._workers if proc is not None and proc.is_alive()
            ),
            "generation": generation,
            **counters,
            "last_query_skew": skew,
            "busy_skew": overall_skew,
            "morsel_count": self.morsel_seconds.count,
            "morsel_p50_seconds": self.morsel_seconds.quantile(0.5),
            "morsel_p99_seconds": self.morsel_seconds.quantile(0.99),
            "queue_wait_p50_seconds": self.queue_wait_seconds.quantile(0.5),
            "queue_wait_p99_seconds": self.queue_wait_seconds.quantile(0.99),
            "workers": {
                f"w{worker_id}": {
                    "busy_seconds": busy[worker_id],
                    "morsels": morsels[worker_id],
                }
                for worker_id in range(self.num_workers)
            },
        }

    def __repr__(self) -> str:
        return (
            f"MorselProcessPool(num_workers={self.num_workers}, "
            f"start_method={self.start_method!r}, closed={self._closed})"
        )


__all__ = [
    "MorselProcessPool",
    "ProcessExecutionUnsupported",
    "WorkerPoolError",
]
