"""High-level API: the :class:`GraphflowDB` facade.

This is the entry point downstream users interact with: load or build a graph,
build the subgraph catalogue once, then plan and execute subgraph queries with
the cost-based optimizer, optionally with adaptive ordering selection or
parallel execution.

Example
-------
>>> from repro import GraphflowDB, queries, datasets
>>> db = GraphflowDB(datasets.load("amazon", scale=0.2))
>>> db.build_catalogue(h=3, z=200)
>>> result = db.execute(queries.triangle())
>>> result.num_matches >= 0
True
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.catalogue.catalogue import SubgraphCatalogue
from repro.catalogue.construction import build_catalogue
from repro.catalogue.estimation import estimate_cardinality
from repro.errors import OptimizerError, PersistenceError
from repro.executor.adaptive import adapt
from repro.executor.multiprocess import MorselProcessPool
from repro.executor.operators import ExecutionConfig
from repro.executor.parallel import check_execution_mode, execute_parallel
from repro.executor.pipeline import ExecutionResult
from repro.graph.graph import Graph
from repro.graph.schema import GraphSchema
from repro.obs import EventLog, Observability
from repro.obs.health import (
    HealthRegistry,
    checkpoint_lag_check,
    free_space_check,
    process_pool_check,
    recovery_check,
    thread_alive_check,
)
from repro.obs.trace import QueryTrace, operator_stats_from_profile
from repro.planner.cost_model import CostModel, annotate_operator_estimates
from repro.planner.dp_optimizer import DynamicProgrammingOptimizer
from repro.planner.full_enumeration import FullEnumerationOptimizer
from repro.planner.plan import Plan
from repro.query.cypher import looks_like_cypher, parse_cypher
from repro.query.isomorphism import isomorphism_mapping
from repro.query.parser import parse_query
from repro.query.query_graph import QueryGraph
from repro.persistence.store import DurableGraphStore
from repro.server.plan_cache import PlanCache, PlanKey, plan_key
from repro.storage.compaction import CompactionManager
from repro.storage.dynamic import DynamicGraph, normalize_edges
from repro.storage.snapshot import GraphSnapshot


@dataclass
class UpdateResult:
    """Outcome of one :meth:`GraphflowDB.apply_updates` batch."""

    inserted: List[Tuple[int, int, int]] = field(default_factory=list)
    deleted: List[Tuple[int, int, int]] = field(default_factory=list)
    new_vertices: List[int] = field(default_factory=list)
    version: int = 0
    elapsed_seconds: float = 0.0
    compacted: bool = False
    # Durability: the WAL sequence number of the logged batch (None when the
    # database has no durable store attached).
    wal_seq: Optional[int] = None

    @property
    def durable(self) -> bool:
        return self.wal_seq is not None

    @property
    def num_applied(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def __repr__(self) -> str:
        return (
            f"UpdateResult(+{len(self.inserted)}/-{len(self.deleted)} edges, "
            f"+{len(self.new_vertices)} vertices, version={self.version})"
        )


@dataclass
class QueryResult:
    """User-facing result of a query execution."""

    query: QueryGraph
    plan: Plan
    num_matches: int
    elapsed_seconds: float
    i_cost: int
    intermediate_matches: int
    matches: Optional[List[dict]] = None
    truncated: bool = False
    deadline_exceeded: bool = False
    # The per-query observability record (spans, per-operator actual-vs-
    # estimated cardinalities); None when tracing is disabled.
    trace: Optional[QueryTrace] = None

    def __repr__(self) -> str:
        return (
            f"QueryResult(query={self.query.name!r}, matches={self.num_matches}, "
            f"elapsed={self.elapsed_seconds:.3f}s, plan={self.plan.plan_type})"
        )


class GraphflowDB:
    """A single-machine, in-memory graph database with the paper's optimizer."""

    def __init__(
        self,
        graph: Union[Graph, DynamicGraph],
        catalogue: Optional[SubgraphCatalogue] = None,
        schema: Optional[GraphSchema] = None,
        plan_cache_capacity: int = 128,
        obs: Optional[Observability] = None,
        event_log: Optional[Union[str, EventLog]] = None,
    ) -> None:
        self.graph = graph
        self.catalogue = catalogue
        self.schema = schema
        # Built lazily against the current statistics; dropped whenever the
        # catalogue or the graph changes (see cost_model).
        self._cost_model: Optional[CostModel] = None
        # Plans are cached by canonical query form so repeated (possibly
        # vertex-renamed) queries skip the DP optimizer; pass 0 to disable.
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(capacity=plan_cache_capacity) if plan_cache_capacity > 0 else None
        )
        # Number of times an optimizer actually ran (cache misses + uncached
        # planning); serving tests assert on this.
        self.planner_invocations = 0
        # Guards lazy catalogue/cost-model construction when concurrent
        # QueryService workers plan different query shapes on a cold database.
        self._stats_lock = threading.Lock()
        # Serialises apply_updates callers (the DynamicGraph additionally has
        # its own write lock, but catalogue/cache maintenance must be atomic
        # with respect to other writers too).  Re-entrant: apply_updates
        # calls to_dynamic() which takes it as well.
        self._write_lock = threading.RLock()
        # Logical version of the served graph; bumped by apply_updates.
        self.graph_version = graph.version if isinstance(graph, DynamicGraph) else 0
        # Optional background compaction (enable_background_compaction).
        self.compaction_manager: Optional[CompactionManager] = None
        # Optional durability (GraphflowDB.open / enable_durability): when
        # attached, every apply_updates batch is WAL-logged before its
        # in-memory delta commit, and compactions checkpoint the WAL away.
        self.durable_store: Optional[DurableGraphStore] = None
        # Optional multi-process morsel executor (enable_process_pool /
        # execute(execution_mode="process")): worker processes mapping a
        # shared snapshot file read-only, for wall-clock parallel speedups.
        self._process_pool: Optional[MorselProcessPool] = None
        # Unified observability (metrics registry, trace ring, cardinality
        # feedback).  Collectors pull the ad-hoc stats surfaces lazily at
        # scrape time, so attaching them here costs nothing per query.
        self.obs = obs if obs is not None else Observability()
        # Structured event log (obs/events.py): a path (or EventLog) here
        # attaches the JSONL stream lifecycle events flow into — query
        # finishes, checkpoints, compactions, pool respawns, recovery.
        # A log opened here from a path is closed by close(); an EventLog
        # object is shared and stays its creator's to close.
        self._opened_event_log: Optional[EventLog] = None
        if event_log is not None:
            log = self.obs.attach_event_log(event_log)
            if log is not event_log:
                self._opened_event_log = log
        # Pluggable health checks (obs/health.py): subsystems register deep
        # checks as they attach (durable store, process pool, compaction
        # thread), the ops plane's /readyz runs them, and the "health"
        # collector exports the same verdicts as health_* gauges.
        self.health = HealthRegistry()
        self.health.register(
            "database",
            lambda: (True, f"graph version {self.graph_version}"),
        )
        registry = self.obs.registry
        registry.register_collector("health", self.health.collect)
        registry.register_collector("plan_cache", self._plan_cache_stats)
        registry.register_collector("compaction", self._compaction_stats)
        registry.register_collector("persistence", self._persistence_stats)
        registry.register_collector("process_pool", self._process_pool_stats)
        registry.register_collector(
            "db",
            lambda: {
                "graph_version": self.graph_version,
                "planner_invocations": self.planner_invocations,
                "catalogue_stale_fraction": self.catalogue_stale_fraction,
            },
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _plan_cache_stats(self) -> dict:
        return self.plan_cache.stats.as_dict() if self.plan_cache is not None else {}

    def _compaction_stats(self) -> dict:
        manager = self.compaction_manager
        return manager.stats() if manager is not None else {}

    def _persistence_stats(self) -> dict:
        store = self.durable_store
        return store.stats() if store is not None and not store.closed else {}

    def _process_pool_stats(self) -> dict:
        pool = self._process_pool
        return pool.stats() if pool is not None and not pool.closed else {}

    def stats(self) -> dict:
        """Every stats source registered with the metrics registry
        (:meth:`~repro.obs.registry.MetricsRegistry.collect`), one section
        per source — the same numbers ``/metrics`` flattens into gauges —
        with this database's own ``db`` source (graph version, planner
        invocations, catalogue staleness) at the top level.  (A
        :class:`~repro.server.service.QueryService` layers request-level
        metrics on top of this.)"""
        sources = self.obs.registry.collect()
        return {
            **sources.pop("db"),
            **sources,
            "observability": {"enabled": self.obs.enabled},
        }

    def _register_durability_health(self, store: DurableGraphStore) -> None:
        """Wire the durable store's readiness checks: recovery completed,
        the WAL volume has headroom, and the checkpoint lag is bounded.
        Re-registering (replace semantics) keeps the checks pointed at the
        live store across ``enable_durability`` after an earlier close."""
        self.health.register("recovery_complete", recovery_check(store))
        self.health.register("wal_free_space", free_space_check(store.data_dir))
        self.health.register("checkpoint_lag", checkpoint_lag_check(store))

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        data_dir: str,
        graph: Optional[Union[Graph, DynamicGraph]] = None,
        sync_every: int = 8,
        mmap: bool = False,
        keep_snapshots: int = 2,
        read_only: bool = False,
        **db_kwargs,
    ) -> "GraphflowDB":
        """Open a durable database rooted at ``data_dir``.

        An existing store is recovered (newest valid snapshot + WAL-tail
        replay; ``graph`` is then ignored); an empty directory is
        bootstrapped from ``graph`` with an initial snapshot.  The returned
        database logs every :meth:`apply_updates` batch to the write-ahead
        log before committing it in memory; call :meth:`close` for a
        graceful shutdown (final checkpoint), or don't — recovery replays
        whatever the log durably holds.

        With ``read_only=True`` the database attaches as a *reader*: the pid
        ``LOCK`` is neither checked nor taken, so a reader can open a
        ``data_dir`` a live writer is serving (worker processes and read
        replicas do exactly this); recovery is side-effect free and sees the
        durable prefix as of open time; and every write entry point
        (:meth:`apply_updates`, :meth:`checkpoint`) raises
        :class:`~repro.errors.PersistenceError`.
        """
        store = DurableGraphStore.open(
            data_dir,
            graph=graph,
            sync_every=sync_every,
            mmap=mmap,
            keep_snapshots=keep_snapshots,
            read_only=read_only,
        )
        db = cls(store.dynamic, **db_kwargs)
        db.durable_store = store
        store.event_sink = db.obs.emit_event
        db._register_durability_health(store)
        report = store.recovery
        if report is not None:
            db.obs.emit_event(
                "recovery",
                bootstrapped=report.bootstrapped,
                snapshot_seq=report.snapshot_seq,
                replayed_records=report.replayed_records,
                replayed_edges=report.replayed_edges,
                truncated_bytes=report.truncated_bytes,
                seconds=round(report.seconds, 6),
            )
        return db

    @property
    def read_only(self) -> bool:
        """True for a reader attached with ``open(..., read_only=True)``."""
        store = self.durable_store
        return store is not None and store.read_only

    def enable_durability(
        self,
        data_dir: str,
        sync_every: int = 8,
        mmap: bool = False,
        keep_snapshots: int = 2,
    ) -> DurableGraphStore:
        """Attach durable storage to a running in-memory database.

        With no existing store under ``data_dir`` the current graph is
        bootstrapped (initial snapshot; catalogue and cached plans stay
        valid).  With an existing store the durable state *wins*: the served
        graph is replaced by the recovered one and derived planning state is
        dropped.  Idempotent once attached.  Must be called before
        :meth:`enable_background_compaction` — the durable store owns the
        dynamic graph the compaction manager needs to watch.
        """
        with self._write_lock:
            if self.durable_store is not None and not self.durable_store.closed:
                if os.path.abspath(data_dir) != self.durable_store.data_dir:
                    raise PersistenceError(
                        f"database is already durable at {self.durable_store.data_dir!r}; "
                        f"cannot re-attach to {data_dir!r}"
                    )
                return self.durable_store
            if self.compaction_manager is not None:
                raise PersistenceError(
                    "enable durability before background compaction: the "
                    "compaction manager is watching the pre-durability graph"
                )
            store = DurableGraphStore.open(
                data_dir,
                graph=self.graph,
                sync_every=sync_every,
                mmap=mmap,
                keep_snapshots=keep_snapshots,
            )
            if store.recovery.bootstrapped:
                # Same logical content as the graph we were serving; keep
                # catalogue / plan cache, just swap in the durable wrapper.
                self.graph = store.dynamic
                self.graph_version = store.dynamic.version
            else:
                self.set_graph(store.dynamic)
            self.durable_store = store
            store.event_sink = self.obs.emit_event
            self._register_durability_health(store)
            return store

    def checkpoint(self, force: bool = False):
        """Write a snapshot covering all applied updates and truncate the
        WAL (requires durability; see :meth:`enable_durability`)."""
        if self.durable_store is None:
            raise PersistenceError("no durable store attached; call enable_durability()")
        return self.durable_store.checkpoint(force=force)

    def close(self, checkpoint: bool = True) -> None:
        """Graceful shutdown, the one place it happens: stop background
        compaction, shut down the process pool (if any), when durable write
        a final checkpoint and close the store, and last close an event log
        this database opened from a path (so the shutdown's own checkpoint
        event still lands).  Idempotent; an in-memory database just stops
        its compaction thread."""
        self.disable_background_compaction()
        self.close_process_pool()
        with self._write_lock:
            store = self.durable_store
        if store is not None and not store.closed:
            store.close(checkpoint=checkpoint)
        if self._opened_event_log is not None:
            self._opened_event_log.close()

    def __enter__(self) -> "GraphflowDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # multi-process execution
    # ------------------------------------------------------------------ #
    def enable_process_pool(self, num_workers: int = 2, **pool_kwargs) -> MorselProcessPool:
        """Attach (or resize) the multi-process morsel executor.

        The pool is created lazily by ``execute(execution_mode="process")``
        as well; calling this up front warms it explicitly (e.g. a serving
        process at startup).  A live pool with the same ``num_workers`` is
        reused; a different worker count (or fresh ``pool_kwargs``) shuts the
        old pool down and builds a new one.
        """
        with self._write_lock:
            pool = self._process_pool
            if (
                pool is not None
                and not pool.closed
                and pool.num_workers == num_workers
                and not pool_kwargs
            ):
                return pool
            if pool is not None and not pool.closed:
                pool.close()
            new_pool = MorselProcessPool(
                num_workers=num_workers, observability=self.obs, **pool_kwargs
            )
            if pool is not None:
                # Worker counters and generation keep accumulating across the
                # pool replacement, so worker_* exposition never resets.
                new_pool.carry_from(pool)
            self._process_pool = new_pool
            # Closed over the getter, not the pool object: a later resize
            # replaces the pool but the readiness probe keeps following it.
            self.health.register(
                "worker_pool", process_pool_check(lambda: self._process_pool)
            )
            return new_pool

    def close_process_pool(self) -> None:
        """Shut the process pool down (workers drain and exit); idempotent."""
        with self._write_lock:
            pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.close()
        # An intentionally-absent pool is not a readiness failure.
        self.health.unregister("worker_pool")

    # ------------------------------------------------------------------ #
    # catalogue / cost model management
    # ------------------------------------------------------------------ #
    def build_catalogue(
        self,
        h: int = 3,
        z: int = 1000,
        seed: int = 0,
        queries: Optional[Sequence[QueryGraph]] = None,
    ) -> SubgraphCatalogue:
        """Build (or rebuild) the subgraph catalogue for the loaded graph.

        Entries are measured lazily as the optimizer needs them unless a set
        of queries to precompute for is given.
        """
        fresh = build_catalogue(self._read_graph(), h=h, z=z, seed=seed, queries=queries)
        with self._write_lock:
            # Epochs stay monotonic across rebuilds so a refresher's CAS token
            # captured before this rebuild can never match afterwards.
            if self.catalogue is not None:
                fresh.epoch = self.catalogue.epoch + 1
            self.catalogue = fresh
            self._cost_model = None
            # Cached plans were costed against the old catalogue; flush them.
            if self.plan_cache is not None:
                self.plan_cache.invalidate()
        return self.catalogue

    def install_refreshed_catalogue(
        self,
        catalogue: SubgraphCatalogue,
        expected_epoch: int,
        expected_drift_edges: Optional[int] = None,
    ) -> bool:
        """Atomically swap in a catalogue re-sampled off the write path.

        Compare-and-swap semantics: the install succeeds only if the current
        catalogue still carries ``expected_epoch`` (no competing rebuild ran)
        and, when given, ``expected_drift_edges`` (no writes landed since the
        re-sample's snapshot was pinned).  On success the new catalogue's
        epoch is bumped and — under the same lock — the cost models and plan
        cache are flushed, so a query admitted during the install sees either
        the old plan with the old catalogue or a new plan costed against the
        new one, never a torn mix.
        """
        with self._write_lock:
            current = self.catalogue
            if current is None or current.epoch != expected_epoch:
                return False
            if (
                expected_drift_edges is not None
                and current.drift_edges != expected_drift_edges
            ):
                return False
            catalogue.epoch = expected_epoch + 1
            self.catalogue = catalogue
            self._cost_model = None
            if self.plan_cache is not None:
                self.plan_cache.invalidate()
            return True

    def set_graph(self, graph: Union[Graph, DynamicGraph]) -> None:
        """Replace the data graph, dropping the catalogue, cost model, and
        every cached plan (all were derived from the old graph)."""
        if (
            self.durable_store is not None
            and not self.durable_store.closed
            and graph is not self.durable_store.dynamic
        ):
            raise PersistenceError(
                "cannot replace the graph of a durable database: the durable "
                "store owns the served graph (close() it first)"
            )
        self.graph = graph
        self.catalogue = None
        self._cost_model = None
        self.graph_version = graph.version if isinstance(graph, DynamicGraph) else 0
        if self.plan_cache is not None:
            self.plan_cache.invalidate()

    def _read_graph(self, materialize: bool = False):
        """The graph object queries should read: a pinned MVCC snapshot for a
        :class:`DynamicGraph` (compacted to a flat CSR when ``materialize``),
        the graph itself otherwise.

        Both executors — including the vectorized batch engine, which reads
        the snapshot's lazily merged per-partition CSR views — run on dirty
        snapshots directly, so nothing on the query path passes
        ``materialize=True`` anymore; the parameter remains for explicit
        compact-and-export uses.
        """
        if isinstance(self.graph, DynamicGraph):
            return self.graph.snapshot(materialize=materialize)
        return self.graph

    # ------------------------------------------------------------------ #
    # live updates
    # ------------------------------------------------------------------ #
    def to_dynamic(self) -> DynamicGraph:
        """Ensure the served graph is a :class:`DynamicGraph` (wrapping the
        current immutable graph in place if needed) and return it."""
        with self._write_lock:
            if not isinstance(self.graph, DynamicGraph):
                self.graph = DynamicGraph(self.graph)
            return self.graph

    def apply_updates(
        self,
        inserts: Iterable[Tuple[int, ...]] = (),
        deletes: Iterable[Tuple[int, ...]] = (),
        new_vertex_labels: Optional[Sequence[int]] = None,
    ) -> UpdateResult:
        """Apply a batch of live updates to the served graph.

        Inserts/deletes are ``(src, dst[, label])`` tuples; already-present
        inserts and missing deletes are ignored.  ``new_vertex_labels`` adds
        one vertex per entry.  On any effective change the graph version is
        bumped, every cached plan is invalidated (statistics changed), and
        the catalogue's edge/label statistics are maintained incrementally —
        no full catalogue rebuild.  In-flight queries keep reading the
        snapshot they pinned at execution start.

        With a durable store attached (:meth:`open` / :meth:`enable_durability`)
        the batch is first normalised and appended to the write-ahead log —
        *then* committed in memory, under the store's commit lock — so a
        crash at any point loses at most the not-yet-fsynced group-commit
        tail, never an acknowledged-durable batch.  The result carries the
        batch's WAL sequence number in ``wal_seq``.
        """
        start = time.perf_counter()
        if self.read_only:
            raise PersistenceError(
                "database is open read-only; route writes to the writer process"
            )
        dynamic = self.to_dynamic()
        # Normalise up front: the WAL must only ever record batches the
        # in-memory write path would accept, so validation errors (self-loops,
        # negative ids, malformed tuples) surface before anything is logged.
        insert_batch = normalize_edges(inserts) if inserts else []
        delete_batch = normalize_edges(deletes) if deletes else []
        vertex_labels = list(new_vertex_labels) if new_vertex_labels else None
        with self._write_lock:
            compactions_before = dynamic.compactions

            def _commit():
                new_ids = dynamic.add_vertices(labels=vertex_labels) if vertex_labels else []
                inserted = (
                    dynamic.add_edges(insert_batch, _normalized=True) if insert_batch else []
                )
                deleted = (
                    dynamic.delete_edges(delete_batch, _normalized=True) if delete_batch else []
                )
                if inserted or deleted or new_ids:
                    self._note_writes_locked(inserted, deleted)
                return new_ids, inserted, deleted

            wal_seq: Optional[int] = None
            has_payload = bool(insert_batch or delete_batch or vertex_labels)
            commit_start = time.perf_counter()
            if has_payload and self.durable_store is not None and not self.durable_store.closed:
                wal_seq, (new_ids, inserted, deleted) = self.durable_store.log_and_apply(
                    insert_batch, delete_batch, vertex_labels, _commit
                )
            else:
                new_ids, inserted, deleted = _commit()
            commit_seconds = time.perf_counter() - commit_start
            result = UpdateResult(
                inserted=inserted,
                deleted=deleted,
                new_vertices=new_ids,
                version=dynamic.version,
                elapsed_seconds=time.perf_counter() - start,
                compacted=dynamic.compactions > compactions_before,
                wal_seq=wal_seq,
            )
            if self.obs.enabled:
                trace = QueryTrace(
                    query_name="apply_updates",
                    kind="update",
                    status="ok",
                    mode="update",
                    num_matches=result.num_applied,
                    total_seconds=result.elapsed_seconds,
                )
                trace.add_span(
                    "normalise", commit_start - start,
                    inserts=len(insert_batch), deletes=len(delete_batch),
                )
                span_name = "wal_append" if wal_seq is not None else "commit"
                trace.add_span(
                    span_name, commit_seconds,
                    wal_seq=wal_seq, version=result.version, compacted=result.compacted,
                )
                self.obs.record_update(trace)
            return result

    def enable_background_compaction(
        self,
        compact_ratio: Optional[float] = None,
        min_delta_edges: Optional[int] = None,
        poll_interval_seconds: float = 0.05,
        min_interval_seconds: Optional[float] = None,
    ) -> CompactionManager:
        """Move delta-CSR compaction off the write path.

        Ensures the served graph is dynamic, attaches a
        :class:`~repro.storage.compaction.CompactionManager`, and starts its
        thread: :meth:`apply_updates` then returns as soon as the delta is
        appended, and the CSR rebuild runs in the background with an atomic
        epoch-checked base swap.  Compaction changes no logical content, so
        cached plans, the catalogue, and pinned snapshots all stay valid.
        Idempotent; returns the (running) manager.  When a manager already
        exists, any thresholds passed here are applied to it, so a later
        caller's thresholds are never silently ignored.  ``min_interval_seconds`` paces the
        manager: threshold-triggered compactions are skipped until that much
        time has passed since the previous install, so sustained write load
        cannot thrash the CSR rebuild.

        With a durable store attached, every installed compaction also
        triggers a checkpoint: the freshly rebuilt base is written as a
        snapshot file and the write-ahead log is truncated behind it, all on
        the compaction thread.
        """
        dynamic = self.to_dynamic()
        with self._write_lock:
            manager = self.compaction_manager
            if manager is None:
                manager = CompactionManager(
                    dynamic,
                    compact_ratio=compact_ratio,
                    min_delta_edges=min_delta_edges,
                    poll_interval_seconds=poll_interval_seconds,
                    min_interval_seconds=min_interval_seconds or 0.0,
                )
                manager.event_sink = self.obs.emit_event
                self.compaction_manager = manager
            else:
                if compact_ratio is not None:
                    manager.compact_ratio = compact_ratio
                if min_delta_edges is not None:
                    manager.min_delta_edges = min_delta_edges
                if min_interval_seconds is not None:
                    manager.min_interval_seconds = min_interval_seconds
            if self.durable_store is not None and not self.durable_store.closed:
                store = self.durable_store
                manager.set_compaction_listener(lambda: store.maybe_checkpoint())
            started = manager.start()
            self.health.register(
                "compaction_thread",
                thread_alive_check(
                    lambda: self.compaction_manager is not None
                    and self.compaction_manager.running,
                    description="background compaction manager",
                ),
            )
            return started

    def disable_background_compaction(self, wait: bool = True) -> None:
        """Stop and detach the background compaction manager (restoring the
        dynamic graph's synchronous threshold compaction)."""
        with self._write_lock:
            manager, self.compaction_manager = self.compaction_manager, None
        if manager is not None:
            manager.stop(wait=wait)
        # Compaction deliberately off is healthy; only a dead thread that
        # should be running is a readiness failure.
        self.health.unregister("compaction_thread")

    def _note_writes_locked(
        self,
        inserted: Sequence[Tuple[int, int, int]],
        deleted: Sequence[Tuple[int, int, int]],
    ) -> None:
        graph = self.graph
        if self.catalogue is not None and (inserted or deleted):
            self.catalogue.apply_edge_delta(inserted, deleted, graph.vertex_labels)
        # The cost model caches cardinalities derived from the old statistics.
        self._cost_model = None
        if self.plan_cache is not None:
            self.plan_cache.invalidate()
        self.graph_version = (
            graph.version if isinstance(graph, DynamicGraph) else self.graph_version + 1
        )

    @property
    def catalogue_stale_fraction(self) -> float:
        """Drift of the catalogue's sampled ``mu`` / ``|A|`` entries since
        construction (0.0 when fresh or when no catalogue is built yet); see
        :attr:`SubgraphCatalogue.stale_fraction`."""
        return self.catalogue.stale_fraction if self.catalogue is not None else 0.0

    @property
    def cost_model(self) -> CostModel:
        """The cost model every plan is priced with, built lazily against
        the current statistics (building the catalogue first if needed)."""
        model = self._cost_model
        if model is None:
            if self.catalogue is None:
                # Built outside _stats_lock: build_catalogue swaps state under
                # the write lock, and holding _stats_lock across that would
                # invert the lock order of callers that plan while holding the
                # write lock.  A racing double-build is benign (last wins).
                self.build_catalogue(z=200)
            with self._stats_lock:
                model = self._cost_model
                if model is None:
                    model = CostModel(self._read_graph(), self.catalogue)
                    self._cost_model = model
        return model

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def _as_query(self, query: Union[QueryGraph, str]) -> QueryGraph:
        if isinstance(query, QueryGraph):
            return query
        if looks_like_cypher(query):
            return parse_cypher(query, schema=self.schema)
        return parse_query(query)

    def plan(
        self,
        query: Union[QueryGraph, str],
        full_enumeration: bool = False,
        enable_binary_joins: bool = True,
        use_cache: bool = True,
        vectorized: Optional[bool] = None,
        output_limit: Optional[int] = None,
    ) -> Plan:
        """Return the optimizer's plan, consulting the plan cache.

        Plans are cached by the query's canonical form plus the planner
        options, so isomorphic queries (same shape and labels under vertex
        renaming) share one optimizer invocation.  Pass ``use_cache=False``
        to force a fresh optimization without touching the cache.  With
        ``output_limit`` the plan is chosen for a run stopped after that
        many rows, planned and cached for the limit's power-of-two class.

        A plan does not depend on the executor that runs it: every plan is
        priced with the one cost model (:attr:`cost_model`).  ``vectorized``
        is accepted and ignored, because the benchmark in ``bench/`` still
        passes it; it goes when that benchmark changes (ROADMAP item 5).
        """
        query = self._as_query(query)
        key = plan_key(query, full_enumeration, enable_binary_joins, output_limit)
        return self._plan(query, key, use_cache)[0]

    def _plan(self, query: QueryGraph, key: PlanKey, use_cache: bool) -> Tuple[Plan, bool]:
        """:meth:`plan`, plus whether the plan came out of the cache: True
        unless *this call* ran the optimizer.  A caller that waited on another
        thread's in-flight planning of the same key counts as cached, matching
        the cache's own hit/miss counters."""
        if self.catalogue is None:
            # Built before the cache lookup: building it flushes the cache,
            # which would drop the plan computed below.
            self.build_catalogue(z=200)
        optimized = False

        def compute() -> Plan:
            nonlocal optimized
            optimized = True
            return self._plan_uncached(query, key)

        if not use_cache or self.plan_cache is None:
            return compute(), False
        plan = self.plan_cache.get_or_compute(key, compute)
        return plan, not optimized

    def _plan_uncached(self, query: QueryGraph, key: PlanKey) -> Plan:
        """Run the optimizer (always) for ``key``'s options and limit
        class, bypassing the plan cache."""
        with self._stats_lock:
            self.planner_invocations += 1
        cost_model = self.cost_model
        optimizer_type = (
            FullEnumerationOptimizer if key.full_enumeration else DynamicProgrammingOptimizer
        )
        optimizer = optimizer_type(cost_model, enable_binary_joins=key.enable_binary_joins)
        plan = optimizer.optimize(query, output_limit=key.limit_class)
        # Stamp per-operator cardinality estimates onto the plan so every
        # later execution (including plan-cache hits) can report q-errors.
        plan = annotate_operator_estimates(plan, cost_model)
        # Record which catalogue installation the estimates came from; the
        # refresher's install CAS plus plan-cache invalidation guarantee a
        # served plan's epoch always matches the live catalogue's.
        plan.catalogue_epoch = cost_model.catalogue.epoch
        return plan

    def explain(self, query: Union[QueryGraph, str]) -> str:
        """A human-readable description of the chosen plan with its costs."""
        query = self._as_query(query)
        plan = self.plan(query)
        breakdown = self.cost_model.cost_breakdown(plan)
        lines = [plan.describe(), "", "estimated cost per operator:"]
        for name, cost in breakdown.per_operator:
            lines.append(f"  {cost:>14.1f}  {name}")
        lines.append(f"  {'total':>14}: {breakdown.total:.1f}")
        lines.append(
            f"estimated cardinality: {estimate_cardinality(self.catalogue, query, self._read_graph()):.1f}"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Union[QueryGraph, str, Plan],
        adaptive: bool = False,
        collect: bool = False,
        num_workers: int = 1,
        config: Optional[ExecutionConfig] = None,
        vectorized: Optional[bool] = None,
        execution_mode: str = "thread",
    ) -> QueryResult:
        """Plan (if needed) and execute a query.

        The plan is the same whichever executor runs it.  By default the
        batch-at-a-time (columnar) engine runs it; ``vectorized=False`` (or
        ``config.vectorized=False``) runs the tuple-at-a-time reference
        executor instead, with the same match counts.

        Parameters
        ----------
        adaptive:
            Re-pick query-vertex orderings per partial match at runtime
            (Section 6): :func:`repro.executor.adaptive.adapt` replaces the
            plan's chain of two or more E/I operators by one adaptive
            operator.  Only the batch engine has it, so this overrides
            ``vectorized=False``; the rewritten plan otherwise runs like any
            other (``collect``, ``num_workers``, ``execution_mode``).
        collect:
            Materialise matches (as dictionaries keyed by query vertex name).
            With ``num_workers > 1`` the per-morsel frames are merged in
            range order under ``config.output_limit`` (the reference
            executor then reproduces the serial row order exactly; the batch
            engine may group rows differently, as it already does serially).
        num_workers:
            When > 1, execute with the morsel-parallel executor.
        config:
            Execution knobs (:class:`ExecutionConfig`): executor, frame size
            (``batch_size``), output limit, deadline, ...
        vectorized:
            Which executor runs the plan: the batch engine (True, the
            default) or the tuple-at-a-time reference executor (False).
            Composes with ``collect`` and ``num_workers > 1``.  Overrides
            ``config.vectorized`` when given.
        execution_mode:
            ``"thread"`` (default) or ``"process"`` — how ``num_workers > 1``
            distributes morsels.  Process mode runs them across the
            :class:`~repro.executor.multiprocess.MorselProcessPool` (worker
            processes mapping a shared snapshot file read-only, escaping the
            GIL); an unshippable query — no scan leaf, or a dirty snapshot
            whose delta exceeds the pool's shipping threshold — falls back
            to thread execution for that query.
            Ignored when ``num_workers <= 1``.
        """
        config = config or ExecutionConfig()
        if adaptive:
            vectorized = True
        if vectorized is not None:
            config = replace(config, vectorized=vectorized)
        check_execution_mode(execution_mode)
        key: Optional[PlanKey] = None
        if isinstance(query, Plan):
            plan = query
            query_graph = plan.query
            plan_seconds = 0.0
            plan_cached: Optional[bool] = None
        else:
            query_graph = self._as_query(query)
            plan_start = time.perf_counter()
            key = plan_key(query_graph, output_limit=config.output_limit)
            plan, plan_cached = self._plan(query_graph, key, use_cache=True)
            plan_seconds = time.perf_counter() - plan_start

        # Queries over a DynamicGraph read a pinned MVCC snapshot, so
        # concurrent writers cannot change the matches mid-execution.  The
        # batch engine runs on the snapshot directly: its columnar CSR
        # gathers read lazily merged per-partition views, so a dirty graph
        # never forces a synchronous compaction onto the query path.
        exec_graph = self._read_graph()

        if adaptive:
            plan = adapt(plan, exec_graph, self.catalogue)
        # One worker is execute_parallel's serial fall-through.
        pool = base_path = None
        if num_workers > 1 and execution_mode == "process":
            pool = self.enable_process_pool(num_workers)
            base_path = self._process_base_path(exec_graph)
        result = execute_parallel(
            plan, exec_graph, num_workers=num_workers, config=config,
            collect=collect, pool=pool, base_path=base_path,
        )

        matches: Optional[List[dict]] = None
        if collect:
            matches = result.matches_as_dicts(
                rename=self._match_names(plan.query, query_graph)
            )
        trace = None
        if self.obs.enabled:
            # Which transport ran is read off the result: a process-mode
            # query the pool could not ship comes back as a thread run.
            if result.morsel_records:
                mode = "parallel-process"
            elif result.num_workers > 1:
                mode = "parallel"
            elif adaptive:
                mode = "adaptive"
            else:
                mode = "vectorized" if config.vectorized else "iterator"
            trace = self._record_query_trace(
                query_graph,
                plan,
                result,
                mode=mode,
                plan_seconds=plan_seconds,
                plan_cached=plan_cached,
                cache_key=key,
            )
        return QueryResult(
            query=query_graph,
            plan=plan,
            num_matches=result.num_matches,
            elapsed_seconds=result.elapsed_seconds,
            i_cost=result.profile.intersection_cost,
            intermediate_matches=result.profile.intermediate_matches,
            matches=matches,
            truncated=result.truncated,
            deadline_exceeded=result.deadline_exceeded,
            trace=trace,
        )

    def _process_base_path(self, exec_graph) -> Optional[str]:
        """The durable store's current snapshot file when it provably equals
        the pinned snapshot's base — checkpointing on demand to make it so —
        or ``None`` (the pool then spools the base itself).

        The handout is only safe when nothing can have advanced past the
        pinned snapshot: the pinned state must be clean (state == base) and
        the store's applied sequence must be fully covered by the snapshot
        file, re-checked after the on-demand checkpoint to guard against
        racing writers.
        """
        store = self.durable_store
        if store is None or store.closed:
            return None
        if not isinstance(exec_graph, GraphSnapshot) or not exec_graph.is_clean:
            return None
        if store.dirty:
            if store.read_only:
                return None
            store.checkpoint()
        if store.dirty or store.dynamic.version != exec_graph.version:
            return None
        return store.current_snapshot_path()

    def _record_query_trace(
        self,
        query_graph: QueryGraph,
        plan: Plan,
        result: ExecutionResult,
        *,
        mode: str,
        plan_seconds: float,
        plan_cached: Optional[bool],
        cache_key: Optional[PlanKey],
    ) -> QueryTrace:
        """Assemble and record the trace of one executed query.

        ``cache_key`` is the plan-cache key the query was planned under, and
        keys its cardinality feedback; ``None`` for a pre-built plan, whose
        feedback is keyed by the plan's signature.

        Operator rows join the executor's actual per-operator output counts
        with the estimates annotated on the plan at optimization time; a
        truncated reference-executor run may have produced no per-operator accounting
        (generators only finalise their counters when fully drained), in
        which case the trace simply carries no operator rows and the
        execution contributes no cardinality feedback.

        ``result.morsel_records`` (process mode) become one ``morsel`` child
        span per executed morsel, carrying the worker-side stage timings; the
        ``execute`` span then also gets the cross-worker skew and
        critical-path summary so ``trace.format()`` can show where a slow
        parallel query actually spent its time.
        """
        profile = result.profile
        status = "truncated" if result.truncated else "ok"
        if result.deadline_exceeded:
            status = "deadline"
        trace = QueryTrace(
            query_name=query_graph.name,
            mode=mode,
            status=status,
            num_matches=result.num_matches,
            total_seconds=plan_seconds + result.elapsed_seconds,
            plan_type=plan.plan_type,
            plan_cached=plan_cached,
            canonical_key=str(query_graph.canonical_key()),
        )
        # output_limit is the limit class the plan was priced for (None for
        # an unlimited or pre-built plan): it explains why a limited request
        # can run a different plan than the same query unlimited.
        trace.add_span(
            "plan", plan_seconds, cached=plan_cached, plan_type=plan.plan_type,
            output_limit=cache_key.limit_class if cache_key is not None else None,
        )
        exec_attrs = {"mode": mode}
        if result.num_workers > 1:
            exec_attrs["num_workers"] = result.num_workers
        if result.morsel_records:
            # Shared field list with ExecutionProfile.as_dict — the trace and
            # the profile surface the same multi-worker summary names.
            for name in type(profile).WORKER_SUMMARY_FIELDS:
                exec_attrs[name] = getattr(profile, name)
        trace.add_span("execute", result.elapsed_seconds, **exec_attrs)
        for record in result.morsel_records:
            # The span duration is the execute time; every other timing
            # (queue_wait, deserialize, base_load, overlay_rebuild) plus the
            # monotonic started_at stamp ride along as attributes.
            attrs = {key: value for key, value in record.items() if key != "execute"}
            trace.add_span("morsel", record.get("execute", 0.0), **attrs)
        trace.operators = operator_stats_from_profile(
            profile.per_operator, profile.operator_seconds, plan.operator_estimates
        )
        trace.profile = profile.as_dict()
        feedback_key = cache_key if cache_key is not None else ("plan", plan.signature())
        self.obs.record_query(trace, feedback_key=feedback_key)
        return trace

    @staticmethod
    def _match_names(plan_query: QueryGraph, query: QueryGraph) -> Optional[dict]:
        """The plan's vertex names mapped to the caller's, or None when they
        already agree.

        A cache hit may return a plan built for an isomorphic query whose
        vertices were named differently; the match *sets* are identical, but
        the row dictionaries must use the caller's names.
        """
        if plan_query is query or plan_query.structurally_equal(query):
            return None
        # None also when not isomorphic, which cannot happen for cached plans.
        return isomorphism_mapping(plan_query, query)

    def count(self, query: Union[QueryGraph, str]) -> int:
        """Shorthand: number of matches of the query."""
        return self.execute(query).num_matches

    def estimate_cardinality(self, query: Union[QueryGraph, str]) -> float:
        """The catalogue's cardinality estimate for the query."""
        query = self._as_query(query)
        if self.catalogue is None:
            self.build_catalogue(z=200)
        return estimate_cardinality(self.catalogue, query, self._read_graph())
