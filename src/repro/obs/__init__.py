"""Unified observability: metrics registry, per-query traces, cardinality
feedback.

One :class:`Observability` object per :class:`~repro.api.GraphflowDB` ties
the three pieces together:

* :class:`~repro.obs.registry.MetricsRegistry` — thread-safe labeled
  counters / gauges / histograms (fixed log-scale buckets), with collectors
  that absorb the pre-existing ad-hoc stats surfaces (plan cache,
  compaction, persistence, serving) at scrape time; Prometheus text
  exposition plus a JSON dump.
* :class:`~repro.obs.trace.TraceRecorder` — a bounded ring buffer of
  :class:`~repro.obs.trace.QueryTrace` records (admission wait → plan/cache
  lookup → per-operator execution → WAL append spans) with a configurable
  slow-query log.
* :class:`~repro.obs.feedback.CardinalityFeedback` — per-cached-plan
  actual-vs-estimated cardinality aggregation (q-error), the feedback source
  the self-tuning optimizer loop consumes.

Set :attr:`Observability.enabled` to ``False`` to strip every per-query
hook from the execution path (the overhead benchmark gates the enabled path
at <= 5% against this).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    follow_events,
    iter_events,
    tail_events,
)
from repro.obs.feedback import CardinalityFeedback, PlanFeedback
from repro.obs.health import CheckResult, HealthReport, HealthRegistry
from repro.obs.registry import (
    LATENCY_BUCKETS,
    QERROR_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.trace import (
    OperatorStats,
    QueryTrace,
    Span,
    TraceRecorder,
    operator_stats_from_profile,
)

__all__ = [
    "Observability",
    "EventLog",
    "EVENT_SCHEMA_VERSION",
    "iter_events",
    "tail_events",
    "follow_events",
    "HealthRegistry",
    "HealthReport",
    "CheckResult",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "LATENCY_BUCKETS",
    "QERROR_BUCKETS",
    "QueryTrace",
    "Span",
    "OperatorStats",
    "TraceRecorder",
    "operator_stats_from_profile",
    "CardinalityFeedback",
    "PlanFeedback",
]


class Observability:
    """The per-database observability root.

    Parameters
    ----------
    trace_capacity:
        Traces retained in the ring buffer.
    slow_query_seconds:
        Slow-query log threshold (``None`` disables the slow log).
    enabled:
        Master switch.  When False, the database records no traces, no
        feedback, and no per-query metrics — the state the overhead
        benchmark compares against.
    """

    def __init__(
        self,
        trace_capacity: int = 256,
        slow_query_seconds: Optional[float] = None,
        enabled: bool = True,
        feedback_capacity: int = 512,
        event_log: Optional[Union[str, EventLog]] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.traces = TraceRecorder(capacity=trace_capacity, slow_seconds=slow_query_seconds)
        self.feedback = CardinalityFeedback(capacity=feedback_capacity)
        # Structured event stream (query finishes, checkpoints, pool
        # respawns, ...); None until attach_event_log.  Events flow even
        # when `enabled` is False: lifecycle events (recovery, respawn) are
        # rare and operators want them regardless of per-query tracing.
        self.event_log: Optional[EventLog] = None
        if event_log is not None:
            self.attach_event_log(event_log)
        self.registry.register_collector("traces", self.traces.stats)
        self.registry.register_collector("cardinality_feedback", self.feedback.stats)
        self.registry.register_collector("events", self._event_log_stats)
        # Pre-declared instrument families shared by the serving stack.  A
        # family handle is cheap; children materialise on first use.
        self.query_seconds = self.registry.histogram(
            "query_seconds",
            "End-to-end query latency by execution mode and status",
            labelnames=("mode", "status"),
        )
        self.plan_seconds = self.registry.histogram(
            "plan_seconds", "Plan-or-cache-lookup latency per query"
        )
        self.admission_wait_seconds = self.registry.histogram(
            "admission_wait_seconds", "Queue wait before a served query starts"
        )
        self.query_q_error = self.registry.histogram(
            "query_q_error",
            "Worst per-operator cardinality q-error per executed query",
            buckets=QERROR_BUCKETS,
        )
        self.queries_total = self.registry.counter(
            "queries_total", "Executed queries by status", labelnames=("status",)
        )
        self.query_matches_total = self.registry.counter(
            "query_matches_total", "Total output matches across executed queries"
        )
        self.query_icost_total = self.registry.counter(
            "query_icost_total", "Total i-cost (adjacency list elements accessed)"
        )
        self.query_intermediate_total = self.registry.counter(
            "query_intermediate_total", "Total intermediate partial matches"
        )
        self.intersection_cache_hits_total = self.registry.counter(
            "intersection_cache_hits_total", "E/I intersection-cache hits (paper 3.1)"
        )
        self.intersection_cache_misses_total = self.registry.counter(
            "intersection_cache_misses_total", "E/I intersection-cache misses"
        )
        self.updates_total = self.registry.counter(
            "updates_total", "Applied update batches"
        )
        self.update_seconds = self.registry.histogram(
            "update_seconds", "apply_updates latency (normalise + log + commit)"
        )
        self.wal_append_seconds = self.registry.histogram(
            "wal_append_seconds", "WAL append latency (frame + buffered write)"
        )
        # Worker-side families for the multi-process morsel executor.  The
        # pool coordinator folds per-morsel timing records (piggybacked on
        # result messages) into these; the per-worker counters accumulate
        # across pool generations, so a crash-respawn never reads as a
        # counter going backwards.
        self.worker_queue_wait_seconds = self.registry.histogram(
            "worker_queue_wait_seconds",
            "Morsel wait between coordinator enqueue and worker pickup",
        )
        self.worker_execute_seconds = self.registry.histogram(
            "worker_execute_seconds", "Per-morsel execution time inside a worker process"
        )
        self.worker_base_load_seconds = self.registry.histogram(
            "worker_base_load_seconds",
            "Snapshot-base mmap+rebuild time on a worker base-cache miss",
        )
        self.worker_overlay_rebuild_seconds = self.registry.histogram(
            "worker_overlay_rebuild_seconds",
            "Delta-overlay replay time for dirty-snapshot queries in a worker",
        )
        self.worker_base_cache_hits_total = self.registry.counter(
            "worker_base_cache_hits_total", "Worker graph loads served from the mmap base cache"
        )
        self.worker_base_cache_misses_total = self.registry.counter(
            "worker_base_cache_misses_total", "Worker graph loads that mapped the base from disk"
        )
        self.worker_busy_seconds_total = self.registry.counter(
            "worker_busy_seconds_total",
            "Cumulative execute seconds per worker slot (survives pool respawns)",
            labelnames=("worker",),
        )
        self.worker_morsels_total = self.registry.counter(
            "worker_morsels_total",
            "Cumulative morsels executed per worker slot (survives pool respawns)",
            labelnames=("worker",),
        )
        self.worker_pool_generation = self.registry.gauge(
            "worker_pool_generation",
            "Process-pool generation (bumped on every whole-pool respawn)",
        )
        # Self-tuning loop families (catalogue auto-refresh + feedback-driven
        # re-optimization).  The before/after histograms share the q-error
        # bucket layout with query_q_error so drift and recovery can be read
        # off the same scale.
        self.tuning_catalogue_refreshes_total = self.registry.counter(
            "tuning_catalogue_refreshes_total",
            "Catalogue refreshes installed by the CatalogueRefresher",
        )
        self.tuning_refresh_seconds = self.registry.histogram(
            "tuning_refresh_seconds", "Off-path catalogue re-sample + install duration"
        )
        self.tuning_replans_total = self.registry.counter(
            "tuning_replans_total",
            "Drifting cached plans re-planned by the re-optimization pass",
        )
        self.tuning_plan_changes_total = self.registry.counter(
            "tuning_plan_changes_total",
            "Re-plans that installed a different, cheaper plan",
        )
        self.tuning_qerror_before = self.registry.histogram(
            "tuning_qerror_before",
            "Worst-operator q-error of a plan at the moment it was re-planned",
            buckets=QERROR_BUCKETS,
        )
        self.tuning_qerror_after = self.registry.histogram(
            "tuning_qerror_after",
            "Worst-operator q-error of the first full execution after a re-plan",
            buckets=QERROR_BUCKETS,
        )

    # ------------------------------------------------------------------ #
    # event stream
    # ------------------------------------------------------------------ #
    def attach_event_log(self, event_log: Union[str, EventLog], **log_kwargs) -> EventLog:
        """Attach a structured event log (a path opens one; an existing
        :class:`EventLog` is shared).  Replaces any previous attachment
        without closing it (the creator owns the handle)."""
        if not isinstance(event_log, EventLog):
            event_log = EventLog(str(event_log), **log_kwargs)
        self.event_log = event_log
        return event_log

    def emit_event(self, event_type: str, **fields) -> None:
        """Append one event; a silent no-op without an attached log.  The
        errors ``EventLog.emit`` can raise — a failing disk (``OSError``), a
        reserved or circular field (``ValueError``), a non-string key inside
        a field value (``TypeError``) — never reach the caller: emission
        failures must not take down a query, checkpoint, or compaction
        thread.  Anything else is a bug and propagates."""
        log = self.event_log
        if log is None:
            return
        try:
            log.emit(event_type, **fields)
        except (OSError, ValueError, TypeError):
            pass

    # ------------------------------------------------------------------ #
    def record_query(self, trace: QueryTrace, feedback_key=None) -> Optional[QueryTrace]:
        """Record a finished query trace: ring buffer, metric families, and
        (when the plan came from the cache machinery) cardinality feedback."""
        if not self.enabled:
            return None
        self.traces.record(trace)
        self.queries_total.labels(trace.status).inc()
        self.query_seconds.labels(trace.mode, trace.status).observe(trace.total_seconds)
        self.query_matches_total.labels().inc(trace.num_matches)
        profile = trace.profile
        if profile:
            self.query_icost_total.labels().inc(profile.get("i_cost", 0))
            self.query_intermediate_total.labels().inc(profile.get("intermediate_matches", 0))
            self.intersection_cache_hits_total.labels().inc(profile.get("cache_hits", 0))
            self.intersection_cache_misses_total.labels().inc(profile.get("cache_misses", 0))
        plan_span = trace.span("plan")
        if plan_span is not None:
            self.plan_seconds.labels().observe(plan_span.seconds)
        # Deadline/row-limit runs stop early, so their operator actuals
        # undercount: they feed neither the q-error histogram nor the
        # feedback's q-error aggregates (it tallies them as partial).
        worst = trace.max_q_error
        if trace.status == "ok" and worst == worst:  # not NaN
            self.query_q_error.labels().observe(worst)
        if feedback_key is not None and trace.operators:
            self.feedback.record(
                feedback_key,
                trace.query_name,
                trace.operators,
                partial=trace.status != "ok",
            )
        if self.event_log is not None:
            self.emit_event(
                "query_finish",
                trace_id=trace.trace_id,
                query=trace.query_name,
                key=trace.canonical_key,
                status=trace.status,
                mode=trace.mode,
                seconds=round(trace.total_seconds, 6),
                matches=trace.num_matches,
            )
            slow = self.traces.slow_seconds
            if slow is not None and trace.total_seconds >= slow:
                self.emit_event(
                    "slow_query",
                    trace_id=trace.trace_id,
                    query=trace.query_name,
                    key=trace.canonical_key,
                    seconds=round(trace.total_seconds, 6),
                    threshold=slow,
                    mode=trace.mode,
                )
        return trace

    def record_update(self, trace: QueryTrace) -> Optional[QueryTrace]:
        if not self.enabled:
            return None
        self.traces.record(trace)
        self.updates_total.labels().inc()
        self.update_seconds.labels().observe(trace.total_seconds)
        wal_span = trace.span("wal_append")
        if wal_span is not None:
            self.wal_append_seconds.labels().observe(wal_span.seconds)
        if self.event_log is not None:
            self.emit_event(
                "update_batch",
                trace_id=trace.trace_id,
                query=trace.query_name,
                status=trace.status,
                seconds=round(trace.total_seconds, 6),
            )
        return trace

    def _event_log_stats(self) -> dict:
        log = self.event_log
        return log.stats() if log is not None else {"attached": False}
