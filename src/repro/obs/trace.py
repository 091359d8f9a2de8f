"""Per-query traces: spans, operator cardinality feedback, and a ring buffer.

Every executed query (and every applied update batch) produces a
:class:`QueryTrace`: an ordered list of :class:`Span`s — admission wait,
plan/cache lookup, execution, WAL append — plus one :class:`OperatorStats`
row per plan operator carrying the operator's *actual* output cardinality
next to the planner's *estimate* and the resulting q-error.  This is exactly
the per-plan feedback signal the self-tuning optimizer loop needs (ROADMAP),
and the per-operator counters mirror what the paper reports alongside
runtimes in Tables 4-6 (i-cost, intermediate sizes, cache hits).

Traces are kept in a bounded ring buffer (:class:`TraceRecorder`) so a
long-running service holds a fixed amount of trace memory; traces slower
than a configurable threshold are additionally retained in a separate
slow-query ring and emitted through the ``repro.obs.slowlog`` logger.

Timing semantics: span durations are **busy seconds** of that stage.  On
the batch engine the per-operator seconds come from
:attr:`repro.executor.profile.ExecutionProfile.operator_seconds` (each
operator's own frame processing); the reference executor interleaves
operators in one generator chain, so per-operator durations are not
separable there and operator rows carry cardinalities only.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.catalogue.qerror import q_error

__all__ = ["Span", "OperatorStats", "QueryTrace", "TraceRecorder"]

logger = logging.getLogger("repro.obs.slowlog")

_trace_ids = itertools.count(1)


@dataclass
class Span:
    """One timed stage of a served request."""

    name: str
    seconds: float
    attributes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "seconds": self.seconds, "attributes": dict(self.attributes)}


@dataclass
class OperatorStats:
    """Actual-vs-estimated cardinality for one plan operator.

    ``estimated`` is the catalogue's cardinality estimate for the operator's
    sub-query, annotated onto the plan at optimization time; ``actual`` is
    the output count the executor measured.  ``q_error`` is
    ``max(est/act, act/est)`` with both clamped to >= 1 (the convention of
    the paper's Appendix B accuracy experiments); ``NaN`` when no estimate
    exists (plans built outside the optimizer).
    """

    name: str
    actual: int
    estimated: float = float("nan")
    q_error: float = float("nan")
    seconds: float = 0.0
    batches: int = 0
    #: A HASH-JOIN that probed with its build side's own rows: its probe
    #: subtree never ran, so it has no rows here.
    mirrored: bool = False
    #: Input frames an E/I had to sort into adjacency-key order first.
    sorted_frames: int = 0
    #: An E/I's lists anchored before its child's to-vertex, intersected
    #: once per distinct key of them and shared by the rows below it ...
    shared_lists: int = 0
    #: ... and how many such keys it intersected.
    shared_keys: int = 0

    @property
    def has_estimate(self) -> bool:
        return self.estimated == self.estimated  # not NaN

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "actual": self.actual,
            "estimated": self.estimated,
            "q_error": self.q_error,
            "seconds": self.seconds,
            "batches": self.batches,
            "mirrored": self.mirrored,
            "sorted_frames": self.sorted_frames,
            "shared_lists": self.shared_lists,
            "shared_keys": self.shared_keys,
        }


@dataclass
class QueryTrace:
    """The full observability record of one served request."""

    query_name: str
    kind: str = "query"  # "query" | "update"
    trace_id: int = 0
    status: str = "ok"
    mode: str = "vectorized"
    started_at: float = 0.0  # wall clock (time.time())
    total_seconds: float = 0.0
    num_matches: int = 0
    plan_type: str = ""
    plan_cached: Optional[bool] = None
    # The query's canonical (isomorphism-invariant) key, stringified — the
    # join handle back to the plan cache and cardinality-feedback table.
    # Empty when unknown (e.g. a pre-built Plan executed directly).
    canonical_key: str = ""
    spans: List[Span] = field(default_factory=list)
    operators: List[OperatorStats] = field(default_factory=list)
    profile: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.trace_id:
            self.trace_id = next(_trace_ids)
        if not self.started_at:
            self.started_at = time.time()

    # ------------------------------------------------------------------ #
    def add_span(self, name: str, seconds: float, **attributes: object) -> Span:
        span = Span(name=name, seconds=float(seconds), attributes=attributes)
        self.spans.append(span)
        return span

    def prepend_span(self, name: str, seconds: float, **attributes: object) -> Span:
        """Insert a span at the front (the service adds its admission-wait
        span around a trace the database already built)."""
        span = Span(name=name, seconds=float(seconds), attributes=attributes)
        self.spans.insert(0, span)
        return span

    def span(self, name: str) -> Optional[Span]:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    @property
    def max_q_error(self) -> float:
        """Worst per-operator q-error of the trace (NaN when no operator has
        an estimate)."""
        errors = [op.q_error for op in self.operators if op.has_estimate]
        return max(errors) if errors else float("nan")

    def worker_summary(self) -> Optional[dict]:
        """Aggregate the per-morsel ``morsel`` child spans (process-mode
        executions) into per-worker totals plus the query's skew and
        critical path; ``None`` when the trace has no worker spans."""
        morsels = [s for s in self.spans if s.name == "morsel"]
        if not morsels:
            return None
        workers: Dict[str, dict] = {}
        for span in morsels:
            attrs = span.attributes
            key = f"w{attrs.get('worker_id', '?')}"
            entry = workers.setdefault(
                key, {"morsels": 0, "busy_seconds": 0.0, "queue_wait_seconds": 0.0, "rows": 0}
            )
            entry["morsels"] += 1
            entry["busy_seconds"] += span.seconds
            entry["queue_wait_seconds"] += float(attrs.get("queue_wait", 0.0))
            entry["rows"] += int(attrs.get("rows", 0))
        execute = self.span("execute")
        summary = {"morsels": len(morsels), "workers": workers}
        if execute is not None:
            for key in ("skew", "critical_path_seconds"):
                if key in execute.attributes:
                    summary[key] = execute.attributes[key]
        return summary

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "query": self.query_name,
            "canonical_key": self.canonical_key,
            "status": self.status,
            "mode": self.mode,
            "started_at": self.started_at,
            "total_seconds": self.total_seconds,
            "num_matches": self.num_matches,
            "plan_type": self.plan_type,
            "plan_cached": self.plan_cached,
            "max_q_error": None if math.isnan(self.max_q_error) else self.max_q_error,
            "spans": [s.as_dict() for s in self.spans],
            "operators": [o.as_dict() for o in self.operators],
            "profile": dict(self.profile),
        }

    def format(self) -> str:
        """A compact human-readable rendering (used by the CLI).

        Process-mode traces additionally get a per-worker summary block
        (busy/queue-wait totals, skew, critical path) aggregated from the
        ``morsel`` child spans.
        """
        lines = [
            f"trace #{self.trace_id} [{self.kind}] {self.query_name}: "
            f"status={self.status} mode={self.mode} matches={self.num_matches} "
            f"total={self.total_seconds * 1e3:.2f}ms"
        ]
        if self.canonical_key:
            lines.append(f"  canonical key: {self.canonical_key}")
        for span in self.spans:
            attrs = " ".join(
                f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in span.attributes.items()
            )
            lines.append(f"  span {span.name:<12} {span.seconds * 1e3:>9.3f}ms  {attrs}".rstrip())
        summary = self.worker_summary()
        if summary is not None:
            skew = summary.get("skew")
            critical = summary.get("critical_path_seconds")
            header = f"  workers ({summary['morsels']} morsels"
            if skew is not None:
                header += f", skew={skew:.2f}"
            if critical is not None:
                header += f", critical path={critical * 1e3:.2f}ms"
            lines.append(header + "):")
            for name in sorted(summary["workers"]):
                entry = summary["workers"][name]
                lines.append(
                    f"    {name}: {entry['morsels']} morsel(s)  "
                    f"busy={entry['busy_seconds'] * 1e3:.2f}ms  "
                    f"queue-wait={entry['queue_wait_seconds'] * 1e3:.2f}ms  "
                    f"rows={entry['rows']}"
                )
        if self.operators:
            lines.append("  operators (actual vs estimated cardinality):")
            for op in self.operators:
                est = f"{op.estimated:.1f}" if op.has_estimate else "-"
                qe = f"{op.q_error:.2f}" if op.has_estimate else "-"
                timing = f" {op.seconds * 1e3:.2f}ms" if op.seconds else ""
                mirrored = "  probe side mirrored from build" if op.mirrored else ""
                resorted = f"  sorted {op.sorted_frames} input frame(s)" if op.sorted_frames else ""
                shared = (
                    f"  shared {op.shared_lists} lists over {op.shared_keys} keys"
                    if op.shared_keys
                    else ""
                )
                lines.append(
                    f"    {op.name:<28} actual={op.actual:<10} est={est:<10} "
                    f"q-error={qe}{timing}{mirrored}{resorted}{shared}"
                )
        return "\n".join(lines)

    def describe(self) -> str:
        """Backwards-compatible alias for :meth:`format`."""
        return self.format()


def operator_stats_from_profile(
    per_operator: Dict[str, Dict[str, int]],
    operator_seconds: Dict[str, float],
    estimates: Optional[Dict[str, float]],
) -> List[OperatorStats]:
    """Join the executor's per-operator counters with the plan's annotated
    cardinality estimates into :class:`OperatorStats` rows."""
    rows: List[OperatorStats] = []
    estimates = estimates or {}
    for name, counters in per_operator.items():
        actual = int(counters.get("out", 0))
        # Every key an E/I shares intersects its same lists, so the summed
        # list count divides evenly, merged morsels included.
        shared_keys = int(counters.get("shared", 0))
        estimated = estimates.get(name, float("nan"))
        error = q_error(estimated, actual) if estimated == estimated else float("nan")
        rows.append(
            OperatorStats(
                name=name,
                actual=actual,
                estimated=float(estimated),
                q_error=error,
                seconds=float(operator_seconds.get(name, 0.0)),
                batches=int(counters.get("batches", 0)),
                mirrored=bool(counters.get("mirrored", 0)),
                sorted_frames=int(counters.get("sorted", 0)),
                shared_lists=int(counters.get("shared_lists", 0)) // max(shared_keys, 1),
                shared_keys=shared_keys,
            )
        )
    return rows


class TraceRecorder:
    """Thread-safe bounded ring buffer of traces plus a slow-query ring.

    Parameters
    ----------
    capacity:
        Traces retained in the main ring (oldest evicted first).
    slow_seconds:
        Threshold for the slow-query log: traces at least this slow are
        copied into a second ring of ``slow_capacity`` entries and logged at
        WARNING level through the ``repro.obs.slowlog`` logger.  ``None``
        disables the slow log.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_seconds: Optional[float] = None,
        slow_capacity: int = 64,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be at least 1")
        self.capacity = capacity
        self.slow_seconds = slow_seconds
        self._lock = threading.Lock()
        self._ring: Deque[QueryTrace] = deque(maxlen=capacity)
        self._slow: Deque[QueryTrace] = deque(maxlen=max(1, slow_capacity))
        self.recorded = 0
        self.slow_queries = 0

    # ------------------------------------------------------------------ #
    def record(self, trace: QueryTrace) -> QueryTrace:
        slow = self.slow_seconds is not None and trace.total_seconds >= self.slow_seconds
        with self._lock:
            self._ring.append(trace)
            self.recorded += 1
            if slow:
                self._slow.append(trace)
                self.slow_queries += 1
        if slow:
            # The trace id joins the line back to `trace(id)` / `repro trace`,
            # the canonical key back to the plan cache and feedback table.
            logger.warning(
                "slow query %s (trace #%d, key=%s): %.3fs (threshold %.3fs) "
                "status=%s mode=%s matches=%d",
                trace.query_name,
                trace.trace_id,
                trace.canonical_key or "-",
                trace.total_seconds,
                self.slow_seconds,
                trace.status,
                trace.mode,
                trace.num_matches,
            )
        return trace

    def recent(self, n: Optional[int] = None, kind: Optional[str] = None) -> List[QueryTrace]:
        """The most recent traces, newest last."""
        with self._lock:
            traces = list(self._ring)
        if kind is not None:
            traces = [t for t in traces if t.kind == kind]
        return traces if n is None else traces[-n:]

    def last(self, kind: Optional[str] = None) -> Optional[QueryTrace]:
        traces = self.recent(1, kind=kind)
        return traces[-1] if traces else None

    def slow(self, n: Optional[int] = None) -> List[QueryTrace]:
        with self._lock:
            traces = list(self._slow)
        return traces if n is None else traces[-n:]

    def get(self, trace_id: int) -> Optional[QueryTrace]:
        with self._lock:
            for trace in self._ring:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._slow.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._ring),
                "recorded": self.recorded,
                "slow_queries": self.slow_queries,
                "slow_threshold_seconds": self.slow_seconds or 0.0,
            }
