"""Pluggable health checks backing the ops plane's ``/readyz`` endpoint.

Liveness ("the process responds") and readiness ("this node should receive
traffic") are different questions: a server mid-recovery, a worker pool
whose processes died, or a WAL directory about to run out of disk are all
*alive* but must be rotated out of a load balancer before they take
queries.  :class:`HealthRegistry` holds named check callables, runs them
with per-check latency accounting, and folds the results into one
:class:`HealthReport`; the registry also exports every check as a pair of
``health_<name>_healthy`` / ``health_<name>_latency_seconds`` gauges
through the metrics registry's collector mechanism, so Prometheus alerting
and ``/readyz`` read the exact same signals.

A check callable takes no arguments and returns one of:

* ``True`` / ``None`` — healthy (no detail);
* ``False`` — unhealthy (no detail);
* ``(healthy, detail)`` — explicit verdict with a human-readable detail.

A check that raises is reported unhealthy with the exception as its
detail — a broken probe must read as a failing probe, never as a passing
one.  Checks are registered with replace semantics (re-attaching a
subsystem re-registers its check) and ``critical=False`` marks advisory
checks that are reported but do not flip overall readiness.

Drain mode (:meth:`HealthRegistry.set_draining`) forces ``/readyz`` to
report not-ready regardless of check outcomes: the standard pattern for
taking a node out of rotation before shutdown, wired to
:meth:`repro.server.service.QueryService.close` and the ops server's
``POST /drain`` endpoint.

The module also ships the concrete check factories the database wires in
(`recovery_check`, `free_space_check`, `checkpoint_lag_check`,
`process_pool_check`, `thread_alive_check`) — each closes over the live
subsystem object so a respawned pool or re-opened store is probed through
its current state, not a snapshot.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "CheckResult",
    "HealthReport",
    "HealthRegistry",
    "recovery_check",
    "free_space_check",
    "checkpoint_lag_check",
    "process_pool_check",
    "thread_alive_check",
    "DEFAULT_MIN_FREE_BYTES",
    "DEFAULT_MAX_CHECKPOINT_LAG_RECORDS",
]

#: Default free-space floor for the WAL directory check (64 MiB — enough for
#: the WAL to absorb a burst while an operator reacts to the alert).
DEFAULT_MIN_FREE_BYTES = 64 * 1024 * 1024

#: Default checkpoint-lag ceiling: un-checkpointed WAL records beyond this
#: mean recovery time (and data at risk to a torn tail) is growing unbounded.
DEFAULT_MAX_CHECKPOINT_LAG_RECORDS = 100_000


@dataclass
class CheckResult:
    """Outcome of one health check run."""

    name: str
    healthy: bool
    detail: str = ""
    latency_seconds: float = 0.0
    critical: bool = True

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "healthy": self.healthy,
            "detail": self.detail,
            "latency_seconds": self.latency_seconds,
            "critical": self.critical,
        }


@dataclass
class HealthReport:
    """The folded outcome of one :meth:`HealthRegistry.run` pass."""

    healthy: bool
    draining: bool = False
    drain_reason: str = ""
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "ready" if self.healthy else "unready"

    def failing(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.healthy]

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "healthy": self.healthy,
            "draining": self.draining,
            "drain_reason": self.drain_reason,
            "checks": {c.name: c.as_dict() for c in self.checks},
        }


class HealthRegistry:
    """Named health checks with replace semantics and drain mode.

    Thread-safe: checks are registered/unregistered from subsystem attach
    points while scrapes and ``/readyz`` probes run them concurrently.  The
    lock only guards the name table — check callables run outside it, so a
    slow probe (disk stat on a busy volume) never blocks registration.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checks: Dict[str, tuple] = {}  # name -> (fn, critical)
        self._draining = False
        self._drain_reason = ""

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self, name: str, fn: Callable[[], object], critical: bool = True
    ) -> None:
        """Register (or replace) the check called ``name``."""
        if not callable(fn):
            raise TypeError(f"health check {name!r} must be callable")
        with self._lock:
            self._checks[str(name)] = (fn, bool(critical))

    def unregister(self, name: str) -> None:
        """Remove a check; a no-op when it was never registered."""
        with self._lock:
            self._checks.pop(str(name), None)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._checks)

    # ------------------------------------------------------------------ #
    # drain mode
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def set_draining(self, draining: bool, reason: str = "") -> None:
        """Force ``/readyz`` unready (``True``) or restore check-driven
        readiness (``False``); the reason string is surfaced in reports."""
        with self._lock:
            self._draining = bool(draining)
            self._drain_reason = str(reason) if draining else ""

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    @staticmethod
    def _interpret(outcome: object) -> tuple:
        if outcome is None or outcome is True:
            return True, ""
        if outcome is False:
            return False, ""
        if isinstance(outcome, tuple) and len(outcome) == 2:
            healthy, detail = outcome
            return bool(healthy), str(detail)
        # Anything truthy-but-unrecognised counts as healthy with the value
        # stringified — a probe returning a status string stays visible.
        return bool(outcome), str(outcome)

    def run(self) -> HealthReport:
        """Run every check once and fold the results.

        Overall readiness = not draining AND every *critical* check healthy.
        Advisory (``critical=False``) failures are reported but do not flip
        readiness.
        """
        with self._lock:
            checks = sorted(self._checks.items())
            draining = self._draining
            drain_reason = self._drain_reason
        results: List[CheckResult] = []
        healthy = not draining
        for name, (fn, critical) in checks:
            start = time.perf_counter()
            try:
                ok, detail = self._interpret(fn())
            except Exception as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            results.append(
                CheckResult(
                    name=name,
                    healthy=ok,
                    detail=detail,
                    latency_seconds=latency,
                    critical=critical,
                )
            )
            if critical and not ok:
                healthy = False
        return HealthReport(
            healthy=healthy,
            draining=draining,
            drain_reason=drain_reason,
            checks=results,
        )

    def collect(self) -> dict:
        """Flattened numbers for the metrics registry's ``health`` collector:
        ``health_<check>_healthy`` / ``health_<check>_latency_seconds`` per
        check plus the overall ``health_healthy`` / ``health_draining``
        gauges — the same verdicts ``/readyz`` serves, on the scrape path.
        The ``status`` / ``drain_reason`` / ``detail`` strings ride along for
        ``stats()`` readers; the gauge flattener skips them."""
        report = self.run()
        out: dict = {
            "status": report.status,
            "healthy": report.healthy,
            "draining": report.draining,
            "drain_reason": report.drain_reason,
        }
        for check in report.checks:
            out[check.name] = {
                "healthy": check.healthy,
                "detail": check.detail,
                "latency_seconds": check.latency_seconds,
            }
        return out


# --------------------------------------------------------------------------- #
# check factories (closed over live subsystem objects)
# --------------------------------------------------------------------------- #
def recovery_check(store) -> Callable[[], object]:
    """Healthy once the durable store's recovery completed and the store is
    still open (a closed store must pull the node from rotation)."""

    def check() -> object:
        if store.closed:
            return False, "durable store is closed"
        report = store.recovery
        if report is None:
            return False, "no recovery report (store not recovered)"
        return True, report.describe()

    return check


def free_space_check(
    path: str, min_free_bytes: int = DEFAULT_MIN_FREE_BYTES
) -> Callable[[], object]:
    """Healthy while the filesystem holding ``path`` has at least
    ``min_free_bytes`` free (the WAL must always be able to append)."""

    def check() -> object:
        usage = shutil.disk_usage(path)
        detail = (
            f"{usage.free / (1024 * 1024):.0f} MiB free "
            f"(floor {min_free_bytes / (1024 * 1024):.0f} MiB) at {path}"
        )
        return usage.free >= min_free_bytes, detail

    return check


def checkpoint_lag_check(
    store,
    max_records: Optional[int] = DEFAULT_MAX_CHECKPOINT_LAG_RECORDS,
    max_seconds: Optional[float] = None,
) -> Callable[[], object]:
    """Healthy while the WAL tail past the newest snapshot stays below the
    record (and optionally wall-clock) ceilings.

    Reads ``store.stats()`` — the same ``wal_records_since_checkpoint`` /
    ``seconds_since_last_checkpoint`` numbers the persistence collector
    exports to Prometheus, so the alert and the readiness probe can never
    disagree about the lag.  The seconds ceiling only applies while there
    is something to checkpoint: an idle store is clean, not lagging.
    """

    def check() -> object:
        if store.closed:
            return False, "durable store is closed"
        stats = store.stats()
        lag_records = stats["wal_records_since_checkpoint"]
        lag_seconds = stats["seconds_since_last_checkpoint"]
        detail = (
            f"{lag_records} WAL record(s) since checkpoint, "
            f"{lag_seconds:.0f}s since last checkpoint"
        )
        if max_records is not None and lag_records > max_records:
            return False, f"{detail} (record ceiling {max_records})"
        if (
            max_seconds is not None
            and lag_records > 0
            and lag_seconds > max_seconds
        ):
            return False, f"{detail} (age ceiling {max_seconds:.0f}s)"
        return True, detail

    return check


def process_pool_check(get_pool) -> Callable[[], object]:
    """Healthy while the morsel process pool has its full complement of live
    workers; ``get_pool`` is a zero-argument callable returning the current
    pool (it can be replaced by ``enable_process_pool``)."""

    def check() -> object:
        pool = get_pool()
        if pool is None:
            return False, "no process pool attached"
        if pool.closed:
            return False, "process pool is closed"
        stats = pool.stats()
        alive = stats.get("alive_workers", 0)
        want = stats.get("num_workers", 0)
        detail = (
            f"{alive}/{want} workers alive (generation {stats.get('generation', 0)})"
        )
        return alive >= want, detail

    return check


def thread_alive_check(is_running, description: str = "") -> Callable[[], object]:
    """Healthy while ``is_running()`` is truthy — the probe for daemon
    threads that expose a ``running`` property (compaction manager,
    catalogue refresher)."""

    def check() -> object:
        if is_running():
            return True, description or "thread alive"
        return False, (f"{description}: " if description else "") + "thread not running"

    return check
