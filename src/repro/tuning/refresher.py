"""Background catalogue refresh: the *act* half of the self-tuning loop.

The catalogue's exact per-label edge counts are maintained incrementally by
``apply_edge_delta``, but the sampled ``mu`` / ``|A|`` entries decay as the
graph churns — :attr:`~repro.catalogue.SubgraphCatalogue.stale_fraction`
measures that decay.  The :class:`CatalogueRefresher` watches it from a
daemon thread (modeled on the compaction manager) and, past a threshold,
re-samples every entry against a pinned snapshot *off the write path*, then
installs the result through the database's epoch compare-and-swap
(:meth:`~repro.api.GraphflowDB.install_refreshed_catalogue`): if writes (or
a competing rebuild) raced the re-sample, the install is discarded and
retried against newer state; after ``max_install_retries`` losses it falls
back to re-sampling under the write lock, which cannot lose.

Each cycle optionally runs a :class:`~repro.tuning.reoptimize.Reoptimizer`
pass afterwards, so one thread drives the whole sense → decide → act loop.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.catalogue.construction import resample_catalogue
from repro.obs.health import thread_alive_check


class CatalogueRefresher:
    """Re-samples a database's catalogue in the background once stale.

    Parameters
    ----------
    db:
        The :class:`~repro.api.GraphflowDB` whose catalogue to maintain.
    stale_threshold:
        Refresh once ``db.catalogue_stale_fraction`` reaches this.
    poll_interval_seconds:
        Cadence of the staleness check.
    min_interval_seconds:
        Floor between installed refreshes, so a hot write stream cannot make
        the refresher spin on re-sampling.
    max_install_retries:
        Lock-free install attempts per refresh before falling back to
        re-sampling under the write lock.
    z:
        Sample count for re-measurement (defaults to the catalogue's own).
    event_sink:
        Optional ``(event_type, **fields)`` callable
        (:meth:`~repro.obs.Observability.emit_event` matches); receives a
        ``catalogue_refresh`` event per installed refresh.  It must not
        raise: it is called bare, and an exception propagates out of
        :meth:`refresh_now`.  The default, ``emit_event``, never does.
    reoptimizer:
        Optional :class:`~repro.tuning.reoptimize.Reoptimizer` run at the
        end of every poll cycle.
    """

    def __init__(
        self,
        db,
        stale_threshold: float = 0.25,
        poll_interval_seconds: float = 0.05,
        min_interval_seconds: float = 0.0,
        max_install_retries: int = 3,
        z: Optional[int] = None,
        seed: int = 0,
        event_sink: Optional[Callable] = None,
        reoptimizer=None,
    ) -> None:
        if stale_threshold <= 0:
            raise ValueError("stale_threshold must be positive")
        if poll_interval_seconds <= 0:
            raise ValueError("poll_interval_seconds must be positive")
        self.db = db
        self.stale_threshold = stale_threshold
        self.poll_interval_seconds = poll_interval_seconds
        self.min_interval_seconds = min_interval_seconds
        self.max_install_retries = max_install_retries
        self.z = z
        self.seed = seed
        self.event_sink = event_sink if event_sink is not None else db.obs.emit_event
        self.reoptimizer = reoptimizer

        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self.refreshes = 0
        self.cas_retries = 0
        self.locked_fallbacks = 0
        self.paced_skips = 0
        self.last_refresh_seconds = 0.0
        self._last_install_monotonic: Optional[float] = None
        self._refresh_seed = seed

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the thread and make the loop visible: the ``tuning`` stats
        source and the ``catalogue_refresher`` readiness check live exactly
        as long as the thread is meant to."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="catalogue-refresher", daemon=True
        )
        self._thread.start()
        self.db.obs.registry.register_collector("tuning", self.stats)
        self.db.health.register(
            "catalogue_refresher",
            thread_alive_check(lambda: self.running, description="catalogue refresher"),
        )

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if wait and thread is not None:
            thread.join()
        self._thread = None
        # Refreshing deliberately off is healthy, and its numbers are gone.
        self.db.health.unregister("catalogue_refresher")
        self.db.obs.registry.unregister_collector("tuning")

    def __enter__(self) -> "CatalogueRefresher":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while not self._stop.is_set():
            self._stop.wait(timeout=self.poll_interval_seconds)
            if self._stop.is_set():
                break
            if self.should_refresh():
                if self._paced_out():
                    with self._stats_lock:
                        self.paced_skips += 1
                else:
                    self.refresh_now()
            reoptimizer = self.reoptimizer
            if reoptimizer is not None:
                reoptimizer.run_once()

    def should_refresh(self) -> bool:
        if self.db.catalogue is None:
            return False
        return self.db.catalogue_stale_fraction >= self.stale_threshold

    def _paced_out(self) -> bool:
        if self.min_interval_seconds <= 0 or self._last_install_monotonic is None:
            return False
        return (time.monotonic() - self._last_install_monotonic) < self.min_interval_seconds

    # ------------------------------------------------------------------ #
    def refresh_now(self) -> bool:
        """Re-sample and install once; safe to call without the thread.

        Returns whether a refreshed catalogue was installed (False only when
        no catalogue is built yet).
        """
        start = time.perf_counter()
        installed = False
        retries = 0
        locked = False
        for _ in range(max(1, self.max_install_retries)):
            old = self.db.catalogue
            if old is None:
                return False
            token_epoch, token_drift = old.epoch, old.drift_edges
            fresh = resample_catalogue(
                old, self.db._read_graph(), z=self.z, seed=self._next_seed()
            )
            if self.db.install_refreshed_catalogue(
                fresh, expected_epoch=token_epoch, expected_drift_edges=token_drift
            ):
                installed = True
                break
            retries += 1
        if not installed:
            # Writes keep winning the race; re-sample under the write lock,
            # which blocks writers for one bounded rebuild but cannot lose.
            with self.db._write_lock:
                old = self.db.catalogue
                if old is None:
                    return False
                fresh = resample_catalogue(
                    old, self.db._read_graph(), z=self.z, seed=self._next_seed()
                )
                self.db.install_refreshed_catalogue(
                    fresh, expected_epoch=old.epoch, expected_drift_edges=old.drift_edges
                )
            locked = True
            installed = True
        seconds = time.perf_counter() - start
        with self._stats_lock:
            self.refreshes += 1
            self.cas_retries += retries
            if locked:
                self.locked_fallbacks += 1
            self.last_refresh_seconds = seconds
            self._last_install_monotonic = time.monotonic()
            refreshes = self.refreshes
        obs = getattr(self.db, "obs", None)
        if obs is not None:
            obs.tuning_catalogue_refreshes_total.labels().inc()
            obs.tuning_refresh_seconds.labels().observe(seconds)
        if self.event_sink is not None:
            self.event_sink(
                "catalogue_refresh",
                seconds=round(seconds, 6),
                epoch=self.db.catalogue.epoch if self.db.catalogue is not None else 0,
                entries=fresh.num_entries,
                cas_retries=retries,
                locked_fallback=locked,
                refreshes=refreshes,
            )
        return True

    def _next_seed(self) -> int:
        # A fresh seed per re-sample, deterministic from the base seed, so
        # repeated refreshes draw new samples instead of replaying the old
        # estimate (the point of refreshing is new measurements).
        self._refresh_seed += 1
        return self._refresh_seed

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """The loop's numbers (the ``tuning`` stats source), the attached
        reoptimizer's under ``reoptimizer``."""
        with self._stats_lock:
            out = {
                "running": self.running,
                "stale_threshold": self.stale_threshold,
                "stale_fraction": self.db.catalogue_stale_fraction,
                "catalogue_epoch": (
                    self.db.catalogue.epoch if self.db.catalogue is not None else 0
                ),
                "refreshes": self.refreshes,
                "cas_retries": self.cas_retries,
                "locked_fallbacks": self.locked_fallbacks,
                "paced_skips": self.paced_skips,
                "last_refresh_seconds": self.last_refresh_seconds,
            }
        if self.reoptimizer is not None:
            out["reoptimizer"] = self.reoptimizer.stats()
        return out
