"""The self-tuning optimizer loop: refresher, re-optimizer, and the service.

Covers the tentpole's moving parts end to end:

* partial (deadline/row-limit) executions never poison cardinality feedback,
* the background :class:`CatalogueRefresher` re-samples past the staleness
  threshold, installs via epoch CAS (with retry and locked fallback), and
  invalidates the plan cache,
* readers never see a torn plan/catalogue mix (old plan with new catalogue
  or vice versa) in either executor mode,
* the :class:`Reoptimizer` evicts a drifting cached plan only for a
  sufficiently cheaper one,
* a :class:`QueryService` over a database with a running refresher closes
  the loop: the worst-operator q-error after drift beats the untuned control.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import datasets
from repro.api import GraphflowDB
from repro.executor.operators import ExecutionConfig
from repro.graph.generators import clustered_social, erdos_renyi
from repro.obs.feedback import CardinalityFeedback
from repro.obs.trace import OperatorStats
from repro.query import catalog_queries as cq
from repro.server.plan_cache import plan_key
from repro.server.service import QueryService
from repro.tuning import CatalogueRefresher, Reoptimizer
from tests.conftest import wait_until


def _dynamic_db(num_vertices: int = 80, num_edges: int = 400, seed: int = 13) -> GraphflowDB:
    db = GraphflowDB(erdos_renyi(num_vertices, num_edges, seed=seed))
    db.to_dynamic()
    db.build_catalogue(h=2, z=60, queries=[cq.triangle()])
    return db


def _densify(db: GraphflowDB, k: int = 30) -> None:
    """Close triangles among the first ``k`` vertices (a near-clique), which
    the sparse-sampled catalogue badly underestimates."""
    db.apply_updates(inserts=[(i, j, 0) for i in range(k) for j in range(i + 1, k)])


# --------------------------------------------------------------------------- #
# satellite: partial executions never poison feedback
# --------------------------------------------------------------------------- #
class TestPartialFeedback:
    KEY = ("some-canonical-key", False, True, False)

    def _ops(self, q_error: float) -> list:
        return [OperatorStats(name="E/I[->c]", actual=100, estimated=10.0, q_error=q_error)]

    def test_partial_runs_do_not_touch_qerror_aggregates(self):
        feedback = CardinalityFeedback()
        feedback.record(self.KEY, "tri", self._ops(4.0))
        for _ in range(3):
            feedback.record(self.KEY, "tri", self._ops(9999.0), partial=True)
        entry = feedback.get(self.KEY)
        assert entry.executions == 1
        assert entry.partial_executions == 3
        assert entry.mean_q_error == entry.max_q_error == entry.last_q_error == 4.0
        assert feedback.stats()["partial_executions"] == 3

    def test_partial_only_plans_never_surface_as_drifting(self):
        feedback = CardinalityFeedback()
        feedback.record(self.KEY, "tri", self._ops(50.0), partial=True)
        assert feedback.drifting_plans(threshold=2.0) == []
        assert feedback.stats()["drifting_over_2"] == 0
        # One full execution later the plan is eligible again.
        feedback.record(self.KEY, "tri", self._ops(50.0))
        assert [k for k, _ in feedback.drifting_plans(threshold=2.0)] == [self.KEY]

    def test_estimate_less_operators_are_skipped_entirely(self):
        feedback = CardinalityFeedback()
        bare = [OperatorStats(name="SCAN", actual=10)]  # no estimate: NaN
        assert feedback.record(self.KEY, "tri", bare) is None
        assert feedback.get(self.KEY) is None

    def test_discard_consumes_the_signal(self):
        feedback = CardinalityFeedback()
        feedback.record(self.KEY, "tri", self._ops(50.0))
        feedback.discard(self.KEY)
        assert feedback.get(self.KEY) is None
        feedback.discard(self.KEY)  # idempotent

    def test_deadline_truncated_execution_does_not_shift_feedback(self):
        """Integration: a real deadline-expired run leaves the q-error
        aggregates of its plan exactly where they were."""
        db = GraphflowDB(clustered_social(150, avg_degree=7, clustering=0.4, seed=2))
        db.build_catalogue(h=2, z=60, queries=[cq.triangle()])
        q = cq.triangle()
        db.execute(q)
        key = plan_key(q)
        before = db.obs.feedback.get(key)
        assert before is not None and before.executions == 1
        snapshot = (before.executions, before.sum_q_error, before.max_q_error, before.last_q_error)

        expired = ExecutionConfig(deadline=time.monotonic() - 1.0)
        result = db.execute(q, config=expired)
        assert result.deadline_exceeded
        after = db.obs.feedback.get(key)
        assert (after.executions, after.sum_q_error, after.max_q_error, after.last_q_error) == snapshot
        assert [k for k, _ in db.obs.feedback.drifting_plans(1.0)] in ([], [key])


# --------------------------------------------------------------------------- #
# the background refresher
# --------------------------------------------------------------------------- #
class TestCatalogueRefresher:
    def test_threshold_triggers_background_refresh(self):
        db = _dynamic_db()
        epoch_before = db.catalogue.epoch
        events = []
        refresher = CatalogueRefresher(
            db,
            stale_threshold=0.10,
            poll_interval_seconds=0.005,
            event_sink=lambda event_type, **fields: events.append((event_type, fields)),
        )
        with refresher:
            assert not refresher.should_refresh()
            _densify(db, k=25)
            assert db.catalogue_stale_fraction >= 0.10
            assert wait_until(lambda: refresher.refreshes >= 1)
            assert wait_until(lambda: db.catalogue_stale_fraction < 0.10)
        assert db.catalogue.epoch > epoch_before
        assert db.catalogue.drift_edges == 0
        assert any(event_type == "catalogue_refresh" for event_type, _ in events)
        _, fields = next(e for e in events if e[0] == "catalogue_refresh")
        assert fields["entries"] == db.catalogue.num_entries
        assert fields["epoch"] == db.catalogue.epoch

    def test_a_raising_event_sink_propagates(self):
        """The sink is called bare: it is the sink's job not to raise, as the
        default ``emit_event``'s."""

        def sink(event_type, **fields):
            raise RuntimeError("sink failed")

        db = _dynamic_db()
        epoch_before = db.catalogue.epoch
        with pytest.raises(RuntimeError, match="sink failed"):
            CatalogueRefresher(db, event_sink=sink).refresh_now()
        assert db.catalogue.epoch > epoch_before  # installed before the event

    def test_refresh_invalidates_plan_cache_and_cost_models(self):
        db = _dynamic_db()
        plan_before = db.plan(cq.triangle())
        generation_before = db.plan_cache.generation
        refresher = CatalogueRefresher(db, stale_threshold=0.01)
        # A guaranteed-effective write: an edge to a brand-new vertex.
        db.apply_updates(new_vertex_labels=[0], inserts=[(0, db.graph.num_vertices, 0)])
        generation_after_write = db.plan_cache.generation
        assert refresher.refresh_now()
        assert db.plan_cache.generation > generation_after_write > generation_before
        plan_after = db.plan(cq.triangle())
        assert plan_after.catalogue_epoch == db.catalogue.epoch
        assert plan_after.catalogue_epoch > plan_before.catalogue_epoch

    def test_cas_losses_retry_and_fall_back_to_locked_resample(self, monkeypatch):
        import repro.tuning.refresher as refresher_module

        db = _dynamic_db()
        real_resample = refresher_module.resample_catalogue
        racing_calls = {"left": 2}

        def racing_resample(catalogue, graph, z=None, seed=0):
            fresh = real_resample(catalogue, graph, z=z, seed=seed)
            if racing_calls["left"] > 0:  # a write lands mid-resample
                racing_calls["left"] -= 1
                db.apply_updates(inserts=[(0, 60 + racing_calls["left"], 0)])
            return fresh

        monkeypatch.setattr(refresher_module, "resample_catalogue", racing_resample)
        refresher = CatalogueRefresher(db, stale_threshold=0.01, max_install_retries=3)
        epoch_before = db.catalogue.epoch
        assert refresher.refresh_now()
        stats = refresher.stats()
        assert stats["cas_retries"] == 2
        assert stats["locked_fallbacks"] == 0
        assert stats["refreshes"] == 1
        assert db.catalogue.epoch == epoch_before + 1
        # The installed catalogue was sampled against post-race state: the
        # racing inserts are in its exact statistics.
        assert db.catalogue.num_graph_edges == db.graph.num_edges

    def test_locked_fallback_installs_when_writes_always_win(self, monkeypatch):
        import repro.tuning.refresher as refresher_module

        db = _dynamic_db()
        real_resample = refresher_module.resample_catalogue
        in_fallback = {"active": False}

        def racing_resample(catalogue, graph, z=None, seed=0):
            fresh = real_resample(catalogue, graph, z=z, seed=seed)
            if not in_fallback["active"]:
                db.apply_updates(inserts=[(1, int(seed) % 50 + 5, 0)])
            return fresh

        monkeypatch.setattr(refresher_module, "resample_catalogue", racing_resample)
        refresher = CatalogueRefresher(db, stale_threshold=0.01, max_install_retries=2)
        epoch_before = db.catalogue.epoch
        real_write_lock = db._write_lock

        class _MarkingLock:
            def __enter__(self):
                real_write_lock.acquire()
                in_fallback["active"] = True
                return self

            def __exit__(self, *exc_info):
                in_fallback["active"] = False
                real_write_lock.release()
                return False

        monkeypatch.setattr(db, "_write_lock", _MarkingLock())
        assert refresher.refresh_now()
        stats = refresher.stats()
        assert stats["cas_retries"] == 2
        assert stats["locked_fallbacks"] == 1
        assert db.catalogue.epoch > epoch_before
        assert db.catalogue.drift_edges == 0

    @pytest.mark.timing
    def test_pacing_floor_skips_hot_refreshes(self):
        db = _dynamic_db()
        refresher = CatalogueRefresher(
            db,
            stale_threshold=0.01,
            poll_interval_seconds=0.005,
            min_interval_seconds=3600.0,
        )
        assert refresher.refresh_now()  # arms the pacing clock
        with refresher:
            _densify(db, k=20)
            assert wait_until(lambda: refresher.stats()["paced_skips"] >= 1)
        assert refresher.stats()["refreshes"] == 1

    def test_no_catalogue_means_no_refresh(self):
        db = GraphflowDB(erdos_renyi(30, 90, seed=1))
        refresher = CatalogueRefresher(db)
        assert not refresher.should_refresh()
        assert not refresher.refresh_now()
        assert refresher.stats()["refreshes"] == 0

    def test_invalid_thresholds_rejected(self):
        db = GraphflowDB(erdos_renyi(20, 40, seed=1))
        with pytest.raises(ValueError):
            CatalogueRefresher(db, stale_threshold=0.0)
        with pytest.raises(ValueError):
            CatalogueRefresher(db, poll_interval_seconds=0.0)


# --------------------------------------------------------------------------- #
# satellite: no torn plan/catalogue mixes during refresh installs
# --------------------------------------------------------------------------- #
class TestPlanCatalogueConsistency:
    @pytest.mark.timing
    def test_readers_never_observe_torn_plan_catalogue_pairs(self):
        """A query admitted around a refresh install must see old plan + old
        catalogue or new plan + new catalogue — never a mix.  The install
        swaps catalogue, cost model, and plan cache atomically under the
        write lock, so under that lock a freshly served plan's stamped epoch
        always equals the live catalogue's."""
        db = _dynamic_db(num_vertices=60, num_edges=240, seed=5)
        q = cq.triangle()
        stop = threading.Event()
        failures: list = []

        def writer():
            i = 0
            while not stop.is_set():
                db.apply_updates(inserts=[(i % 50, (i * 7 + 3) % 50, 0)])
                i += 1
                time.sleep(0.001)

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        refresher = CatalogueRefresher(db, stale_threshold=0.02, poll_interval_seconds=0.002)
        checks = 0
        try:
            with refresher:
                deadline = time.monotonic() + 20.0
                # Keep checking until the refresher has installed at least
                # twice (so reads race real installs), yielding between reads
                # so the writer and refresher threads can take the lock.
                while time.monotonic() < deadline and refresher.stats()["refreshes"] < 2:
                    with db._write_lock:
                        plan = db.plan(q)
                        live_epoch = db.catalogue.epoch
                        if plan.catalogue_epoch != live_epoch:
                            failures.append((plan.catalogue_epoch, live_epoch))
                    checks += 1
                    time.sleep(0.002)
        finally:
            stop.set()
            writer_thread.join(timeout=5)
        assert failures == []
        assert checks > 0
        assert refresher.stats()["refreshes"] >= 1, "refresher never fired; test proved nothing"


# --------------------------------------------------------------------------- #
# the re-optimizer
# --------------------------------------------------------------------------- #
class TestReoptimizer:
    def _seed_drift(self, db, key, query_name="tri", q_error=50.0):
        ops = [OperatorStats(name="E/I[->c]", actual=1000, estimated=20.0, q_error=q_error)]
        db.obs.feedback.record(key, query_name, ops)

    def test_drifting_plan_replaced_by_cheaper_plan(self):
        from repro.planner.qvo import enumerate_wco_plans

        db = GraphflowDB(clustered_social(150, avg_degree=7, clustering=0.4, seed=8))
        db.build_catalogue(h=3, z=80, queries=[cq.q3()])
        q = cq.q3()
        best = db.plan(q, use_cache=False)
        cost_model = db.cost_model
        worst = max(enumerate_wco_plans(q), key=lambda p: cost_model.plan_cost(p))
        assert worst.signature() != best.signature()
        key = plan_key(q)
        db.plan_cache.put(key, worst)
        self._seed_drift(db, key, query_name=q.name)

        events = []
        reopt = Reoptimizer(
            db, qerror_threshold=2.0, cost_margin=0.9,
            event_sink=lambda event_type, **fields: events.append((event_type, fields)),
        )
        report = reopt.run_once()
        assert report.considered == 1
        assert report.replanned == 1
        assert report.plan_changes == 1
        cached = db.plan_cache.peek(key)
        assert cached is not None and cached.signature() == best.signature()
        assert db.obs.feedback.get(key) is None, "drift signal must be consumed"
        assert [event_type for event_type, _ in events] == ["plan_replan"]
        assert events[0][1]["changed"] is True
        assert reopt.stats()["replans"] == 1
        assert reopt.stats()["plan_changes"] == 1

    def test_a_raising_event_sink_propagates(self):
        def sink(event_type, **fields):
            raise RuntimeError("sink failed")

        db = GraphflowDB(erdos_renyi(100, 600, seed=6))
        db.build_catalogue(h=2, z=60, queries=[cq.triangle()])
        q = cq.triangle()
        db.plan(q)
        self._seed_drift(db, plan_key(q))
        with pytest.raises(RuntimeError, match="sink failed"):
            Reoptimizer(db, event_sink=sink).run_once()

    def test_already_optimal_plan_is_kept(self):
        db = GraphflowDB(erdos_renyi(100, 600, seed=6))
        db.build_catalogue(h=2, z=60, queries=[cq.triangle()])
        q = cq.triangle()
        plan = db.plan(q)  # caches the optimizer's own choice
        key = plan_key(q)
        assert db.plan_cache.peek(key) is not None
        self._seed_drift(db, key)
        reopt = Reoptimizer(db)
        report = reopt.run_once()
        assert report.replanned == 1
        assert report.plan_changes == 0
        assert db.plan_cache.peek(key) is plan

    def test_a_limited_key_is_compared_by_limited_cost(self):
        """Unlimited, the hybrid diamond-X plan is the cheapest; under the
        key's limit class the WCO plan is, and the re-plan installs it."""
        db = GraphflowDB(datasets.load("amazon", scale=0.25))
        db.build_catalogue()
        q = cq.diamond_x()
        hybrid = db.plan(q, use_cache=False)
        assert hybrid.plan_type == "hybrid"
        key = plan_key(q, output_limit=100)
        db.plan_cache.put(key, hybrid)
        self._seed_drift(db, key, query_name=q.name)
        report = Reoptimizer(db).run_once()
        assert report.plan_changes == 1
        cached = db.plan_cache.peek(key)
        assert cached.plan_type == "wco"
        cost_model = db.cost_model
        assert report.details[0]["old_cost"] == cost_model.limited_cost(hybrid, key.limit_class)
        assert report.details[0]["new_cost"] == cost_model.limited_cost(cached, key.limit_class)

    def test_uncached_and_unkeyed_drift_is_skipped(self):
        db = GraphflowDB(erdos_renyi(60, 240, seed=6))
        db.build_catalogue(h=2, z=40, queries=[cq.triangle()])
        gone_key = plan_key(cq.triangle())
        self._seed_drift(db, gone_key)  # nothing cached under this key
        prebuilt_key = ("plan", "SCAN[a->b]")
        self._seed_drift(db, prebuilt_key)
        report = Reoptimizer(db).run_once()
        assert report.skipped_uncached == 1
        assert report.skipped_unkeyed == 1
        assert report.plan_changes == 0
        # The uncached signal is consumed (next execution re-plans anyway);
        # the pre-built plan's stays for visibility.
        assert db.obs.feedback.get(gone_key) is None
        assert db.obs.feedback.get(prebuilt_key) is not None

    def test_racing_invalidation_aborts_install(self, monkeypatch):
        db = GraphflowDB(clustered_social(150, avg_degree=7, clustering=0.4, seed=8))
        db.build_catalogue(h=3, z=80, queries=[cq.q3()])
        q = cq.q3()
        from repro.planner.qvo import enumerate_wco_plans

        cost_model = db.cost_model
        worst = max(enumerate_wco_plans(q), key=lambda p: cost_model.plan_cost(p))
        key = plan_key(q)
        db.plan_cache.put(key, worst)
        self._seed_drift(db, key, query_name=q.name)

        real_plan_uncached = db._plan_uncached

        def racing_plan(*args, **kwargs):
            plan = real_plan_uncached(*args, **kwargs)
            db.plan_cache.invalidate()  # writes landed while re-planning
            return plan

        monkeypatch.setattr(db, "_plan_uncached", racing_plan)
        report = Reoptimizer(db).run_once()
        assert report.replanned == 1
        assert report.plan_changes == 0, "stale re-plan must not be installed"
        assert db.plan_cache.peek(key) is None

    def test_validation(self):
        db = GraphflowDB(erdos_renyi(20, 40, seed=1))
        with pytest.raises(ValueError):
            Reoptimizer(db, qerror_threshold=0.5)
        with pytest.raises(ValueError):
            Reoptimizer(db, cost_margin=0.0)


# --------------------------------------------------------------------------- #
# the service closes the loop
# --------------------------------------------------------------------------- #
class TestServiceSelfTuning:
    def _refresher(self, db):
        return CatalogueRefresher(
            db,
            stale_threshold=0.15,
            poll_interval_seconds=0.005,
            reoptimizer=Reoptimizer(db, qerror_threshold=1.5),
        )

    def test_wiring_and_stats_surface(self):
        db = _dynamic_db()
        with self._refresher(db) as refresher, QueryService(db) as service:
            assert refresher.running
            tuning = service.stats()["tuning"]
            assert tuning["stale_threshold"] == 0.15
            assert tuning["reoptimizer"]["qerror_threshold"] == 1.5
            assert {"refreshes", "catalogue_epoch"} <= set(tuning)
            assert {"replans", "plan_changes"} <= set(tuning["reoptimizer"])
            assert "catalogue_refresher" in db.health.names()
            assert "graphflow_tuning_refreshes" in service.metrics_prometheus()
            assert refresher.refresh_now() is True
            assert refresher.reoptimizer.run_once().considered == 0
        assert not refresher.running, "leaving the block must stop the refresher"
        # stop() takes the loop's stats source and readiness check with it.
        assert "tuning" not in db.stats()
        assert "catalogue_refresher" not in db.health.names()

    def test_no_tuning_section_without_a_refresher(self):
        db = _dynamic_db()
        with QueryService(db) as service:
            assert "tuning" not in service.stats()

    def _drift_qerror(self, self_tuning: bool) -> float:
        """Serve, drift the graph, (maybe) let the loop react, serve again;
        return the final execution's worst-operator q-error."""
        db = _dynamic_db(num_vertices=120, num_edges=360, seed=23)
        q = cq.triangle()
        refresher = self._refresher(db)
        if self_tuning:
            refresher.start()
        try:
            with QueryService(db) as service:
                assert service.execute(q).status == "ok"
                _densify(db, k=40)
                service.execute(q)  # records the post-drift q-error (the signal)
                if self_tuning:
                    assert wait_until(
                        lambda: refresher.stats()["refreshes"] >= 1
                    ), "staleness crossed the threshold but the refresher never fired"
                final = service.execute(q)
                assert final.status == "ok"
                return final.result.trace.max_q_error
        finally:
            refresher.stop()

    def test_tuning_improves_post_drift_qerror(self):
        """The acceptance scenario: after a drift stream, the re-sampled
        estimates of a database with the loop running beat the stale ones."""
        untuned = self._drift_qerror(self_tuning=False)
        tuned = self._drift_qerror(self_tuning=True)
        assert untuned >= 1.5, "drift scenario too weak to distinguish tuning"
        assert tuned < untuned
