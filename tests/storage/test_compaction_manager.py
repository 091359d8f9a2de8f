"""CompactionManager: threshold compaction off the write path.

With a manager attached, writes only append deltas and notify; the CSR
rebuild runs on the manager's thread and installs with a compare-and-swap on
the epoch counter (a racing write makes the install retry, never lose data).
"""

from __future__ import annotations

import pytest

from repro.api import GraphflowDB
from repro.graph.builder import graph_from_edges
from repro.query import catalog_queries as cq
from repro.server.service import QueryService
from repro.storage import CompactionManager, DynamicGraph, GraphSnapshot
from tests.conftest import wait_until as _wait_until


def _chain_graph(n: int = 30):
    return graph_from_edges([(i, i + 1) for i in range(n)] + [(n, 0)])


class TestWritePath:
    def test_writes_never_compact_while_attached(self):
        """Manager attached but not started: crossing the threshold leaves
        the overlay dirty — proof the write path no longer compacts."""
        dynamic = DynamicGraph(_chain_graph(), compact_ratio=0.0, compact_min_edges=1)
        manager = CompactionManager(dynamic, compact_ratio=0.0, min_delta_edges=1)
        try:
            dynamic.add_edges([(0, i) for i in range(2, 20)])
            assert dynamic.compactions == 0
            assert dynamic.delta_edges > manager._threshold()
        finally:
            manager.stop()
        # Detached again: the graph's own synchronous auto-compaction returns.
        assert dynamic.auto_compact is True
        dynamic.add_edges([(1, i) for i in range(3, 10)])
        assert dynamic.compactions >= 1

    def test_background_thread_compacts_and_preserves_content(self):
        dynamic = DynamicGraph(_chain_graph(), auto_compact=False)
        edges_before = dynamic.num_edges
        with CompactionManager(dynamic, compact_ratio=0.0, min_delta_edges=4) as manager:
            dynamic.add_edges([(0, i) for i in range(2, 22)])
            version = dynamic.version
            assert _wait_until(lambda: dynamic.delta_edges == 0)
            assert manager.stats()["compactions"] >= 1
            # Compaction changes neither logical content nor the version.
            assert dynamic.version == version
            assert dynamic.num_edges == edges_before + 20
            assert dynamic.has_edge(0, 2) and dynamic.has_edge(5, 6)

    def test_stop_then_start_reattaches(self):
        """A stop/start cycle must resume background compaction — stop
        detaches (restoring sync compaction), start re-attaches."""
        dynamic = DynamicGraph(_chain_graph(), auto_compact=False)
        manager = CompactionManager(dynamic, compact_ratio=0.0, min_delta_edges=2)
        manager.start()
        manager.stop()
        assert dynamic._write_listener is None
        try:
            manager.start()
            assert dynamic._write_listener is not None
            assert dynamic.auto_compact is False
            dynamic.add_edges([(0, i) for i in range(2, 12)])
            assert _wait_until(lambda: dynamic.delta_edges == 0)
        finally:
            manager.stop()

    def test_compact_now_reports_false_when_clean(self):
        dynamic = DynamicGraph(_chain_graph(), auto_compact=False)
        manager = CompactionManager(dynamic)
        try:
            assert manager.compact_now() is False
            assert manager.stats()["compactions"] == 0
            dynamic.add_edges([(0, 5)])
            assert manager.compact_now() is True
            assert manager.stats()["compactions"] == 1
        finally:
            manager.stop()

    def test_pinned_snapshot_keeps_old_base(self):
        dynamic = DynamicGraph(_chain_graph(), auto_compact=False)
        dynamic.add_edges([(0, 5), (0, 7)])
        snap = dynamic.snapshot()
        old_base = snap.base
        count_before = snap.num_edges
        manager = CompactionManager(dynamic, compact_ratio=0.0, min_delta_edges=0)
        try:
            assert manager.compact_now()
            assert dynamic.base is not old_base
            # The pinned snapshot still reads its old (base, delta) pair.
            assert snap.base is old_base
            assert snap.num_edges == count_before == dynamic.num_edges
        finally:
            manager.stop()


class TestCasInstall:
    def test_racing_write_fails_install_then_retry_succeeds(self, monkeypatch):
        dynamic = DynamicGraph(_chain_graph(), auto_compact=False)
        dynamic.add_edges([(0, 9)])
        original = GraphSnapshot.materialize
        raced = []

        def racing(self, name=None):
            result = original(self, name=name)
            if not raced:
                raced.append(True)
                dynamic.add_edges([(1, 8)])  # lands between materialize and install
            return result

        monkeypatch.setattr(GraphSnapshot, "materialize", racing)
        assert dynamic.try_compact() is False  # lost the race, nothing installed
        assert dynamic.has_edge(1, 8)  # the racing write survived
        assert dynamic.try_compact() is True  # retry sees the newer state
        assert dynamic.delta_edges == 0
        assert dynamic.has_edge(0, 9) and dynamic.has_edge(1, 8)

    def test_fallback_locked_compaction_after_retries(self, monkeypatch):
        dynamic = DynamicGraph(_chain_graph(), auto_compact=False)
        dynamic.add_edges([(0, 4)])
        manager = CompactionManager(dynamic, max_install_retries=2)
        try:
            monkeypatch.setattr(DynamicGraph, "try_compact", lambda self: False)
            assert manager.compact_now()
            stats = manager.stats()
            assert stats["install_retries"] == 2
            assert stats["fallback_compactions"] == 1
            assert dynamic.delta_edges == 0
        finally:
            manager.stop()


class TestWiring:
    def test_graphflow_db_enable_disable(self):
        db = GraphflowDB(_chain_graph())
        manager = db.enable_background_compaction(compact_ratio=0.0, min_delta_edges=3)
        assert manager.running
        assert db.enable_background_compaction() is manager  # idempotent
        result = db.apply_updates(inserts=[(0, i) for i in range(2, 16)])
        assert result.num_applied == 14
        assert result.compacted is False, "writes must return before compaction"
        dynamic = db.graph
        assert _wait_until(lambda: dynamic.delta_edges == 0)
        assert db.execute(cq.triangle(), vectorized=True).num_matches >= 0
        db.disable_background_compaction()
        assert db.compaction_manager is None
        assert not manager.running

    def test_query_service_serves_a_compacting_database(self):
        db = GraphflowDB(_chain_graph())
        manager = db.enable_background_compaction(compact_ratio=0.0, min_delta_edges=2)
        service = QueryService(db)
        try:
            assert db.compaction_manager is manager and manager.running
            service.apply_updates(inserts=[(0, i) for i in range(2, 12)])
            assert _wait_until(lambda: db.graph.delta_edges == 0)
            stats = service.stats()
            assert stats["compaction"]["compactions"] >= 1
        finally:
            service.close()
        # The database enabled it; the database's close() stops it.
        assert db.compaction_manager is manager and manager.running
        db.close()
        assert db.compaction_manager is None and not manager.running

    def test_enable_applies_thresholds_to_existing_manager(self):
        db = GraphflowDB(_chain_graph())
        manager = db.enable_background_compaction(compact_ratio=0.5, min_delta_edges=500)
        try:
            again = db.enable_background_compaction(compact_ratio=0.0, min_delta_edges=7)
            assert again is manager
            assert manager.compact_ratio == 0.0
            assert manager.min_delta_edges == 7
        finally:
            db.disable_background_compaction()



class TestCompactionPacing:
    def test_min_interval_skips_threshold_triggers(self):
        """With a long pacing floor, a second threshold crossing right after
        an installed compaction is skipped instead of thrashing."""
        dynamic = DynamicGraph(_chain_graph(), compact_ratio=0.0, compact_min_edges=1)
        manager = CompactionManager(
            dynamic,
            compact_ratio=0.0,
            min_delta_edges=1,
            poll_interval_seconds=0.005,
            min_interval_seconds=60.0,
        )
        with manager:
            dynamic.add_edges([(0, i) for i in range(2, 10)])
            assert _wait_until(lambda: manager.compactions == 1)
            # Cross the threshold again: the pacing window is open for 60s,
            # so the manager must skip rather than compact.
            dynamic.add_edges([(1, i) for i in range(3, 12)])
            assert _wait_until(lambda: manager.stats()["paced_skips"] >= 1)
            assert manager.compactions == 1
            assert dynamic.delta_edges > 0  # overlay intentionally left dirty
        # stats() reports the pacing counter.
        assert manager.stats()["paced_skips"] >= 1

    def test_zero_interval_disables_pacing(self):
        dynamic = DynamicGraph(_chain_graph(), compact_ratio=0.0, compact_min_edges=1)
        manager = CompactionManager(
            dynamic,
            compact_ratio=0.0,
            min_delta_edges=1,
            poll_interval_seconds=0.005,
            min_interval_seconds=0.0,
        )
        with manager:
            dynamic.add_edges([(0, i) for i in range(2, 10)])
            assert _wait_until(lambda: manager.compactions >= 1)
            dynamic.add_edges([(1, i) for i in range(3, 12)])
            assert _wait_until(lambda: manager.compactions >= 2)
        assert manager.stats()["paced_skips"] == 0

    def test_explicit_compact_now_bypasses_pacing(self):
        dynamic = DynamicGraph(_chain_graph(), compact_ratio=0.0, compact_min_edges=1)
        manager = CompactionManager(
            dynamic, compact_ratio=0.0, min_delta_edges=1, min_interval_seconds=60.0
        )
        try:
            dynamic.add_edges([(0, i) for i in range(2, 10)])
            assert manager.compact_now()
            dynamic.add_edges([(1, i) for i in range(3, 12)])
            assert manager.compact_now()  # pacing does not gate explicit calls
            assert manager.compactions == 2
        finally:
            manager.stop()

    def test_db_plumbs_min_interval(self):
        db = GraphflowDB(_chain_graph())
        manager = db.enable_background_compaction(min_interval_seconds=12.5)
        assert manager.min_interval_seconds == 12.5
        # Re-enabling updates the pacing floor on the existing manager.
        assert db.enable_background_compaction(min_interval_seconds=0.5) is manager
        assert manager.min_interval_seconds == 0.5
        db.disable_background_compaction()


class TestCompactionListener:
    def test_listener_failure_does_not_kill_the_loop(self):
        """A raising checkpoint listener is counted, not propagated — the
        manager keeps compacting afterwards."""
        dynamic = DynamicGraph(_chain_graph(), compact_ratio=0.0, compact_min_edges=1)
        manager = CompactionManager(dynamic, compact_ratio=0.0, min_delta_edges=1)
        calls = []

        def bad_listener():
            calls.append(True)
            raise OSError("disk full")

        manager.set_compaction_listener(bad_listener)
        try:
            dynamic.add_edges([(0, i) for i in range(2, 8)])
            assert manager.compact_now()
            assert calls and manager.stats()["listener_failures"] == 1
            assert manager.stats()["checkpoints_triggered"] == 0
            # Still operational: a healthy listener works on the next pass.
            manager.set_compaction_listener(lambda: calls.append(True))
            dynamic.add_edges([(1, i) for i in range(3, 9)])
            assert manager.compact_now()
            assert manager.stats()["checkpoints_triggered"] == 1
        finally:
            manager.stop()
