"""Durability through the serving stack: GraphflowDB + QueryService wiring.

The centrepiece is the kill-and-recover acceptance test: a ``QueryService``
over a durable database is stopped mid-update-stream with *no clean shutdown*
(no checkpoint, no store close), reopened from disk, and must serve query
results identical to an in-memory reference that never restarted.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import GraphflowDB
from repro.errors import PersistenceError
from repro.graph.generators import clustered_social
from repro.query import catalog_queries as cq
from repro.server.service import QueryService

from tests.conftest import wait_until
from tests.persistence.conftest import random_workload

QUERY_SET = [
    ("triangle", cq.triangle()),
    ("directed-3-cycle", cq.directed_3cycle()),
    ("tailed-triangle", cq.tailed_triangle()),
    ("diamond-x", cq.diamond_x()),
    ("4-cycle", cq.q2()),
]


@pytest.fixture()
def serving_graph():
    return clustered_social(num_vertices=140, avg_degree=6, seed=8, name="durable-serving")


class TestKillAndRecover:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_service_killed_mid_stream_recovers_identically(
        self, serving_graph, tmp_path, vectorized
    ):
        rng = np.random.default_rng(42)
        batches = random_workload(serving_graph, rng, rounds=10)
        kill_after = 7  # batches applied before the "crash"

        reference = GraphflowDB(serving_graph)
        reference.build_catalogue(z=120)

        db = GraphflowDB(serving_graph)
        db.build_catalogue(z=120)
        db.enable_durability(str(tmp_path / "store"), sync_every=1)
        service = QueryService(db, max_concurrent=2, vectorized=vectorized)
        for i, (inserts, deletes, labels) in enumerate(batches[:kill_after]):
            result = service.apply_updates(
                inserts=inserts, deletes=deletes, new_vertex_labels=labels
            )
            assert result.wal_seq == i + 1
            reference.apply_updates(
                inserts=inserts, deletes=deletes, new_vertex_labels=labels
            )
            if i % 3 == 0:  # interleave reads with the update stream
                service.execute(cq.triangle())
        # KILL: tear down the worker pool without checkpointing or closing
        # the durable store — exactly what a SIGKILL leaves on disk (the WAL
        # flushes every append; sync_every=1 makes each batch durable).
        service._pool.shutdown(wait=True)
        del service, db

        recovered_db = GraphflowDB.open(str(tmp_path / "store"))
        assert recovered_db.durable_store.recovery.replayed_records == kill_after
        recovered_db.build_catalogue(z=120)
        with QueryService(recovered_db, max_concurrent=2, vectorized=vectorized) as svc:
            for name, query in QUERY_SET:
                got = svc.execute(query)
                want = reference.execute(query, vectorized=False)
                assert got.status == "ok", (name, got.error)
                assert got.num_matches == want.num_matches, name
            # The recovered service keeps accepting durable updates.
            tail = batches[kill_after]
            svc.apply_updates(inserts=tail[0], deletes=tail[1], new_vertex_labels=tail[2])
            reference.apply_updates(inserts=tail[0], deletes=tail[1], new_vertex_labels=tail[2])
            assert (
                svc.execute(cq.triangle()).num_matches
                == reference.count(cq.triangle())
            )
        recovered_db.close()


class TestServiceWiring:
    def test_graceful_close_checkpoints(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        db.enable_durability(str(tmp_path / "store"))
        service = QueryService(db)
        service.apply_updates(inserts=[(0, 100, 0)])
        service.close()
        db.close()
        assert db.durable_store.closed
        reopened = GraphflowDB.open(str(tmp_path / "store"))
        assert reopened.durable_store.recovery.replayed_records == 0
        assert reopened.graph.has_edge(0, 100, 0)
        reopened.close()

    def test_close_without_checkpoint_leaves_wal_tail(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        db.enable_durability(str(tmp_path / "store"))
        service = QueryService(db)
        service.apply_updates(inserts=[(0, 100, 0)])
        service.close()
        db.close(checkpoint=False)
        reopened = GraphflowDB.open(str(tmp_path / "store"))
        assert reopened.durable_store.recovery.replayed_records == 1
        assert reopened.graph.has_edge(0, 100, 0)
        reopened.close()

    def test_service_does_not_close_the_store(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        db.enable_durability(str(tmp_path / "store"))
        service = QueryService(db)
        service.close()
        assert not db.durable_store.closed  # the db attached it, the db owns it
        db.close()
        assert db.durable_store.closed

    def test_stats_expose_persistence_and_staleness(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        db.build_catalogue(z=100)
        db.enable_durability(str(tmp_path / "store"))
        with QueryService(db) as service:
            service.apply_updates(inserts=[(0, 100, 0), (1, 101, 0)])
            stats = service.stats()
            assert stats["persistence"]["last_seq"] == 1
            assert stats["persistence"]["wal_records_since_checkpoint"] == 1
            assert stats["catalogue_stale_fraction"] > 0
        db.close()

    def test_compaction_triggers_checkpoint(self, serving_graph, tmp_path):
        db = GraphflowDB.open(str(tmp_path / "store"), graph=serving_graph)
        db.to_dynamic().compact_min_edges = 8
        manager = db.enable_background_compaction(
            compact_ratio=0.0, min_delta_edges=8, poll_interval_seconds=0.01
        )
        store = db.durable_store
        for i in range(6):
            db.apply_updates(inserts=[(v, 100 + i, 0) for v in range(4)])
        assert wait_until(
            lambda: store.checkpoints >= 1
        ), "compaction install should checkpoint the WAL"
        assert manager.stats()["checkpoints_triggered"] >= 1
        # The checkpoint truncated the WAL behind the new snapshot.
        assert store.snapshot_seq > 0
        expected_edges = db.graph.num_edges
        assert expected_edges > serving_graph.num_edges
        db.close()
        reopened = GraphflowDB.open(str(tmp_path / "store"))
        assert reopened.graph.num_edges == expected_edges
        reopened.close()


class TestDatabaseGuards:
    def test_enable_durability_idempotent_and_dir_pinned(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        store = db.enable_durability(str(tmp_path / "a"))
        assert db.enable_durability(str(tmp_path / "a")) is store
        with pytest.raises(PersistenceError, match="already durable"):
            db.enable_durability(str(tmp_path / "b"))
        db.close()

    def test_set_graph_refused_while_durable(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        db.enable_durability(str(tmp_path / "store"))
        with pytest.raises(PersistenceError, match="durable"):
            db.set_graph(serving_graph)
        db.close()

    def test_durability_after_compaction_refused(self, serving_graph, tmp_path):
        db = GraphflowDB(serving_graph)
        db.enable_background_compaction()
        with pytest.raises(PersistenceError, match="before background compaction"):
            db.enable_durability(str(tmp_path / "store"))
        db.disable_background_compaction()
        db.close()

    def test_existing_store_wins_over_constructor_graph(self, serving_graph, tmp_path):
        db = GraphflowDB.open(str(tmp_path / "store"), graph=serving_graph)
        db.apply_updates(inserts=[(0, 100, 0)])
        db.close()
        other = clustered_social(num_vertices=30, avg_degree=3, seed=1)
        db2 = GraphflowDB(other)
        db2.build_catalogue(z=50)
        db2.enable_durability(str(tmp_path / "store"))
        # Recovered state replaced the in-memory graph; derived state dropped.
        assert db2.graph.num_vertices == serving_graph.num_vertices
        assert db2.graph.has_edge(0, 100, 0)
        assert db2.catalogue is None
        db2.close()

    def test_open_records_data_dir(self, serving_graph, tmp_path):
        db = GraphflowDB.open(str(tmp_path / "store"), graph=serving_graph)
        assert db.durable_store.data_dir == os.path.abspath(str(tmp_path / "store"))
        assert db.graph is db.durable_store.dynamic
        db.close()
        db.close()  # idempotent
