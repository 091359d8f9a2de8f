"""Multi-process morsel execution tests.

The process pool must be *invisible* in results: bit-identical match counts
to the single-threaded pipeline on clean and dirty snapshots, collected rows
in the exact serial order for the iterator engine, identical answers for any
worker count.  The pool itself must survive worker death and task-level
failures, and its counters must flow through the metrics registry.
"""

import os
import signal

import pytest

from repro import GraphflowDB
from repro.errors import ProcessExecutionUnsupported, WorkerPoolError
from repro.executor.multiprocess import MorselProcessPool
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import execute_plan
from repro.planner.qvo import enumerate_wco_plans
from repro.query import catalog_queries as cq
from repro.storage.dynamic import DynamicGraph

pytestmark = pytest.mark.process

# Triangle and diamond-X, and the count / collect / limit / deadline surface
# of a pool run, are cells of tests/executor/test_transport_matrix.py.
QUERY_SHAPES = [
    ("directed-3-cycle", cq.directed_3cycle()),
    ("tailed-triangle", cq.tailed_triangle()),
    ("symmetric-diamond-x", cq.symmetric_diamond_x()),
    ("4-cycle", cq.q2()),
    ("4-clique", cq.q5()),
    ("two-triangles", cq.q8()),
]


@pytest.fixture(scope="module")
def pool():
    with MorselProcessPool(num_workers=2, min_morsel_size=64) as p:
        yield p


@pytest.fixture(scope="module")
def dirty_snapshot(random_graph):
    """A GraphSnapshot with a live delta overlay (inserts + deletes + a new
    labeled vertex) over the shared random graph."""
    dynamic = DynamicGraph(random_graph)
    dynamic.add_vertices(labels=[0])
    n = random_graph.num_vertices
    inserts = [(v, (v * 7 + 1) % n, 0) for v in range(0, n, 3)]
    inserts = [e for e in inserts if e[0] != e[1] and not random_graph.has_edge(*e)]
    dynamic.add_edges(inserts)
    existing = list(
        zip(
            random_graph.edge_src.tolist(),
            random_graph.edge_dst.tolist(),
            random_graph.edge_labels.tolist(),
        )
    )
    dynamic.delete_edges(existing[:40])
    return dynamic.snapshot()


class TestEquivalence:
    @pytest.mark.parametrize("name,query", QUERY_SHAPES, ids=[n for n, _ in QUERY_SHAPES])
    def test_counts_clean(self, pool, random_graph, name, query):
        plan = enumerate_wco_plans(query)[0]
        serial = execute_plan(plan, random_graph)
        result = pool.execute(plan, random_graph)
        assert result.num_matches == serial.num_matches

    @pytest.mark.parametrize("name,query", QUERY_SHAPES, ids=[n for n, _ in QUERY_SHAPES])
    def test_counts_dirty(self, pool, dirty_snapshot, name, query):
        plan = enumerate_wco_plans(query)[0]
        serial = execute_plan(plan, dirty_snapshot)
        result = pool.execute(plan, dirty_snapshot)
        assert result.num_matches == serial.num_matches

    def test_collected_rows_dirty(self, pool, dirty_snapshot):
        # The reference executor returns rows in exact serial order.
        plan = enumerate_wco_plans(cq.diamond_x())[0]
        config = ExecutionConfig(vectorized=False)
        serial = execute_plan(plan, dirty_snapshot, config, collect=True)
        result = pool.execute(plan, dirty_snapshot, config=config, collect=True)
        assert result.matches == serial.matches

    def test_deterministic_across_worker_counts(self, random_graph):
        plan = enumerate_wco_plans(cq.q8())[0]
        config = ExecutionConfig(vectorized=False)
        reference = execute_plan(plan, random_graph, config, collect=True)
        for workers in (1, 3):
            with MorselProcessPool(num_workers=workers, min_morsel_size=64) as p:
                result = p.execute(plan, random_graph, config=config, collect=True)
                assert result.num_matches == reference.num_matches
                assert result.matches == reference.matches


class TestLimitsAndErrors:
    def test_explicit_scan_range_unsupported(self, pool, random_graph):
        plan = enumerate_wco_plans(cq.triangle())[0]
        with pytest.raises(ProcessExecutionUnsupported):
            pool.execute(plan, random_graph, config=ExecutionConfig(scan_range=(0, 10)))

    def test_oversized_overlay_unsupported(self, dirty_snapshot):
        plan = enumerate_wco_plans(cq.triangle())[0]
        with MorselProcessPool(num_workers=1, delta_ship_threshold=1) as p:
            with pytest.raises(ProcessExecutionUnsupported):
                p.execute(plan, dirty_snapshot)

    def test_task_failure_raises_but_pool_survives(self, pool, random_graph):
        plan = enumerate_wco_plans(cq.triangle())[0]
        before = pool.execute(plan, random_graph).num_matches
        with pytest.raises(WorkerPoolError):
            pool.execute(plan, random_graph, base_path="/nonexistent/base.gfs")
        assert pool.execute(plan, random_graph).num_matches == before

    def test_worker_death_is_respawned(self, pool, random_graph):
        plan = enumerate_wco_plans(cq.triangle())[0]
        expected = pool.execute(plan, random_graph).num_matches
        victim = pool._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        assert not victim.is_alive()
        # The next query notices the dead slot and respawns before dispatch.
        assert pool.execute(plan, random_graph).num_matches == expected
        assert pool.stats()["alive_workers"] == pool.num_workers

    def test_respawn_dead_counts(self, random_graph):
        plan = enumerate_wco_plans(cq.triangle())[0]
        with MorselProcessPool(num_workers=2, min_morsel_size=64) as p:
            expected = p.execute(plan, random_graph).num_matches
            os.kill(p._workers[1].pid, signal.SIGKILL)
            p._workers[1].join(timeout=5.0)
            assert p._respawn_dead() == 1
            assert p.stats()["respawns"] == 1
            assert p.execute(plan, random_graph).num_matches == expected

    def test_closed_pool_refuses_queries(self, random_graph):
        plan = enumerate_wco_plans(cq.triangle())[0]
        p = MorselProcessPool(num_workers=1)
        p.close()
        with pytest.raises(WorkerPoolError):
            p.execute(plan, random_graph)


class TestDatabaseIntegration:
    @pytest.fixture()
    def db(self, random_graph):
        db = GraphflowDB(random_graph)
        db.build_catalogue(h=2, z=100)
        yield db
        db.close_process_pool()

    def test_execute_process_mode_matches_serial(self, db):
        query = cq.triangle()
        serial = db.execute(query, collect=True, vectorized=False)
        result = db.execute(
            query, num_workers=2, execution_mode="process", collect=True, vectorized=False
        )
        assert result.num_matches == serial.num_matches
        assert result.matches == serial.matches
        assert result.trace.mode == "parallel-process"

    def test_thread_mode_collect_no_longer_raises(self, db):
        query = cq.triangle()
        serial = db.execute(query, collect=True)
        result = db.execute(query, num_workers=2, collect=True)
        assert result.num_matches == serial.num_matches
        assert sorted(
            tuple(sorted(m.items())) for m in result.matches
        ) == sorted(tuple(sorted(m.items())) for m in serial.matches)

    def test_unsupported_query_falls_back_in_process(self, db):
        db.enable_process_pool(2, delta_ship_threshold=0)
        db.apply_updates(inserts=[(0, 1, 0), (2, 3, 0)])
        query = cq.triangle()
        serial = db.execute(query)
        result = db.execute(query, num_workers=2, execution_mode="process")
        assert result.num_matches == serial.num_matches
        assert result.trace.mode == "parallel"  # fell back to threads
        assert db.stats()["process_pool"]["fallbacks"] == 1

    def test_invalid_mode_rejected(self, db):
        with pytest.raises(ValueError):
            db.execute(cq.triangle(), num_workers=2, execution_mode="carrier-pigeon")

    def test_pool_metrics_flow_through_registry(self, db):
        db.execute(cq.triangle(), num_workers=2, execution_mode="process")
        stats = db.stats()["process_pool"]
        assert stats["queries"] == 1
        assert stats["tasks"] >= 1
        assert stats["workers"]["w0"]["morsels"] + stats["workers"]["w1"]["morsels"] == stats["tasks"]
        exposition = db.obs.registry.expose_prometheus()
        assert "process_pool_queries" in exposition
        assert "process_pool_workers_w0_busy_seconds" in exposition


class TestServiceIntegration:
    def test_pool_survives_service_close_and_goes_with_the_database(self, random_graph):
        from repro.server.service import QueryService

        db = GraphflowDB(random_graph)
        db.build_catalogue(h=2, z=100)
        serial = db.execute(cq.triangle()).num_matches
        with QueryService(db, num_workers=2, execution_mode="process") as service:
            assert db._process_pool is not None  # warmed at construction
            results = service.execute_batch([cq.triangle(), cq.diamond_x()])
            assert results[0].num_matches == serial
            assert all(r.status == "ok" for r in results)
            stats = service.stats()
            assert stats["process_pool"]["queries"] == 2
            pool = db._process_pool
        # The service warmed the database's pool; it is the database's to stop.
        assert db._process_pool is pool and not pool.closed
        assert db.execute(
            cq.triangle(), num_workers=2, execution_mode="process"
        ).num_matches == serial
        db.close()
        assert db._process_pool is None and pool.closed

    def test_per_query_mode_override(self, random_graph):
        from repro.server.service import QueryService

        db = GraphflowDB(random_graph)
        db.build_catalogue(h=2, z=100)
        with QueryService(db, num_workers=2) as service:
            result = service.execute(cq.triangle(), execution_mode="process")
            assert result.status == "ok"
            assert db.stats()["process_pool"]["queries"] == 1
        db.close_process_pool()

    def test_invalid_service_mode_rejected(self, random_graph):
        from repro.server.service import QueryService

        db = GraphflowDB(random_graph)
        with pytest.raises(ValueError):
            QueryService(db, execution_mode="smoke-signals")
