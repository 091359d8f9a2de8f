"""The five workloads.  Each makes one layer of the program dominate and
leaves others nearly idle; ``bench/README.md`` records why each was chosen and
which metric each layer is predicted to move.

A workload is driven by ``runner.py`` through four calls:

``setup()``         everything the program does before it can serve the
                    workload (load, build, plan), timed as ``setup_s``
                    together with one untimed-by-itself warm-up ``cycle()``;
``cycle()``         one pass over the workload's fixed list of operations,
                    returning its wall time and the latency of each
                    operation, every result checked against an oracle;
``stepped_cycle()`` the same operations taken apart into one public call per
                    layer, each inside a span (the traced run);
``finish()``        end-of-run checks and clean-up.

Every layer is measured from outside: the benchmark times calls into public
functions and reads public result fields, and adds nothing to the program.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import DynamicGraph, Graph, GraphflowDB, QueryGraph, QueryService, queries
from repro.baselines.leapfrog import LeapfrogTrieJoin
from repro.executor.operators import ExecutionConfig
from repro.executor.pipeline import execute_plan
from repro.graph.graph import Direction
from repro.graph.intersect import intersect_multiway
from repro.query.isomorphism import isomorphism_mapping
from repro.query.parser import parse_query

from bench.inputs import (
    SMOKE_SCALE,
    EdgeModel,
    graph_key,
    load_expected,
    load_graph,
    renamed_pattern,
    rows_match,
)
from bench.spans import Tracer

clock = time.perf_counter

#: Plan operator (the prefix of ``PlanNode.display_name()``) -> layer span.
OPERATOR_SPAN = {
    "SCAN": "executor.scan",
    "E/I": "executor.ei",
    "HASH-JOIN": "executor.hash_join",
}

#: One cycle: its wall time and the (kind, latency) of each op in it.
Cycle = Tuple[float, List[Tuple[str, float]]]


class Workload:
    """Shared bookkeeping: failure counting, layer samples, stepped execution."""

    name = ""
    dataset = ""
    scale = 1.0
    #: What one "op" of ``op_p50_ms`` / ``op_slow_ms`` is, for the report.
    op = ""
    query_names: Tuple[str, ...] = ()
    #: ``--smoke`` drops the queries that take a second to plan at any size.
    smoke_query_names: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        if smoke:
            self.scale = self.scale * SMOKE_SCALE
            self.query_names = self.smoke_query_names or self.query_names
        self.rng = np.random.default_rng([seed, 2])
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Per-layer samples gathered by setup and the stepped cycles.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.db: Optional[GraphflowDB] = None

    # ---- bookkeeping ------------------------------------------------------ #
    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a wrong or failed one is kept."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def timed(self, metric: str, fn, *args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        self.samples[metric].append(clock() - start)
        return out

    def load(self):
        self.graph = load_graph(self.dataset, self.scale, self.seed)
        return self.graph

    def expected_counts(self) -> Dict[str, int]:
        return load_expected()[graph_key(self.dataset, self.scale)]

    # ---- driver interface ------------------------------------------------- #
    def setup(self) -> None:
        raise NotImplementedError

    def prepare_oracle(self, carried=None):
        """Benchmark-side oracle work after ``setup``; not part of ``setup_s``.
        Set-up is repeated on identical inputs, so what one repetition
        computed is returned and handed to the next as ``carried``."""

    def cycle(self) -> Cycle:
        raise NotImplementedError

    def traced_setup(self) -> None:
        """Layer measurements the traced run takes once, before stepping."""
        self.measure_intersect()
        if self.db is not None:
            self.measure_warm_planning()

    def stepped_cycle(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks (after the timed window)."""

    def close(self) -> None:
        if self.db is not None:
            self.db.close(checkpoint=False)

    # ---- layer measurements shared by the workloads ----------------------- #
    def measure_intersect(self) -> None:
        """``graph.intersect`` on its own: two-way intersections of the
        out-lists at both ends of seeded edges of this workload's graph."""
        graph = self.graph
        picks = self.rng.integers(graph.num_edges, size=200 if self.smoke else 5000)
        pairs = [
            (graph.neighbors(int(graph.edge_src[i]), Direction.FORWARD),
             graph.neighbors(int(graph.edge_dst[i]), Direction.FORWARD))
            for i in picks
        ]
        elements = sum(len(a) + len(b) for a, b in pairs)
        start = clock()
        for pair in pairs:
            intersect_multiway(pair)
        self.samples["graph.intersect.melem_per_s"].append(elements / (clock() - start) / 1e6)

    def measure_warm_planning(self) -> None:
        """Plan the list again with the catalogue's samples already drawn;
        cold minus warm is what lazy catalogue sampling cost."""
        start = clock()
        for q in self.queries:
            self.db.plan(q, use_cache=False, vectorized=True)
        self.samples["planner.optimize_warm_s"].append(clock() - start)

    def stepped_query(
        self,
        tracer: Tracer,
        query: QueryGraph,
        text: Optional[str] = None,
        row_limit: Optional[int] = None,
        replan: bool = False,
    ):
        """One query twice: whole, through ``db.execute`` (span ``op.db``),
        then as the facade runs it but one public call per layer
        (``op.stepped``): parse -> canonical key -> plan (cache) ->
        execute_plan -> rows.  The pair's difference is what the facade adds.
        ``replan`` empties the plan cache in between, for a workload whose
        whole call had to plan."""
        db = self.db
        collect = row_limit is not None
        config = ExecutionConfig(vectorized=True, output_limit=row_limit)
        with tracer.span("op.db"):
            db.execute(text if text is not None else query, collect=collect, config=config)
        if replan:
            db.plan_cache.invalidate()
        with tracer.span("op.stepped"):
            if text is not None:
                with tracer.span("query.parse"):
                    query = parse_query(text)
            with tracer.span("query.canonical_key"):
                query.canonical_key()
            with tracer.span("planner.plan"):
                plan = db.plan(query, vectorized=True)
            graph = db.graph.snapshot() if isinstance(db.graph, DynamicGraph) else db.graph
            with tracer.span("executor.execute_plan") as span:
                result = execute_plan(plan, graph, config=config, collect=collect)
            rows = None
            if collect:
                with tracer.span("api.materialise"):
                    rows = result.matches_as_dicts()
                    mapping = isomorphism_mapping(plan.query, query)
                    rows = [{mapping[k]: v for k, v in row.items()} for row in rows]
        profile = result.profile
        for name, seconds in profile.operator_seconds.items():
            tracer.add_child(span, OPERATOR_SPAN[name.split("[")[0]], seconds)
        acc = self._cycle_counts
        acc["executor.i_cost"] += profile.intersection_cost
        acc["executor.intermediate_matches"] += profile.intermediate_matches
        acc["executor.matches"] += result.num_matches
        acc["cache_hits"] += profile.cache_hits
        acc["cache_lookups"] += profile.cache_hits + profile.cache_misses
        return result, rows

    def begin_stepped_cycle(self) -> None:
        self._cycle_counts: Dict[str, float] = defaultdict(float)

    def end_stepped_cycle(self) -> None:
        acc = self._cycle_counts
        for name in ("executor.i_cost", "executor.intermediate_matches", "executor.matches"):
            self.samples[name].append(acc[name])
        if acc["cache_lookups"]:
            self.samples["executor.icache_hit_rate"].append(
                acc["cache_hits"] / acc["cache_lookups"]
            )


# --------------------------------------------------------------------------- #
# 1 + 2: analytic passes (the executor's two operator families)
# --------------------------------------------------------------------------- #
class QueryPass(Workload):
    """Count-only ``db.execute(q, vectorized=True)`` over a fixed query list,
    plan cache warm.  Counts are checked against ``expected.json`` (iterator
    engine, so independent of the timed vectorized path)."""

    op = "one query execution"

    def setup(self) -> None:
        self.db = GraphflowDB(self.load())
        self.timed("catalogue.build_s", self.db.build_catalogue)
        self.queries = [queries.get(n) for n in self.query_names]
        self.expected = self.expected_counts()
        # Fills the plan cache; on a fresh catalogue this is cold planning.
        start = clock()
        for q in self.queries:
            self.db.plan(q, vectorized=True)
        self.samples["planner.optimize_cold_s"].append(clock() - start)

    def _order(self) -> List[QueryGraph]:
        return [self.queries[i] for i in self.rng.permutation(len(self.queries))]

    def cycle(self) -> Cycle:
        ops = []
        begin = clock()
        for q in self._order():
            start = clock()
            result = self.db.execute(q, vectorized=True)
            ops.append((q.name, clock() - start))
            self.check(
                result.num_matches == self.expected[q.name] and not result.truncated,
                f"{q.name}: {result.num_matches} matches, expected {self.expected[q.name]}",
            )
        return clock() - begin, ops

    def stepped_cycle(self, tracer: Tracer) -> None:
        self.begin_stepped_cycle()
        for q in self._order():
            result, _ = self.stepped_query(tracer, q)
            self.check(result.num_matches == self.expected[q.name], f"stepped {q.name}")
        self.end_stepped_cycle()


class WcoCyclic(QueryPass):
    name = "wco_cyclic"
    dataset, scale = "livejournal", 2.0
    # An odd number of queries, so the median op is a query (Q5) and not the
    # gap between two.
    query_names = ("Q1", "Q5", "Q7")


class HybridJoin(QueryPass):
    name = "hybrid_join"
    dataset, scale = "livejournal", 0.5
    query_names = ("Q2", "Q3", "Q8")
    smoke_query_names = ("Q2", "Q3")


# --------------------------------------------------------------------------- #
# 3: cold planning (planner + lazy catalogue sampling; the executor is idle)
# --------------------------------------------------------------------------- #
class PlanCold(Workload):
    """Each cycle opens a fresh database, builds the (lazy) catalogue and
    plans the list with the plan cache bypassed, so every call runs the DP
    optimizer and draws the catalogue samples it needs.  A plan's count is
    checked where plans are executed (workloads 1 and 2); here each plan must
    cover its query and be the same plan on every cycle."""

    name = "plan_cold"
    dataset, scale = "livejournal", 1.0
    query_names = ("Q1", "Q2", "Q3", "Q5", "Q6", "Q7", "Q11", "Q12", "Q13")
    smoke_query_names = ("Q1", "Q5", "Q6", "Q12", "Q13")
    op = "one cold db.plan call"

    def setup(self) -> None:
        self.load()
        # A fixed order: what a query costs to plan depends on which catalogue
        # samples the queries before it already drew.
        self.queries = [queries.get(n) for n in self.query_names]
        self.signatures: Dict[str, tuple] = {}

    def _check_plan(self, q: QueryGraph, plan) -> None:
        signature = plan.signature()
        covers = set(plan.root.out_vertices) == set(q.vertices)
        same = self.signatures.setdefault(q.name, signature) == signature
        self.check(covers and same, f"{q.name}: plan changed between cycles or misses a vertex")

    def cycle(self) -> Cycle:
        ops = []
        begin = clock()
        db = GraphflowDB(self.graph)
        db.build_catalogue()
        for q in self.queries:
            start = clock()
            plan = db.plan(q, use_cache=False, vectorized=True)
            ops.append((q.name, clock() - start))
            self._check_plan(q, plan)
        seconds = clock() - begin
        self.db = db
        return seconds, ops

    def stepped_cycle(self, tracer: Tracer) -> None:
        with tracer.span("op.stepped"):
            with tracer.span("api.open"):
                self.db = db = GraphflowDB(self.graph)
            with tracer.span("catalogue.build") as span:
                db.build_catalogue()
            self.samples["catalogue.build_s"].append(span["end"] - span["start"])
            start = clock()
            for q in self.queries:
                with tracer.span("planner.optimize_cold"):
                    plan = db.plan(q, use_cache=False, vectorized=True)
                self._check_plan(q, plan)
            self.samples["planner.optimize_cold_s"].append(clock() - start)
            start = clock()
            for q in self.queries:
                with tracer.span("planner.optimize_warm"):
                    db.plan(q, use_cache=False, vectorized=True)
            self.samples["planner.optimize_warm_s"].append(clock() - start)


# --------------------------------------------------------------------------- #
# 4: short requests through the service (facade, cache, thread hop)
# --------------------------------------------------------------------------- #
class ServeShort(Workload):
    """Closed loop, one client: it sends its next request when the last
    returned.  Requests are pattern strings of four shapes with vertices
    renamed per request, ``collect=True, row_limit=100``.  A cycle is a block of
    ``BLOCK`` requests, so ``cycle_ms`` is the inverse of throughput.

    One client, not ``nproc`` = 2: with two, each request needs both cores at
    once (client and pool thread, twice, trading the GIL), and whatever else the
    host runs then decides the latency — measured spread over ten seeds was
    11-31 % with two clients against 3-9 % for the single-threaded workloads
    in the same minutes.  The thread hop, admission and the pool are still on
    every request's path."""

    name = "serve_short"
    dataset, scale = "amazon", 0.25
    op = "one QueryService.execute request"
    BLOCK = 100
    ROW_LIMIT = 100
    #: Per ten requests: 4 triangles, 3 tailed triangles, 2 4-cliques, 1 diamond-X.
    MIX = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3)

    def setup(self) -> None:
        if self.smoke:
            self.BLOCK = 20
        self.db = GraphflowDB(self.load())
        self.timed("catalogue.build_s", self.db.build_catalogue)
        self.queries = [
            queries.triangle(),
            queries.tailed_triangle(),
            queries.clique(4, "4-clique"),
            queries.diamond_x(),
        ]
        self.service = QueryService(self.db, max_concurrent=2, vectorized=True)
        start = clock()
        for q in self.queries:
            self.db.plan(q, vectorized=True)
        self.samples["planner.optimize_cold_s"].append(clock() - start)

    def prepare_oracle(self, carried=None):
        """Full counts of the four shapes against leapfrog triejoin (an
        independent implementation) on this seed's graph; the edge set that
        returned rows are checked against."""
        if carried is None:
            edges = set(zip(self.graph.edge_src.tolist(), self.graph.edge_dst.tolist()))
            lftj = LeapfrogTrieJoin(self.graph)
            counts = {}
            for q in self.queries:
                counts[q.name] = self.db.execute(q, vectorized=True).num_matches
                self.check(
                    counts[q.name] == lftj.count(q).num_matches, f"{q.name}: differs from leapfrog"
                )
            carried = edges, counts
        self.edges, self.counts = carried
        return carried

    def _requests(self, n: int) -> List[Tuple[str, QueryGraph, QueryGraph]]:
        """``n`` requests in a drawn order with the shapes in fixed shares,
        cheap ones more often, so the median request falls inside a shape."""
        picks = self.rng.permutation(np.resize(self.MIX, n))
        return [renamed_pattern(self.queries[i], self.rng) + (self.queries[i],) for i in picks]

    def _verified(self, reply, renamed: QueryGraph, shape: QueryGraph, rows_too: bool) -> bool:
        rows = reply.result.matches if reply.result is not None else None
        return (
            reply.status in ("ok", "truncated")
            and rows is not None
            and len(rows) == min(self.ROW_LIMIT, self.counts[shape.name])
            and (not rows_too or rows_match(renamed, rows, self.edges))
        )

    def cycle(self) -> Cycle:
        ops = []
        seconds = 0.0
        for i, (text, renamed, shape) in enumerate(self._requests(self.BLOCK)):
            start = clock()
            reply = self.service.execute(text, collect=True, row_limit=self.ROW_LIMIT)
            latency = clock() - start
            seconds += latency
            ops.append((shape.name, latency))
            # Rows of every eighth reply are checked edge by edge; the check
            # runs between requests, outside any timed interval.
            self.check(
                self._verified(reply, renamed, shape, rows_too=i % 8 == 0),
                f"{shape.name}: {reply.status} {reply.error}",
            )
        return seconds, ops

    def stepped_cycle(self, tracer: Tracer) -> None:
        """The same request three ways: through the service, through
        ``db.execute`` with the config the service builds, and stepped.
        service - db is the hop; db - stepped is the facade."""
        self.begin_stepped_cycle()
        for text, renamed, shape in self._requests(self.BLOCK // 2):
            with tracer.span("op.service"):
                reply = self.service.execute(text, collect=True, row_limit=self.ROW_LIMIT)
            self.check(self._verified(reply, renamed, shape, rows_too=False), "stepped service")
            self.samples["server.service.queue_ms"].append(reply.queue_seconds * 1e3)
            _, rows = self.stepped_query(tracer, renamed, text=text, row_limit=self.ROW_LIMIT)
            self.check(rows_match(renamed, rows, self.edges), f"stepped {shape.name}")
        self.end_stepped_cycle()

    def close(self) -> None:
        self.service.close()
        super().close()


# --------------------------------------------------------------------------- #
# 5: writes and dirty reads on a durable database (storage + persistence)
# --------------------------------------------------------------------------- #
class MixedRw(Workload):
    """One client.  A cycle is 8 ``apply_updates`` batches (64 inserts of
    absent edges + 16 deletes of present ones) and then one triangle count on
    the dirty snapshot, which includes the re-plan the writes forced.  With
    ``sync_every=8`` one batch in eight waits for an fsync.  The database the
    cycles run on is itself *recovered*: set-up bootstraps a store, logs
    ``PRELOAD`` batches, copies the directory without closing (a crash image
    with those batches in the WAL tail) and opens the copy."""

    name = "mixed_rw"
    dataset, scale = "livejournal", 1.0
    op = "one apply_updates batch or one dirty triangle read (8 : 1)"
    BATCHES = 8
    INSERTS, DELETES = 64, 16
    SYNC_EVERY = 8
    PRELOAD = 64
    MAINTAIN_EVERY = 5

    def setup(self) -> None:
        graph = self.load()
        self.model = EdgeModel(graph)
        self.triangle = queries.get("Q1")
        self.queries = [self.triangle]
        self.data_dir = self.workdir / "store"
        boot_dir = self.workdir / "boot"
        boot = GraphflowDB.open(str(boot_dir), graph=graph, sync_every=self.SYNC_EVERY)
        try:
            for _ in range(self.PRELOAD if not self.smoke else 8):
                inserts, deletes = self.model.next_batch(self.rng, self.INSERTS, self.DELETES)
                boot.apply_updates(inserts=inserts, deletes=deletes)
            stats_ = boot.durable_store.stats()
            self.samples["persistence.wal_bytes_per_edge"].append(
                stats_["wal_bytes"] / (stats_["wal_appends"] * (self.INSERTS + self.DELETES))
            )
            self.samples["persistence.wal_fsyncs_per_batch"].append(
                stats_["wal_fsyncs"] / stats_["wal_appends"]
            )
            self._crash_image(boot, self.data_dir)
        finally:
            boot.close(checkpoint=False)
        shutil.rmtree(boot_dir)
        self.db = self.timed(
            "persistence.recovery_s", GraphflowDB.open, str(self.data_dir),
            sync_every=self.SYNC_EVERY,
        )
        self.check(self.db.graph.num_edges == len(self.model), "recovered edge count")
        self.timed("catalogue.build_s", self.db.build_catalogue)
        self.timed("planner.optimize_cold_s", self.db.plan, self.triangle, vectorized=True)
        self.cycles = 0
        self.twin: Optional[GraphflowDB] = None

    def prepare_oracle(self, carried=None):
        self.model.triangles = carried if carried is not None else self.model.count_triangles()
        return self.model.triangles

    @staticmethod
    def _crash_image(db: GraphflowDB, target: Path) -> None:
        """What a crash right now would leave: everything up to the last
        fsync barrier, copied byte for byte with the store still open."""
        db.durable_store.sync()
        shutil.copytree(db.durable_store.data_dir, target)
        lock = target / "LOCK"
        if lock.exists():
            lock.unlink()

    def _fsyncs(self) -> int:
        return self.db.durable_store.stats()["wal_fsyncs"]

    def _write(self, db: GraphflowDB, inserts, deletes) -> float:
        start = clock()
        result = db.apply_updates(inserts=inserts, deletes=deletes)
        seconds = clock() - start
        self.check(
            len(result.inserted) == len(inserts) and len(result.deleted) == len(deletes),
            "apply_updates applied a different number of edges than sent",
        )
        return seconds

    def _maintain(self) -> None:
        """Explicit compaction + checkpoint, often enough that the write
        path's own threshold compaction never triggers."""
        self.cycles += 1
        if self.cycles % self.MAINTAIN_EVERY:
            return
        self.timed("storage.compact_s", self.db.graph.compact)
        if self.twin is not None:
            self.twin.graph.compact()
        self.timed("persistence.checkpoint_s", self.db.checkpoint, force=True)
        snapshot = self.db.durable_store.current_snapshot_path()
        self.samples["persistence.snapshot_bytes_per_edge"].append(
            os.path.getsize(snapshot) / len(self.model)
        )

    def cycle(self) -> Cycle:
        ops = []
        for _ in range(self.BATCHES):
            inserts, deletes = self.model.next_batch(self.rng, self.INSERTS, self.DELETES)
            fsyncs = self._fsyncs()
            seconds = self._write(self.db, inserts, deletes)
            # The store's own counter says which batch waited for the disk.
            ops.append(("fsync'd batch" if self._fsyncs() > fsyncs else "buffered batch", seconds))
        start = clock()
        result = self.db.execute(self.triangle, vectorized=True)
        read = clock() - start
        ops.append(("dirty triangle read", read))
        self.check(
            result.num_matches == self.model.triangles,
            f"dirty read: {result.num_matches} triangles, model has {self.model.triangles}",
        )
        self._maintain()
        return sum(s for _, s in ops), ops

    def stepped_cycle(self, tracer: Tracer) -> None:
        """Each batch goes to the durable database and to a non-durable twin
        holding the same graph: the twin's time is the delta commit, the
        difference is the WAL.  The read is taken apart like any query."""
        if self.twin is None:
            src, dst = (np.array(col, dtype=np.int64) for col in zip(*self.model.edges))
            zeros = np.zeros(self.model.num_vertices, dtype=np.int64)
            self.twin = GraphflowDB(Graph(zeros, src, dst, np.zeros_like(src)))
            self.twin.build_catalogue()
        self.begin_stepped_cycle()
        for _ in range(self.BATCHES):
            inserts, deletes = self.model.next_batch(self.rng, self.INSERTS, self.DELETES)
            fsyncs = self._fsyncs()
            with tracer.span("op.update") as update:
                self._write(self.db, inserts, deletes)
            if self._fsyncs() > fsyncs:
                self.samples["persistence.fsync_batch_ms"].append(
                    (update["end"] - update["start"]) * 1e3
                )
            with tracer.span("op.twin"):
                with tracer.span("storage.commit"):
                    self._write(self.twin, inserts, deletes)
        self.samples["storage.delta_ratio"].append(self.db.graph.delta_ratio)
        # The whole read re-plans after the writes (and rebuilds the cost
        # model they dropped); the stepped one is made to re-plan as well.
        result, _ = self.stepped_query(tracer, self.triangle, replan=True)
        self.check(result.num_matches == self.model.triangles, "stepped dirty read")
        self.end_stepped_cycle()
        self._maintain()

    def finish(self) -> None:
        """Crash now, recover, and require the recovered database to hold
        exactly the live one's edges and triangles."""
        store_stats = self.db.durable_store.stats()
        self.samples["persistence.wal_append_ms"].append(store_stats["wal_append_p50_seconds"] * 1e3)
        self.samples["persistence.wal_fsync_ms"].append(store_stats["wal_fsync_p50_seconds"] * 1e3)
        image = self.workdir / "crash"
        self._crash_image(self.db, image)
        recovered = GraphflowDB.open(str(image), read_only=True)
        try:
            triangles = recovered.execute(self.triangle, vectorized=True).num_matches
            self.check(
                recovered.graph.num_edges == len(self.model)
                and triangles == self.model.triangles,
                "crash image recovered to a different graph than the live one",
            )
        finally:
            recovered.close(checkpoint=False)

    def close(self) -> None:
        super().close()
        if self.twin is not None:
            self.twin.close()


WORKLOADS = {w.name: w for w in (WcoCyclic, HybridJoin, PlanCold, ServeShort, MixedRw)}
