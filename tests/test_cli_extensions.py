"""Tests for the catalogue/plan CLI subcommands and Cypher routing."""

from __future__ import annotations

import json

import pytest

from repro.catalogue.persistence import load_catalogue
from repro.cli import main
from repro.planner.serialize import load_plan


class TestCatalogueCommand:
    def test_catalogue_prints_summary_and_entries(self, capsys):
        code = main(
            [
                "catalogue",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "60",
                "--show",
                "3",
                "--warm-queries",
                "Q1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SubgraphCatalogue" in out
        assert "Q_(k-1)" in out

    def test_catalogue_saves_loadable_file(self, capsys, tmp_path):
        path = tmp_path / "catalogue.json"
        code = main(
            [
                "catalogue",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "50",
                "--warm-queries",
                "Q1",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        catalogue = load_catalogue(str(path))
        assert catalogue.num_entries > 0
        assert str(path) in capsys.readouterr().out


class TestPlanCommand:
    def test_plan_json_to_stdout(self, capsys):
        code = main(
            ["plan", "--dataset", "epinions", "--scale", "0.1", "--z", "60", "--query", "Q1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        parsed = json.loads(out)
        assert parsed["query"]["name"] == "Q1"

    def test_plan_dot_to_file(self, capsys, tmp_path):
        path = tmp_path / "plan.dot"
        code = main(
            [
                "plan",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "60",
                "--query",
                "Q1",
                "--format",
                "dot",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("digraph")
        assert "SCAN" in text

    def test_plan_json_file_round_trips(self, tmp_path):
        path = tmp_path / "plan.json"
        main(
            [
                "plan",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "60",
                "--query",
                "diamond-X",
                "--output",
                str(path),
            ]
        )
        plan = load_plan(str(path))
        assert plan.query.name == "diamond-X"
        assert plan.root.out_vertices


class TestCypherRouting:
    def test_run_accepts_cypher_string(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "60",
                "--query",
                "MATCH (a)-->(b), (b)-->(c), (a)-->(c)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "matches" in out


class TestPersistenceCommands:
    """CLI durability: --data-dir on update/serve, checkpoint, recover."""

    def _bootstrap(self, tmp_path, capsys):
        data_dir = str(tmp_path / "store")
        code = main(
            [
                "update",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "40",
                "--queries",
                "Q1",
                "--batches",
                "2",
                "--batch-size",
                "10",
                "--data-dir",
                data_dir,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bootstrapped" in out
        assert "WAL record(s) logged" in out
        return data_dir

    def test_update_bootstraps_and_checkpoints(self, tmp_path, capsys):
        import os

        data_dir = self._bootstrap(tmp_path, capsys)
        assert os.path.isdir(os.path.join(data_dir, "snapshots"))
        assert os.path.isdir(os.path.join(data_dir, "wal"))

    def test_recover_reports_state(self, tmp_path, capsys):
        data_dir = self._bootstrap(tmp_path, capsys)
        code = main(["recover", "--data-dir", data_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered from snapshot-" in out
        assert "recovered graph:" in out

    def test_checkpoint_command(self, tmp_path, capsys):
        data_dir = self._bootstrap(tmp_path, capsys)
        code = main(["checkpoint", "--data-dir", data_dir])
        out = capsys.readouterr().out
        assert code == 0
        # The update command checkpointed on close, so nothing is pending...
        assert "nothing to checkpoint" in out
        # ...unless forced.
        code = main(["checkpoint", "--data-dir", data_dir, "--force"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpointed" in out

    def test_serve_recovers_existing_store(self, tmp_path, capsys):
        data_dir = self._bootstrap(tmp_path, capsys)
        code = main(
            [
                "serve",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "40",
                "--queries",
                "Q1",
                "--clients",
                "2",
                "--requests",
                "4",
                "--data-dir",
                data_dir,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered from snapshot-" in out
        assert "persistence.last_seq" in out
        assert "checkpointed durable store" in out


class TestEventsCommand:
    def _serve_with_event_log(self, tmp_path, capsys) -> str:
        log_path = str(tmp_path / "events.jsonl")
        code = main(
            [
                "serve",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "40",
                "--queries",
                "Q1",
                "--clients",
                "2",
                "--requests",
                "4",
                "--event-log",
                log_path,
            ]
        )
        assert code == 0
        capsys.readouterr()
        return log_path

    def test_serve_event_log_and_events_listing(self, tmp_path, capsys):
        log_path = self._serve_with_event_log(tmp_path, capsys)
        code = main(["events", "--path", log_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "query_finish" in out

    def test_events_type_filter_and_tail(self, tmp_path, capsys):
        log_path = self._serve_with_event_log(tmp_path, capsys)
        code = main(
            ["events", "--path", log_path, "--type", "query_finish", "--tail", "2", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["type"] == "query_finish"
            assert record["v"] == 1

    def test_events_missing_file_errors(self, tmp_path, capsys):
        code = main(["events", "--path", str(tmp_path / "none.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "no event log" in captured.err


class TestStatsWatch:
    def test_watch_refreshes_the_table(self, capsys):
        code = main(
            [
                "stats",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "40",
                "--queries",
                "Q1",
                "--requests",
                "2",
                "--watch",
                "0.05",
                "--watch-iterations",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("service stats after") == 2
        assert "service stats after 4 queries" in out


class TestStatsTablesAgree:
    @staticmethod
    def _metric_names(table: str) -> set:
        return {line.split("|")[0].strip() for line in table.splitlines() if "|" in line}

    def test_local_and_url_tables_list_the_same_metrics(self, random_graph, capsys):
        """One table: `stats --queries` prints its own service the way
        `stats --url` prints a remote one, section for section."""
        from repro import GraphflowDB, QueryService

        argv = ["stats", "--dataset", "epinions", "--scale", "0.1", "--z", "40"]
        assert main(argv + ["--queries", "Q1", "--requests", "2"]) == 0
        local = self._metric_names(capsys.readouterr().out)
        with GraphflowDB(random_graph) as db, QueryService(db, ops_addr=0) as service:
            service.execute("(a)-->(b), (b)-->(c), (a)-->(c)")
            host, port = service.ops_address
            assert main(["stats", "--url", f"{host}:{port}"]) == 0
        remote = self._metric_names(capsys.readouterr().out)
        assert {"graph_version", "plan_cache.hits", "traces.recorded", "counters.ok"} <= local
        # The remote service additionally reports its own ops endpoint.
        assert remote - local == {"ops.url", "ops.closed"}
        assert local <= remote


class TestOpsPlaneCLI:
    """The --url remote modes: stats/trace/events against a live ops server."""

    @pytest.fixture()
    def ops(self, tmp_path):
        from repro.obs import Observability
        from repro.obs.events import EventLog
        from repro.obs.http import OpsServer

        obs = Observability()
        log = obs.attach_event_log(EventLog(str(tmp_path / "events.jsonl")))
        for i in range(4):
            log.emit("tick", i=i)
        server = OpsServer(
            obs,
            stats_fn=lambda: {"queries": 7, "latency": {"p50_ms": 1.5}},
        )
        yield server
        server.close()

    def _addr(self, server) -> str:
        return f"{server.host}:{server.port}"

    def test_stats_url_table(self, ops, capsys):
        code = main(["stats", "--url", self._addr(ops)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"service stats from {self._addr(ops)}" in out
        assert "latency.p50_ms" in out

    def test_stats_url_json(self, ops, capsys):
        code = main(["stats", "--url", self._addr(ops), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == {"queries": 7, "latency": {"p50_ms": 1.5}}

    def test_trace_url_empty_ring(self, ops, capsys):
        code = main(["trace", "--url", self._addr(ops)])
        out = capsys.readouterr().out
        assert code == 0
        assert "none recorded" in out

    def test_trace_url_missing_id_errors(self, ops, capsys):
        code = main(["trace", "--url", self._addr(ops), "--id", "424242"])
        captured = capsys.readouterr()
        assert code == 1
        assert "424242" in captured.err

    def test_trace_url_slow_json(self, ops, capsys):
        code = main(["trace", "--url", self._addr(ops), "--slow", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_trace_requires_query_or_url(self, capsys):
        code = main(["trace"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--query is required" in captured.err

    def test_events_requires_path_or_url(self, capsys):
        code = main(["events"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--path is required" in captured.err

    def test_events_url_tail_json(self, ops, capsys):
        code = main(
            ["events", "--url", self._addr(ops), "--tail", "3", "--json", "--type", "tick"]
        )
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert [r["i"] for r in records] == [1, 2, 3]

    def test_events_url_unreachable_errors(self, capsys):
        # Port 1 on loopback: nothing listens there.
        code = main(["events", "--url", "127.0.0.1:1", "--tail", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_serve_with_ops_port_announces_url(self, capsys):
        code = main(
            [
                "serve",
                "--dataset",
                "epinions",
                "--scale",
                "0.1",
                "--z",
                "40",
                "--queries",
                "Q1",
                "--clients",
                "2",
                "--requests",
                "4",
                "--ops-port",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ops plane listening on http://127.0.0.1:" in out
