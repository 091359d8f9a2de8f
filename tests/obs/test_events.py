"""Tests for the structured event log (repro.obs.events)."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.api import GraphflowDB
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    EventLog,
    iter_events,
    tail_events,
)


class TestEventLogBasics:
    def test_round_trip_one_event(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("checkpoint", seq=7, seconds=0.25)
        events = list(iter_events(path))
        assert len(events) == 1
        event = events[0]
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["type"] == "checkpoint"
        assert event["seq"] == 7
        assert event["seconds"] == 0.25
        assert event["ts"] > 0

    def test_every_line_is_valid_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            for i in range(50):
                log.emit("query_finish", query=f"Q{i}", matches=i)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert record["v"] == EVENT_SCHEMA_VERSION

    def test_unknown_type_is_accepted(self, tmp_path):
        # The schema versions the *record shape*, not the type vocabulary;
        # forward-compatible readers must tolerate new types.
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("totally_new_event", value=1)
        assert list(iter_events(path))[0]["type"] == "totally_new_event"

    def test_reserved_keys_cannot_be_overridden(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            with pytest.raises(ValueError):
                log.emit("checkpoint", ts=0.0)

    def test_non_serialisable_fields_are_stringified(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("recovery", path_obj=tmp_path)
        assert str(tmp_path) in list(iter_events(path))[0]["path_obj"]

    def test_emit_after_close_drops_and_counts(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("checkpoint")
        log.close()
        log.emit("checkpoint")
        stats = log.stats()
        assert stats["emitted"] == 1
        assert stats["dropped"] == 1
        assert len(list(iter_events(path))) == 1

    def test_stats_shape(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=1024, backups=2) as log:
            log.emit("pool_respawn", generation=1)
            stats = log.stats()
        assert stats["attached"] is True
        assert stats["schema_version"] == EVENT_SCHEMA_VERSION
        assert stats["emitted"] == 1
        assert stats["max_bytes"] == 1024
        assert stats["backups"] == 2
        assert stats["size_bytes"] > 0

    def test_known_types_are_documented(self):
        for name in (
            "query_finish",
            "slow_query",
            "update_batch",
            "checkpoint",
            "compaction_install",
            "pool_respawn",
            "fallback_to_thread",
            "recovery",
        ):
            assert name in EVENT_TYPES


class TestRotation:
    def test_rotation_keeps_every_record_readable(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=512, backups=16) as log:
            for i in range(60):
                log.emit("query_finish", query="Q1", idx=i)
            assert log.stats()["rotations"] > 0
            assert log.rotated_paths()
        events = list(iter_events(path))
        # Oldest-first across backups, then the active file.
        assert [e["idx"] for e in events] == list(range(60))

    def test_readers_find_more_than_sixteen_backups(self, tmp_path):
        """Every record written stays on disk with 20 backups, and the
        readers find every backup, not only the first 16."""
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=200, backups=20) as log:
            while log.rotations < 18:
                log.emit("query_finish", idx=log.emitted)
            assert len(log.rotated_paths()) == 18
            written = list(range(log.emitted))
        assert [e["idx"] for e in iter_events(path)] == written
        assert [e["idx"] for e in tail_events(path, n=len(written))] == written

    def test_rotation_drops_oldest_beyond_backups(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=256, backups=1) as log:
            for i in range(80):
                log.emit("query_finish", idx=i)
        events = list(iter_events(path))
        indexes = [e["idx"] for e in events]
        # A strict suffix survives, in order, ending at the newest record.
        assert indexes == list(range(indexes[0], 80))
        assert len(indexes) < 80

    def test_zero_backups_unlinks_instead_of_rotating(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=256, backups=0) as log:
            for i in range(40):
                log.emit("query_finish", idx=i)
            assert log.rotated_paths() == []
        assert not os.path.exists(path + ".1")

    def test_torn_and_malformed_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("checkpoint", seq=1)
            log.emit("checkpoint", seq=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "ts": 1.0, "type": "torn"')  # no newline, no close
        events = list(iter_events(path))
        assert [e["seq"] for e in events] == [1, 2]


class TestFiltering:
    def test_type_filter(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("query_finish", idx=0)
            log.emit("checkpoint", seq=1)
            log.emit("query_finish", idx=1)
        only = list(iter_events(path, types=["checkpoint"]))
        assert len(only) == 1 and only[0]["seq"] == 1

    def test_tail_events_returns_newest_n_in_order(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=512, backups=8) as log:
            for i in range(30):
                log.emit("query_finish", idx=i)
        tail = tail_events(path, n=5)
        assert [e["idx"] for e in tail] == [25, 26, 27, 28, 29]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_events(str(tmp_path / "nope.jsonl"))) == []
        assert tail_events(str(tmp_path / "nope.jsonl")) == []


class TestConcurrency:
    def test_concurrent_writers_produce_valid_interleaved_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        per_thread = 200
        with EventLog(path, max_bytes=8192, backups=32) as log:

            def writer(worker_id: int) -> None:
                for i in range(per_thread):
                    log.emit("query_finish", worker=worker_id, idx=i)

            threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert log.stats()["emitted"] == 4 * per_thread
        events = list(iter_events(path))
        assert len(events) == 4 * per_thread
        # Per-writer order is preserved even under interleaving + rotation.
        for worker_id in range(4):
            seen = [e["idx"] for e in events if e["worker"] == worker_id]
            assert seen == list(range(per_thread))


class TestDatabaseOwnsTheLogItOpened:
    def test_close_closes_a_log_opened_from_a_path(self, random_graph, tmp_path):
        path = str(tmp_path / "events.jsonl")
        db = GraphflowDB(random_graph, event_log=path)
        log = db.obs.event_log
        db.execute("(a)-->(b), (b)-->(c)")
        assert not log.closed
        db.close()
        assert log.closed
        db.close()  # idempotent
        assert [e["type"] for e in iter_events(path)] == ["query_finish"]

    def test_close_leaves_a_shared_log_open(self, random_graph, tmp_path):
        with EventLog(str(tmp_path / "events.jsonl")) as log:
            with GraphflowDB(random_graph, event_log=log) as db:
                assert db.obs.event_log is log
            assert not log.closed
            log.emit("checkpoint", seq=1)
            assert log.stats()["dropped"] == 0
