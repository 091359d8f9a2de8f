"""Tests for the structured event log (repro.obs.events)."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.api import GraphflowDB
from repro.cli import main
from repro.obs import Observability
from repro.obs import events as events_module
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    EventLog,
    follow_events,
    iter_events,
    log_files,
    tail_events,
)


def _segment(tmp_path, number: int) -> str:
    return str(tmp_path / f"events-{number:012d}.jsonl")


def _write(path: str, text: str) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)


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
        assert log_files(path) == [_segment(tmp_path, 0)]
        with open(log.segment_path, "r", encoding="utf-8") as handle:
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
            assert log.rotations > 0
            assert log.rotated_paths() == []
            assert os.listdir(tmp_path) == [os.path.basename(log.segment_path)]

    def test_rotation_renames_nothing(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=256, backups=2) as log:
            first = log.segment_path
            with open(first, "rb") as handle:
                while log.rotations < 5:
                    log.emit("query_finish", idx=log.emitted)
                # The handle still reads the segment it opened, unmoved, and
                # retention kept exactly the two newest sealed segments.
                assert handle.read().count(b"\n") > 0
            assert log_files(path) == [_segment(tmp_path, k) for k in (3, 4, 5)]
            assert log.segment_path == _segment(tmp_path, 5)

    def test_torn_and_malformed_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("checkpoint", seq=1)
            _write(log.segment_path, "not json\n")
            log.emit("checkpoint", seq=2)
        _write(log.segment_path, '{"v": 1, "ts": 1.0, "type": "torn"')  # no newline
        events = list(iter_events(path))
        assert [e["seq"] for e in events] == [1, 2]

    def test_torn_tail_does_not_swallow_the_first_record_after_a_restart(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("a")
        _write(log.segment_path, '{"v":1,"ts":1.0,"type":"torn"')  # crash mid-write
        with EventLog(path) as reopened:
            assert reopened.segment_path == log.segment_path  # appends, no new segment
            reopened.emit("after_restart")
        assert [e["type"] for e in iter_events(path)] == ["a", "after_restart"]

    def test_reopening_continues_the_numbering(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=200, backups=0) as log:
            while log.rotations < 3:
                log.emit("tick", i=log.emitted)
            written = log.emitted
        with EventLog(path, max_bytes=200, backups=0) as reopened:
            assert reopened.segment_path == _segment(tmp_path, 3)
            while reopened.rotations < 1:
                reopened.emit("tick", i=written + reopened.emitted)
            assert reopened.segment_path == _segment(tmp_path, 4)
        assert log_files(path) == [_segment(tmp_path, 4)]


class TestLegacyLayout:
    """Logs written as ``<path>.N`` … ``<path>.1``, ``<path>`` by earlier
    versions are read first, then the numbered segments."""

    @pytest.fixture()
    def mixed_log(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        for name, idx in ((".2", 0), (".1", 1), ("", 2)):
            _write(path + name, json.dumps({"v": 1, "ts": 1.0, "type": "tick", "idx": idx}) + "\n")
        with EventLog(path, max_bytes=200, backups=8) as log:
            while log.rotations < 2:
                log.emit("tick", idx=3 + log.emitted)
            written = list(range(3 + log.emitted))
        return path, written

    def test_iter_and_tail_read_legacy_files_then_segments(self, mixed_log):
        path, written = mixed_log
        assert [e["idx"] for e in iter_events(path)] == written
        assert [e["idx"] for e in tail_events(path, n=len(written))] == written
        assert [e["idx"] for e in tail_events(path, n=4)] == written[-4:]
        assert log_files(path)[:3] == [path + ".2", path + ".1", path]

    def test_cli_lists_the_mixed_log_in_order(self, mixed_log, capsys):
        path, written = mixed_log
        assert main(["events", "--path", path, "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["idx"] for line in lines] == written

    def test_cli_finds_a_log_that_has_only_segments(self, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("tick", idx=0)
        assert not os.path.exists(path)
        assert main(["events", "--path", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["idx"] == 0


class TestFollow:
    def test_rotations_inside_every_follower_call_lose_nothing(self, tmp_path, monkeypatch):
        """Deterministic interleaving: every directory scan, stat, existence
        check and open the follower makes first forces one or two
        rotations, so each window between the follower's reads has a
        rotation in it.  The follower still yields every record once, in
        order."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path, max_bytes=200, backups=1000)
        emitted: list = []
        forced = {"calls": 0, "busy": False}

        def rotate(times: int) -> None:
            target = log.rotations + times
            while log.rotations < target:
                emitted.append(len(emitted))
                log.emit("tick", i=emitted[-1])

        def forcing(real):
            def wrapper(*args, **kwargs):
                # The first call goes through, so the follower starts at the
                # first segment; the writer's own calls never recurse.
                if not forced["busy"] and 0 < forced["calls"] <= 60:
                    forced["busy"] = True
                    try:
                        rotate(1 + forced["calls"] % 2)
                        if forced["calls"] == 60:
                            log.emit("end")
                    finally:
                        forced["busy"] = False
                if not forced["busy"]:
                    forced["calls"] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(events_module.os, "stat", forcing(os.stat))
        monkeypatch.setattr(events_module.os, "listdir", forcing(os.listdir))
        monkeypatch.setattr(events_module.os.path, "exists", forcing(os.path.exists))
        monkeypatch.setattr(events_module, "open", forcing(open), raising=False)
        deadline = time.monotonic() + 10.0
        received = []
        for record in follow_events(
            path,
            poll_interval=0.001,
            stop=lambda: time.monotonic() > deadline,
            start_at_end=False,
        ):
            if record["type"] == "end":
                break
            received.append(record["i"])
        monkeypatch.undo()
        log.close()
        assert forced["calls"] > 60
        assert log.rotations > 60
        assert received == emitted

    def test_retention_outrunning_the_follower_skips_whole_segments_only(self, tmp_path, monkeypatch):
        """With ``backups=1`` and three rotations forced before each open,
        the segment the follower picked is often gone by the time it opens
        it; it rescans and moves on, never duplicating or reordering."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path, max_bytes=200, backups=1)
        opens = {"n": 0}
        real_open = open

        def racing_open(file, mode="r", *args, **kwargs):
            if mode == "rb" and opens["n"] < 20:  # the follower's opens only
                opens["n"] += 1
                target = log.rotations + 3
                while log.rotations < target:
                    log.emit("tick", i=log.emitted)
                if opens["n"] == 20:
                    log.emit("end")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(events_module, "open", racing_open, raising=False)
        deadline = time.monotonic() + 10.0
        received = []
        for record in follow_events(
            path, poll_interval=0.001, stop=lambda: time.monotonic() > deadline
        ):
            if record["type"] == "end":
                break
            received.append(record["i"])
        monkeypatch.undo()
        log.close()
        assert opens["n"] == 20
        assert received and received == sorted(set(received))

    def test_a_crash_fragment_in_a_sealed_segment_is_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _write(_segment(tmp_path, 0), '{"v":1,"ts":1.0,"type":"a"}\n{"v":1,"ts":1.0,"ty')
        deadline = time.monotonic() + 10.0
        follower = follow_events(
            path,
            poll_interval=0.001,
            stop=lambda: time.monotonic() > deadline,
            start_at_end=False,
        )
        assert next(follower)["type"] == "a"
        # The fragment could still be a write in flight: the follower waits
        # on it until a higher segment seals this one.
        _write(_segment(tmp_path, 1), '{"v":1,"ts":2.0,"type":"b"}\n')
        assert next(follower)["type"] == "b"
        follower.close()

    def test_a_partial_line_in_the_active_segment_is_waited_for(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        segment = _segment(tmp_path, 0)
        _write(segment, '{"v":1,"ts":1.0,"type":"a"}\n{"v":1,"ts":1.0,')
        writer = threading.Timer(0.05, _write, args=(segment, '"type":"b"}\n'))
        writer.start()
        deadline = time.monotonic() + 10.0
        follower = follow_events(
            path,
            poll_interval=0.001,
            stop=lambda: time.monotonic() > deadline,
            start_at_end=False,
        )
        assert [next(follower)["type"], next(follower)["type"]] == ["a", "b"]
        follower.close()
        writer.join(timeout=5.0)
        assert not writer.is_alive()


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


class TestObservabilityEmitEvent:
    class _RaisingLog:
        def __init__(self, exc: BaseException) -> None:
            self.exc = exc

        def emit(self, event_type, **fields):
            raise self.exc

    @pytest.mark.parametrize(
        "exc", [OSError("disk full"), ValueError("reserved"), TypeError("keys")]
    )
    def test_what_emit_can_raise_is_swallowed(self, exc):
        obs = Observability()
        obs.event_log = self._RaisingLog(exc)
        obs.emit_event("checkpoint", seq=1)

    def test_any_other_error_propagates(self):
        obs = Observability()
        obs.event_log = self._RaisingLog(RuntimeError("bug"))
        with pytest.raises(RuntimeError, match="bug"):
            obs.emit_event("checkpoint", seq=1)

    def test_a_real_emit_failure_is_swallowed(self, tmp_path):
        obs = Observability(event_log=str(tmp_path / "events.jsonl"))
        obs.emit_event("checkpoint", ts=0.0)  # reserved field: ValueError
        obs.emit_event("checkpoint", value={(1, 2): 3})  # tuple key: TypeError
        assert obs.event_log.emitted == 0
        obs.event_log.close()


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
