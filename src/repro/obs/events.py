"""A structured, durable event stream: JSONL records in numbered segments.

Metrics answer "how much / how fast", traces answer "what happened inside
one request" — the event log answers "what happened to the *system*, in
order": query finishes, slow queries, update batches, checkpoints,
compaction installs, pool respawns, per-query fallbacks to thread
execution, and recoveries.  Each record is one line of JSON, so a segment
tails cleanly with standard tooling (``jq``, ``grep``) and survives a crash
as a line-delimited prefix (readers skip a torn final line).

Records are schema-versioned: every line carries ``{"v": 1, "ts": <epoch
seconds>, "type": "<event type>", ...fields}``.  Readers must tolerate
unknown fields (additive evolution); a ``v`` bump signals an incompatible
change.  Well-known event types and their fields are documented in
``docs/observability.md``.

On disk, the log at ``path`` is a run of numbered segments next to it:
``events.jsonl`` is written as ``events-000000000000.jsonl``,
``events-000000000001.jsonl``, ….  The highest number is the active
segment.  Rotation (when the active segment would exceed ``max_bytes``)
opens the next number and unlinks the oldest sealed segments beyond
``backups``; nothing is ever renamed, so a follower that holds segment *k*
reads it to EOF and moves to the next higher number.  A log written by
earlier versions (``<path>.N`` … ``<path>.1``, ``<path>``) is still read,
before the segments.

:class:`EventLog` is thread-safe (one lock around write+rotate).  Emission
never raises into the caller's hot path by policy of the callers
(:meth:`repro.obs.Observability.emit_event` swallows the errors ``emit``
can raise); the log itself raises normally so tests see real failures.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventLog",
    "follow_events",
    "iter_events",
    "log_files",
    "tail_events",
]

#: Bump on incompatible record-shape changes; readers check ``record["v"]``.
EVENT_SCHEMA_VERSION = 1

#: Well-known event types (emitters may add new ones; readers must not
#: assume this list is closed).
EVENT_TYPES = (
    "query_finish",
    "slow_query",
    "update_batch",
    "checkpoint",
    "compaction_install",
    "pool_respawn",
    "fallback_to_thread",
    "recovery",
    "catalogue_refresh",
    "plan_replan",
)


class EventLog:
    """Thread-safe, size-rotated JSONL event log.

    Parameters
    ----------
    path:
        Names the log; records go to the numbered segments
        ``<stem>-<k:012d><suffix>`` next to it (see the module docstring).
    max_bytes:
        Rotation threshold for the active segment.
    backups:
        Sealed segments kept; ``0`` unlinks a segment as soon as it is
        sealed.

    ``segment_path`` is the active segment.
    """

    def __init__(self, path: str, max_bytes: int = 4 * 1024 * 1024, backups: int = 3) -> None:
        if max_bytes < 128:
            raise ValueError("max_bytes must be at least 128")
        if backups < 0:
            raise ValueError("backups cannot be negative")
        self.path = os.path.abspath(path)
        self.max_bytes = max_bytes
        self.backups = backups
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        segments = _scan(self.path)[1]
        # Reopening appends to the newest segment.  A crash may have left a
        # torn final line there; end it so the next record starts a line of
        # its own instead of merging into the fragment.
        self._open_segment(segments[-1][0] if segments else 0)
        if self._size:
            self._handle.seek(-1, os.SEEK_END)
            if self._handle.read(1) != b"\n":
                self._handle.write(b"\n")
                self._size += 1
        self._closed = False
        self.emitted = 0
        self.rotations = 0
        self.dropped = 0  # emits after close()

    def _open_segment(self, number: int) -> None:
        self._number = number
        self.segment_path = _segment_path(self.path, number)
        self._handle = open(self.segment_path, "a+b")
        self._size = self._handle.seek(0, os.SEEK_END)

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def emit(self, event_type: str, **fields: object) -> dict:
        """Append one schema-versioned record; returns the record written.

        Reserved keys (``v``, ``ts``, ``type``) cannot be overridden by
        ``fields`` — passing one raises :class:`ValueError` (callers that
        must never fail go through
        :meth:`repro.obs.Observability.emit_event`, which swallows).
        Non-JSON-serialisable field values are stringified rather than
        failing the emit.
        """
        record = {"v": EVENT_SCHEMA_VERSION, "ts": round(time.time(), 6), "type": str(event_type)}
        for key, value in fields.items():
            if key in record:
                raise ValueError(f"reserved event field {key!r} cannot be overridden")
            record[key] = value
        line = (json.dumps(record, separators=(",", ":"), default=str) + "\n").encode("utf-8")
        with self._lock:
            if self._closed:
                self.dropped += 1
                return record
            if self._size > 0 and self._size + len(line) > self.max_bytes:
                self._rotate_locked()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)
            self.emitted += 1
        return record

    def _rotate_locked(self) -> None:
        # Open the successor before unlinking anything, so a follower never
        # finds its segment gone without a higher one to move to.
        self._handle.close()
        self._open_segment(self._number + 1)
        sealed = [p for number, p in _scan(self.path)[1] if number < self._number]
        for stale in sealed[: max(0, len(sealed) - self.backups)]:
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
        self.rotations += 1

    def rotated_paths(self) -> List[str]:
        """Existing log files other than the active segment, oldest first."""
        return [p for p in log_files(self.path) if p != self.segment_path]

    def stats(self) -> dict:
        with self._lock:
            return {
                "attached": True,
                "path": self.path,
                "schema_version": EVENT_SCHEMA_VERSION,
                "emitted": self.emitted,
                "rotations": self.rotations,
                "dropped": self.dropped,
                "size_bytes": self._size,
                "max_bytes": self.max_bytes,
                "backups": self.backups,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EventLog(path={self.path!r}, emitted={self.emitted}, rotations={self.rotations})"


# --------------------------------------------------------------------------- #
# readers
# --------------------------------------------------------------------------- #
def _segment_path(path: str, number: int) -> str:
    stem, suffix = os.path.splitext(path)
    return f"{stem}-{number:012d}{suffix}"


def _scan(path: str) -> Tuple[List[str], List[Tuple[int, str]]]:
    """The legacy files (``<path>.N`` … ``<path>.1``, ``<path>``; oldest
    first) and the numbered segments (``(k, path)``, ascending ``k``) that
    exist next to ``path``, from one directory listing."""
    directory, name = os.path.split(path)
    stem, suffix = os.path.splitext(name)
    try:
        entries = os.listdir(directory or ".")
    except FileNotFoundError:
        return [], []
    backups, segments = [], []
    for entry in entries:
        if entry.startswith(name + ".") and entry[len(name) + 1:].isdecimal():
            backups.append((-int(entry[len(name) + 1:]), entry))
        elif entry.startswith(stem + "-") and entry.endswith(suffix):
            number = entry[len(stem) + 1: len(entry) - len(suffix)]
            if number.isdecimal():
                segments.append((int(number), os.path.join(directory, entry)))
    legacy = [os.path.join(directory, entry) for _, entry in sorted(backups)]
    if name in entries:
        legacy.append(path)
    return legacy, sorted(segments)


def log_files(path: str) -> List[str]:
    """Every file of the log named ``path``, oldest first: the legacy
    ``<path>.N`` … ``<path>.1``, ``<path>``, then the segments.  Empty when
    no log exists."""
    legacy, segments = _scan(path)
    return legacy + [p for _, p in segments]


def _parse(line: bytes) -> Optional[dict]:
    try:
        record = json.loads(line)
    except ValueError:
        return None  # torn crash fragment or malformed line
    return record if isinstance(record, dict) else None


def iter_events(
    path: str,
    types: Optional[Sequence[str]] = None,
    include_rotated: bool = True,
) -> Iterator[dict]:
    """Yield records oldest-first across every file of the log (only the
    newest one when ``include_rotated`` is false).

    ``types`` filters to the given event types; malformed lines (a torn
    crash tail) are skipped silently.
    """
    wanted = set(types) if types else None
    paths = log_files(path)
    for file_path in paths if include_rotated else paths[-1:]:
        try:
            handle = open(file_path, "rb")
        except FileNotFoundError:
            continue  # unlinked by retention since the listing
        with handle:
            for line in handle:
                record = _parse(line)
                if record is not None and (wanted is None or record.get("type") in wanted):
                    yield record


def follow_events(
    path: str,
    types: Optional[Sequence[str]] = None,
    poll_interval: float = 0.25,
    stop: Optional[object] = None,
    start_at_end: bool = True,
) -> Iterator[dict]:
    """Yield records appended to the log as they arrive — the ``tail -F``
    of the event stream, shared by ``repro events --follow`` and the ops
    server's ``/events?follow=1`` NDJSON endpoint.

    The follower holds one segment, starting with the newest, and reads it
    to EOF.  A partial final line is re-read on the next poll, since the
    writer may be mid-append.  Segments are never renamed, so rotation is
    just a higher-numbered segment appearing.  Once one exists, the held
    segment is sealed: the follower drains it to EOF once more, skipping a
    final line without a newline (a crash fragment that no write will
    complete), and moves to the smallest higher number.  So no record is
    skipped or duplicated however many rotations land between two polls.
    Only segments unlinked by retention before the follower reached them
    are lost.  Malformed lines are skipped, matching :func:`iter_events`.

    ``stop`` is an optional zero-argument callable polled between reads;
    when it turns truthy the generator returns (the HTTP handler passes the
    server's shutdown flag).  ``start_at_end=False`` replays the newest
    segment from its beginning first.
    """
    wanted = set(types) if types else None
    should_stop = stop if callable(stop) else (lambda: False)
    handle = None
    number = None
    try:
        while not should_stop():
            if handle is None:
                segments = _scan(path)[1]
                if number is None:
                    segments = segments[-1:]  # start with the newest
                else:
                    segments = [s for s in segments if s[0] > number]
                if not segments:
                    time.sleep(poll_interval)
                    continue
                number, segment = segments[0]
                try:
                    handle = open(segment, "rb")
                except FileNotFoundError:
                    continue  # unlinked by retention; the rescan moves past it
                if start_at_end:
                    handle.seek(0, os.SEEK_END)
                    start_at_end = False
            position = handle.tell()
            lines = [handle.readline()]
            if not lines[0].endswith(b"\n"):
                handle.seek(position)
                if not any(k > number for k, _ in _scan(path)[1]):
                    time.sleep(poll_interval)
                    continue
                # Sealed: every byte the writer will ever put here is
                # already written, so drain it and move on.
                lines = handle.readlines()
                handle.close()
                handle = None
            for line in lines:
                record = _parse(line) if line.endswith(b"\n") else None
                if record is not None and (wanted is None or record.get("type") in wanted):
                    yield record
    finally:
        if handle is not None:
            handle.close()


def tail_events(
    path: str,
    n: int = 20,
    types: Optional[Sequence[str]] = None,
    include_rotated: bool = True,
) -> List[dict]:
    """The last ``n`` matching records, oldest first."""
    from collections import deque

    ring: "deque[dict]" = deque(maxlen=max(1, n))
    for record in iter_events(path, types=types, include_rotated=include_rotated):
        ring.append(record)
    return list(ring)
