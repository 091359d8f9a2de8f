"""A structured, durable event stream: size-rotated JSONL records.

Metrics answer "how much / how fast", traces answer "what happened inside
one request" — the event log answers "what happened to the *system*, in
order": query finishes, slow queries, update batches, checkpoints,
compaction installs, pool respawns, per-query fallbacks to thread
execution, and recoveries.  Each record is one line of JSON, so the file
tails cleanly with standard tooling (``jq``, ``grep``) and survives a crash
as a line-delimited prefix (a torn final line is skipped by the reader).

Records are schema-versioned: every line carries ``{"v": 1, "ts": <epoch
seconds>, "type": "<event type>", ...fields}``.  Readers must tolerate
unknown fields (additive evolution); a ``v`` bump signals an incompatible
change.  Well-known event types and their fields are documented in
``docs/observability.md``.

:class:`EventLog` is thread-safe (one lock around write+rotate) and
size-rotated: when the active file would exceed ``max_bytes`` it is renamed
to ``<path>.1`` (shifting older backups up, dropping past ``backups``), and
a fresh file is started — a long-running server holds a bounded amount of
event history on disk.  Emission never raises into the caller's hot path by
policy of the callers (:meth:`repro.obs.Observability.emit_event` swallows
errors); the log itself raises normally so tests see real failures.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Iterator, List, Optional, Sequence

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventLog",
    "follow_events",
    "iter_events",
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
        The active log file; rotated backups live next to it as
        ``<path>.1`` (newest) … ``<path>.N`` (oldest).
    max_bytes:
        Rotation threshold for the active file.
    backups:
        Rotated files kept; ``0`` truncates on rotation instead.
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
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = self._handle.tell()
        self._closed = False
        self.emitted = 0
        self.rotations = 0
        self.dropped = 0  # emits after close()

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
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
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
        self._handle.close()
        if self.backups > 0:
            for i in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
        else:
            os.unlink(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def rotated_paths(self) -> List[str]:
        """Existing backup files, oldest first."""
        return _backup_paths(self.path)

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
def _iter_file(path: str) -> Iterator[dict]:
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail from a crash mid-write
            if isinstance(record, dict):
                yield record


def _backup_paths(path: str) -> List[str]:
    """The rotated backups ``<path>.<N>`` that exist next to ``path``, oldest
    (highest ``N``) first.  They are read off the directory listing, so no
    backup count caps them and a gap left mid-rotation does not end them."""
    directory, name = os.path.split(path)
    prefix = name + "."
    try:
        entries = os.listdir(directory or ".")
    except FileNotFoundError:
        return []
    numbered = sorted(
        (int(entry[len(prefix):]), entry)
        for entry in entries
        if entry.startswith(prefix) and entry[len(prefix):].isdecimal()
    )
    return [os.path.join(directory, entry) for _, entry in reversed(numbered)]


def iter_events(
    path: str,
    types: Optional[Sequence[str]] = None,
    include_rotated: bool = True,
) -> Iterator[dict]:
    """Yield records oldest-first across rotated backups then the active file.

    ``types`` filters to the given event types; malformed lines (a torn
    crash tail) are skipped silently.
    """
    wanted = set(types) if types else None
    paths = _backup_paths(path) if include_rotated else []
    paths.append(path)
    for file_path in paths:
        for record in _iter_file(file_path):
            if wanted is None or record.get("type") in wanted:
                yield record


def _open_rotation_successor(path: str, old_ino: int):
    """Open the file that follows the one holding ``old_ino`` in the rotated
    chain ``<path>.N … <path>.1, <path>`` (oldest → newest), or ``None``
    when the old file fell out of retention (the follower then resumes at
    the active file; the dropped interval is unrecoverable by design).

    Racy by nature — the writer may rotate again between the stat scan and
    the open — so the opened file's inode is re-verified and the scan
    retried a few times before giving up."""
    for _ in range(4):
        entries = []
        for candidate in _backup_paths(path) + [path]:
            try:
                entries.append((candidate, os.stat(candidate).st_ino))
            except OSError:
                continue
        index = next(
            (k for k, (_, ino) in enumerate(entries) if ino == old_ino), None
        )
        if index is None or index + 1 >= len(entries):
            return None
        next_path, next_ino = entries[index + 1]
        try:
            handle = open(next_path, "rb")
        except OSError:
            continue
        if os.fstat(handle.fileno()).st_ino == next_ino:
            return handle
        handle.close()
    return None


def follow_events(
    path: str,
    types: Optional[Sequence[str]] = None,
    poll_interval: float = 0.25,
    stop: Optional[object] = None,
    start_at_end: bool = True,
) -> Iterator[dict]:
    """Yield records appended to the active log file as they arrive — the
    ``tail -F`` of the event stream, shared by ``repro events --follow`` and
    the ops server's ``/events?follow=1`` NDJSON endpoint.

    Rotation-aware: when the writer renames the active file away
    (:meth:`EventLog._rotate_locked` uses ``os.replace``) and starts a fresh
    one at the same path, the follower drains the handle it holds to EOF —
    every record written before the rotation is still read — then walks the
    rotated chain by inode (``<path>.1`` upward) to the next file, so no
    record is skipped or duplicated even when several rotations land between
    two polls.  Only records rotated *past the backup retention* between
    polls are unrecoverable.  A torn tail (the writer's line not yet fully
    flushed) is re-read on the next poll instead of being dropped.
    Malformed lines are skipped, matching :func:`iter_events`.

    ``stop`` is an optional zero-argument callable polled between reads;
    when it turns truthy the generator returns (the HTTP handler passes the
    server's shutdown flag).  ``start_at_end=False`` replays the active
    file from its beginning first.
    """
    wanted = set(types) if types else None
    should_stop = stop if callable(stop) else (lambda: False)
    handle = None
    seek_end = start_at_end
    try:
        while True:
            if should_stop():
                return
            if handle is None:
                try:
                    # Binary mode: tell()/seek() arithmetic on partial lines
                    # is only defined for byte offsets.
                    handle = open(path, "rb")
                except FileNotFoundError:
                    time.sleep(poll_interval)
                    continue
                if seek_end:
                    handle.seek(0, os.SEEK_END)
                # Files reached through the rotation chain are read from the
                # start: everything in them is new to us.
                seek_end = False
            position = handle.tell()
            line = handle.readline()
            if not line:
                # EOF on the handle we hold.  If the path now points at a
                # different inode (or is briefly gone mid-rotation), the
                # writer rotated: advance to our file's successor in the
                # chain — possibly a sealed backup, whose own EOF lands back
                # here and walks one more step toward the active file.
                try:
                    our_ino = os.fstat(handle.fileno()).st_ino
                    rotated = os.stat(path).st_ino != our_ino
                except OSError:
                    our_ino = None
                    rotated = True
                if rotated:
                    handle.close()
                    handle = (
                        _open_rotation_successor(path, our_ino)
                        if our_ino is not None
                        else None
                    )
                    continue
                time.sleep(poll_interval)
                continue
            if not line.endswith(b"\n"):
                # Torn tail: the writer is mid-append.  Rewind and retry so
                # the record is yielded whole once the flush lands.
                handle.seek(position)
                time.sleep(poll_interval)
                continue
            try:
                record = json.loads(line.decode("utf-8", errors="replace"))
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if wanted is not None and record.get("type") not in wanted:
                continue
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
