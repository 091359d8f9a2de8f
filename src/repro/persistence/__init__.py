"""Durable graph storage: binary snapshots, a write-ahead log, recovery.

The subsystem makes the serving stack crash-safe:

- :mod:`repro.persistence.snapshot_file` — a versioned, checksummed binary
  format for immutable CSR bases, written atomically (temp file + rename)
  and loadable fully or zero-copy via ``np.memmap``;
- :mod:`repro.persistence.wal` — an append-only, CRC-framed, fsync-batched
  write-ahead log of update batches with torn-tail truncation on open;
- :mod:`repro.persistence.store` — :class:`DurableGraphStore`, which logs
  every update before its in-memory commit, turns compactions into
  checkpoints that truncate the WAL, and recovers on open by loading the
  newest valid snapshot and replaying the WAL tail.

Wiring into the serving stack lives in :meth:`repro.api.GraphflowDB.open`
and :meth:`repro.api.GraphflowDB.enable_durability` (a ``QueryService``
serves the durable database it is handed; :meth:`repro.api.GraphflowDB.close`
checkpoints and closes the store); file formats and the recovery protocol
are documented in ``docs/persistence.md``.
"""

from repro.persistence.snapshot_file import (
    SnapshotInfo,
    read_snapshot,
    read_snapshot_info,
    write_snapshot,
)
from repro.persistence.store import DurableGraphStore, RecoveryReport
from repro.persistence.wal import UpdateRecord, WriteAheadLog

__all__ = [
    "DurableGraphStore",
    "RecoveryReport",
    "SnapshotInfo",
    "UpdateRecord",
    "WriteAheadLog",
    "read_snapshot",
    "read_snapshot_info",
    "write_snapshot",
]
