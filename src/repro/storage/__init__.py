"""Dynamic graph storage: delta-CSR overlays, MVCC snapshots, compaction.

The subsystem layers mutability on top of the immutable
:class:`repro.graph.graph.Graph`:

- :class:`DeltaStore` — immutable insert/delete deltas as sorted code
  arrays, forward and backward, partitioned by ``(edge label, neighbour
  label)`` exactly like the base CSR;
- :class:`GraphSnapshot` — an O(1) versioned view behind the ``Graph`` read
  API, merging base + delta lazily per partition (both executors run on it
  unchanged);
- :class:`DynamicGraph` — the mutable front end with ``add_edges`` /
  ``delete_edges`` / ``add_vertices``, an epoch version counter, and
  threshold- or explicitly-triggered compaction into a fresh CSR base;
- :class:`CompactionManager` — threshold-triggered compaction on a background
  thread (CAS-installed under the epoch scheme), so neither writers nor
  queries ever pay the CSR rebuild.
"""

from repro.storage.compaction import CompactionManager
from repro.storage.delta import DeltaStore
from repro.storage.dynamic import DynamicGraph, normalize_edges
from repro.storage.snapshot import GraphSnapshot

__all__ = [
    "CompactionManager",
    "DeltaStore",
    "DynamicGraph",
    "GraphSnapshot",
    "normalize_edges",
]
