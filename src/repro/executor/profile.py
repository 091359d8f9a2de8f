"""Runtime profiling of plan execution.

The profile records exactly the quantities the paper reports alongside
runtimes in Tables 4-6: the *i-cost* actually incurred (sizes of all adjacency
lists accessed, skipping lists served from the intersection cache), the number
of intermediate partial matches produced by non-root operators, and
intersection-cache hit counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Tuple


@dataclass
class ExecutionProfile:
    """Counters accumulated while a plan runs."""

    #: Multi-worker summary fields assigned by the parallel coordinators
    #: after merging per-morsel profiles.  The trace merge (``api.py``) and
    #: :meth:`as_dict` both iterate this tuple, so the two surfaces can
    #: never drift apart.
    WORKER_SUMMARY_FIELDS: ClassVar[Tuple[str, ...]] = (
        "skew",
        "critical_path_seconds",
    )

    intersection_cost: int = 0
    intermediate_matches: int = 0
    output_matches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    hash_table_entries: int = 0
    hash_probes: int = 0
    # HASH-JOINs whose two sides match one sub-query under a renaming and
    # that probed with their non-empty build side's own rows (batch engine):
    # their probe subtrees never ran, so they have no per-operator entries
    # and no i-cost.
    mirrored_joins: int = 0
    # E/I input frames whose rows were not already in adjacency-key order,
    # so that E/I had to sort them before grouping (batch engine).
    sorted_frames: int = 0
    # E/I input frames in which the lists anchored before the child's
    # to-vertex were intersected once per distinct key and shared by the
    # groups below it (batch engine).
    shared_frames: int = 0
    batches: int = 0
    # Wall-clock duration of the run.  Under `merge` this takes the max of
    # the two sides: parallel morsels overlap in time, so their wall clocks
    # must not be added.
    elapsed_seconds: float = 0.0
    per_operator: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Busy seconds spent inside each operator's own frame processing
    # (batch engine only; the reference executor interleaves operators in
    # one generator chain, so per-operator time is not separable there).
    # Unlike `elapsed_seconds` this is a *work* quantity: `merge` sums it, so
    # after a parallel run an operator's busy seconds can legitimately exceed
    # `elapsed_seconds` — compare against `elapsed_seconds * workers`.
    operator_seconds: Dict[str, float] = field(default_factory=dict)
    # Number of worker profiles folded into this one (1 for a serial run).
    # The normalisation factor between the summed busy-second fields and the
    # max-ed wall-clock field.
    workers: int = 1
    # Per-query busy skew across active workers: max(busy) * n / sum(busy),
    # 1.0 for a perfectly balanced (or serial) run.  Assigned by the process
    # pool coordinator after merging; `merge` leaves it at the default.
    skew: float = 1.0
    # The busiest worker's total seconds on this query (setup + execute) —
    # the wall-clock lower bound the morsel partition allows.  0.0 for
    # serial runs.
    critical_path_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    def record_intersection(self, accessed_list_sizes: int) -> None:
        self.intersection_cost += int(accessed_list_sizes)

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        self.cache_misses += 1

    def record_intermediate(self, count: int = 1) -> None:
        self.intermediate_matches += count

    def record_batch(self) -> None:
        """One columnar frame passed between operators (vectorized mode)."""
        self.batches += 1

    def record_operator(self, name: str, **counters: int) -> None:
        entry = self.per_operator.setdefault(name, {})
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + int(value)

    def record_operator_time(self, name: str, seconds: float) -> None:
        self.operator_seconds[name] = self.operator_seconds.get(name, 0.0) + seconds

    # ------------------------------------------------------------------ #
    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def busy_seconds(self) -> float:
        """Total operator busy time (summed across workers and operators)."""
        return sum(self.operator_seconds.values())

    def merge(self, other: "ExecutionProfile") -> "ExecutionProfile":
        """Combine two profiles (used by the parallel executor).

        Merge semantics are field-kind dependent and deliberate:

        * **work** fields (counters, `per_operator`, `operator_seconds`) are
          *summed* — two morsels each reading N list elements did 2N work;
        * **wall-clock** (`elapsed_seconds`) takes the *max* — morsels run
          concurrently, so their wall clocks overlap rather than add.

        This means per-operator busy seconds are CPU-seconds across all
        workers, not wall time: divide by `workers` for a per-worker mean, or
        compare against `elapsed_seconds * workers` for utilisation.
        """
        merged = ExecutionProfile(
            intersection_cost=self.intersection_cost + other.intersection_cost,
            intermediate_matches=self.intermediate_matches + other.intermediate_matches,
            output_matches=self.output_matches + other.output_matches,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            hash_table_entries=self.hash_table_entries + other.hash_table_entries,
            hash_probes=self.hash_probes + other.hash_probes,
            mirrored_joins=self.mirrored_joins + other.mirrored_joins,
            sorted_frames=self.sorted_frames + other.sorted_frames,
            shared_frames=self.shared_frames + other.shared_frames,
            batches=self.batches + other.batches,
            elapsed_seconds=max(self.elapsed_seconds, other.elapsed_seconds),
            workers=self.workers + other.workers,
        )
        for source in (self.per_operator, other.per_operator):
            for name, counters in source.items():
                entry = merged.per_operator.setdefault(name, {})
                for key, value in counters.items():
                    entry[key] = entry.get(key, 0) + value
        for source in (self.operator_seconds, other.operator_seconds):
            for name, seconds in source.items():
                merged.operator_seconds[name] = merged.operator_seconds.get(name, 0.0) + seconds
        return merged

    def as_dict(self) -> Dict[str, float]:
        out = {
            "i_cost": self.intersection_cost,
            "intermediate_matches": self.intermediate_matches,
            "output_matches": self.output_matches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hash_table_entries": self.hash_table_entries,
            "hash_probes": self.hash_probes,
            "mirrored_joins": self.mirrored_joins,
            "sorted_frames": self.sorted_frames,
            "shared_frames": self.shared_frames,
            "batches": self.batches,
            "elapsed_seconds": self.elapsed_seconds,
            "busy_seconds": self.busy_seconds,
            "workers": self.workers,
        }
        for name in self.WORKER_SUMMARY_FIELDS:
            out[name] = getattr(self, name)
        return out

    def __repr__(self) -> str:
        return (
            f"ExecutionProfile(i_cost={self.intersection_cost}, "
            f"intermediate={self.intermediate_matches}, output={self.output_matches}, "
            f"cache_hits={self.cache_hits}, elapsed={self.elapsed_seconds:.3f}s)"
        )
