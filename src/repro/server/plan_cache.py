"""An LRU cache of optimized plans keyed by canonical query form.

The optimizer's DP over connected sub-queries is by far the most expensive
part of serving a small query on a warm graph, and it depends only on the
query's *shape* (structure plus labels), the catalogue, and the planner
options — not on how the query's vertices are named, nor on which executor
runs the plan.  The cache therefore
keys plans by :meth:`repro.query.query_graph.QueryGraph.canonical_key`
combined with the planner options, so ``(a1)->(a2)->(a3)`` and
``(b7)->(b2)->(b9)`` share one entry.

Concurrency: lookups, inserts, and evictions hold one lock.
:meth:`PlanCache.get_or_compute` additionally collapses concurrent misses on
the same key — one thread plans ("the leader") while the rest wait on an
event, so a thundering herd of identical queries invokes the optimizer once.

Invalidation: the cache must be flushed whenever the statistics that plans
were costed against change (catalogue rebuild, graph replacement).
:meth:`invalidate` does that and bumps a generation counter so that an
in-flight leader cannot re-insert a plan computed against stale statistics.

Row limits: a limited query is planned for its *limit class*, the next power
of two at or above the limit, and cached under it, so a client paging with
limits 100 and 120 shares one entry (class 128) and one optimizer run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, NamedTuple, Optional

from repro.planner.plan import Plan
from repro.query.query_graph import QueryGraph


class PlanKey(NamedTuple):
    """What a cached plan was planned for: the query's canonical form, the
    planner options, and the row-limit class (``None`` when unlimited).
    Cardinality feedback is keyed the same way."""

    canonical_key: Hashable
    full_enumeration: bool
    enable_binary_joins: bool
    limit_class: Optional[int]


def limit_class(output_limit: Optional[int]) -> Optional[int]:
    """The next power of two at or above ``output_limit`` (100 -> 128)."""
    if output_limit is None:
        return None
    return 1 << max(int(output_limit) - 1, 0).bit_length()


def plan_key(
    query: QueryGraph,
    full_enumeration: bool = False,
    enable_binary_joins: bool = True,
    output_limit: Optional[int] = None,
) -> PlanKey:
    """The one definition of a plan-cache key."""
    return PlanKey(
        query.canonical_key(),
        full_enumeration,
        enable_binary_joins,
        limit_class(output_limit),
    )


@dataclass
class PlanCacheStats:
    """Counters exposed through ``QueryService.stats()`` and the CLI."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """A bounded, thread-safe LRU mapping of canonical query keys to plans."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Hashable, Plan]" = OrderedDict()
        self._inflight: Dict[Hashable, threading.Event] = {}
        self._generation = 0
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._plans

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[Plan]:
        """Look up a plan, counting a hit or miss and refreshing recency."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
            return plan

    def put(self, key: Hashable, plan: Plan) -> None:
        with self._lock:
            self._store(key, plan)

    def peek(self, key: Hashable) -> Optional[Plan]:
        """Look up a plan without touching hit/miss counters or recency.

        The re-optimization pass uses this to inspect cached plans: a
        maintenance sweep should not distort the serving hit rate or keep
        otherwise-cold entries alive.
        """
        with self._lock:
            return self._plans.get(key)

    @property
    def generation(self) -> int:
        """Current invalidation generation (bumped by :meth:`invalidate`)."""
        with self._lock:
            return self._generation

    def put_if_generation(self, key: Hashable, plan: Plan, generation: int) -> bool:
        """Insert ``plan`` only if no invalidation ran since ``generation``
        was observed.  Returns whether the plan was installed.

        This is the re-optimizer's guard: it plans outside any lock, so a
        concurrent write or catalogue refresh may have flushed the cache in
        the meantime — installing then would resurrect a plan costed against
        statistics that no longer exist.
        """
        with self._lock:
            if self._generation != generation:
                return False
            self._store(key, plan)
            return True

    def _store(self, key: Hashable, plan: Plan) -> None:
        if key in self._plans:
            self._plans.move_to_end(key)
        self._plans[key] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Plan]) -> Plan:
        """Return the cached plan for ``key``, planning at most once per key.

        Concurrent callers that miss on the same key elect one leader to run
        ``compute``; the others block until the plan is available.  When
        ``compute`` raises, waiters retry (and may become the next leader).
        """
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self.stats.hits += 1
                    return plan
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    self.stats.misses += 1
                    generation = self._generation
                    leader = True
                else:
                    leader = False
            if not leader:
                event.wait()
                continue
            try:
                plan = compute()
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                    event.set()
            with self._lock:
                # Do not cache a plan computed against statistics that were
                # invalidated while planning ran; still return it.
                if self._generation == generation:
                    self._store(key, plan)
            return plan

    # ------------------------------------------------------------------ #
    def invalidate(self) -> int:
        """Drop every cached plan (catalogue/graph changed); returns how many
        plans were flushed."""
        with self._lock:
            flushed = len(self._plans)
            self._plans.clear()
            self._generation += 1
            self.stats.invalidations += 1
            return flushed

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = PlanCacheStats()
