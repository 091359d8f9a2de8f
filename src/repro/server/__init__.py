"""The query-serving subsystem.

The reproduction's :class:`repro.api.GraphflowDB` plans every query from
scratch, which is the right default for one-off experiments but wasteful for
serving workloads that repeat a small set of query shapes.  This package adds
the serving layer:

- :mod:`repro.server.plan_cache` — an LRU cache of optimized plans keyed by
  the query's canonical form (:meth:`repro.query.query_graph.QueryGraph.canonical_key`),
  so that isomorphic queries share one optimizer invocation.
- :mod:`repro.server.prepared` — prepared/parameterized queries: parse once,
  bind vertex/edge label parameters per execution.
- :mod:`repro.server.service` — a thread-safe :class:`QueryService` facade
  with admission control, per-query deadlines and row limits, and batch
  execution that shares planning across identical queries.
"""

from repro.server.plan_cache import PlanCache, PlanCacheStats
from repro.server.prepared import PreparedQuery
from repro.server.service import QueryService, ServiceResult

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "PreparedQuery",
    "QueryService",
    "ServiceResult",
]
