"""Plan execution: the batch-at-a-time engine (``vectorized``) that runs
every plan by default, the Volcano-style tuple-at-a-time reference executor
(``operators``), runtime profiling (i-cost, intermediate matches, cache
hits), adaptive query-vertex-ordering selection (a plan rewrite run by the
batch engine), and one morsel coordinator (``parallel``) with a thread and a
process (``multiprocess``) transport.  Every executor returns an
:class:`ExecutionResult`."""

from repro.executor.profile import ExecutionProfile
from repro.executor.pipeline import ExecutionResult, execute_plan, count_matches
from repro.executor.adaptive import execute_adaptive
from repro.executor.parallel import execute_parallel, morsel_ranges
from repro.executor.multiprocess import MorselProcessPool
from repro.executor.vectorized import execute_plan_vectorized

__all__ = [
    "ExecutionProfile",
    "ExecutionResult",
    "MorselProcessPool",
    "execute_plan",
    "count_matches",
    "execute_adaptive",
    "execute_parallel",
    "morsel_ranges",
    "execute_plan_vectorized",
]
