"""Query-execution substrate: predicates, pushdown, physical operators, scans.

The engine exists to demonstrate — and measure — the paper's "why it
matters": predicates evaluated on compressed forms (run domain, segment
bounds, dictionary codes), chunk skipping from statistics, and
late-materialisation execution where decompression happens only for the rows
and columns a query actually needs.
"""

from .predicates import Between, Equals, IsIn, Predicate, RangeBounds
from .pushdown import (
    PushdownStats,
    count_in_range_on_runs,
    range_mask_on_dict,
    range_mask_on_for,
    range_mask_on_ns,
    range_mask_on_runs,
    sum_in_range_on_runs,
)
from . import kernels, translate
from .approximate import (
    ApproximateAnswer,
    approximate_mean,
    approximate_sum,
    refine_sum,
)
from .operators import (
    ScanStats,
    SelectionVector,
    aggregate,
    aggregate_stored,
    filter_table,
    gather_stored,
    group_by_aggregate,
    group_codes_stored,
    grouped_reduce,
    hash_join,
    project,
)
from .parallel import (
    ChunkCache,
    ParallelExecutionError,
    packed_source_path,
    shutdown_pools,
)
from .query import QueryResult
from .resilience import DEFAULT_FAULT_POLICY, FaultPlan, FaultPolicy
from .scan import (
    BACKENDS,
    ScanResult,
    describe_backend,
    gather_rows,
    resolve_parallelism,
    scan_table,
)

__all__ = [
    "Predicate",
    "Between",
    "Equals",
    "IsIn",
    "RangeBounds",
    "PushdownStats",
    "range_mask_on_runs",
    "range_mask_on_for",
    "range_mask_on_dict",
    "range_mask_on_ns",
    "count_in_range_on_runs",
    "sum_in_range_on_runs",
    "kernels",
    "translate",
    "ScanStats",
    "SelectionVector",
    "filter_table",
    "project",
    "aggregate",
    "aggregate_stored",
    "gather_stored",
    "group_by_aggregate",
    "group_codes_stored",
    "grouped_reduce",
    "hash_join",
    "QueryResult",
    "ScanResult",
    "scan_table",
    "gather_rows",
    "BACKENDS",
    "describe_backend",
    "resolve_parallelism",
    "ChunkCache",
    "ParallelExecutionError",
    "packed_source_path",
    "shutdown_pools",
    "FaultPlan",
    "FaultPolicy",
    "DEFAULT_FAULT_POLICY",
    "ApproximateAnswer",
    "approximate_sum",
    "approximate_mean",
    "refine_sum",
]
