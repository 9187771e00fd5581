"""Lowering: compile an optimized logical plan onto the scan scheduler.

The interesting work is at the :class:`~repro.api.logical.PScan` boundary —
one ``PScan`` becomes one :func:`repro.engine.scan.scan_table` call:

* ``"native"`` conjuncts hand the engine a real
  :class:`~repro.engine.predicates.Predicate` (``Between``/``Equals``/
  ``IsIn``), unlocking the full zone-map → compressed-form-pushdown →
  decompress-and-compare cascade;
* ``"expr"`` conjuncts become :class:`ExprPredicate` — a single-column
  predicate evaluated on decompressed chunk values whose zone-map decision
  comes from interval arithmetic over the expression tree;
* ``"rows"`` conjuncts become :class:`ExprRowFilter` — multi-column
  predicates (``col("a") < col("b")``), evaluated against the scan's
  chunk-aligned shared buffers;
* derived expressions become :class:`ExprDerive` specs, evaluated per chunk
  range against values gathered at the surviving positions.

Everything above the scans (joins, grouped/scalar aggregation, sorting,
top-k limits, residual filters) executes on in-memory frames of
:class:`~repro.columnar.column.Column` s through the existing
:mod:`repro.engine.operators` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..columnar.column import Column
from ..errors import QueryError
from ..engine.operators import ScanStats, aggregate as scalar_aggregate, \
    aggregate_stored, gather_stored, group_codes_stored, grouped_reduce, \
    hash_join
from ..engine.predicates import Between, Equals, IsIn, Predicate
from ..engine.resilience import FaultPlan, FaultPolicy
from ..engine.scan import _pushable_bounds, scan_table
from ..storage.table import Table
from . import logical
from .expr import (
    _CMP_FLIP,
    AggExpr,
    BetweenExpr,
    ColumnRef,
    Comparison,
    Expr,
    IsInExpr,
    Literal,
)

__all__ = [
    "LoweringOptions",
    "ExprPredicate",
    "ExprRowFilter",
    "ExprDerive",
    "classify_conjunct",
    "execute",
    "run_plan",
    "Frame",
]


@dataclass(frozen=True)
class LoweringOptions:
    """Physical knobs shared by the optimizer and the executor."""

    #: Worker count for the scan fan-out: an int, or ``"auto"`` for
    #: ``min(cpu_count, chunks)`` with a serial fallback on tiny tables.
    parallelism: Any = 1
    #: Scan execution backend: ``None`` keeps the historical behaviour
    #: (``parallelism > 1`` fans out over threads); ``"serial"`` /
    #: ``"thread"`` / ``"process"`` select explicitly.  The process backend
    #: additionally routes partial-mergeable aggregates through
    #: per-worker partial states (:func:`_exec_aggregate_partial`).
    backend: Optional[str] = None
    #: Byte budget for each process worker's hot-chunk decompression LRU
    #: (0 = off).  Only the process backend uses it.
    cache_bytes: int = 0
    use_pushdown: bool = True
    use_zone_maps: bool = True
    #: Keep filter conjuncts in source order instead of reordering them by
    #: estimated selectivity (a baseline for benchmarks and property tests).
    preserve_filter_order: bool = False
    #: Route eligible aggregates and sparse gathers through the
    #: compressed-domain kernels (:mod:`repro.engine.kernels`): scalar and
    #: grouped sum/min/max/count over bare columns of capable schemes skip
    #: materialisation entirely, and group-by over dictionary-coded keys
    #: reuses the codes as group codes.  Results are bit-identical; disable
    #: for a decompress-then-compute baseline (benchmarks).
    use_compressed_exec: bool = True
    #: How scans respond to faults — retries/backoff for failed chunk
    #: ranges, per-scan deadline, corruption quarantine, and the
    #: process → thread → serial degradation chain.  ``None`` means
    #: :data:`repro.engine.resilience.DEFAULT_FAULT_POLICY`.
    fault_policy: Optional["FaultPolicy"] = None
    #: Deterministic fault injection for chaos testing
    #: (:class:`repro.engine.resilience.FaultPlan`); ``None`` defers to the
    #: ``REPRO_FAULT_PLAN`` environment hook.
    fault_plan: Optional["FaultPlan"] = None


# --------------------------------------------------------------------------- #
# Physical predicate adapters
# --------------------------------------------------------------------------- #

def _is_plain_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


class ExprPredicate(Predicate):
    """A single-column DSL predicate evaluated on decompressed values.

    Zone-map decisions come from tri-state interval arithmetic over the
    expression tree (:meth:`~repro.api.expr.Expr.decide`), enabled only for
    integer columns — the storage layer's statistics round float bounds, so
    float intervals cannot be trusted for chunk skipping.
    """

    def __init__(self, expr: Expr, column_name: str, trust_bounds: bool):
        super().__init__(column_name)
        self.expr = expr
        self._trust_bounds = trust_bounds

    def evaluate(self, values: Column) -> Column:
        mask = self.expr.evaluate({self.column_name: values.values})
        return Column(np.asarray(mask, dtype=bool))

    def chunk_decision(self, statistics) -> Optional[bool]:
        if not self._trust_bounds or statistics.count == 0 \
                or statistics.minimum is None:
            return None
        env = {self.column_name: (statistics.minimum, statistics.maximum)}
        return self.expr.decide(env)

    def __repr__(self) -> str:
        return f"ExprPredicate({self.expr!r})"


class ExprRowFilter:
    """A multi-column DSL predicate for :func:`scan_table`'s ``row_filters``."""

    def __init__(self, expr: Expr, trusted: Mapping[str, bool]):
        self.expr = expr
        self.columns = expr.columns()
        self._trusted = dict(trusted)

    def evaluate(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.asarray(self.expr.evaluate(env), dtype=bool)

    def chunk_decision(self, stats_env: Mapping[str, Any]) -> Optional[bool]:
        bounds_env: Dict[str, Optional[Tuple[int, int]]] = {}
        for name in self.columns:
            statistics = stats_env.get(name)
            if (statistics is None or not self._trusted.get(name, False)
                    or statistics.count == 0 or statistics.minimum is None):
                bounds_env[name] = None
            else:
                bounds_env[name] = (statistics.minimum, statistics.maximum)
        return self.expr.decide(bounds_env)

    def __repr__(self) -> str:
        return f"ExprRowFilter({self.expr!r})"


class ExprDerive:
    """A derived-column spec for :func:`scan_table`'s ``derive``."""

    def __init__(self, expr: Expr):
        self.expr = expr
        self.columns = expr.columns()

    def evaluate(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.expr.evaluate(env)

    def __repr__(self) -> str:
        return f"ExprDerive({self.expr!r})"


# --------------------------------------------------------------------------- #
# Conjunct classification
# --------------------------------------------------------------------------- #

def _column_bounds(table: Table, name: str) -> Optional[Tuple[int, int]]:
    """Whole-column [min, max] from chunk statistics (integer columns only)."""
    stored = table.column(name)
    if not np.issubdtype(stored.dtype, np.integer):
        return None
    lo: Optional[int] = None
    hi: Optional[int] = None
    for chunk in stored.chunks:
        statistics = chunk.statistics
        if statistics.count == 0 or statistics.minimum is None:
            continue
        lo = statistics.minimum if lo is None else min(lo, statistics.minimum)
        hi = statistics.maximum if hi is None else max(hi, statistics.maximum)
    if lo is None or hi is None:
        return None
    return lo, hi


def _comparison_parts(expr: Comparison) -> Optional[Tuple[str, str, int]]:
    """Decompose ``col <op> int-literal`` (either side) into (column, op, value)."""
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        left, right, op = right, left, _CMP_FLIP[op]
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    if not _is_plain_int(right.value):
        return None
    return left.name, op, int(right.value)


def to_native_predicate(expr: Expr, table: Table) -> Optional[Predicate]:
    """Convert *expr* to a native engine predicate when exactly equivalent.

    Conversion is restricted to integer columns with integer constants, so
    the engine's int-typed ``RangeBounds`` and zone maps are exact.
    One-sided comparisons become ``Between`` ranges clamped to the column's
    actual [min, max] (from chunk statistics) — never to sentinel values a
    narrow dtype could not compare against.
    """
    if isinstance(expr, BetweenExpr) and isinstance(expr.operand, ColumnRef):
        if not (_is_plain_int(expr.low) and _is_plain_int(expr.high)):
            return None
        if _column_bounds(table, expr.operand.name) is None:
            return None
        return Between(expr.operand.name, int(expr.low), int(expr.high))

    if isinstance(expr, IsInExpr) and isinstance(expr.operand, ColumnRef):
        if not all(_is_plain_int(v) for v in expr.candidates):
            return None
        if _column_bounds(table, expr.operand.name) is None:
            return None
        return IsIn(expr.operand.name, [int(v) for v in expr.candidates])

    if isinstance(expr, Comparison):
        parts = _comparison_parts(expr)
        if parts is None:
            return None
        name, op, value = parts
        bounds = _column_bounds(table, name)
        if bounds is None:
            return None
        column_lo, column_hi = bounds
        if op == "==":
            return Equals(name, value)
        if op == "!=":
            return None  # anti-ranges have no native form; the expr path is exact
        if op == "<":
            op, value = "<=", value - 1
        elif op == ">":
            op, value = ">=", value + 1
        if op == "<=":
            low, high = column_lo, value
        else:  # ">="
            low, high = value, column_hi
        if low > high:
            return None  # provably empty; let the expr path return all-False
        return Between(name, low, high)

    return None


def _filter_domain(table: Table, predicate: Predicate) -> str:
    """Where a native conjunct will evaluate: ``"compressed"`` when every
    chunk of its column advertises the range kernel (including cascaded
    forms, via capability delegation), ``"decompress"`` otherwise."""
    from ..engine import kernels
    from ..schemes.base import KERNEL_FILTER_RANGE

    if _pushable_bounds(predicate) is None:
        return "decompress"
    stored = table.column(predicate.column_name)
    if all(kernels.supports(chunk.scheme, chunk.form, KERNEL_FILTER_RANGE)
           for chunk in stored.chunks):
        return "compressed"
    return "decompress"


def classify_conjunct(expr: Expr, table: Table, source_order: int
                      ) -> logical.Conjunct:
    """Classify one CNF conjunct into native / expr / rows and build its
    physical form (see the module docstring)."""
    native = to_native_predicate(expr, table)
    if native is not None:
        return logical.Conjunct(expr=expr, kind="native", lowered=native,
                                source_order=source_order,
                                domain=_filter_domain(table, native))
    referenced = expr.columns()
    trusted = {name: np.issubdtype(table.column(name).dtype, np.integer)
               for name in referenced}
    if len(referenced) == 1:
        name = referenced[0]
        lowered: object = ExprPredicate(expr, name, trusted[name])
        kind = "expr"
    else:
        lowered = ExprRowFilter(expr, trusted)
        kind = "rows"
    return logical.Conjunct(expr=expr, kind=kind, lowered=lowered,
                            source_order=source_order, domain="decompress")


# --------------------------------------------------------------------------- #
# Frames (in-memory intermediate results)
# --------------------------------------------------------------------------- #

@dataclass
class Frame:
    """A materialised intermediate result."""

    columns: Dict[str, Column]
    row_count: int
    scalars: Dict[str, Any] = field(default_factory=dict)
    stats_list: List[ScanStats] = field(default_factory=list)
    #: For aggregate frames: how many input rows were aggregated (the seed
    #: engine reports this as ``QueryResult.row_count``).
    aggregated_rows: Optional[int] = None

    def env(self) -> Dict[str, np.ndarray]:
        return {name: column.values for name, column in self.columns.items()}

    def take(self, order: np.ndarray) -> "Frame":
        return Frame(
            columns={name: Column(column.values[order], name=name)
                     for name, column in self.columns.items()},
            row_count=int(order.size),
            scalars=dict(self.scalars),
            stats_list=list(self.stats_list),
        )


def _evaluate_full(expr: Expr, env: Mapping[str, np.ndarray],
                   row_count: int) -> np.ndarray:
    """Evaluate *expr* over *env*, broadcasting constants to *row_count*."""
    value = np.asarray(expr.evaluate(env))
    if value.ndim == 0:
        value = np.full(row_count, value[()])
    return value


# --------------------------------------------------------------------------- #
# Node executors
# --------------------------------------------------------------------------- #

def _empty_scan_frame(node: logical.PScan) -> Frame:
    """A zero-row frame for a scan the optimizer folded to always-empty."""
    arrays: Dict[str, np.ndarray] = {
        name: np.empty(0, dtype=node.table.column(name).dtype)
        for name in node.materialize
    }
    for name, expr in node.derived:
        env = {ref: np.empty(0, dtype=node.table.column(ref).dtype)
               for ref in expr.columns()}
        value = np.asarray(expr.evaluate(env))
        arrays[name] = value if value.ndim else np.empty(0, dtype=value.dtype)
    columns = {name: Column(arrays[name], name=name) for name in node.output}
    return Frame(columns=columns, row_count=0)


def _split_conjuncts(node: logical.PScan
                     ) -> Tuple[List[Predicate], List[ExprRowFilter]]:
    predicates: List[Predicate] = []
    row_filters: List[ExprRowFilter] = []
    for conjunct in node.conjuncts:
        if conjunct.kind == "rows":
            row_filters.append(conjunct.lowered)  # type: ignore[arg-type]
        else:
            predicates.append(conjunct.lowered)  # type: ignore[arg-type]
    return predicates, row_filters


def _exec_pscan(node: logical.PScan, options: LoweringOptions) -> Frame:
    if node.always_empty:
        return _empty_scan_frame(node)
    predicates, row_filters = _split_conjuncts(node)
    derive = [(name, ExprDerive(expr)) for name, expr in node.derived]
    scan = scan_table(node.table, predicates,
                      use_pushdown=options.use_pushdown,
                      use_zone_maps=options.use_zone_maps,
                      parallelism=options.parallelism,
                      materialize=node.materialize,
                      row_filters=row_filters,
                      derive=derive,
                      use_compressed_exec=options.use_compressed_exec,
                      backend=options.backend,
                      cache_bytes=options.cache_bytes,
                      fault_plan=options.fault_plan,
                      fault_policy=options.fault_policy)
    columns = {name: scan.columns[name] for name in node.output}
    return Frame(columns=columns, row_count=len(scan.selection),
                 stats_list=[scan.stats] if scan.stats is not None else [])


def _exec_filter(node: logical.Filter, options: LoweringOptions) -> Frame:
    child = execute(node.child, options)
    mask = np.asarray(_evaluate_full(node.predicate, child.env(),
                                     child.row_count), dtype=bool)
    return child.take(np.flatnonzero(mask))


def _exec_project(node: logical.Project, options: LoweringOptions) -> Frame:
    child = execute(node.child, options)
    env = child.env()
    columns = {}
    for expr in node.exprs:
        name = expr.output_name()
        columns[name] = Column(_evaluate_full(expr, env, child.row_count),
                               name=name)
    return Frame(columns=columns, row_count=child.row_count,
                 stats_list=child.stats_list)


def _exec_with_column(node: logical.WithColumn, options: LoweringOptions) -> Frame:
    child = execute(node.child, options)
    value = _evaluate_full(node.expr, child.env(), child.row_count)
    columns = dict(child.columns)
    columns[node.name] = Column(value, name=node.name)
    return Frame(columns=columns, row_count=child.row_count,
                 stats_list=child.stats_list)


def _factorize(arrays: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Factorise one or more equal-length key arrays into group codes.

    Returns ``(unique key arrays, codes)`` with groups in ascending
    lexicographic key order (matching ``np.unique`` for a single key).
    """
    if len(arrays) == 1:
        unique, codes = np.unique(arrays[0], return_inverse=True)
        return [unique], codes.reshape(-1)
    length = arrays[0].shape[0]
    if length == 0:
        return [array[:0] for array in arrays], np.empty(0, dtype=np.int64)
    order = np.lexsort(tuple(arrays[::-1]))
    sorted_arrays = [array[order] for array in arrays]
    changes = np.zeros(length, dtype=bool)
    changes[0] = True
    for array in sorted_arrays:
        changes[1:] |= array[1:] != array[:-1]
    group_of_sorted = np.cumsum(changes) - 1
    codes = np.empty(length, dtype=np.int64)
    codes[order] = group_of_sorted
    starts = np.flatnonzero(changes)
    return [array[starts] for array in sorted_arrays], codes


_COMPRESSED_AGG_OPS = ("count", "sum", "min", "max")


def _column_fully_capable(table: Table, name: str, kernel: str) -> bool:
    from ..engine import kernels

    stored = table.column(name)
    return all(kernels.supports(chunk.scheme, chunk.form, kernel)
               for chunk in stored.chunks)


def compressed_aggregate_plan(node: logical.Aggregate,
                              options: LoweringOptions
                              ) -> Optional[Dict[str, Any]]:
    """Decide whether *node* can execute on compressed inputs.

    Eligible when the child is a scan with no derived columns, every
    aggregate is count/sum/min/max over a bare base column (or ``count(*)``),
    grouping uses at most one bare key whose chunks all expose group codes,
    and every sum/min/max operand column is fully gather-capable — so the
    scan only has to produce a selection, and the aggregate inputs never
    materialise table-wide.  Returns the execution spec, or ``None`` to use
    the materialising path.  ``explain()`` uses the same decision via
    :func:`aggregate_execution_domains`, so the report cannot drift from the
    executor.
    """
    from ..schemes.base import KERNEL_GATHER, KERNEL_GROUP_CODES

    if not options.use_compressed_exec:
        return None
    child = node.child
    if not isinstance(child, logical.PScan) or child.always_empty \
            or child.derived:
        return None
    table = child.table

    key_name: Optional[str] = None
    if node.keys:
        if len(node.keys) != 1 or not isinstance(node.keys[0], ColumnRef):
            return None
        key_name = node.keys[0].name
        if not _column_fully_capable(table, key_name, KERNEL_GROUP_CODES):
            return None

    aggregates: List[Tuple[str, str, Optional[str]]] = []
    for agg in node.aggregates:
        core = logical.unwrap_alias(agg)
        if not isinstance(core, AggExpr) or core.op not in _COMPRESSED_AGG_OPS:
            return None
        if core.operand is None:
            aggregates.append((agg.output_name(), core.op, None))
            continue
        if not isinstance(core.operand, ColumnRef):
            return None
        column = core.operand.name
        if core.op != "count" \
                and not _column_fully_capable(table, column, KERNEL_GATHER):
            return None
        aggregates.append((agg.output_name(), core.op, column))
    return {"key": key_name, "aggregates": aggregates}


def aggregate_execution_domains(node: logical.Aggregate,
                                options: LoweringOptions
                                ) -> List[Tuple[str, str]]:
    """Per-aggregate execution domain labels for ``explain()``.

    Returns ``(label, "compressed" | "decompress")`` pairs — empty when the
    child is not a scan (nothing to say about in-memory frames).
    """
    if not isinstance(node.child, logical.PScan):
        return []
    spec = compressed_aggregate_plan(node, options)
    domain = "decompress" if spec is None else "compressed"
    labels = []
    if node.keys:
        keys = ", ".join(key.output_name() for key in node.keys)
        labels.append((f"group by {keys}", domain))
    labels.extend((agg.output_name(), domain) for agg in node.aggregates)
    return labels


def _exec_aggregate_compressed(node: logical.Aggregate, spec: Dict[str, Any],
                               options: LoweringOptions) -> Frame:
    """Aggregate straight off the compressed chunks: the scan produces only
    a selection, and every aggregate input is computed by the capability
    kernels (whole-form aggregates, positional gathers, dictionary group
    codes).  Bit-identical to the materialising path."""
    child = node.child
    assert isinstance(child, logical.PScan)
    predicates, row_filters = _split_conjuncts(child)
    scan = scan_table(child.table, predicates,
                      use_pushdown=options.use_pushdown,
                      use_zone_maps=options.use_zone_maps,
                      parallelism=options.parallelism,
                      materialize=[],
                      row_filters=row_filters,
                      use_compressed_exec=True,
                      backend=options.backend,
                      cache_bytes=options.cache_bytes,
                      fault_plan=options.fault_plan,
                      fault_policy=options.fault_policy)
    positions = scan.selection.positions.values
    stats = scan.stats if scan.stats is not None else ScanStats()

    #: One positional materialisation per *distinct* operand column, shared
    #: by every aggregate over it (multi-aggregate queries would otherwise
    #: re-walk the chunks once per aggregate).
    gathered_cache: Dict[str, Column] = {}

    def gathered(column: str) -> Column:
        values = gathered_cache.get(column)
        if values is None:
            raw, gather_stats = gather_stored(
                child.table.column(column), positions)
            stats.merge(gather_stats)
            values = gathered_cache[column] = Column(raw)
        return values

    if spec["key"] is None:
        scalars: Dict[str, Any] = {}
        column_uses = [column for __, op, column in spec["aggregates"]
                       if op != "count"]
        for output_name, op, column in spec["aggregates"]:
            if op == "count":
                scalars[output_name] = int(positions.size)
            elif column_uses.count(column) > 1:
                # Several aggregates over one column: gather the selection
                # once and reduce it per op (identical to reducing through
                # the whole-form kernels).
                scalars[output_name] = scalar_aggregate(gathered(column), op)
            else:
                value, agg_stats = aggregate_stored(
                    child.table.column(column), positions, op)
                stats.merge(agg_stats)
                scalars[output_name] = value
        return Frame(columns={}, row_count=int(positions.size),
                     scalars=scalars, stats_list=[stats],
                     aggregated_rows=int(positions.size))

    grouped = group_codes_stored(child.table.column(spec["key"]), positions)
    if grouped is None:  # mixed schemes lost the capability mid-column
        return _exec_aggregate_materialized(node, options)
    unique_keys, codes, group_stats = grouped
    stats.merge(group_stats)
    num_groups = int(unique_keys.size)
    key_output = node.keys[0].output_name()
    columns: Dict[str, Column] = {
        key_output: Column(unique_keys, name=key_output)}
    for output_name, op, column in spec["aggregates"]:
        values = None if op == "count" else gathered(column)
        columns[output_name] = grouped_reduce(codes, num_groups, values,
                                              op).rename(output_name)
    return Frame(columns=columns, row_count=num_groups,
                 stats_list=[stats], aggregated_rows=int(positions.size))


def _partial_aggregate_eligible(table: Table, spec: Dict[str, Any]) -> bool:
    """Whether every aggregate in *spec* has a mergeable partial state.

    Integer sums merge exactly (mod 2**64) under any association; min/max
    are lattice joins; count is a plain sum.  Float sums (scalar or grouped)
    depend on summation order, so they stay on the single-pass path.
    """
    for __, op, column in spec["aggregates"]:
        if op == "sum" and column is not None \
                and not np.issubdtype(table.column(column).dtype, np.integer):
            return False
    return True


def _exec_aggregate_partial(node: logical.Aggregate, spec: Dict[str, Any],
                            options: LoweringOptions) -> Optional[Frame]:
    """Aggregate via per-worker partial states on the process backend.

    Workers scan their chunk ranges and ship mergeable aggregate states
    (:class:`~repro.engine.operators.ScalarAggState` /
    :class:`~repro.engine.operators.GroupedAggState`) instead of positions;
    the coordinator folds them in chunk order with
    :func:`~repro.engine.operators.merge_states`.  Returns ``None`` when the
    process backend cannot run this plan (not a packed table, unpicklable
    spec, or a single effective worker) — the caller then uses the serial
    compressed path.  Results and deterministic stats are bit-identical to
    that path.
    """
    from ..engine import parallel
    from ..engine.scan import _grid_ranges, resolve_parallelism

    child = node.child
    assert isinstance(child, logical.PScan)
    predicates, row_filters = _split_conjuncts(child)
    if not predicates and not row_filters:
        return None  # predicate-less scans skip the range scheduler entirely
    ranges = _grid_ranges(child.table, predicates, row_filters)
    workers = resolve_parallelism(options.parallelism, len(ranges),
                                  child.table.row_count)
    if workers <= 1:
        return None
    from ..engine.resilience import DEFAULT_FAULT_POLICY, plan_from_env

    policy = options.fault_policy if options.fault_policy is not None \
        else DEFAULT_FAULT_POLICY
    plan = options.fault_plan if options.fault_plan is not None \
        else plan_from_env()
    scan_spec = parallel.ScanSpec(
        predicates=tuple(predicates), row_filters=tuple(row_filters),
        use_pushdown=options.use_pushdown,
        use_zone_maps=options.use_zone_maps,
        use_compressed_exec=True, cache_bytes=options.cache_bytes,
        aggregates=spec, fault_plan=plan,
        on_corruption=policy.on_corruption)
    try:
        state, stats, rows = parallel.run_process_aggregate(
            child.table, workers, scan_spec, policy)
    except parallel.ProcessBackendUnavailable:
        return None
    except parallel.ParallelExecutionError:
        if policy.on_fault != "degrade":
            raise
        return None  # degrade: the serial compressed path recomputes it

    if spec["key"] is None:
        scalars = {name: agg_state.finalize()
                   for name, agg_state in state.items()}
        return Frame(columns={}, row_count=rows, scalars=scalars,
                     stats_list=[stats], aggregated_rows=rows)
    key_output = node.keys[0].output_name()
    columns: Dict[str, Column] = {
        key_output: Column(state.keys, name=key_output)}
    for output_name, __, __ in spec["aggregates"]:
        columns[output_name] = Column(state.aggregates[output_name][1],
                                      name=output_name)
    return Frame(columns=columns, row_count=int(state.keys.size),
                 stats_list=[stats], aggregated_rows=rows)


def _exec_aggregate(node: logical.Aggregate, options: LoweringOptions) -> Frame:
    spec = compressed_aggregate_plan(node, options)
    if spec is not None:
        if options.backend == "process" \
                and _partial_aggregate_eligible(node.child.table, spec):
            frame = _exec_aggregate_partial(node, spec, options)
            if frame is not None:
                return frame
        return _exec_aggregate_compressed(node, spec, options)
    return _exec_aggregate_materialized(node, options)


def _exec_aggregate_materialized(node: logical.Aggregate,
                                 options: LoweringOptions) -> Frame:
    child = execute(node.child, options)
    env = child.env()
    if not node.keys:
        scalars: Dict[str, Any] = {}
        for agg in node.aggregates:
            core = logical.unwrap_alias(agg)
            assert isinstance(core, AggExpr)
            name = agg.output_name()
            if core.operand is None:  # count(*)
                scalars[name] = child.row_count
                continue
            values = Column(_evaluate_full(core.operand, env, child.row_count))
            scalars[name] = scalar_aggregate(values, core.op)
        return Frame(columns={}, row_count=child.row_count, scalars=scalars,
                     stats_list=child.stats_list,
                     aggregated_rows=child.row_count)

    key_arrays = [_evaluate_full(key, env, child.row_count) for key in node.keys]
    uniques, codes = _factorize(key_arrays)
    num_groups = int(uniques[0].shape[0])
    columns: Dict[str, Column] = {}
    for key, unique in zip(node.keys, uniques):
        name = key.output_name()
        columns[name] = Column(unique, name=name)
    for agg in node.aggregates:
        core = logical.unwrap_alias(agg)
        assert isinstance(core, AggExpr)
        name = agg.output_name()
        if core.operand is None:
            values: Optional[Column] = None
        else:
            values = Column(_evaluate_full(core.operand, env, child.row_count))
        columns[name] = grouped_reduce(codes, num_groups, values,
                                       core.op).rename(name)
    return Frame(columns=columns, row_count=num_groups,
                 stats_list=child.stats_list,
                 aggregated_rows=child.row_count)


def _sort_codes(expr: Expr, descending: bool, env: Mapping[str, np.ndarray],
                row_count: int) -> np.ndarray:
    """Integer sort codes for one key: factorised ranks, negated for DESC.

    Working in rank space keeps descending order safe for every dtype
    (negating uint64 or boolean values directly would wrap).
    """
    values = _evaluate_full(expr, env, row_count)
    codes = np.unique(values, return_inverse=True)[1].reshape(-1).astype(np.int64)
    return -codes if descending else codes


def _exec_sort(node: logical.Sort, options: LoweringOptions) -> Frame:
    child = execute(node.child, options)
    env = child.env()
    code_arrays = [_sort_codes(key, desc, env, child.row_count)
                   for key, desc in zip(node.by, node.descending)]
    order = np.lexsort(tuple(code_arrays[::-1]))
    return child.take(order)


def _exec_limit(node: logical.Limit, options: LoweringOptions) -> Frame:
    # Top-k: Limit directly above a single-key Sort avoids the full stable
    # permutation — rank codes are still built with one np.unique sort of
    # the key (dtype-safe for uint64/bool), but the frame rows are only
    # partitioned and the k winners sorted.  A position-salted composite key
    # keeps the selection and order bit-identical to full-sort-then-slice.
    child_node = node.child
    if isinstance(child_node, logical.Sort) and len(child_node.by) == 1:
        base = execute(child_node.child, options)
        n = base.row_count
        count = min(node.count, n)
        codes = _sort_codes(child_node.by[0], child_node.descending[0],
                            base.env(), n)
        if 0 < count < n and n < (1 << 31):
            composite = codes * n + np.arange(n, dtype=np.int64)
            top = np.argpartition(composite, count - 1)[:count]
            order = top[np.argsort(composite[top], kind="stable")]
            return base.take(order)
        order = np.lexsort((codes,))[:count]
        return base.take(order)
    child = execute(child_node, options)
    count = min(node.count, child.row_count)
    order = np.arange(count, dtype=np.int64)
    return child.take(order)


def _exec_join(node: logical.Join, options: LoweringOptions) -> Frame:
    left = execute(node.left, options)
    right = execute(node.right, options)
    left_positions, right_positions = hash_join(left.columns[node.left_on],
                                               right.columns[node.right_on])
    lpos = left_positions.values
    rpos = right_positions.values
    columns: Dict[str, Column] = {}
    for name, column in left.columns.items():
        columns[name] = Column(column.values[lpos], name=name)
    right_env = right.columns
    for source, output in node.right_output:
        columns[output] = Column(right_env[source].values[rpos], name=output)
    return Frame(columns=columns, row_count=int(lpos.size),
                 stats_list=left.stats_list + right.stats_list)


_EXECUTORS = {
    logical.PScan: _exec_pscan,
    logical.Filter: _exec_filter,
    logical.Project: _exec_project,
    logical.WithColumn: _exec_with_column,
    logical.Aggregate: _exec_aggregate,
    logical.Sort: _exec_sort,
    logical.Limit: _exec_limit,
    logical.Join: _exec_join,
}


def execute(node: logical.LogicalNode, options: LoweringOptions) -> Frame:
    """Execute an optimized plan node, returning its frame."""
    executor = _EXECUTORS.get(type(node))
    if executor is None:
        raise QueryError(
            f"cannot lower {node.label()}: was the plan optimized first? "
            f"(unexpected node type {type(node).__name__})"
        )
    return executor(node, options)


def run_plan(root: logical.LogicalNode, options: LoweringOptions):
    """Execute an optimized plan and assemble a
    :class:`~repro.engine.query.QueryResult`."""
    from ..engine.query import QueryResult

    frame = execute(root, options)
    if not frame.stats_list:
        stats = None
    elif len(frame.stats_list) == 1:
        stats = frame.stats_list[0]
    else:
        stats = ScanStats()
        for partial in frame.stats_list:
            stats.merge(partial)
    row_count = frame.row_count
    if isinstance(root, logical.Aggregate) and frame.aggregated_rows is not None:
        # Aggregate queries report the number of *qualifying input* rows.
        row_count = frame.aggregated_rows
    return QueryResult(columns=dict(frame.columns), scalars=dict(frame.scalars),
                       row_count=row_count, scan_stats=stats)
