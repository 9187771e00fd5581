"""Physical operators over stored (compressed) tables.

The engine is vectorised and chunk-at-a-time: operators consume and produce
:class:`RowSelection` s (a chunk reference plus a position list), so filters
stay in the cheap position-list ("late materialisation") currency for as
long as possible and columns are only decompressed when their values are
actually needed — and, when the pushdown module knows how, predicates are
evaluated on the compressed form itself.

The operator set is intentionally the one the paper's decompression plans
are made of — selection, gather/materialisation, aggregation, hash join —
to keep the "decompression is query execution" point front and centre.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as _dataclass_fields
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..columnar.column import Column, concat_columns
from ..errors import QueryError
from ..storage.table import Table
from .predicates import Predicate
from .pushdown import PushdownStats


@dataclass
class ScanStats:
    """Accounting of what a scan touched (drives experiments E9/E10).

    Since the chunk-parallel scheduler (:mod:`repro.engine.scan`) these
    counters are merged over **all** conjuncts of a multi-predicate scan:
    ``chunks_total`` counts (predicate, chunk) evaluation slots, of which
    ``chunks_short_circuited`` were never evaluated because an earlier
    conjunct had already emptied the chunk's surviving-position set.
    ``chunks_decompressed`` counts actual decompressions — conjuncts sharing
    a column share one decompression per chunk, so it is bounded by the
    number of distinct (column, chunk) pairs, not by the conjunct count.
    """

    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_fully_accepted: int = 0
    chunks_pushed_down: int = 0
    chunks_decompressed: int = 0
    chunks_short_circuited: int = 0
    predicates_total: int = 0
    rows_scanned: int = 0
    rows_selected: int = 0
    #: Rows whose predicate, gather or aggregate was computed **in the
    #: compressed domain** (run values, dictionary codes, packed words,
    #: segment references) instead of on decompressed values.
    rows_computed_compressed: int = 0
    #: Uncompressed bytes of chunks that compressed-domain execution served
    #: entirely without decompressing (the decompression output that was
    #: never materialised).  Approximate for chunks straddling scan ranges.
    bytes_decompressed_saved: int = 0
    #: Compiled-plan cache traffic attributable to this scan: ``hits`` counts
    #: chunk decompressions served by an already-compiled plan (at either
    #: cache level), ``misses`` counts actual plan compilations.  A healthy
    #: multi-chunk scan compiles at most one plan per distinct scheme and
    #: hits the cache for every further chunk.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Hot-chunk decompression-cache traffic (process workers keep a
    #: byte-budgeted LRU of decompressed chunks across queries, see
    #: :class:`repro.engine.parallel.ChunkCache`).  Zero unless a cache is
    #: enabled; a cache hit serves a chunk without incrementing
    #: ``chunks_decompressed`` because no decompression actually ran.
    hot_cache_hits: int = 0
    hot_cache_misses: int = 0
    hot_cache_evictions: int = 0
    #: Resilience accounting (see :mod:`repro.engine.resilience`):
    #: ``chunks_quarantined`` counts chunk ranges skipped because a segment
    #: failed its integrity check under ``on_corruption="quarantine"`` —
    #: it affects results, so it stays in :meth:`comparable`.  The other
    #: three count recovery work (range re-executions, worker respawns,
    #: observed fault occurrences) that varies with timing and fault
    #: placement, not with what the scan logically computed.
    chunks_quarantined: int = 0
    ranges_retried: int = 0
    workers_respawned: int = 0
    fault_events: int = 0
    pushdown: PushdownStats = field(default_factory=PushdownStats)

    #: Counters reflecting process-local warm state (compiled-plan and
    #: hot-chunk cache traffic) or fault-recovery history rather than what
    #: the scan logically did.  They vary with execution history even
    #: between two serial runs, so backend-equivalence checks compare
    #: :meth:`comparable` instead.
    WARMTH_FIELDS = ("plan_cache_hits", "plan_cache_misses",
                     "hot_cache_hits", "hot_cache_misses",
                     "hot_cache_evictions", "ranges_retried",
                     "workers_respawned", "fault_events")

    def merge_pushdown(self, stats: PushdownStats) -> None:
        _add_counters(self.pushdown, stats, _PUSHDOWN_COUNTERS)

    def merge(self, other: "ScanStats") -> None:
        """Accumulate *other* into this instance (used by the scan scheduler
        to combine per-chunk-range partial stats deterministically)."""
        _add_counters(self, other, _SCAN_COUNTERS)
        self.merge_pushdown(other.pushdown)

    def comparable(self) -> Dict[str, int]:
        """The deterministic counters as a flat dict.

        Every field is a plain counter sum, so :meth:`merge` is associative
        and order-insensitive — merging permuted partials yields the same
        totals (the scheduler still merges in chunk order so that *results*,
        which are order-sensitive, stay deterministic).  Cache-warmth fields
        (:data:`WARMTH_FIELDS`) are excluded: they measure how warm this
        process's caches happened to be, which legitimately differs between
        a serial run and a pool of workers with their own cache history.
        """
        flat = {name: getattr(self, name) for name in _SCAN_COUNTERS
                if name not in self.WARMTH_FIELDS}
        for name in _PUSHDOWN_COUNTERS:
            flat[f"pushdown.{name}"] = getattr(self.pushdown, name)
        return flat


#: The counter fields :meth:`ScanStats.merge` adds, read once from the
#: dataclass definitions (the scan merges once per chunk range, so the
#: per-call ``dataclasses.fields`` lookup would be measurable).
_SCAN_COUNTERS = tuple(f.name for f in _dataclass_fields(ScanStats)
                       if f.name != "pushdown")
_PUSHDOWN_COUNTERS = tuple(f.name for f in _dataclass_fields(PushdownStats))


def _add_counters(into: Any, other: Any, names: Tuple[str, ...]) -> None:
    mine, theirs = vars(into), vars(other)
    for name in names:
        mine[name] += theirs[name]


@dataclass
class SelectionVector:
    """Qualifying global row positions (the engine's late-materialisation currency)."""

    positions: Column

    def __len__(self) -> int:
        return len(self.positions)

    @staticmethod
    def from_mask(mask: np.ndarray, row_offset: int) -> "SelectionVector":
        return SelectionVector(Column(np.flatnonzero(mask).astype(np.int64) + row_offset))

    @staticmethod
    def all_rows(row_count: int) -> "SelectionVector":
        return SelectionVector(Column(np.arange(row_count, dtype=np.int64)))

    @staticmethod
    def concatenate(vectors: Sequence["SelectionVector"]) -> "SelectionVector":
        if not vectors:
            return SelectionVector(Column(np.empty(0, dtype=np.int64)))
        return SelectionVector(concat_columns([v.positions for v in vectors]))


# --------------------------------------------------------------------------- #
# Selection (filter) over a stored table
# --------------------------------------------------------------------------- #

def filter_table(table: Table, predicate: Predicate,
                 use_pushdown: bool = True,
                 use_zone_maps: bool = True,
                 parallelism: int = 1) -> Tuple[SelectionVector, ScanStats]:
    """Evaluate *predicate* over its column, returning qualifying row positions.

    Evaluation order per chunk: zone-map decision first (skip / accept the
    whole chunk), then compressed-form pushdown when available and enabled,
    then decompress-and-compare as the fallback.  This is the single-predicate
    entry point of the chunk-parallel scheduler in :mod:`repro.engine.scan`.
    """
    from .scan import scan_table

    result = scan_table(table, [predicate], use_pushdown=use_pushdown,
                        use_zone_maps=use_zone_maps, parallelism=parallelism)
    assert result.stats is not None
    return result.selection, result.stats


# --------------------------------------------------------------------------- #
# Projection / materialisation
# --------------------------------------------------------------------------- #

def project(table: Table, selection: SelectionVector,
            columns: Iterable[str], parallelism: int = 1) -> Dict[str, Column]:
    """Materialise the requested columns at the selected row positions.

    Gathering goes through :func:`repro.engine.scan.gather_rows`: positions
    are bucketed per chunk with one ``searchsorted`` and untouched chunks are
    never decompressed; ``parallelism > 1`` fans the chunk gathers out.
    """
    from .scan import gather_rows

    return {name: gather_rows(table.column(name), selection.positions,
                              parallelism=parallelism)
            for name in columns}


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

_AGGREGATES = ("sum", "count", "min", "max", "mean")


def aggregate(values: Column, how: str):
    """A scalar aggregate over a materialised column."""
    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    if how == "count":
        return len(values)
    if len(values) == 0:
        raise QueryError(f"aggregate {how!r} over zero rows")
    data = values.values
    if how == "sum":
        if np.issubdtype(data.dtype, np.unsignedinteger):
            return int(data.sum(dtype=np.uint64))
        if np.issubdtype(data.dtype, np.integer):
            return int(data.sum(dtype=np.int64))
        return float(data.sum())  # repro: ignore[RA001] — float64 sums accumulate in float64
    if how == "min":
        return data.min().item()
    if how == "max":
        return data.max().item()
    return float(data.mean())


def grouped_reduce(codes: np.ndarray, num_groups: int,
                   values: Optional[Column], how: str) -> Column:
    """Reduce *values* per group, given pre-factorised group *codes*.

    This is the kernel half of :func:`group_by_aggregate`: *codes* maps each
    row to its group index in ``[0, num_groups)``.  Factorising once and
    reducing many times is what multi-aggregate ``group_by().agg(...)``
    queries (and multi-key groupings, which factorise outside NumPy's
    ``unique``) need.  ``how="count"`` ignores *values* (may be ``None``).
    The dtype discipline matches the scalar aggregates: integer sums
    accumulate in int64/uint64, min/max preserve the value dtype.
    """
    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    if how == "count":
        result = np.bincount(codes, minlength=num_groups)
        return Column(result, name=how)
    if values is None:
        raise QueryError(f"grouped_reduce(): aggregate {how!r} needs values")
    if codes.size != len(values):
        raise QueryError("grouped_reduce(): codes and values must have equal length")
    data = values.values
    if how == "sum":
        if np.issubdtype(data.dtype, np.integer):
            # bincount's float64 weights lose integer precision above 2^53;
            # accumulate in the value's own integer family instead.
            accumulator = np.uint64 if np.issubdtype(data.dtype, np.unsignedinteger) \
                else np.int64
            result = np.zeros(num_groups, dtype=accumulator)
            np.add.at(result, codes, data.astype(accumulator))
        else:
            result = np.bincount(codes, weights=data.astype(np.float64),
                                 minlength=num_groups)
    elif how == "mean":
        sums = np.bincount(codes, weights=data.astype(np.float64),
                           minlength=num_groups)
        counts = np.bincount(codes, minlength=num_groups)
        result = sums / np.maximum(counts, 1)
    else:
        fill = minmax_identity(data.dtype, how)
        result = np.full(num_groups, fill, dtype=data.dtype)
        ufunc = np.minimum if how == "min" else np.maximum
        ufunc.at(result, codes, data)
    return Column(result, name=how)


def minmax_identity(dtype: np.dtype, how: str):
    """The identity element of per-group ``min``/``max`` for *dtype* (the
    fill value a group that no row touches keeps)."""
    if dtype == np.bool_:
        return how == "min"  # identity of AND for min, of OR for max
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return info.max if how == "min" else info.min
    return np.inf if how == "min" else -np.inf


def group_by_aggregate(keys: Column, values: Column, how: str = "sum"
                       ) -> Dict[str, Column]:
    """Group *values* by *keys* and aggregate each group.

    Returns ``{"key": ..., "aggregate": ...}`` columns sorted by key.  The
    implementation is the textbook sort-free NumPy one: factorise the keys
    with ``np.unique``, then reduce through :func:`grouped_reduce`.
    """
    if len(keys) != len(values):
        raise QueryError("group_by_aggregate(): keys and values must have equal length")
    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    unique_keys, codes = np.unique(keys.values, return_inverse=True)
    aggregate_column = grouped_reduce(codes, unique_keys.size, values, how)
    return {"key": Column(unique_keys, name="key"),
            "aggregate": aggregate_column}


# --------------------------------------------------------------------------- #
# Compressed-input gathers and aggregates
# --------------------------------------------------------------------------- #

def _iter_chunk_hits(stored, positions: np.ndarray):
    """Yield ``(chunk, local_positions, (start, stop))`` for every chunk of
    *stored* hit by the sorted global *positions* (one ``searchsorted`` pair
    per chunk; untouched chunks are skipped entirely)."""
    for chunk in stored.chunks:
        start, stop = np.searchsorted(
            positions, [chunk.row_offset, chunk.row_offset + chunk.row_count])
        if start == stop:
            continue
        yield chunk, positions[start:stop] - chunk.row_offset, (int(start), int(stop))


def gather_stored(stored, positions: np.ndarray
                  ) -> Tuple[np.ndarray, ScanStats]:
    """Materialise *stored* at sorted global *positions*, compressed where able.

    The compressed-aware sibling of :func:`repro.engine.scan.gather_rows`:
    chunks whose forms advertise the gather kernel are read positionally in
    the compressed domain (:func:`repro.engine.kernels.gather`) and are
    never decompressed; the rest decompress and fancy-index.  Results are
    bit-identical either way.  Returns the values plus a :class:`ScanStats`
    carrying the compressed-execution accounting.
    """
    from . import kernels

    stats = ScanStats()
    out = np.empty(positions.size, dtype=stored.dtype)
    for chunk, local, (start, stop) in _iter_chunk_hits(stored, positions):
        values = kernels.gather(chunk.scheme, chunk.form, local)
        if values is not None:
            stats.rows_computed_compressed += local.size
            stats.bytes_decompressed_saved += chunk.uncompressed_size_bytes()
        else:
            stats.chunks_decompressed += 1
            values = chunk.decompress().values[local]
        out[start:stop] = values
    return out, stats


def aggregate_stored(stored, positions: np.ndarray, how: str
                     ) -> Tuple[Any, ScanStats]:
    """A scalar aggregate over *stored* at sorted *positions*, compressed
    where the chunk forms allow.

    Bit-identical to materialising the selection and calling
    :func:`aggregate`: integer sums accumulate per chunk in the same
    int64/uint64 family (chunked accumulation is exact modulo 2**64, like
    NumPy's own), min/max combine per-chunk partials in the value dtype, and
    chunks fully covered by the selection use the whole-form kernels
    (:func:`repro.engine.kernels.aggregate_whole`) so e.g. an RLE chunk sums
    as ``values·lengths`` without expansion.  ``mean`` and float sums fall
    back to one materialised-selection pass to preserve NumPy's summation
    order exactly.
    """
    from . import kernels

    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    if how == "count":
        return int(positions.size), ScanStats()
    if positions.size == 0:
        raise QueryError(f"aggregate {how!r} over zero rows")
    if how == "mean" or (how == "sum"
                         and not np.issubdtype(stored.dtype, np.integer)):
        values, stats = gather_stored(stored, positions)
        return aggregate(Column(values), how), stats

    total, stats = aggregate_stored_partial(stored, positions, how)
    assert total is not None  # positions.size > 0 was checked above
    return int(total) if how == "sum" else total.item(), stats


def aggregate_stored_partial(stored, positions: np.ndarray, how: str
                             ) -> Tuple[Optional[Any], ScanStats]:
    """The raw mergeable partial of a sum/min/max over *stored* at sorted
    *positions* — a NumPy scalar (or ``None`` for an empty selection), not
    yet finalised to a Python value.

    This is the per-chunk combine loop of :func:`aggregate_stored`, exposed
    so the process backend can compute one partial per chunk range and merge
    them associatively (:class:`ScalarAggState`): integer sums wrap exactly
    like chunked int64/uint64 accumulation (mod 2**64), min/max combine in
    the value dtype.  Only ``sum`` over integer columns, ``min`` and ``max``
    are partial-mergeable — float sums and ``mean`` depend on summation
    order and must materialise in one pass.
    """
    from . import kernels

    if how not in ("sum", "min", "max"):
        raise QueryError(f"aggregate {how!r} has no mergeable partial state")
    if how == "sum" and not np.issubdtype(stored.dtype, np.integer):
        raise QueryError("float sums depend on summation order and have no "
                         "mergeable partial state")
    stats = ScanStats()
    if positions.size == 0:
        return None, stats
    partials = []
    for chunk, local, __ in _iter_chunk_hits(stored, positions):
        if local.size == chunk.row_count:
            partial = kernels.aggregate_whole(chunk.scheme, chunk.form, how)
            if partial is not None:
                stats.rows_computed_compressed += local.size
                stats.bytes_decompressed_saved += chunk.uncompressed_size_bytes()
                partials.append(partial)
                continue
        values = kernels.gather(chunk.scheme, chunk.form, local)
        if values is not None:
            stats.rows_computed_compressed += local.size
            stats.bytes_decompressed_saved += chunk.uncompressed_size_bytes()
        else:
            stats.chunks_decompressed += 1
            values = chunk.decompress().values[local]
        if how == "sum":
            accumulator = np.uint64 if np.issubdtype(values.dtype, np.unsignedinteger) \
                else np.int64
            partials.append(values.sum(dtype=accumulator))
        elif how == "min":
            partials.append(values.min())
        else:
            partials.append(values.max())

    combine = _COMBINE_UFUNC[how]
    total = partials[0]
    for partial in partials[1:]:
        total = combine(total, partial)
    return total, stats


# --------------------------------------------------------------------------- #
# Mergeable aggregate states (partial-aggregate execution)
# --------------------------------------------------------------------------- #

_COMBINE_UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum}


@dataclass
class ScalarAggState:
    """A mergeable partial of one scalar aggregate.

    Worker processes compute one state per chunk range; the coordinator
    merges them (associative and order-insensitive for every supported op:
    integer sums are exact mod 2**64, min/max are lattice joins, count is a
    plain sum) and finalises once.  ``partial is None`` means the range
    selected no rows; :meth:`finalize` raises the same
    :class:`~repro.errors.QueryError` the serial path raises for an
    all-empty selection.
    """

    op: str
    rows: int = 0
    partial: Optional[Any] = None  # a NumPy scalar, or None when no rows yet

    def merge(self, other: "ScalarAggState") -> None:
        if self.op != other.op:
            raise QueryError(f"cannot merge {other.op!r} state into "
                             f"{self.op!r} state")
        self.rows += other.rows
        if other.partial is not None:
            if self.partial is None:
                self.partial = other.partial
            else:
                self.partial = _COMBINE_UFUNC[self.op](self.partial,
                                                       other.partial)

    def finalize(self) -> Any:
        """The finished aggregate value, matching :func:`aggregate_stored`."""
        if self.op == "count":
            return int(self.rows)
        if self.partial is None:
            raise QueryError(f"aggregate {self.op!r} over zero rows")
        if self.op == "sum":
            return int(self.partial)
        return self.partial.item() if hasattr(self.partial, "item") \
            else self.partial


@dataclass
class GroupedAggState:
    """A mergeable partial of a single-key grouped aggregation.

    *keys* holds the sorted distinct key values this partial saw;
    *aggregates* maps output names to ``(op, per-group array)`` aligned with
    *keys*.  Merging unions the key dictionaries (sorted, exactly like the
    per-chunk dictionary merge in :func:`group_codes_stored`) and combines
    the per-group arrays: sums/counts add (exact for the integer
    accumulators the grouped kernels produce), min/max join against the
    dtype identity fill — so the merged result is bit-identical to grouping
    the whole selection at once, for every op this state supports.
    """

    keys: np.ndarray
    rows: int
    aggregates: Dict[str, Tuple[str, np.ndarray]]

    def merge(self, other: "GroupedAggState") -> None:
        if list(self.aggregates) != list(other.aggregates):
            raise QueryError("cannot merge grouped states with different "
                             "aggregate layouts")
        merged = np.union1d(self.keys, other.keys)
        remap_self = np.searchsorted(merged, self.keys)
        remap_other = np.searchsorted(merged, other.keys)
        combined: Dict[str, Tuple[str, np.ndarray]] = {}
        for name, (op, mine) in self.aggregates.items():
            theirs = other.aggregates[name][1]
            if op in ("sum", "count"):
                out = np.zeros(merged.size, dtype=mine.dtype)
                out[remap_self] += mine
                out[remap_other] += theirs
            else:
                ufunc = np.minimum if op == "min" else np.maximum
                fill = minmax_identity(mine.dtype, op)
                out = np.full(merged.size, fill, dtype=mine.dtype)
                out[remap_self] = ufunc(out[remap_self], mine)
                out[remap_other] = ufunc(out[remap_other], theirs)
            combined[name] = (op, out)
        self.keys = merged
        self.rows += other.rows
        self.aggregates = combined


def merge_states(states: Sequence[Any]) -> Any:
    """Fold a non-empty sequence of per-range states (scalar dicts or
    grouped states, as produced by the process workers) into one."""
    if not states:
        raise QueryError("merge_states() needs at least one partial state")
    first = states[0]
    if isinstance(first, dict):  # {output name: ScalarAggState}
        merged: Dict[str, ScalarAggState] = {
            name: ScalarAggState(op=state.op, rows=state.rows,
                                 partial=state.partial)
            for name, state in first.items()}
        for partial in states[1:]:
            for name, state in partial.items():
                merged[name].merge(state)
        return merged
    merged_grouped = GroupedAggState(keys=first.keys, rows=first.rows,
                                     aggregates=dict(first.aggregates))
    for partial in states[1:]:
        merged_grouped.merge(partial)
    return merged_grouped


def group_codes_stored(stored, positions: np.ndarray
                       ) -> Optional[Tuple[np.ndarray, np.ndarray, ScanStats]]:
    """Factorise *stored* at sorted *positions* into group codes, using the
    chunks' dictionary codes instead of sorting the selected values.

    Returns ``(unique_values, codes, stats)`` exactly matching
    ``np.unique(selection, return_inverse=True)`` — sorted distinct values
    actually present in the selection, codes indexing them — or ``None``
    when no chunk advertises the group-codes kernel (the caller should then
    factorise materialised values as usual).  Chunks without the kernel
    contribute through a per-chunk ``np.unique`` fallback, and the small
    per-chunk dictionaries are merged instead of sorting all selected rows.
    """
    from . import kernels
    from ..schemes.base import KERNEL_GROUP_CODES

    stats = ScanStats()
    if positions.size == 0:
        return (np.empty(0, dtype=stored.dtype),
                np.empty(0, dtype=np.int64), stats)
    hits = list(_iter_chunk_hits(stored, positions))
    if not any(kernels.supports(chunk.scheme, chunk.form, KERNEL_GROUP_CODES)
               for chunk, __, __ in hits):
        return None

    per_chunk = []
    for chunk, local, span in hits:
        coded = kernels.group_codes(
            chunk.scheme, chunk.form,
            None if local.size == chunk.row_count else local)
        if coded is None:
            stats.chunks_decompressed += 1
            values = chunk.decompress().values[local]
            groups, codes = np.unique(values, return_inverse=True)
            coded = (codes.reshape(-1).astype(np.int64), groups)
        else:
            stats.rows_computed_compressed += local.size
            stats.bytes_decompressed_saved += chunk.uncompressed_size_bytes()
        per_chunk.append((span, coded[0], coded[1]))

    merged = np.unique(np.concatenate([groups for __, __, groups in per_chunk]))
    codes_out = np.empty(positions.size, dtype=np.int64)
    for (start, stop), codes, groups in per_chunk:
        remap = np.searchsorted(merged, groups)
        codes_out[start:stop] = remap[codes]
    counts = np.bincount(codes_out, minlength=merged.size)
    present = counts > 0
    if not present.all():
        # Dictionary entries (or other chunks' values) absent from the
        # selection must not surface as empty groups — np.unique would not
        # report them.
        relabel = np.cumsum(present, dtype=np.int64) - 1
        codes_out = relabel[codes_out]
        merged = merged[present]
    return merged, codes_out, stats


# --------------------------------------------------------------------------- #
# Hash join
# --------------------------------------------------------------------------- #

def hash_join(left_keys: Column, right_keys: Column
              ) -> Tuple[Column, Column]:
    """Inner equi-join of two key columns.

    Returns matching position pairs ``(left_positions, right_positions)``.
    The build side is the right input; the probe uses ``searchsorted`` over
    the sorted build keys, which is the NumPy-friendly stand-in for a hash
    table and preserves the relevant behaviour (one probe per left row).
    """
    right = right_keys.values
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    left = left_keys.values

    start = np.searchsorted(sorted_right, left, side="left")
    stop = np.searchsorted(sorted_right, left, side="right")
    counts = stop - start
    if counts.sum(dtype=np.int64) == 0:
        empty = Column(np.empty(0, dtype=np.int64))
        return empty, empty

    left_positions = np.repeat(np.arange(left.size, dtype=np.int64), counts)
    # For every match, the offset within its run of equal right keys.
    within = np.arange(counts.sum(dtype=np.int64), dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(counts, dtype=np.int64)[:-1])), counts)
    right_positions = order[np.repeat(start, counts) + within]
    return Column(left_positions), Column(right_positions.astype(np.int64))
