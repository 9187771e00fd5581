"""Predicate evaluation directly on compressed forms.

This module is the executable version of the paper's "why it matters":
because compressed forms are just columns, and because model+residual
schemes expose a coarse view of the data, many predicates can be evaluated
(wholly or partly) *without decompressing*:

* **RLE / RPE** — evaluate the predicate once per *run* over the (short)
  values column, then expand the per-run verdicts to rows; an aggregation
  over qualifying rows can even stay in the run domain (experiment E10).
* **FOR / PFOR / STEPFUNCTION** — the per-segment references bound every
  value in the segment, so a range predicate can accept or reject whole
  segments and only the remaining "straddling" segments need their offsets
  decoded (experiment E9).
* **DICT** — an order-preserving dictionary turns a value range into a code
  range, so the predicate runs on the narrow codes.

Every function returns both the result and a :class:`PushdownStats` so the
benchmarks can report how much work was avoided.  Choosing the function for
a chunk's form is :func:`repro.engine.kernels.filter_range`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.ops import bitpack as _bitpack
from ..errors import QueryError
from ..model.fitting import segment_index
from ..schemes import _residuals
from ..schemes.base import CompressedForm
from ..schemes.dict_ import DictionaryEncoding
from .predicates import RangeBounds


@dataclass
class PushdownStats:
    """Accounting of how much data a pushdown evaluation actually touched."""

    rows_total: int = 0
    rows_decoded: int = 0
    segments_total: int = 0
    segments_skipped: int = 0
    segments_accepted: int = 0
    runs_total: int = 0

    @property
    def decode_fraction(self) -> float:
        """Fraction of rows whose fine-grained (offset/value) data was decoded."""
        return self.rows_decoded / self.rows_total if self.rows_total else 0.0


# --------------------------------------------------------------------------- #
# RLE / RPE: run-domain evaluation
# --------------------------------------------------------------------------- #

def _require_run_form(form: CompressedForm) -> None:
    if form.scheme not in ("RLE", "RPE"):
        raise QueryError(
            f"run-domain pushdown expects an RLE or RPE form, got {form.scheme!r}"
        )


def _run_lengths_of_form(form: CompressedForm) -> np.ndarray:
    """Per-run lengths of an RLE/RPE form as int64, memoised on the form."""
    def compute() -> np.ndarray:
        if form.scheme == "RLE":
            return form.constituent("lengths").values.astype(np.int64)
        if form.scheme == "RPE":
            positions = form.constituent("run_positions").values.astype(np.int64)
            lengths = np.empty(len(positions), dtype=np.int64)
            if len(positions):
                lengths[0] = positions[0]
                np.subtract(positions[1:], positions[:-1], out=lengths[1:])
            return lengths
        raise QueryError(
            f"run-domain pushdown expects an RLE or RPE form, got {form.scheme!r}")

    _require_run_form(form)
    return form.cached(("run_lengths",), compute)


def run_positions_of(form: CompressedForm) -> np.ndarray:
    """Run *end* positions of an RLE/RPE form, as int64 (memoised on the form).

    RPE stores them directly.  For RLE they are obtained by executing the
    compiled truncation of Algorithm 1 at its first binding
    (``run_positions``) — partial evaluation through the plan executor, the
    executable form of "RLE converts to RPE by one prefix sum".  The result
    is cached on the form, so a multi-conjunct scan (or a filter followed by
    a compressed-domain gather) pays for the prefix sum at most once.
    """
    _require_run_form(form)

    def compute() -> np.ndarray:
        if form.scheme == "RPE":
            return form.constituent("run_positions").values.astype(np.int64)
        from ..columnar.compile import compiled_partial_plan
        from ..schemes.rle import build_rle_decompression_plan

        compiled = compiled_partial_plan(build_rle_decompression_plan(),
                                         "run_positions")
        positions = compiled.run({"lengths": form.constituent("lengths"),
                                  "values": form.constituent("values")})
        return positions.values.astype(np.int64)

    return form.cached(("run_end_positions",), compute)


def point_lookup_on_runs(form: CompressedForm, row: int
                         ) -> Tuple[int, PushdownStats]:
    """``column[row]`` on an RLE/RPE form without decompressing.

    One binary search over the run end positions decides which run covers
    *row*; only that run's value is read.  For RLE the positions come from
    the compiled partial plan (see :func:`run_positions_of`).
    """
    _require_run_form(form)
    if not 0 <= row < form.original_length:
        raise QueryError(
            f"point lookup at row {row} is out of range [0, {form.original_length})"
        )
    positions = run_positions_of(form)
    run = int(np.searchsorted(positions, row, side="right"))
    value = int(form.constituent("values")[run])
    stats = PushdownStats(rows_total=form.original_length, rows_decoded=1,
                          runs_total=len(positions))
    return value, stats


def range_mask_on_runs(form: CompressedForm, bounds: RangeBounds
                       ) -> Tuple[Column, PushdownStats]:
    """Evaluate a range predicate on an RLE/RPE form, returning a row mask.

    The predicate is evaluated once per run (on the short ``values`` column)
    and the verdicts are expanded to rows — the per-element work is a single
    ``repeat`` regardless of how selective the predicate is.
    """
    _require_run_form(form)
    values = form.constituent("values").values
    lengths = _run_lengths_of_form(form)
    run_mask = (values >= bounds.low) & (values <= bounds.high)
    row_mask = np.repeat(run_mask, lengths)
    stats = PushdownStats(
        rows_total=form.original_length,
        rows_decoded=0,
        runs_total=len(values),
    )
    return Column(row_mask), stats


def count_in_range_on_runs(form: CompressedForm, bounds: RangeBounds
                           ) -> Tuple[int, PushdownStats]:
    """COUNT(*) WHERE lo <= col <= hi, computed entirely in the run domain."""
    _require_run_form(form)
    values = form.constituent("values").values
    lengths = _run_lengths_of_form(form)
    run_mask = (values >= bounds.low) & (values <= bounds.high)
    stats = PushdownStats(rows_total=form.original_length, rows_decoded=0,
                          runs_total=len(values))
    return int(lengths[run_mask].sum(dtype=np.int64)), stats


def sum_in_range_on_runs(form: CompressedForm, bounds: RangeBounds
                         ) -> Tuple[int, PushdownStats]:
    """SUM(col) WHERE lo <= col <= hi, computed entirely in the run domain.

    Each qualifying run contributes ``value * length`` — the aggregation never
    leaves the run domain, which is the paper's "no clear distinction between
    decompression and query execution" taken to its conclusion.
    """
    _require_run_form(form)
    values = form.constituent("values").values.astype(np.int64)
    lengths = _run_lengths_of_form(form)
    run_mask = (values >= bounds.low) & (values <= bounds.high)
    stats = PushdownStats(rows_total=form.original_length, rows_decoded=0,
                          runs_total=len(values))
    return int((values[run_mask] * lengths[run_mask]).sum(dtype=np.int64)), stats


# --------------------------------------------------------------------------- #
# FOR / PFOR / STEPFUNCTION: segment-domain evaluation
# --------------------------------------------------------------------------- #

def range_mask_on_for(form: CompressedForm, bounds: RangeBounds
                      ) -> Tuple[Column, PushdownStats]:
    """Evaluate a range predicate on a FOR-family form with segment skipping.

    Segments whose value bounds fall entirely outside the predicate range are
    rejected wholesale; segments entirely inside are accepted wholesale; only
    the remaining segments have their offsets decoded and compared.  For
    PFOR, patches are re-applied to the decoded values before comparison so
    the mask is exact.
    """
    if form.scheme not in ("FOR", "PFOR", "STEPFUNCTION"):
        raise QueryError(f"segment pushdown expects FOR/PFOR/STEPFUNCTION, got {form.scheme!r}")
    from .translate import classify_segments

    n = form.original_length
    segment_length = int(form.parameter("segment_length"))
    refs = form.constituent("refs").values.astype(np.int64)
    accept, reject, inspect = classify_segments(form, bounds)

    seg_of_row = segment_index(n, segment_length)
    mask = accept[seg_of_row].copy()

    stats = PushdownStats(
        rows_total=n,
        segments_total=len(refs),
        segments_skipped=int(reject.sum(dtype=np.int64)),
        segments_accepted=int(accept.sum(dtype=np.int64)),
    )

    if inspect.any() and form.scheme != "STEPFUNCTION":
        rows_to_inspect = inspect[seg_of_row]
        stats.rows_decoded = int(rows_to_inspect.sum(dtype=np.int64))
        if stats.rows_decoded * 4 <= n:
            # Sparse straddle: decode only the inspected rows' offsets (a
            # positional gather into the packed stream) instead of the whole
            # constituent.
            inspect_positions = np.flatnonzero(rows_to_inspect)
            offsets_at = _residuals.decode_residuals_at(
                form.constituent("offsets"), form.parameters, inspect_positions)
            reconstructed = refs[seg_of_row[inspect_positions]] + offsets_at
            mask[inspect_positions] = ((reconstructed >= bounds.low)
                                       & (reconstructed <= bounds.high))
        else:
            offsets = _residuals.decode_residuals(form.constituent("offsets"),
                                                  form.parameters)
            reconstructed = refs[seg_of_row[rows_to_inspect]] + offsets[rows_to_inspect]
            mask[rows_to_inspect] = ((reconstructed >= bounds.low)
                                     & (reconstructed <= bounds.high))
    elif inspect.any():
        # A pure model has no offsets to consult: inspecting means the model
        # alone cannot decide those rows exactly.  Be conservative (reject) —
        # callers doing approximate processing can use the accept/skip counts.
        stats.rows_decoded = 0

    if form.scheme == "PFOR":
        # Patched rows carry their true value outside the offsets, so the
        # segment-bound reasoning above does not apply to them (a patch may
        # qualify inside a rejected segment or disqualify inside an accepted
        # one).  There are few patches by construction; decide them exactly.
        positions = form.constituent("patch_positions").values
        if positions.size:
            patch_values = form.constituent("patch_values").values.astype(np.int64)
            mask[positions] = ((patch_values >= bounds.low)
                               & (patch_values <= bounds.high))
    return Column(mask), stats


# --------------------------------------------------------------------------- #
# DICT: code-domain evaluation
# --------------------------------------------------------------------------- #

def range_mask_on_dict(form: CompressedForm, bounds: RangeBounds
                       ) -> Tuple[Column, PushdownStats]:
    """Evaluate a range predicate on a DICT form by rewriting it onto codes.

    The value range translates to a code range through the sorted dictionary
    (two binary searches); packed code columns are then compared
    word-parallel on the packed uint64 words — BitWeaving-style masking via
    :func:`repro.columnar.ops.bitpack.packed_compare_range` — without
    unpacking a single code.  ``rows_decoded`` reports how many codes had to
    be individually decoded: zero on the word-parallel and trivial paths.
    """
    if form.scheme != "DICT":
        raise QueryError(f"dictionary pushdown expects a DICT form, got {form.scheme!r}")
    n = form.original_length
    lo_code, hi_code = DictionaryEncoding.rewrite_range_to_codes(
        form, bounds.low, bounds.high
    )
    stats = PushdownStats(rows_total=n, rows_decoded=0)
    dictionary_size = int(form.parameter("dictionary_size", 0))
    if lo_code >= hi_code:
        return Column(np.zeros(n, dtype=bool)), stats
    if lo_code == 0 and hi_code >= dictionary_size:
        return Column(np.ones(n, dtype=bool)), stats
    if form.parameter("codes_layout") == "packed":
        width = int(form.parameter("code_width"))
        count = int(form.parameter("count"))
        hi_inclusive = min(hi_code - 1, (1 << width) - 1)
        mask = _bitpack.packed_compare_range(
            form.constituent("codes"), width=width, count=count,
            lo=lo_code, hi=hi_inclusive,
        )
    else:
        codes = form.constituent("codes").values
        mask = (codes >= lo_code) & (codes < hi_code)
    return Column(mask), stats


# --------------------------------------------------------------------------- #
# NS: stored-domain (word-parallel) evaluation
# --------------------------------------------------------------------------- #

def range_mask_on_ns(form: CompressedForm, bounds: RangeBounds
                     ) -> Optional[Tuple[Column, PushdownStats]]:
    """Evaluate a range predicate on an NS form in its stored unsigned domain.

    The ``none`` and ``bias`` transforms are order-preserving shifts, so the
    bounds translate into the stored domain
    (:func:`repro.engine.translate.translate_range_to_stored`) and the
    comparison runs word-parallel against the packed words without
    unpacking.  Zig-zag-transformed forms are not order-preserving; for them
    this returns ``None``.
    """
    from . import translate

    if form.scheme != "NS":
        raise QueryError(f"NS pushdown expects an NS form, got {form.scheme!r}")
    translated = translate.translate_range_to_stored(form, bounds)
    if translated is None:
        return None
    n = form.original_length
    stats = PushdownStats(rows_total=n, rows_decoded=0)
    if translated == translate.EMPTY:
        return Column(np.zeros(n, dtype=bool)), stats
    lo, hi = translated
    if form.parameter("mode") == "packed":
        mask = _bitpack.packed_compare_range(
            form.constituent("packed"), width=int(form.parameter("width")),
            count=int(form.parameter("count")), lo=lo, hi=hi,
        )
    else:
        values = form.constituent("values").values
        mask = (values >= np.uint64(lo)) & (values <= np.uint64(hi))
    return Column(mask), stats
