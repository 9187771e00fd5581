"""Tests for the chunk-parallel scan scheduler (repro.engine.scan)."""

import numpy as np
import pytest

from repro.api import col, count, dataset
from repro.columnar import Column
from repro.engine import Between, filter_table, scan_table
from repro.engine.scan import gather_rows
from repro.errors import QueryError
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.storage import Table


@pytest.fixture(scope="module")
def plain_data():
    rng = np.random.default_rng(71)
    n = 16_384
    return {
        "date": np.sort(rng.integers(0, 400, n)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-3, 4, n)) + 5_000).astype(np.int64),
        "qty": rng.integers(1, 50, n).astype(np.int64),
        "cat": rng.integers(0, 40, n).astype(np.int64),
    }


@pytest.fixture(scope="module")
def table(plain_data):
    return Table.from_pydict(
        plain_data,
        schemes={
            "date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=128),
            "qty": NullSuppression(),
            "cat": DictionaryEncoding(),
        },
        chunk_size=1024,
    )


def reference_positions(plain_data, predicates):
    mask = np.ones(len(next(iter(plain_data.values()))), dtype=bool)
    for name, lo, hi in predicates:
        mask &= (plain_data[name] >= lo) & (plain_data[name] <= hi)
    return np.flatnonzero(mask)


CONJUNCTION = [("date", 50, 320), ("price", 4_900, 5_250), ("qty", 5, 40)]


def build_predicates(spec):
    return [Between(name, lo, hi) for name, lo, hi in spec]


class TestConjunctionScan:
    def test_matches_reference(self, table, plain_data):
        result = scan_table(table, build_predicates(CONJUNCTION))
        expected = reference_positions(plain_data, CONJUNCTION)
        assert np.array_equal(result.selection.positions.values, expected)
        assert result.stats.rows_selected == expected.size

    def test_matches_seed_semantics(self, table, plain_data):
        """The scheduler equals the seed path: one filter_table pass per
        predicate, globally intersected."""
        combined = None
        for predicate in build_predicates(CONJUNCTION):
            selection, __ = filter_table(table, predicate)
            positions = selection.positions.values
            combined = positions if combined is None else np.intersect1d(
                combined, positions, assume_unique=True)
        result = scan_table(table, build_predicates(CONJUNCTION))
        assert np.array_equal(result.selection.positions.values, combined)

    def test_parallel_bit_identical(self, table):
        serial = scan_table(table, build_predicates(CONJUNCTION),
                            materialize=["price", "qty"])
        parallel = scan_table(table, build_predicates(CONJUNCTION),
                              materialize=["price", "qty"], parallelism=4)
        assert np.array_equal(serial.selection.positions.values,
                              parallel.selection.positions.values)
        for name in ("price", "qty"):
            assert serial.columns[name].dtype == parallel.columns[name].dtype
            assert np.array_equal(serial.columns[name].values,
                                  parallel.columns[name].values)
        assert serial.stats.rows_selected == parallel.stats.rows_selected
        assert serial.stats.chunks_total == parallel.stats.chunks_total

    def test_single_pass_materialisation(self, table, plain_data):
        result = scan_table(table, build_predicates(CONJUNCTION),
                            materialize=["cat", "price"])
        expected = reference_positions(plain_data, CONJUNCTION)
        assert np.array_equal(result.columns["cat"].values,
                              plain_data["cat"][expected])
        assert np.array_equal(result.columns["price"].values,
                              plain_data["price"][expected])

    def test_no_predicates_returns_all_rows(self, table, plain_data):
        result = scan_table(table, [], materialize=["qty"])
        assert len(result.selection) == table.row_count
        assert result.stats is None
        assert np.array_equal(result.columns["qty"].values, plain_data["qty"])

    def test_unknown_materialize_column_rejected(self, table):
        with pytest.raises(QueryError):
            scan_table(table, [Between("date", 0, 10)], materialize=["nope"])


class TestMergedStats:
    def test_stats_cover_all_conjuncts(self, table):
        """Regression: the seed kept only the first predicate's ScanStats;
        the scheduler's counters must cover every conjunct."""
        spec = [("date", 0, 400), ("price", 0, 10_000)]  # nothing short-circuits
        merged = scan_table(table, build_predicates(spec),
                            use_zone_maps=False).stats
        singles = [scan_table(table, [predicate], use_zone_maps=False).stats
                   for predicate in build_predicates(spec)]
        assert merged.predicates_total == 2
        assert merged.chunks_total == sum(s.chunks_total for s in singles)
        assert merged.rows_scanned == sum(s.rows_scanned for s in singles)
        assert merged.chunks_pushed_down == sum(s.chunks_pushed_down for s in singles)
        assert merged.chunks_decompressed == sum(s.chunks_decompressed for s in singles)
        # pushdown counters from *both* columns (RLE runs and FOR segments)
        assert merged.pushdown.runs_total == sum(s.pushdown.runs_total for s in singles)
        assert merged.pushdown.segments_total == sum(
            s.pushdown.segments_total for s in singles)
        assert merged.pushdown.segments_total > 0 and merged.pushdown.runs_total > 0

    def test_query_reports_merged_stats(self, table):
        result = (dataset(table)
                  .filter(col("date").between(50, 320))
                  .filter(col("price").between(4_900, 5_250))
                  .agg(count())
                  .collect())
        assert result.scan_stats.predicates_total == 2
        assert result.scan_stats.chunks_total == 2 * table.column("date").num_chunks


class TestSharedDecompression:
    def test_one_decompression_pass_per_chunk(self, table, plain_data):
        """Three conjuncts over the same column decompress each chunk once."""
        spec = [("qty", 5, 45), ("qty", 1, 40), ("qty", 3, 44)]
        result = scan_table(table, build_predicates(spec),
                            use_pushdown=False, use_zone_maps=False)
        num_chunks = table.column("qty").num_chunks
        assert result.stats.chunks_total == 3 * num_chunks
        assert result.stats.chunks_decompressed == num_chunks
        expected = reference_positions(plain_data, spec)
        assert np.array_equal(result.selection.positions.values, expected)

    def test_materialisation_reuses_predicate_decompression(self, table):
        """Projecting the filtered column costs no extra decompression."""
        bare = scan_table(table, [Between("qty", 5, 40)],
                          use_pushdown=False, use_zone_maps=False)
        fused = scan_table(table, [Between("qty", 5, 40)],
                           use_pushdown=False, use_zone_maps=False,
                           materialize=["qty"])
        assert fused.stats.chunks_decompressed == bare.stats.chunks_decompressed


class TestShortCircuit:
    def test_empty_selection_short_circuits_later_conjuncts(self, table):
        spec = [("date", 10_000, 20_000), ("price", 0, 10_000), ("qty", 0, 100)]
        result = scan_table(table, build_predicates(spec),
                            use_pushdown=False, use_zone_maps=False)
        num_chunks = table.column("date").num_chunks
        assert len(result.selection) == 0
        # the two later conjuncts were never evaluated anywhere
        assert result.stats.chunks_short_circuited == 2 * num_chunks
        # only the first column was ever decompressed
        assert result.stats.chunks_decompressed == num_chunks

    def test_zone_map_rejection_short_circuits_for_free(self, table):
        """With zone maps on, an impossible range needs no decompression at
        all, and later conjuncts still short-circuit."""
        spec = [("date", 10_000, 20_000), ("price", 0, 10_000)]
        result = scan_table(table, build_predicates(spec))
        assert len(result.selection) == 0
        assert result.stats.chunks_decompressed == 0
        assert result.stats.chunks_skipped == table.column("date").num_chunks
        assert result.stats.chunks_short_circuited == table.column("price").num_chunks


class TestEveryRegisteredScheme:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_parallel_serial_seed_agree(self, scheme_name):
        scheme = make_scheme(scheme_name)
        if not scheme.is_lossless:
            pytest.skip(f"{scheme_name} is lossy; exact selection undefined")
        rng = np.random.default_rng(5)
        values = np.repeat(rng.integers(0, 200, 1_024), 4)[:4_096].astype(np.int64)
        table = Table.from_pydict({"v": values}, schemes={"v": scheme},
                                  chunk_size=512)
        spec = [("v", 20, 180), ("v", 40, 190), ("v", 10, 170)]
        reference = np.flatnonzero((values >= 40) & (values <= 170))

        serial = scan_table(table, build_predicates(spec))
        parallel = scan_table(table, build_predicates(spec), parallelism=4)
        plain = scan_table(table, build_predicates(spec),
                           use_pushdown=False, use_zone_maps=False)
        assert np.array_equal(serial.selection.positions.values, reference)
        assert np.array_equal(parallel.selection.positions.values, reference)
        assert np.array_equal(plain.selection.positions.values, reference)


class TestQueryParallelism:
    def test_with_parallelism_bit_identical(self, table):
        query = (dataset(table)
                 .filter(col("date").between(50, 320))
                 .filter(col("price").between(4_900, 5_250))
                 .filter(col("qty").between(5, 40))
                 .select("date", "price", "qty", "cat"))

        serial = query.collect()
        parallel = query.with_parallelism(4).collect()
        assert serial.row_count == parallel.row_count
        for name in ("date", "price", "qty", "cat"):
            assert np.array_equal(serial.columns[name].values,
                                  parallel.columns[name].values)
            assert serial.columns[name].dtype == parallel.columns[name].dtype

    def test_group_by_parallel(self, table, plain_data):
        query = (dataset(table).filter(col("date").between(50, 320))
                 .group_by("cat").agg(col("qty").sum()))
        serial = query.collect()
        parallel = query.with_parallelism(4).collect()
        assert np.array_equal(serial.columns["cat"].values,
                              parallel.columns["cat"].values)
        assert np.array_equal(serial.columns["sum(qty)"].values,
                              parallel.columns["sum(qty)"].values)

    def test_invalid_parallelism_rejected(self, table):
        with pytest.raises(QueryError):
            dataset(table).with_parallelism(0)


class TestAcceptanceScenario:
    """The PR's acceptance scenario: a 3-predicate Between conjunction over a
    1M-row multi-chunk table does at most one decompression pass per chunk,
    reports merged stats for all predicates, and with_parallelism(4) is
    bit-identical to the serial path."""

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        data = {
            "a": rng.integers(0, 1 << 16, n).astype(np.int64),
            "b": rng.integers(0, 1 << 12, n).astype(np.int64),
            "c": rng.integers(0, 1 << 8, n).astype(np.int64),
        }
        table = Table.from_pydict(
            data,
            schemes={name: NullSuppression() for name in data},
            chunk_size=65_536,
        )
        return data, table

    def test_one_pass_merged_stats_parallel_identical(self, big):
        data, table = big
        spec = [("a", 1_000, 60_000), ("b", 100, 3_800), ("c", 10, 240)]
        predicates = build_predicates(spec)
        num_chunks = table.column("a").num_chunks
        assert num_chunks > 1  # genuinely multi-chunk

        serial = scan_table(table, predicates, materialize=["b"])
        # merged stats cover all three conjuncts ...
        assert serial.stats.predicates_total == 3
        assert serial.stats.chunks_total == 3 * num_chunks
        # ... and each (column, chunk) pair is decompressed at most once.
        assert serial.stats.chunks_decompressed <= 3 * num_chunks

        expected = reference_positions(data, spec)
        assert np.array_equal(serial.selection.positions.values, expected)

        parallel = scan_table(table, predicates, materialize=["b"], parallelism=4)
        assert np.array_equal(serial.selection.positions.values,
                              parallel.selection.positions.values)
        assert np.array_equal(serial.columns["b"].values,
                              parallel.columns["b"].values)


class TestGatherRows:
    def test_unsorted_positions_preserve_order(self, table, plain_data):
        positions = Column(np.array([5_000, 17, 12_001, 17, 900], dtype=np.int64))
        out = gather_rows(table.column("price"), positions)
        assert np.array_equal(out.values,
                              plain_data["price"][positions.values])

    def test_parallel_gather_matches(self, table, plain_data):
        rng = np.random.default_rng(3)
        positions = Column(rng.integers(0, len(plain_data["date"]), 2_000))
        serial = gather_rows(table.column("date"), positions)
        parallel = gather_rows(table.column("date"), positions, parallelism=4)
        assert np.array_equal(serial.values, parallel.values)
        assert np.array_equal(serial.values, plain_data["date"][positions.values])

    def test_empty_positions(self, table):
        out = gather_rows(table.column("qty"), Column(np.empty(0, dtype=np.int64)))
        assert len(out) == 0
        assert out.dtype == table.column("qty").dtype
