"""Tests for the physical operators and the query API over them."""

from dataclasses import fields

import numpy as np
import pytest

from repro.api import col, count, dataset
from repro.columnar import Column
from repro.engine import (
    Between,
    Equals,
    PushdownStats,
    ScanStats,
    SelectionVector,
    aggregate,
    filter_table,
    group_by_aggregate,
    hash_join,
)
from repro.errors import QueryError
from repro.schemes import DictionaryEncoding, FrameOfReference, NullSuppression, RunLengthEncoding
from repro.storage import Table
from repro.workloads import generate_orders_workload


@pytest.fixture(scope="module")
def workload():
    return generate_orders_workload(num_orders=3_000, num_days=400, seed=4)


@pytest.fixture(scope="module")
def lineitem_table(workload):
    return Table.from_columns(
        workload.lineitem,
        schemes={
            "ship_date": RunLengthEncoding(),
            "quantity": NullSuppression(),
            "discount": DictionaryEncoding(),
            "price": FrameOfReference(segment_length=256),
        },
        chunk_size=4096,
    )


@pytest.fixture(scope="module")
def lineitem_plain(workload):
    return {name: column.values for name, column in workload.lineitem.items()}


class TestFilterTable:
    def test_matches_reference(self, lineitem_table, lineitem_plain, workload):
        lo = workload.date_range.start + 50
        hi = workload.date_range.start + 120
        selection, stats = filter_table(lineitem_table, Between("ship_date", lo, hi))
        expected = np.flatnonzero((lineitem_plain["ship_date"] >= lo)
                                  & (lineitem_plain["ship_date"] <= hi))
        assert np.array_equal(np.sort(selection.positions.values), expected)
        assert stats.rows_selected == expected.size

    def test_zone_maps_skip_chunks(self, lineitem_table, workload):
        lo = workload.date_range.start
        hi = lo + 10  # very selective on a date-clustered column
        __, stats = filter_table(lineitem_table, Between("ship_date", lo, hi))
        assert stats.chunks_skipped > 0

    def test_pushdown_and_plain_paths_agree(self, lineitem_table, workload):
        lo = workload.date_range.start + 30
        hi = workload.date_range.start + 90
        predicate = Between("ship_date", lo, hi)
        with_pushdown, stats_pd = filter_table(lineitem_table, predicate,
                                               use_pushdown=True)
        without, stats_plain = filter_table(lineitem_table, predicate,
                                            use_pushdown=False, use_zone_maps=False)
        assert np.array_equal(np.sort(with_pushdown.positions.values),
                              np.sort(without.positions.values))
        assert stats_plain.chunks_decompressed > 0

    def test_equals_predicate(self, lineitem_table, lineitem_plain):
        selection, __ = filter_table(lineitem_table, Equals("discount", 5))
        expected = int((lineitem_plain["discount"] == 5).sum())
        assert len(selection) == expected


class TestAggregates:
    def test_scalar_aggregates(self):
        col = Column([1, 2, 3, 4])
        assert aggregate(col, "sum") == 10
        assert aggregate(col, "count") == 4
        assert aggregate(col, "min") == 1
        assert aggregate(col, "max") == 4
        assert aggregate(col, "mean") == pytest.approx(2.5)

    def test_unknown_aggregate(self):
        with pytest.raises(QueryError):
            aggregate(Column([1]), "median")

    def test_empty_aggregate(self):
        assert aggregate(Column.empty(), "count") == 0
        with pytest.raises(QueryError):
            aggregate(Column.empty(), "sum")

    def test_group_by_sum(self):
        keys = Column([1, 2, 1, 2, 3])
        values = Column([10, 20, 30, 40, 50])
        out = group_by_aggregate(keys, values, how="sum")
        assert out["key"].to_pylist() == [1, 2, 3]
        assert out["aggregate"].to_pylist() == [40, 60, 50]

    def test_group_by_count_min_max_mean(self):
        keys = Column([1, 1, 2])
        values = Column([5, 7, 9])
        assert group_by_aggregate(keys, values, "count")["aggregate"].to_pylist() == [2, 1]
        assert group_by_aggregate(keys, values, "min")["aggregate"].to_pylist() == [5, 9]
        assert group_by_aggregate(keys, values, "max")["aggregate"].to_pylist() == [7, 9]
        assert group_by_aggregate(keys, values, "mean")["aggregate"].to_pylist() == [6, 9]

    def test_group_by_length_mismatch(self):
        with pytest.raises(QueryError):
            group_by_aggregate(Column([1]), Column([1, 2]))

    def test_group_by_min_max_float_values(self):
        """Regression: min/max used an int64 accumulator, truncating floats —
        min of [0.5, 0.25] came back as 0."""
        keys = Column([1, 1, 2])
        values = Column(np.array([0.5, 0.25, -1.75]))
        low = group_by_aggregate(keys, values, "min")["aggregate"]
        high = group_by_aggregate(keys, values, "max")["aggregate"]
        assert low.to_pylist() == [0.25, -1.75]
        assert high.to_pylist() == [0.5, -1.75]
        assert np.issubdtype(low.dtype, np.floating)

    def test_group_by_min_max_preserves_value_dtype(self):
        out = group_by_aggregate(Column([1, 1]), Column(np.array([3, 9], dtype=np.int32)),
                                 "max")["aggregate"]
        assert out.to_pylist() == [9]
        assert np.issubdtype(out.dtype, np.integer)

    def test_group_by_sum_large_integers_exact(self):
        """Regression: integer sums were routed through float64 bincount
        weights + rint, losing precision above 2^53 — sum of [2^60, 1]
        came back as 2^60."""
        keys = Column([7, 7])
        values = Column(np.array([1 << 60, 1], dtype=np.int64))
        out = group_by_aggregate(keys, values, "sum")["aggregate"]
        assert out.to_pylist() == [(1 << 60) + 1]
        assert np.issubdtype(out.dtype, np.integer)

    def test_group_by_sum_large_unsigned_exact(self):
        keys = Column([0, 0, 1])
        values = Column(np.array([1 << 63, 3, 5], dtype=np.uint64))
        out = group_by_aggregate(keys, values, "sum")["aggregate"]
        assert out.to_pylist() == [(1 << 63) + 3, 5]

    def test_group_by_sum_float_values(self):
        out = group_by_aggregate(Column([1, 1]), Column(np.array([0.5, 0.25])),
                                 "sum")["aggregate"]
        assert out.to_pylist() == [0.75]

    def test_group_by_min_max_booleans(self):
        keys = Column([1, 1, 2, 3])
        values = Column(np.array([False, False, True, False]))
        assert group_by_aggregate(keys, values, "max")["aggregate"].to_pylist() \
            == [False, True, False]
        assert group_by_aggregate(keys, values, "min")["aggregate"].to_pylist() \
            == [False, True, False]

    def test_scalar_sum_large_unsigned_exact(self):
        values = Column(np.array([1 << 63, 3], dtype=np.uint64))
        assert aggregate(values, "sum") == (1 << 63) + 3


class TestHashJoin:
    def test_basic_join(self):
        left = Column([1, 2, 3, 2])
        right = Column([2, 4, 1])
        lpos, rpos = hash_join(left, right)
        pairs = {(int(left[l]), int(right[r])) for l, r in zip(lpos.values, rpos.values)}
        assert pairs == {(1, 1), (2, 2)}
        assert len(lpos) == 3  # 1 match for key 1, two left rows match key 2

    def test_duplicate_build_keys(self):
        left = Column([7])
        right = Column([7, 7, 7])
        lpos, rpos = hash_join(left, right)
        assert len(lpos) == 3
        assert set(rpos.to_pylist()) == {0, 1, 2}

    def test_no_matches(self):
        lpos, rpos = hash_join(Column([1]), Column([2]))
        assert len(lpos) == 0 and len(rpos) == 0

    def test_matches_numpy_reference(self, rng):
        left = Column(rng.integers(0, 50, 300))
        right = Column(rng.integers(0, 50, 200))
        lpos, rpos = hash_join(left, right)
        assert np.array_equal(left.values[lpos.values], right.values[rpos.values])
        expected_total = sum(int((right.values == k).sum()) for k in left.values)
        assert len(lpos) == expected_total


class TestQueryAPI:
    def test_filter_aggregate(self, lineitem_table, lineitem_plain, workload):
        lo = workload.date_range.start + 40
        hi = workload.date_range.start + 160
        result = (dataset(lineitem_table)
                  .filter(col("ship_date").between(lo, hi))
                  .agg(col("quantity").sum())
                  .collect())
        mask = (lineitem_plain["ship_date"] >= lo) & (lineitem_plain["ship_date"] <= hi)
        assert result.scalars["sum(quantity)"] == int(lineitem_plain["quantity"][mask].sum())
        assert result.row_count == int(mask.sum())

    def test_count_star(self, lineitem_table):
        result = dataset(lineitem_table).agg(count()).collect()
        assert result.scalars["count(*)"] == lineitem_table.row_count

    def test_projection(self, lineitem_table, lineitem_plain):
        result = (dataset(lineitem_table)
                  .filter(col("discount") == 3)
                  .select("quantity", "discount")
                  .collect())
        assert set(result.columns) == {"quantity", "discount"}
        assert np.all(result.columns["discount"].values == 3)

    def test_multi_column_filters_intersect(self, lineitem_table, lineitem_plain, workload):
        lo = workload.date_range.start + 40
        hi = workload.date_range.start + 400
        result = (dataset(lineitem_table)
                  .filter(col("ship_date").between(lo, hi))
                  .filter(col("quantity").between(10, 20))
                  .agg(count())
                  .collect())
        mask = ((lineitem_plain["ship_date"] >= lo) & (lineitem_plain["ship_date"] <= hi)
                & (lineitem_plain["quantity"] >= 10) & (lineitem_plain["quantity"] <= 20))
        assert result.scalars["count(*)"] == int(mask.sum())

    def test_group_by(self, lineitem_table, lineitem_plain):
        result = (dataset(lineitem_table)
                  .group_by("discount")
                  .agg(col("quantity").sum())
                  .collect())
        keys = result.columns["discount"].values
        sums = result.columns["sum(quantity)"].values
        for key, total in zip(keys, sums):
            expected = int(lineitem_plain["quantity"][lineitem_plain["discount"] == key].sum())
            assert total == expected

    def test_group_by_without_aggregate_rejected(self, lineitem_table):
        with pytest.raises(QueryError):
            dataset(lineitem_table).group_by("discount").collect()

    def test_no_filters_returns_all_rows(self, lineitem_table):
        result = dataset(lineitem_table).select("quantity").collect()
        assert result.row_count == lineitem_table.row_count

    def test_unknown_columns_rejected(self, lineitem_table):
        with pytest.raises(QueryError):
            dataset(lineitem_table).filter(col("missing").between(0, 1))
        with pytest.raises(QueryError):
            dataset(lineitem_table).select("missing")
        with pytest.raises(QueryError):
            dataset(lineitem_table).agg(col("missing").sum())
        with pytest.raises(QueryError):
            dataset(lineitem_table).group_by("missing")

    def test_without_pushdown_matches(self, lineitem_table, workload):
        lo = workload.date_range.start + 40
        hi = workload.date_range.start + 160
        query = (dataset(lineitem_table)
                 .filter(col("ship_date").between(lo, hi))
                 .agg(col("price").sum()))
        fast = query.collect()
        slow = query.without_pushdown().without_zone_maps().collect()
        assert fast.scalars == slow.scalars

    def test_result_column_access(self, lineitem_table):
        result = dataset(lineitem_table).select("quantity").collect()
        assert len(result.column("quantity")) == lineitem_table.row_count
        with pytest.raises(QueryError):
            result.column("nope")


class TestJoin:
    @staticmethod
    def _joined(workload):
        orders = Table.from_columns(workload.orders, chunk_size=4096)
        lineitem = Table.from_columns(workload.lineitem, chunk_size=4096)
        return (dataset(lineitem)
                .join(dataset(orders), on="order_id")
                .select("quantity", "customer_id")
                .collect())

    def test_join(self, workload):
        out = self._joined(workload)
        assert len(out.column("quantity")) == len(out.column("customer_id"))
        # every lineitem matches exactly one order
        assert out.row_count == workload.num_lineitems

    def test_join_result_is_queryable(self, workload):
        out = self._joined(workload)
        assert set(out.columns) == {"quantity", "customer_id"}

        # The join output round-trips into a compressed table...
        table = out.to_table(chunk_size=4096)
        assert table.row_count == out.row_count
        # ...and can be queried again through the lazy API.
        total = (dataset(table)
                 .agg(col("quantity").sum())
                 .collect()
                 .scalars["sum(quantity)"])
        assert total == int(out.column("quantity").values.sum())
        with pytest.raises(QueryError):
            out.column("missing")


class TestScanStats:
    def test_merge_adds_every_counter(self):
        """Every counter of ScanStats and its nested PushdownStats takes part
        in merge(): give each a distinct nonzero value and check it doubles."""
        stats = ScanStats()
        counters = [(stats, f.name) for f in fields(ScanStats) if f.name != "pushdown"]
        counters += [(stats.pushdown, f.name) for f in fields(PushdownStats)]
        for value, (record, name) in enumerate(counters, start=1):
            setattr(record, name, value)
        other = ScanStats()
        other.merge(stats)
        other.merge(stats)
        for value, (record, name) in enumerate(counters, start=1):
            merged = other if record is stats else other.pushdown
            assert getattr(merged, name) == 2 * value, name


class TestSelectionVector:
    def test_from_mask_offsets(self):
        vec = SelectionVector.from_mask(np.array([True, False, True]), row_offset=10)
        assert vec.positions.to_pylist() == [10, 12]

    def test_all_rows(self):
        assert len(SelectionVector.all_rows(5)) == 5

    def test_concatenate_empty(self):
        assert len(SelectionVector.concatenate([])) == 0
