"""End-to-end tests for the lazy `Dataset` API against NumPy references."""

import numpy as np
import pytest

import repro.api.lower as lower_module
from repro.api import Dataset, col, count, dataset, lit
from repro.engine import shutdown_pools
from repro.errors import QueryError
from repro.io import open_table, save_table
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    n = 20_000
    return {
        "ship_date": np.sort(rng.integers(0, 500, n)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, n)) + 10_000).astype(np.int64),
        "quantity": rng.integers(1, 64, n).astype(np.int64),
        "discount": rng.integers(0, 8, n).astype(np.int64),
        "weight": rng.normal(10.0, 2.0, n),  # a float column (no zone maps)
    }


@pytest.fixture(scope="module")
def table(data):
    return Table.from_pydict(
        data,
        schemes={
            "ship_date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=128),
            "quantity": NullSuppression(),
            "discount": DictionaryEncoding(),
        },
        chunk_size=2048,
    )


@pytest.fixture(scope="module")
def orders():
    rng = np.random.default_rng(5)
    keys = np.arange(200, dtype=np.int64)
    return {
        "discount": keys % 8,
        "region": rng.integers(0, 4, keys.size).astype(np.int64),
        "key": keys,
    }


class TestLaziness:
    def test_building_does_not_scan(self, table, monkeypatch):
        calls = []
        original = lower_module.scan_table

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lower_module, "scan_table", counting)
        ds = (dataset(table)
              .filter(col("quantity") > 10)
              .with_column("revenue", col("price") * col("quantity"))
              .select("revenue", "discount")
              .sort("revenue")
              .limit(5))
        assert calls == []          # building is free
        ds.explain()
        assert calls == []          # explaining is free too
        ds.collect()
        assert len(calls) == 1      # one fused scan

    def test_methods_return_new_datasets(self, table):
        base = dataset(table)
        filtered = base.filter(col("quantity") > 3)
        assert filtered is not base
        assert base.schema == filtered.schema
        assert base.logical_plan is not filtered.logical_plan


class TestFilterSelect:
    def test_filter_matches_numpy(self, table, data):
        result = (dataset(table)
                  .filter((col("ship_date").between(100, 300))
                          & (col("quantity") >= 32))
                  .select("price")
                  .collect())
        mask = ((data["ship_date"] >= 100) & (data["ship_date"] <= 300)
                & (data["quantity"] >= 32))
        assert np.array_equal(result.column("price").values, data["price"][mask])
        assert result.row_count == int(mask.sum())

    def test_or_and_not_filters(self, table, data):
        """Predicate shapes the old AND-only filter() could not express."""
        result = (dataset(table)
                  .filter((col("discount") == 0) | ~col("quantity").between(8, 56))
                  .select("quantity")
                  .collect())
        mask = (data["discount"] == 0) | ~((data["quantity"] >= 8)
                                           & (data["quantity"] <= 56))
        assert np.array_equal(result.column("quantity").values,
                              data["quantity"][mask])

    def test_multi_column_predicate(self, table, data):
        result = (dataset(table)
                  .filter(col("quantity") * 100 > col("price"))
                  .select("quantity", "price")
                  .collect())
        mask = data["quantity"] * 100 > data["price"]
        assert np.array_equal(result.column("price").values, data["price"][mask])

    def test_float_column_filter(self, table, data):
        result = (dataset(table)
                  .filter(col("weight") > 12.5)
                  .agg(count())
                  .collect())
        assert result.scalars["count(*)"] == int((data["weight"] > 12.5).sum())

    def test_select_expressions_and_aliases(self, table, data):
        result = (dataset(table)
                  .select((col("price") * col("quantity")).alias("revenue"),
                          "discount")
                  .collect())
        assert list(result.columns) == ["revenue", "discount"]
        assert np.array_equal(result.column("revenue").values,
                              data["price"] * data["quantity"])

    def test_with_column_then_filter_on_it(self, table, data):
        result = (dataset(table)
                  .with_column("revenue", col("price") * col("quantity"))
                  .filter(col("revenue") > 400_000)
                  .select("revenue")
                  .collect())
        revenue = data["price"] * data["quantity"]
        assert np.array_equal(result.column("revenue").values,
                              revenue[revenue > 400_000])

    def test_pushdown_off_matches(self, table):
        predicate = (col("ship_date").between(50, 220)) & (col("discount") <= 3)
        fast = dataset(table).filter(predicate).select("price").collect()
        slow = (dataset(table).without_pushdown().without_zone_maps()
                .filter(predicate).select("price").collect())
        assert np.array_equal(fast.column("price").values,
                              slow.column("price").values)

    def test_parallel_bit_identical(self, table):
        predicate = (col("ship_date").between(30, 400)) \
            & (col("quantity") * 2 > col("discount") + 10)
        serial = dataset(table).filter(predicate).select("price", "quantity") \
            .collect()
        parallel = dataset(table).with_parallelism(4).filter(predicate) \
            .select("price", "quantity").collect()
        for name in ("price", "quantity"):
            assert np.array_equal(serial.column(name).values,
                                  parallel.column(name).values)


class TestConstantConjuncts:
    """Regression: column-free conjuncts fold at optimize time instead of
    reaching the scan as degenerate (0-d mask) row filters."""

    def test_true_constant_conjunct_is_dropped(self, table, data):
        result = (dataset(table)
                  .filter((col("quantity") >= 0)
                          & ((lit(1) // lit(1)) == 1)
                          & (col("quantity") < col("price")))
                  .select("quantity")
                  .collect())
        mask = data["quantity"] < data["price"]
        assert np.array_equal(result.column("quantity").values,
                              data["quantity"][mask])

    def test_true_constant_as_only_column_free_first_conjunct(self, table, data):
        result = (dataset(table)
                  .filter(lit(True) & (col("quantity") < col("discount")))
                  .select("quantity")
                  .collect())
        mask = data["quantity"] < data["discount"]
        assert result.row_count == int(mask.sum())

    def test_false_constant_folds_scan_to_empty(self, table):
        ds = (dataset(table)
              .filter((lit(2) == 3) & (col("quantity") > 0))
              .select("quantity", "price"))
        assert "scan folded to empty" in ds.explain()
        result = ds.collect()
        assert result.row_count == 0
        assert len(result.column("quantity")) == 0
        assert result.column("price").dtype == np.dtype(np.int64)

    def test_false_constant_under_aggregate(self, table):
        result = (dataset(table)
                  .filter((lit(1) > 2) & (col("quantity") >= 0))
                  .agg(count())
                  .collect())
        assert result.scalars["count(*)"] == 0

    def test_constant_conjunct_above_aggregate(self, table, data):
        """A residual `lit(True)` above group_by must fold, not crash."""
        result = (dataset(table)
                  .group_by("discount")
                  .agg(col("quantity").sum())
                  .filter((col("discount") == 1) & lit(True))
                  .collect())
        assert np.array_equal(result.column("discount").values, [1])
        assert result.column("sum(quantity)").values[0] == \
            data["quantity"][data["discount"] == 1].sum()

    def test_false_constant_above_limit(self, table):
        result = (dataset(table).select("quantity").limit(3)
                  .filter((lit(1) > 2) & (col("quantity") >= 0))
                  .collect())
        assert result.row_count == 0

    def test_group_by_key_aliased_like_count_star(self, table):
        """group_by() key validation must not collide with a probe aggregate."""
        result = (dataset(table)
                  .group_by(col("discount").alias("count(*)"))
                  .agg(col("quantity").sum())
                  .collect())
        assert "count(*)" in result.columns

    def test_with_column_above_join_still_prunes(self, table, orders):
        right = Table.from_pydict(orders, chunk_size=64)
        ds = (dataset(table, "fact")
              .join(dataset(right, "orders"), on="discount")
              .with_column("x", col("quantity") * col("region"))
              .select("x"))
        text = ds.explain()
        assert "price" not in text  # unused fact columns never materialise
        assert "key" not in text    # unused orders columns neither


class TestAggregation:
    def test_scalar_aggregates(self, table, data):
        result = (dataset(table)
                  .filter(col("discount") == 2)
                  .agg(col("price").sum(), col("quantity").mean(), count())
                  .collect())
        mask = data["discount"] == 2
        assert result.scalars["sum(price)"] == int(data["price"][mask].sum())
        assert result.scalars["mean(quantity)"] == pytest.approx(
            data["quantity"][mask].mean())
        assert result.scalars["count(*)"] == int(mask.sum())
        assert result.row_count == int(mask.sum())

    def test_aggregate_over_derived_expression(self, table, data):
        result = (dataset(table)
                  .agg((col("price") * col("quantity")).sum().alias("revenue"))
                  .collect())
        assert result.scalars["revenue"] == int(
            (data["price"] * data["quantity"]).sum())

    def test_group_by_single_key(self, table, data):
        result = (dataset(table)
                  .group_by("discount")
                  .agg(col("quantity").sum(), col("price").max(), count())
                  .collect())
        keys = result.column("discount").values
        assert np.array_equal(keys, np.unique(data["discount"]))
        for i, key in enumerate(keys):
            mask = data["discount"] == key
            assert result.column("sum(quantity)").values[i] == \
                data["quantity"][mask].sum()
            assert result.column("max(price)").values[i] == \
                data["price"][mask].max()
            assert result.column("count(*)").values[i] == mask.sum()

    def test_group_by_multiple_keys(self, table, data):
        result = (dataset(table)
                  .filter(col("ship_date") < 100)
                  .group_by("discount", "quantity")
                  .agg(col("price").sum())
                  .collect())
        mask = data["ship_date"] < 100
        d, q, p = (data["discount"][mask], data["quantity"][mask],
                   data["price"][mask])
        expected = {}
        for dv, qv, pv in zip(d, q, p):
            expected[(dv, qv)] = expected.get((dv, qv), 0) + pv
        got_keys = list(zip(result.column("discount").values.tolist(),
                            result.column("quantity").values.tolist()))
        assert got_keys == sorted(expected)
        for (dk, qk), total in zip(got_keys,
                                   result.column("sum(price)").values):
            assert expected[(dk, qk)] == total

    def test_group_by_expression_key(self, table, data):
        result = (dataset(table)
                  .group_by((col("quantity") // 16).alias("bucket"))
                  .agg(count())
                  .collect())
        buckets, counts = np.unique(data["quantity"] // 16, return_counts=True)
        assert np.array_equal(result.column("bucket").values, buckets)
        assert np.array_equal(result.column("count(*)").values, counts)


@pytest.fixture(scope="module")
def packed_table(table, tmp_path_factory):
    path = save_table(table, tmp_path_factory.mktemp("dataset") / "t.rpk")
    yield open_table(path).table
    shutdown_pools()


#: Plans whose selection is empty, one per execution path: serial compressed
#: execution, process workers, decompress-then-compute, and a multi-column
#: row filter evaluated after the per-column cascade.
EMPTY_SELECTIONS = {
    "serial": lambda t, packed: dataset(t).filter(col("quantity") > 1_000),
    "process": lambda t, packed: (dataset(packed).filter(col("quantity") > 1_000)
                                  .with_backend("process", workers=2)),
    "decompressed": lambda t, packed: (dataset(t).filter(col("quantity") > 1_000)
                                       .without_compressed_execution()),
    "row_filter": lambda t, packed: dataset(t).filter(col("quantity") > col("price")),
}


class TestEmptySelection:
    """The contract over zero qualifying rows: a scalar sum/min/max/mean has
    no value and raises QueryError, count is 0, and a grouped aggregate
    returns empty columns."""

    @pytest.mark.parametrize("variant", sorted(EMPTY_SELECTIONS))
    def test_aggregate_contract(self, table, packed_table, variant):
        empty = EMPTY_SELECTIONS[variant](table, packed_table)
        for op in ("sum", "min", "max", "mean"):
            with pytest.raises(QueryError, match=f"aggregate '{op}' over zero rows"):
                empty.agg(getattr(col("price"), op)()).collect()
        result = empty.agg(col("price").count(), count()).collect()
        assert result.scalars == {"count(price)": 0, "count(*)": 0}
        assert result.row_count == 0
        grouped = empty.group_by("discount").agg(col("price").sum(), count()).collect()
        assert list(grouped.columns) == ["discount", "sum(price)", "count(*)"]
        assert all(len(column) == 0 for column in grouped.columns.values())
        assert grouped.row_count == 0


class TestSortLimitJoin:
    def test_sort_stable_multi_key(self, table, data):
        result = (dataset(table)
                  .filter(col("ship_date") < 50)
                  .select("discount", "quantity")
                  .sort("discount", "quantity", descending=[False, True])
                  .collect())
        mask = data["ship_date"] < 50
        d, q = data["discount"][mask], data["quantity"][mask]
        order = np.lexsort((-q, d))
        assert np.array_equal(result.column("discount").values, d[order])
        assert np.array_equal(result.column("quantity").values, q[order])

    def test_limit(self, table, data):
        result = dataset(table).select("price").limit(7).collect()
        assert np.array_equal(result.column("price").values, data["price"][:7])

    def test_topk_equals_sort_then_slice(self, table):
        full = (dataset(table)
                .with_column("revenue", col("price") * col("quantity"))
                .select("revenue", "discount")
                .sort("revenue", descending=True)
                .collect())
        topk = (dataset(table)
                .with_column("revenue", col("price") * col("quantity"))
                .select("revenue", "discount")
                .sort("revenue", descending=True)
                .limit(25)
                .collect())
        for name in ("revenue", "discount"):
            assert np.array_equal(topk.column(name).values,
                                  full.column(name).values[:25])

    def test_join_and_aggregate(self, table, data, orders):
        right = Table.from_pydict(orders, chunk_size=64)
        joined = (dataset(table, "lineitem")
                  .filter(col("ship_date") < 40)
                  .join(dataset(right, "orders"), on="discount")
                  .group_by("region")
                  .agg(col("price").sum())
                  .collect())
        mask = data["ship_date"] < 40
        expected = {}
        for dv, pv in zip(data["discount"][mask], data["price"][mask]):
            for rk, rv in zip(orders["discount"], orders["region"]):
                if rk == dv:
                    expected[rv] = expected.get(rv, 0) + pv
        keys = joined.column("region").values
        assert np.array_equal(keys, np.array(sorted(expected)))
        for key, total in zip(keys, joined.column("sum(price)").values):
            assert expected[key] == total

    def test_join_suffixes_colliding_names(self, table, orders):
        right = Table.from_pydict(
            {"discount": orders["discount"], "price": orders["key"]},
            chunk_size=64)
        ds = (dataset(table).select("discount", "price")
              .join(dataset(right), on="discount"))
        assert "price_right" in ds.schema
        result = ds.limit(5).collect()
        assert "price_right" in result.columns


class TestComposability:
    def test_result_as_table_and_requeried(self, table, data):
        first = (dataset(table)
                 .filter(col("ship_date") < 200)
                 .select("discount", "price")
                 .collect())
        second = (Dataset.from_result(first)
                  .filter(col("discount") >= 4)
                  .agg(col("price").sum())
                  .collect())
        mask = (data["ship_date"] < 200) & (data["discount"] >= 4)
        assert second.scalars["sum(price)"] == int(data["price"][mask].sum())

    def test_to_table_roundtrip_compresses(self, table):
        result = dataset(table).select("discount", "quantity").limit(4096) \
            .collect()
        roundtrip = result.to_table(chunk_size=1024)
        assert roundtrip.row_count == 4096
        materialized = roundtrip.materialize()
        assert np.array_equal(materialized["discount"].values,
                              result.column("discount").values)


class TestExplain:
    def test_explain_shows_annotations(self, table):
        text = (dataset(table, "lineitem")
                .filter((col("quantity") > 8) & col("ship_date").between(10, 60))
                .with_column("revenue", col("price") * col("quantity"))
                .group_by("discount")
                .agg(col("revenue").sum())
                .with_parallelism(2)
                .explain())
        assert "Scan(lineitem" in text
        assert "parallelism=2" in text
        assert "est. sel" in text
        assert "derive revenue = (price * quantity)" in text
        assert "materialize=[discount]" in text
        assert "projection pruned" in text
        assert "Aggregate(keys=[discount])" in text

    def test_optimizer_reorders_by_selectivity(self, table):
        """A selective clustered-date conjunct written *last* is hoisted first."""
        ds = (dataset(table)
              .filter(col("quantity") >= 2)            # ~97% selective
              .filter(col("price") > 0)                 # ~100%
              .filter(col("ship_date").between(0, 10))  # ~2%: should lead
              .agg(count()))
        text = ds.explain()
        where_lines = [line for line in text.splitlines() if "where" in line]
        assert len(where_lines) == 3
        assert "ship_date" in where_lines[0]
        assert "reordered by estimated selectivity" in text

        baseline = ds.without_optimizer_reordering()
        baseline_lines = [line for line in baseline.explain().splitlines()
                          if "where" in line]
        assert "quantity" in baseline_lines[0]
        # Both orders compute the same answer.
        assert ds.collect().scalars == baseline.collect().scalars

    def test_unoptimized_explain_shows_logical_tree(self, table):
        text = (dataset(table)
                .filter(col("quantity") > 8)
                .select("price")
                .explain(optimized=False))
        assert "Filter" in text and "Project" in text and "Scan(" in text

    def test_select_pushed_below_sort(self, table, data):
        ds = (dataset(table)
              .sort("price", descending=True)
              .select("price", "discount"))
        text = ds.explain()
        # After the rewrite the Sort sits on top of the (scan-fused) select.
        assert text.index("Sort(") < text.index("Scan(")
        assert "materialize=[price, discount]" in text
        result = ds.limit(10).collect()
        order = np.argsort(-data["price"], kind="stable")[:10]
        assert np.array_equal(result.column("price").values,
                              data["price"][order])
        assert np.array_equal(result.column("discount").values,
                              data["discount"][order])

    def test_filter_pushed_below_join(self, table, orders):
        right = Table.from_pydict(orders, chunk_size=64)
        text = (dataset(table, "lineitem")
                .join(dataset(right, "orders"), on="discount")
                .filter(col("region") == 1)            # right side only
                .filter(col("ship_date") < 100)        # left side only
                .filter(col("discount") >= 2)          # shared key: both sides
                .agg(count())
                .explain())
        join_at = text.index("Join(")
        assert text.index("(ship_date < 100)") > join_at
        assert text.index("(region == 1)") > join_at
        assert text.count("(discount >= 2)") == 2  # pushed to both sides
