"""Regression: `Dataset` answers every query shape of the seed eager engine.

The seed engine ran a query as one `scan_table` pass followed by eager
result assembly with the physical operators.  `seed_run` re-implements that
body over a small query spec; every shape the seed API supported is executed
both ways and compared — column values *and dtypes*, scalars and
`row_count`.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.api import col, count, dataset
from repro.engine import Between, Equals, IsIn, Predicate, QueryResult
from repro.engine.operators import aggregate, group_by_aggregate
from repro.engine.scan import scan_table
from repro.errors import QueryError
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table
from repro.workloads import generate_orders_workload


@pytest.fixture(scope="module")
def workload():
    return generate_orders_workload(num_orders=2_500, num_days=365, seed=9)


@pytest.fixture(scope="module")
def table(workload):
    return Table.from_columns(
        workload.lineitem,
        schemes={
            "ship_date": RunLengthEncoding(),
            "quantity": NullSuppression(),
            "discount": DictionaryEncoding(),
            "price": FrameOfReference(segment_length=256),
        },
        chunk_size=2048,
    )


@dataclass
class SeedQuery:
    """The seed API's query state: filters, aggregates, projection, knobs."""

    predicates: List[Predicate] = field(default_factory=list)
    aggregates: List[Tuple[str, str]] = field(default_factory=list)
    projection: Optional[Sequence[str]] = None
    group_by: Optional[str] = None
    use_pushdown: bool = True
    use_zone_maps: bool = True
    parallelism: int = 1

    def needed_columns(self, table: Table) -> List[str]:
        needed: List[str] = []
        if self.group_by is not None:
            needed.append(self.group_by)
        needed.extend(name for name, __ in self.aggregates if name != "*")
        if self.projection is not None:
            needed.extend(self.projection)
        elif not self.aggregates:
            needed.extend(table.column_names)
        return list(dict.fromkeys(needed))


def seed_run(table: Table, query: SeedQuery) -> QueryResult:
    """The seed engine's query body: one scan, then eager assembly."""
    scan = scan_table(table, query.predicates,
                      use_pushdown=query.use_pushdown,
                      use_zone_maps=query.use_zone_maps,
                      parallelism=query.parallelism,
                      materialize=query.needed_columns(table))
    selection = scan.selection
    result = QueryResult(row_count=len(selection), scan_stats=scan.stats)

    if query.group_by is not None:
        keys = scan.columns[query.group_by]
        for column_name, how in query.aggregates:
            name = f"{how}({column_name})"
            if column_name == "*":
                column_name, how = query.group_by, "count"
            grouped = group_by_aggregate(keys, scan.columns[column_name], how=how)
            result.columns[query.group_by] = grouped["key"].rename(query.group_by)
            result.columns[name] = grouped["aggregate"]
        return result

    for column_name, how in query.aggregates:
        if how == "count" and column_name == "*":
            result.scalars["count(*)"] = len(selection)
            continue
        result.scalars[f"{how}({column_name})"] = aggregate(
            scan.columns[column_name], how)

    if query.projection is not None:
        result.columns.update({name: scan.columns[name]
                               for name in query.projection})
    elif not query.aggregates:
        result.columns.update({name: scan.columns[name]
                               for name in table.column_names})
    return result


def assert_same_answer(got: QueryResult, seed: QueryResult):
    assert got.row_count == seed.row_count
    assert got.scalars == seed.scalars
    assert list(got.columns) == list(seed.columns)
    for name in seed.columns:
        left, right = got.columns[name].values, seed.columns[name].values
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


Shape = Tuple[Callable, Callable]

#: name -> (Dataset builder, seed query builder), both over (table, workload).
SHAPES: Dict[str, Shape] = {
    "filter_aggregate": (
        lambda t, w: dataset(t)
        .filter(col("ship_date").between(w.date_range.start + 20,
                                         w.date_range.start + 120))
        .agg(col("quantity").sum()),
        lambda t, w: SeedQuery(
            predicates=[Between("ship_date", w.date_range.start + 20,
                                w.date_range.start + 120)],
            aggregates=[("quantity", "sum")]),
    ),
    "multi_filter_count": (
        lambda t, w: dataset(t)
        .filter(col("ship_date").between(w.date_range.start + 10,
                                         w.date_range.start + 300))
        .filter(col("quantity").between(5, 30))
        .filter(col("discount").isin([2, 3, 5]))
        .agg(count()),
        lambda t, w: SeedQuery(
            predicates=[Between("ship_date", w.date_range.start + 10,
                                w.date_range.start + 300),
                        Between("quantity", 5, 30),
                        IsIn("discount", [2, 3, 5])],
            aggregates=[("*", "count")]),
    ),
    "projection": (
        lambda t, w: dataset(t)
        .filter(col("discount") == 4)
        .select("quantity", "price"),
        lambda t, w: SeedQuery(predicates=[Equals("discount", 4)],
                               projection=["quantity", "price"]),
    ),
    "group_by_sum_and_count_star": (
        lambda t, w: dataset(t)
        .filter(col("ship_date").between(w.date_range.start,
                                         w.date_range.start + 200))
        .group_by("discount")
        .agg(col("quantity").sum(), count()),
        lambda t, w: SeedQuery(
            predicates=[Between("ship_date", w.date_range.start,
                                w.date_range.start + 200)],
            aggregates=[("quantity", "sum"), ("*", "count")],
            group_by="discount"),
    ),
    "scalars": (
        lambda t, w: dataset(t)
        .filter(col("quantity").between(1, 40))
        .agg(col("price").sum(), col("price").mean()),
        lambda t, w: SeedQuery(predicates=[Between("quantity", 1, 40)],
                               aggregates=[("price", "sum"), ("price", "mean")]),
    ),
    "no_filter_all_columns": (
        lambda t, w: dataset(t),
        lambda t, w: SeedQuery(),
    ),
    "no_pushdown_no_zone_maps": (
        lambda t, w: dataset(t)
        .without_pushdown().without_zone_maps()
        .filter(col("ship_date").between(w.date_range.start + 50,
                                         w.date_range.start + 90))
        .agg(col("price").min(), col("price").max()),
        lambda t, w: SeedQuery(
            predicates=[Between("ship_date", w.date_range.start + 50,
                                w.date_range.start + 90)],
            aggregates=[("price", "min"), ("price", "max")],
            use_pushdown=False, use_zone_maps=False),
    ),
    "parallel": (
        lambda t, w: dataset(t)
        .filter(col("ship_date").between(w.date_range.start + 30,
                                         w.date_range.start + 260))
        .filter(col("price").between(0, 10_000_000))
        .select("quantity").with_parallelism(3),
        lambda t, w: SeedQuery(
            predicates=[Between("ship_date", w.date_range.start + 30,
                                w.date_range.start + 260),
                        Between("price", 0, 10_000_000)],
            projection=["quantity"], parallelism=3),
    ),
    "empty_projection_count_star": (
        lambda t, w: dataset(t).filter(col("discount") == 7).agg(count()),
        lambda t, w: SeedQuery(predicates=[Equals("discount", 7)],
                               projection=[], aggregates=[("*", "count")]),
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_dataset_matches_seed(name, table, workload):
    build_dataset, build_seed = SHAPES[name]
    got = build_dataset(table, workload).collect()
    seed = seed_run(table, build_seed(table, workload))
    assert_same_answer(got, seed)


def test_empty_selection_aggregate_raises_like_seed(table):
    query = SeedQuery(predicates=[Between("quantity", 10_000, 20_000)],
                      aggregates=[("price", "sum")])
    with pytest.raises(QueryError):
        seed_run(table, query)
    with pytest.raises(QueryError):
        (dataset(table)
         .filter(col("quantity").between(10_000, 20_000))
         .agg(col("price").sum())
         .collect())
