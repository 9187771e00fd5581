#!/usr/bin/env python
"""The lazy query DSL: expressions, logical plans, explain(), composability.

This example builds the shipped-orders workload, then walks through the
`repro.api` surface:

* an expression-DSL filter with `|` and `~`, lowered onto the
  chunk-parallel scan with zone maps and compressed-form pushdown;
* a derived column (`revenue = price * quantity`) evaluated per chunk
  *inside* the scan, against its shared decompressed buffers;
* `explain()` — the optimized plan with per-conjunct pushdown class and
  zone-map selectivity estimates, showing the optimizer reordering a
  badly-written 3-conjunct filter;
* group-by aggregation, descending top-k, and querying a collected result
  again (results round-trip into compressed tables).

Run it with::

    python examples/query_dsl.py
"""

import time

from repro.api import Dataset, col, count, dataset
from repro.planner import choose_scheme
from repro.storage import Table
from repro.workloads import generate_orders_workload


def main() -> None:
    workload = generate_orders_workload(num_orders=60_000, num_days=1_000, seed=3)
    table = Table.from_columns(
        workload.lineitem,
        schemes={name: choose_scheme for name in workload.lineitem},
        chunk_size=16_384,
    )
    lo = workload.date_range.start
    print(f"lineitem: {table.row_count} rows, "
          f"ratio {table.compression_ratio():.2f}x\n")

    # ------------------------------------------------------------------ #
    # 1. Laziness: building records a plan; nothing runs until collect().
    # ------------------------------------------------------------------ #
    revenue_by_discount = (
        dataset(table, "lineitem")
        .filter(col("ship_date").between(lo + 100, lo + 400)
                & ((col("quantity") > 30) | ~col("discount").isin([0, 1, 2])))
        .with_column("revenue", col("price") * col("quantity"))
        .group_by("discount")
        .agg(col("revenue").sum().alias("total_revenue"), count())
        .sort("total_revenue", descending=True)
        .limit(5)
    )
    print("optimized plan (explain):")
    print(revenue_by_discount.explain())

    start = time.perf_counter()
    result = revenue_by_discount.collect()
    elapsed = (time.perf_counter() - start) * 1e3
    print(f"\ntop discounts by revenue ({elapsed:.2f} ms):")
    for discount, total, rows in zip(result.column("discount"),
                                     result.column("total_revenue"),
                                     result.column("count(*)")):
        print(f"  discount {discount}: revenue {total:>14}  ({rows} lineitems)")

    # ------------------------------------------------------------------ #
    # 2. The optimizer reorders badly-written conjuncts by selectivity.
    # ------------------------------------------------------------------ #
    badly_ordered = (
        dataset(table, "lineitem")
        .filter(col("quantity") >= 2)                    # barely selective
        .filter(col("price") > 0)                        # not selective at all
        .filter(col("ship_date").between(lo, lo + 20))   # the one that matters
        .agg(count())
    )
    print("\na 3-conjunct filter written worst-first — the optimizer fixes it:")
    print(badly_ordered.explain())
    fast = badly_ordered.collect()
    slow = badly_ordered.without_optimizer_reordering().collect()
    assert fast.scalars == slow.scalars
    print(f"  both orders agree: {fast.scalars}")
    stats = fast.scan_stats
    print(f"  optimized scan: {stats.chunks_skipped} chunks skipped via zone "
          f"maps, {stats.chunks_short_circuited} conjunct evaluations "
          f"short-circuited, {stats.chunks_decompressed} decompressions")

    # ------------------------------------------------------------------ #
    # 3. Compressed execution: explain() labels every conjunct and
    #    aggregate with the domain it runs in.  A range over a pushdown-
    #    capable column reads [native, compressed ...] — evaluated on the
    #    compressed form (run values, dictionary codes, packed words) —
    #    and eligible aggregates skip materialisation entirely.  Compare
    #    with the decompress-then-compute baseline.
    # ------------------------------------------------------------------ #
    compressed_query = (
        dataset(table, "lineitem")
        .filter(col("ship_date").between(lo + 200, lo + 260))
        .agg(col("price").sum().alias("revenue"), count())
    )
    print("\ncompressed-domain execution (note the [compressed] labels):")
    print(compressed_query.explain())
    fast_result = compressed_query.collect()
    baseline_result = (compressed_query
                       .without_pushdown()
                       .without_compressed_execution()
                       .collect())
    assert fast_result.scalars == baseline_result.scalars  # bit-identical
    stats = fast_result.scan_stats
    print(f"  {stats.rows_computed_compressed} rows computed on compressed "
          f"forms, {stats.bytes_decompressed_saved} B of decompression "
          f"output never materialised")
    print("\nthe decompress-then-compute baseline of the same query:")
    print(compressed_query.without_compressed_execution()
          .without_pushdown().explain())

    # ------------------------------------------------------------------ #
    # 4. Results are composable: collect, wrap, query again.
    # ------------------------------------------------------------------ #
    first_pass = (dataset(table, "lineitem")
                  .filter(col("ship_date") < lo + 500)
                  .select("discount", "price", "quantity")
                  .collect())
    requeried = (Dataset.from_result(first_pass, "first_pass")
                 .filter(col("discount") >= 5)
                 .agg((col("price") * col("quantity")).sum().alias("revenue"))
                 .collect())
    print(f"\nre-queried a collected result: {requeried.scalars}")


if __name__ == "__main__":
    main()
