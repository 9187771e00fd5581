#!/usr/bin/env python
"""Querying compressed data: pushdown, partial decompression, and why it matters.

The paper's "lessons learned" argue that decompression is made of the same
columnar operators as query plans, so a query need not decompress at all.
This example builds a shipped-orders table (TPC-H-flavoured), stores every
column with an advisor-chosen scheme, and runs the same analytical query
three ways:

* with compressed-form pushdown and zone maps (the default engine behaviour),
* with pushdown, zone maps and compressed-domain aggregation all disabled
  (decompress-then-compute),
* and, for the date predicate alone, entirely in the run domain.

All three return identical answers; the printed scan statistics show how
much work each avoided.

Run it with::

    python examples/query_on_compressed.py
"""

import time

from repro.api import col, count, dataset
from repro.engine import RangeBounds
from repro.engine.pushdown import sum_in_range_on_runs
from repro.planner import choose_scheme, plan_for_intent
from repro.schemes import RunLengthEncoding
from repro.storage import Table
from repro.workloads import generate_orders_workload


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    print(f"  {label:45s} {elapsed * 1e3:8.2f} ms")
    return result


def main() -> None:
    workload = generate_orders_workload(num_orders=100_000, num_days=2_000, seed=1)
    print(f"lineitem table: {workload.num_lineitems} rows")

    table = Table.from_columns(
        workload.lineitem,
        schemes={name: choose_scheme for name in workload.lineitem},
        chunk_size=65_536,
    )
    print("\nstorage summary (schemes chosen per chunk by the advisor):")
    print(table.summary())

    lo = workload.date_range.start + 400
    hi = workload.date_range.start + 460
    print(f"\nquery: SUM(price), COUNT(*) WHERE {lo} <= ship_date <= {hi}")

    query = (dataset(table)
             .filter(col("ship_date").between(lo, hi))
             .agg(col("price").sum(), count()))

    def with_pushdown():
        return query.collect()

    def without_pushdown():
        return (query.without_pushdown().without_zone_maps()
                .without_compressed_execution().collect())

    fast = timed("engine, pushdown + zone maps", with_pushdown)
    slow = timed("engine, decompress-then-compute", without_pushdown)
    assert fast.scalars == slow.scalars
    print(f"  answers agree: {fast.scalars}")

    stats = fast.scan_stats
    print("\nscan statistics (pushdown run):")
    print(f"  chunks: {stats.chunks_total} total, {stats.chunks_skipped} skipped via "
          f"zone maps, {stats.chunks_pushed_down} answered on the compressed form, "
          f"{stats.chunks_decompressed} decompressed")
    print(f"  rows selected: {stats.rows_selected} of {stats.rows_scanned}")

    # --- the date predicate alone, entirely in the run domain ---------------
    print("\nthe same date predicate, aggregated without leaving the run domain:")
    dates = table.column("ship_date").materialize()
    scheme = RunLengthEncoding()
    form = scheme.compress(dates)
    decision = plan_for_intent(scheme, form, "range_aggregate")
    print(f"  planner: strategy={decision.strategy!r} — {decision.reason}")
    total, push_stats = sum_in_range_on_runs(form, RangeBounds(lo, hi))
    print(f"  SUM(ship_date) over qualifying rows = {total} "
          f"(computed from {push_stats.runs_total} runs, "
          f"{push_stats.rows_decoded} row-grain values decoded)")


if __name__ == "__main__":
    main()
