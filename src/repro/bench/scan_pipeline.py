"""Scan-pipeline benchmark: seed scan loop vs the chunk-parallel scheduler.

Measures, over a multi-chunk multi-column table, three executions of the
same multi-predicate conjunction:

* the **seed** path — one full-table pass per predicate (each chunk of each
  predicate's column decompressed independently, no short-circuiting) with
  the global position lists intersected via ``np.intersect1d``; this is a
  faithful re-implementation of the engine's pre-scheduler ``_selection``;
* the **pipeline** path — :func:`repro.engine.scan.scan_table`: the whole
  conjunction evaluated chunk-at-a-time with chunk-local mask intersection,
  per-chunk short-circuiting and shared per-chunk decompression;
* the **parallel pipeline** — the same, fanned out over a thread pool with
  ``parallelism="auto"`` (``min(cpu_count, chunks)``, serial on tiny
  tables).

Results go to ``BENCH_scan_pipeline.json`` so successive PRs have a perf
trajectory.  Parallel timings are only *measured* when the machine can
actually run anything in parallel: on a single-core runner (or when
``"auto"`` resolves to one worker) the scenario records
``parallel_skipped`` with the reason instead of a meaningless ~1.0x number
— the old harness timed ``parallelism=4`` on ``cpu_count: 1`` machines and
dutifully reported slowdowns that said nothing about the scheduler.
Bit-identity of the parallel path is asserted regardless.

Run as a module::

    PYTHONPATH=src python -m repro.bench.scan_pipeline [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..columnar.compile import clear_caches
from ..engine import kernels
from ..engine.operators import SelectionVector
from ..engine.predicates import Between, Predicate
from ..engine.scan import resolve_parallelism, scan_table
from ..schemes import FrameOfReference, NullSuppression, RunLengthEncoding
from ..storage.table import Table
from .harness import time_callable

DEFAULT_NUM_ROWS = 1_000_000
QUICK_NUM_ROWS = 131_072
CHUNK_SIZE = 65_536
PARALLELISM = "auto"


def build_table(num_rows: int, seed: int = 20_180_416) -> Tuple[Dict[str, np.ndarray], Table]:
    """The benchmark table: a clustered date, a smooth price, a random quantity."""
    rng = np.random.default_rng(seed)
    data = {
        "ship_date": np.sort(rng.integers(0, 2_000, num_rows)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, num_rows)) + 100_000).astype(np.int64),
        "quantity": rng.integers(0, 1 << 10, num_rows).astype(np.int64),
    }
    table = Table.from_pydict(
        data,
        schemes={
            "ship_date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=256),
            "quantity": NullSuppression(),
        },
        chunk_size=CHUNK_SIZE,
    )
    return data, table


def seed_selection(table: Table, predicates: Sequence[Predicate],
                   use_pushdown: bool = True,
                   use_zone_maps: bool = True) -> np.ndarray:
    """The engine's pre-scheduler selection loop, re-implemented faithfully:
    one full pass per predicate, merged with global ``np.intersect1d``."""
    combined: Optional[np.ndarray] = None
    for predicate in predicates:
        stored = table.column(predicate.column_name)
        pieces: List[np.ndarray] = []
        for chunk in stored.iter_chunks():
            decision = (predicate.chunk_decision(chunk.statistics)
                        if use_zone_maps else None)
            if decision is False:
                continue
            if decision is True:
                pieces.append(np.arange(chunk.row_offset,
                                        chunk.row_offset + chunk.row_count,
                                        dtype=np.int64))
                continue
            mask = None
            if use_pushdown and isinstance(predicate, Between):
                pushed = kernels.filter_range(chunk.scheme, chunk.form,
                                              predicate.bounds)
                if pushed is not None:
                    mask = pushed[0]
            if mask is None:
                mask = predicate.evaluate(chunk.decompress()).values
            pieces.append(np.flatnonzero(mask).astype(np.int64) + chunk.row_offset)
        positions = (np.concatenate(pieces) if pieces
                     else np.empty(0, dtype=np.int64))
        combined = positions if combined is None else np.intersect1d(
            combined, positions, assume_unique=True)
    assert combined is not None
    return combined


def _scenarios(data: Dict[str, np.ndarray]) -> List[Dict[str, Any]]:
    date_hi = int(data["ship_date"].max())
    price_lo = int(np.percentile(data["price"], 10))
    price_hi = int(np.percentile(data["price"], 70))
    return [
        {
            "name": "three_columns",
            "description": "3-predicate Between conjunction over 3 columns",
            "predicates": [
                Between("ship_date", date_hi // 10, (date_hi * 6) // 10),
                Between("price", price_lo, price_hi),
                Between("quantity", 32, 768),
            ],
            "use_pushdown": True,
            "use_zone_maps": True,
        },
        {
            "name": "same_column",
            "description": "3 Between conjuncts on one column, no pushdown "
                           "(shared per-chunk decompression)",
            "predicates": [
                Between("price", price_lo, price_hi),
                Between("price", price_lo + 50, price_hi + 50),
                Between("price", price_lo - 50, price_hi - 50),
            ],
            "use_pushdown": False,
            "use_zone_maps": False,
        },
        {
            "name": "selective_first",
            "description": "very selective first conjunct short-circuits the rest",
            "predicates": [
                Between("ship_date", 0, date_hi // 50),
                Between("price", price_lo, price_hi),
                Between("quantity", 32, 768),
            ],
            "use_pushdown": True,
            "use_zone_maps": True,
        },
    ]


def measure_scenario(scenario: Dict[str, Any], table: Table,
                     repeats: int) -> Dict[str, Any]:
    predicates = scenario["predicates"]
    kwargs = dict(use_pushdown=scenario["use_pushdown"],
                  use_zone_maps=scenario["use_zone_maps"])

    def seed() -> np.ndarray:
        return seed_selection(table, predicates, **kwargs)

    def pipeline() -> SelectionVector:
        return scan_table(table, predicates, **kwargs).selection

    def pipeline_parallel() -> SelectionVector:
        return scan_table(table, predicates, parallelism=PARALLELISM,
                          **kwargs).selection

    num_chunks = table.column(predicates[0].column_name).num_chunks
    effective_workers = resolve_parallelism(PARALLELISM, num_chunks,
                                            table.row_count)

    # Correctness gate: all three paths must select identical positions
    # (asserted even when the parallel timing below is skipped).
    reference = seed()
    serial_positions = pipeline().positions.values
    parallel_positions = pipeline_parallel().positions.values
    assert np.array_equal(reference, serial_positions), scenario["name"]
    assert np.array_equal(serial_positions, parallel_positions), scenario["name"]

    seed_timing = time_callable(seed, repeats=repeats, warmup=1)
    serial_timing = time_callable(pipeline, repeats=repeats, warmup=1)

    parallel_seconds: Optional[float] = None
    parallel_speedup: Optional[float] = None
    parallel_skipped: Optional[str] = None
    if (os.cpu_count() or 1) == 1:
        parallel_skipped = "cpu_count == 1: nothing can run in parallel"
    elif effective_workers <= 1:
        parallel_skipped = ("parallelism='auto' resolved to 1 worker "
                            "(tiny table or single chunk)")
    else:
        parallel_timing = time_callable(pipeline_parallel, repeats=repeats,
                                        warmup=1)
        parallel_seconds = parallel_timing.best_seconds
        parallel_speedup = (serial_timing.best_seconds
                            / max(parallel_timing.best_seconds, 1e-12))

    stats = scan_table(table, predicates, **kwargs).stats
    return {
        "scenario": scenario["name"],
        "description": scenario["description"],
        "num_predicates": len(predicates),
        "rows": table.row_count,
        "chunks_per_column": num_chunks,
        "rows_selected": int(reference.size),
        "parallelism_effective": effective_workers,
        "seed_s": seed_timing.best_seconds,
        "pipeline_s": serial_timing.best_seconds,
        "pipeline_parallel_s": parallel_seconds,
        "multi_predicate_speedup": seed_timing.best_seconds
        / max(serial_timing.best_seconds, 1e-12),
        "parallel_speedup": parallel_speedup,
        "parallel_skipped": parallel_skipped,
        "chunks_total": stats.chunks_total,
        "chunks_decompressed": stats.chunks_decompressed,
        "chunks_short_circuited": stats.chunks_short_circuited,
        "chunks_pushed_down": stats.chunks_pushed_down,
        "chunks_skipped": stats.chunks_skipped,
    }


def run_benchmark(quick: bool = False,
                  repeats: Optional[int] = None) -> Dict[str, Any]:
    num_rows = QUICK_NUM_ROWS if quick else DEFAULT_NUM_ROWS
    repeats = repeats if repeats is not None else (2 if quick else 5)
    clear_caches()
    data, table = build_table(num_rows)
    rows = [measure_scenario(scenario, table, repeats)
            for scenario in _scenarios(data)]
    return {
        "benchmark": "scan_pipeline",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "parallelism": PARALLELISM,
        "rows": rows,
    }


def _format_parallel(row: Dict[str, Any]) -> str:
    if row["parallel_skipped"] is not None:
        return f"parallel skipped ({row['parallel_skipped']})"
    return (f"parallel[{row['parallelism_effective']}] "
            f"{row['pipeline_parallel_s'] * 1e3:8.2f} ms"
            f"  parallel {row['parallel_speedup']:5.2f}x")


def write_bench_json(path: str = "BENCH_scan_pipeline.json",
                     quick: bool = False) -> Dict[str, Any]:
    report = run_benchmark(quick=quick)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return report


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small data, few repeats (CI smoke mode)")
    parser.add_argument("--out", default="BENCH_scan_pipeline.json",
                        help="output JSON path")
    args = parser.parse_args(argv)
    report = write_bench_json(args.out, quick=args.quick)
    for row in report["rows"]:
        print(f"{row['scenario']:>16}  seed {row['seed_s'] * 1e3:8.2f} ms"
              f"  pipeline {row['pipeline_s'] * 1e3:8.2f} ms"
              f"  multi-pred {row['multi_predicate_speedup']:5.2f}x"
              f"  {_format_parallel(row)}")
    print(f"wrote {args.out} (cpu_count={report['cpu_count']})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
