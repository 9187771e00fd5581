"""Cold-scan benchmark: packed v2 mmap-lazy reads vs the eager v1 loader.

Builds a multi-scheme orders table, persists it twice — as a deprecated v1
loose-``.npy`` directory and as one packed v2 file — and then times, per
selectivity level, a **cold** query (storage reopened from scratch inside
the timed region):

* the **v1** path pays the eager tax: ``read_table`` materialises every
  constituent of every chunk of every column before the first predicate
  runs;
* the **v2** path opens the footer, prunes chunks on the persisted zone
  maps, and maps only the surviving chunks' constituent byte ranges — the
  win grows as the query gets more selective, and ``mapped_fraction``
  records exactly how little of the file a scan touched.

Results go to ``BENCH_io.json``.  "Cold" here means cold *library* state,
not a cold OS page cache (CI runners cannot drop caches); the v1/v2 gap is
therefore dominated by deserialisation and decompression work, which is the
part the format actually controls.

Run as a module::

    PYTHONPATH=src python -m repro.bench.io_scan [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..columnar.compile import clear_caches
from ..api import col, dataset
from ..io.reader import open_packed_table
from ..io.writer import write_packed_table
from ..schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from ..storage.serialization import read_table, write_table
from ..storage.table import Table
from .harness import time_callable

DEFAULT_NUM_ROWS = 1_000_000
QUICK_NUM_ROWS = 131_072
CHUNK_SIZE = 65_536

#: (name, fraction of the ship_date domain the Between window covers)
SELECTIVITIES: List[Tuple[str, float]] = [
    ("needle_1pct", 0.01),
    ("narrow_5pct", 0.05),
    ("band_20pct", 0.20),
    ("half_50pct", 0.50),
    ("full_100pct", 1.00),
]


def build_table(num_rows: int, seed: int = 20_180_416) -> Table:
    """Clustered date + smooth price + random quantity + skewed category."""
    rng = np.random.default_rng(seed)
    data = {
        "ship_date": np.sort(rng.integers(0, 2_000, num_rows)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, num_rows)) + 100_000).astype(np.int64),
        "quantity": rng.integers(0, 1 << 10, num_rows).astype(np.int64),
        "category": rng.integers(0, 64, num_rows).astype(np.int64),
    }
    return Table.from_pydict(
        data,
        schemes={
            "ship_date": Cascade(RunLengthEncoding(), {"values": Delta()}),
            "price": FrameOfReference(segment_length=256),
            "quantity": NullSuppression(),
            "category": DictionaryEncoding(),
        },
        chunk_size=CHUNK_SIZE,
    )


def _window(table: Table, fraction: float) -> Tuple[int, int]:
    dates = table.column("ship_date")
    lo = dates.chunks[0].statistics.minimum
    hi = dates.chunks[-1].statistics.maximum
    width = max(1, int((hi - lo) * fraction))
    return lo, min(hi, lo + width)


def _query(table: Table, bounds: Tuple[int, int]):
    return (dataset(table)
            .filter(col("ship_date").between(bounds[0], bounds[1]))
            .agg(col("price").sum())
            .collect())


def measure_selectivity(name: str, fraction: float, v1_dir: Path,
                        v2_path: Path, repeats: int) -> Dict[str, Any]:
    probe = open_packed_table(v2_path)
    bounds = _window(probe.table, fraction)

    def cold_v1():
        return _query(read_table(v1_dir), bounds)

    def cold_v2():
        return _query(open_packed_table(v2_path).table, bounds)

    reference = cold_v1()
    check = cold_v2()
    assert reference.scalars == check.scalars, name
    assert reference.row_count == check.row_count, name

    v1_timing = time_callable(cold_v1, repeats=repeats, warmup=1)
    v2_timing = time_callable(cold_v2, repeats=repeats, warmup=1)

    accounted = open_packed_table(v2_path)
    result = _query(accounted.table, bounds)
    return {
        "scenario": name,
        "window_fraction": fraction,
        "rows_selected": int(result.row_count),
        "selectivity": result.row_count / max(1, accounted.table.row_count),
        "cold_v1_s": v1_timing.best_seconds,
        "cold_v2_s": v2_timing.best_seconds,
        "cold_speedup": v1_timing.best_seconds / max(v2_timing.best_seconds, 1e-12),
        "bytes_mapped": int(accounted.bytes_mapped),
        "file_size": int(accounted.file_size),
        "mapped_fraction": accounted.bytes_mapped / max(1, accounted.file_size),
        "chunks_skipped": (result.scan_stats.chunks_skipped
                           if result.scan_stats else 0),
        "chunks_total": (result.scan_stats.chunks_total
                         if result.scan_stats else 0),
    }


def run_benchmark(quick: bool = False,
                  repeats: Optional[int] = None) -> Dict[str, Any]:
    num_rows = QUICK_NUM_ROWS if quick else DEFAULT_NUM_ROWS
    repeats = repeats if repeats is not None else (2 if quick else 5)
    clear_caches()
    table = build_table(num_rows)
    workdir = Path(tempfile.mkdtemp(prefix="repro-io-bench-"))
    try:
        v1_dir = workdir / "v1_table"
        v2_path = workdir / "table.rpk"
        write_table(table, v1_dir)
        write_packed_table(table, v2_path)
        v1_bytes = sum(f.stat().st_size for f in v1_dir.rglob("*") if f.is_file())
        rows = [measure_selectivity(name, fraction, v1_dir, v2_path, repeats)
                for name, fraction in SELECTIVITIES]
        return {
            "benchmark": "io_scan",
            "quick": quick,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "rows": rows,
            "table_rows": num_rows,
            "v1_on_disk_bytes": int(v1_bytes),
            "v2_on_disk_bytes": int(v2_path.stat().st_size),
            "uncompressed_bytes": int(table.uncompressed_size_bytes()),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_bench_json(path: str = "BENCH_io.json",
                     quick: bool = False) -> Dict[str, Any]:
    report = run_benchmark(quick=quick)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return report


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small data, few repeats (CI smoke mode)")
    parser.add_argument("--out", default="BENCH_io.json",
                        help="output JSON path")
    args = parser.parse_args(argv)
    report = write_bench_json(args.out, quick=args.quick)
    for row in report["rows"]:
        print(f"{row['scenario']:>14}  cold v1 {row['cold_v1_s'] * 1e3:8.2f} ms"
              f"  cold v2 {row['cold_v2_s'] * 1e3:8.2f} ms"
              f"  speedup {row['cold_speedup']:6.2f}x"
              f"  mapped {row['mapped_fraction'] * 100:5.1f}% of file")
    print(f"wrote {args.out} (v1 {report['v1_on_disk_bytes']} B across files, "
          f"v2 {report['v2_on_disk_bytes']} B in one file)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
