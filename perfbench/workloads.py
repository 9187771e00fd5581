"""The four benchmark workloads.

Every input is generated here from the benchmark seed; the program only
sees the generated columns and the queries built over them.  Each workload
has the same life cycle, driven by ``run.py``:

* ``setup(seed, workdir)`` — generate, compress, write, open, start the
  pool and compute every reference answer (timed as ``setup_s``);
* ``warmup_ops()`` ops, run once, untimed, before measuring;
* ``prepare(i)`` — untimed per-op input (the query, or an ingest batch);
* ``execute(prepared)`` — the timed op;
* ``check(prepared, result)`` — untimed comparison with the reference;
* ``cleanup(prepared)`` / ``teardown()`` — untimed.

References are computed from the raw generated arrays with plain NumPy, so
a wrong answer from any layer of the program fails the op.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.io as repro_io
from repro.api import Dataset, col, dataset
from repro.columnar.compile import clear_caches
from repro.engine.parallel import shutdown_pools
from repro.io.verify import verify_packed_file
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage.table import Table
from repro.workloads import generators

CHUNK_ROWS = 65_536
INGEST_ROWS = 65_536
WORKER_NAME_PREFIX = "repro-scan-worker"

#: Domain of the sorted ``date`` column (distinct days).
DATE_DAYS = 2_000


# --------------------------------------------------------------------------- #
# Data
# --------------------------------------------------------------------------- #

def analytics_columns(num_rows: int, seed: int) -> Dict[str, np.ndarray]:
    """The analytics table's raw columns (the shapes of
    ``repro.bench.compressed_exec.build_table``).

    * ``mode`` — 16 spread-out values in random order (DICT, 4-bit codes);
    * ``date`` — sorted with ~``num_rows / 2000``-row runs (RLE∘DELTA);
    * ``price`` — a smooth random walk (FOR over 256-value segments);
    * ``qty`` — uniform 10-bit noise (NS).
    """
    rng = np.random.default_rng(seed)
    return {
        "mode": (rng.integers(0, 16, num_rows) * 5).astype(np.int64),
        "date": np.sort(rng.integers(0, DATE_DAYS, num_rows)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, num_rows)) + 100_000).astype(np.int64),
        "qty": rng.integers(0, 1 << 10, num_rows).astype(np.int64),
    }


def analytics_schemes() -> Dict[str, Any]:
    return {
        "mode": DictionaryEncoding(),
        "date": Cascade(RunLengthEncoding(),
                        {"values": Delta(), "lengths": NullSuppression()}),
        "price": FrameOfReference(segment_length=256),
        "qty": NullSuppression(),
    }


def write_analytics_file(data: Dict[str, np.ndarray], path: Path) -> int:
    """Compress *data* into a packed v3 file; returns its size in bytes."""
    table = Table.from_pydict(data, schemes=analytics_schemes(),
                              chunk_size=CHUNK_ROWS)
    return repro_io.save_table(table, path).stat().st_size


def ingest_batch(seed: int, index: int) -> Dict[str, Any]:
    """One seeded 4-column batch whose columns the advisor stores as
    RLE (cascade), DICT, FOR and PFOR respectively."""
    base = (seed * 1_000_003 + index * 4) % (1 << 32)
    return {
        "ship_date": generators.shipping_dates(INGEST_ROWS, seed=base),
        "category": generators.zipfian_categories(INGEST_ROWS, seed=base + 1),
        "measure": generators.smooth_measure(INGEST_ROWS, seed=base + 2),
        "sensor": generators.step_with_outliers(INGEST_ROWS, seed=base + 3),
    }


# --------------------------------------------------------------------------- #
# Queries and their references
# --------------------------------------------------------------------------- #

@dataclass
class Query:
    """One query instance: how to build it and its reference answer."""

    kind: str
    build: Callable[[Dataset], Dataset]
    scalars: Dict[str, Any] = field(default_factory=dict)
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def mismatch(self, result: Any) -> Optional[str]:
        """Why *result* differs from the reference, or ``None``."""
        if set(result.scalars) != set(self.scalars) \
                or set(result.columns) != set(self.columns):
            return (f"{self.kind}: output names {sorted(result.scalars)}"
                    f"/{sorted(result.columns)} != {sorted(self.scalars)}"
                    f"/{sorted(self.columns)}")
        for name, want in self.scalars.items():
            got = result.scalars[name]
            if np.asarray(got).dtype.kind != np.asarray(want).dtype.kind \
                    or got != want:
                return f"{self.kind}: {name} = {got!r}, reference {want!r}"
        for name, want in self.columns.items():
            got = result.columns[name].values
            if got.dtype != want.dtype or not np.array_equal(got, want):
                return (f"{self.kind}: column {name} ({got.dtype}, "
                        f"{got.size} rows) differs from the reference "
                        f"({want.dtype}, {want.size} rows)")
        return None


def _date_slice(date: np.ndarray, lo: int, hi: int) -> slice:
    """Rows with ``lo <= date <= hi`` (``date`` is sorted)."""
    return slice(int(np.searchsorted(date, lo, "left")),
                 int(np.searchsorted(date, hi, "right")))


def _grouped(keys: np.ndarray, values: np.ndarray):
    """Sorted distinct keys with the int64 SUM and MAX of *values* per key
    (*keys* are small non-negative integers)."""
    counts = np.bincount(keys)
    sums = np.zeros(counts.size, dtype=np.int64)
    np.add.at(sums, keys, values)
    peaks = np.full(counts.size, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(peaks, keys, values)
    present = np.flatnonzero(counts)
    return present.astype(np.int64), sums[present], peaks[present]


def q_filter_sum(data, rng) -> Query:
    """Selective dict-code + date filter, SUM over FOR-gathered ``price``."""
    low = int(rng.integers(0, 15)) * 5
    lo = int(rng.integers(0, DATE_DAYS - 200))
    rows = _date_slice(data["date"], lo, lo + 200)
    mode = data["mode"][rows]
    mask = (mode >= low) & (mode <= low + 5)
    return Query(
        "filter_sum",
        lambda ds: ds.filter(col("mode").between(low, low + 5)
                             & col("date").between(lo, lo + 200))
        .agg(col("price").sum().alias("total")),
        scalars={"total": data["price"][rows][mask].sum(dtype=np.int64)})


def q_run_domain(data, rng) -> Query:
    """Wide date range, SUM over the RLE∘DELTA ``date`` cascade and MAX over
    the DICT ``mode``: whole chunks aggregate in the run and dictionary
    domains, the two edge chunks gather.  (Two aggregates over one column
    would share one positional gather instead.)"""
    lo = int(rng.integers(0, DATE_DAYS - 1000))
    hi = lo + 999
    rows = _date_slice(data["date"], lo, hi)
    return Query(
        "run_domain",
        lambda ds: ds.filter(col("date").between(lo, hi))
        .agg(col("date").sum().alias("total"), col("mode").max().alias("top")),
        scalars={"total": data["date"][rows].sum(dtype=np.int64),
                 "top": data["mode"][rows].max()})


def q_ns_range_min(data, rng) -> Query:
    """NS word-parallel range filter on ``qty``, MIN(``price``)."""
    low = int(rng.integers(0, (1 << 10) - 128))
    qty = data["qty"]
    return Query(
        "ns_range_min",
        lambda ds: ds.filter(col("qty").between(low, low + 127))
        .agg(col("price").min().alias("floor")),
        scalars={"floor": data["price"][(qty >= low) & (qty <= low + 127)].min()})


def _group_by_mode(data, lo: int, hi: int, kind: str, with_max: bool) -> Query:
    rows = _date_slice(data["date"], lo, hi)
    keys, totals, peaks = _grouped(data["mode"][rows], data["price"][rows])
    columns = {"mode": keys, "total": totals}
    aggregates = [col("price").sum().alias("total")]
    if with_max:
        columns["peak"] = peaks
        aggregates.append(col("price").max().alias("peak"))
    return Query(
        kind,
        lambda ds: ds.filter(col("date").between(lo, hi)).group_by("mode")
        .agg(*aggregates),
        columns=columns)


def q_group_codes(data, rng) -> Query:
    """Date range, GROUP BY the dictionary codes of ``mode``, SUM(``price``)."""
    lo = int(rng.integers(0, DATE_DAYS - 600))
    return _group_by_mode(data, lo, lo + 599, "group_codes", with_max=False)


def q_topk_derived(data, rng) -> Query:
    """The date range of one chunk minus its boundary days, derived
    ``price*qty``, top-10 sort.

    The selection is nearly all of exactly one chunk, so the scan
    decompresses that chunk's columns instead of gathering positionally,
    and every instance does the same amount of work."""
    date = data["date"]
    chunk = int(rng.integers(0, date.size // CHUNK_ROWS))
    lo = int(date[chunk * CHUNK_ROWS]) + 1
    hi = int(date[(chunk + 1) * CHUNK_ROWS - 1]) - 1
    rows = _date_slice(date, lo, hi)
    revenue = data["price"][rows] * data["qty"][rows]
    # The engine's sort is stable: ties keep row order.
    top = np.argsort(-revenue, kind="stable")[:10]
    return Query(
        "topk_derived",
        lambda ds: ds.filter(col("date").between(lo, hi))
        .with_column("revenue", col("price") * col("qty"))
        .select("date", "revenue")
        .sort("revenue", descending=True).limit(10),
        columns={"date": date[rows][top], "revenue": revenue[top]})


def q_heavy_group(data, rng) -> Query:
    """Wide date range, GROUP BY ``mode``, integer SUM and MAX."""
    lo = int(rng.integers(0, DATE_DAYS - 1200))
    return _group_by_mode(data, lo, lo + 1199, "heavy_group", with_max=True)


def q_cold_lookup(data, rng) -> Query:
    """Narrow range on the sorted ``date`` plus a ``qty`` filter, SUM(``price``)."""
    lo = int(rng.integers(0, DATE_DAYS - 3))
    hi = lo + 2
    low = int(rng.integers(0, 512))
    rows = _date_slice(data["date"], lo, hi)
    qty = data["qty"][rows]
    mask = (qty >= low) & (qty <= low + 511)
    return Query(
        "cold_lookup",
        lambda ds: ds.filter(col("date").between(lo, hi)
                             & col("qty").between(low, low + 511))
        .agg(col("price").sum().alias("total")),
        scalars={"total": data["price"][rows][mask].sum(dtype=np.int64)})


# --------------------------------------------------------------------------- #
# Process-pool helpers
# --------------------------------------------------------------------------- #

def scan_workers() -> List[multiprocessing.Process]:
    """Live process-pool workers that are children of this process."""
    return [child for child in multiprocessing.active_children()
            if child.name.startswith(WORKER_NAME_PREFIX)]


def worker_peak_rss_kb() -> int:
    """Sum of every live pool worker's peak resident set (``VmHWM``)."""
    total = 0
    for worker in scan_workers():
        try:
            with open(f"/proc/{worker.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

class Workload:
    name = ""
    why = ""

    def __init__(self) -> None:
        self.file_bytes = 0
        self.values_stored = 0

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def warmup_ops(self) -> int:
        """Untimed ops run once after set-up, before measuring."""
        raise NotImplementedError

    def kind(self, index: int) -> str:
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        raise NotImplementedError

    def execute(self, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, prepared: Any, result: Any) -> Optional[str]:
        """``None`` when *result* is correct, else what is wrong."""
        return prepared.mismatch(result)

    def cleanup(self, prepared: Any) -> None:
        pass

    def teardown(self) -> None:
        pass

    def worker_rss_kb(self) -> int:
        return 0

    def bytes_per_value(self) -> float:
        return self.file_bytes / self.values_stored


class _QueryWorkload(Workload):
    """A workload whose ops cycle through a seeded pool of queries; the
    warm-up runs the whole pool once, so every plan is compiled and every
    segment the queries touch has been mapped and verified."""

    def __init__(self) -> None:
        super().__init__()
        self.queries: List[Query] = []

    def warmup_ops(self) -> int:
        return len(self.queries)

    def kind(self, index: int) -> str:
        return self.queries[index % len(self.queries)].kind

    def prepare(self, index: int) -> Query:
        return self.queries[index % len(self.queries)]


class WarmAnalytics(_QueryWorkload):
    name = "warm_analytics"
    why = ("open-once table: compressed-domain kernels, gather, aggregation "
           "and compiled decompression do the work; io and parallel idle")
    ROWS = 16 * CHUNK_ROWS
    TEMPLATES = (q_filter_sum, q_run_domain, q_ns_range_min, q_group_codes,
                 q_topk_derived)
    PER_TEMPLATE = 40

    def setup(self, seed: int, workdir: Path) -> None:
        clear_caches()
        data = analytics_columns(self.ROWS, seed)
        path = workdir / "warm_analytics.rpk"
        self.file_bytes = write_analytics_file(data, path)
        self.values_stored = self.ROWS * len(data)
        rng = np.random.default_rng([seed, 1])
        # Interleaved, so op i runs template i % 5.
        self.queries = [template(data, rng)
                        for __ in range(self.PER_TEMPLATE)
                        for template in self.TEMPLATES]
        self.handle = repro_io.open_table(path)
        self.dataset = dataset(self.handle.table, self.name)

    def execute(self, query: Query) -> Any:
        return query.build(self.dataset).collect()

    def teardown(self) -> None:
        self.handle.close()


class ColdLookup(_QueryWorkload):
    name = "cold_lookup"
    why = ("open, footer parse, mmap and first-touch CRC per op; zone maps "
           "leave kernels 1-2 chunks")
    ROWS = 64 * CHUNK_ROWS
    POOL = 128

    def setup(self, seed: int, workdir: Path) -> None:
        clear_caches()
        data = analytics_columns(self.ROWS, seed)
        self.path = workdir / "cold_lookup.rpk"
        self.file_bytes = write_analytics_file(data, self.path)
        self.values_stored = self.ROWS * len(data)
        rng = np.random.default_rng([seed, 2])
        self.queries = [q_cold_lookup(data, rng) for __ in range(self.POOL)]

    def execute(self, query: Query) -> Any:
        handle = repro_io.open_table(self.path)
        try:
            return query.build(dataset(handle.table, self.name)).collect()
        finally:
            handle.close()


class ParallelScan(_QueryWorkload):
    name = "parallel_scan"
    why = ("process backend: 1 heavy group-by to 3 light filter-sums; only "
           "dispatch, pipe and partial merge differ from warm_analytics")
    ROWS = 32 * CHUNK_ROWS
    HEAVY = 16

    def setup(self, seed: int, workdir: Path) -> None:
        clear_caches()
        data = analytics_columns(self.ROWS, seed)
        path = workdir / "parallel_scan.rpk"
        self.file_bytes = write_analytics_file(data, path)
        self.values_stored = self.ROWS * len(data)
        rng = np.random.default_rng([seed, 3])
        self.queries = []
        for __ in range(self.HEAVY):
            self.queries.append(q_heavy_group(data, rng))
            self.queries.extend(q_filter_sum(data, rng) for __ in range(3))
        self.handle = repro_io.open_table(path)
        self.dataset = dataset(self.handle.table, self.name) \
            .with_backend("process", workers="auto")
        # The first query starts the pool.
        self.execute(self.queries[0])
        workers = len(scan_workers())
        if workers > (os.cpu_count() or 1):
            raise RuntimeError(f"{workers} scan workers started on "
                               f"{os.cpu_count()} CPUs")

    def execute(self, query: Query) -> Any:
        return query.build(self.dataset).collect()

    def worker_rss_kb(self) -> int:
        return worker_peak_rss_kb()

    def teardown(self) -> None:
        shutdown_pools()
        self.handle.close()
        leaked = scan_workers()
        if leaked:
            raise RuntimeError(f"scan workers outlived shutdown_pools(): "
                               f"{[worker.name for worker in leaked]}")


@dataclass
class IngestOp:
    columns: Dict[str, Any]
    path: Path


class Ingest(Workload):
    name = "ingest"
    why = ("write side: advisor, compression and packed writer do all the "
           "work; no query layer runs")
    BATCHES = 16

    def setup(self, seed: int, workdir: Path) -> None:
        clear_caches()
        self.workdir = workdir
        self.file_bytes = self.values_stored = 0
        self.batches = [ingest_batch(seed, index) for index in range(self.BATCHES)]

    def warmup_ops(self) -> int:
        return 3

    def kind(self, index: int) -> str:
        return "ingest"

    def prepare(self, index: int) -> IngestOp:
        return IngestOp(self.batches[index % self.BATCHES],
                        self.workdir / f"batch-{index}.rpk")

    def execute(self, op: IngestOp) -> Path:
        table = Table.from_columns(op.columns, schemes="auto")
        return repro_io.save_table(table, op.path)

    def check(self, op: IngestOp, result: Path) -> Optional[str]:
        self.file_bytes += result.stat().st_size
        self.values_stored += INGEST_ROWS * len(op.columns)
        report = verify_packed_file(result)
        if not report.ok:
            return f"ingest: {report.summary()}"
        with repro_io.open_table(result) as handle:
            for name, column in op.columns.items():
                got = handle.table.column(name).materialize().values
                if got.dtype != column.values.dtype \
                        or not np.array_equal(got, column.values):
                    return f"ingest: column {name} does not round-trip"
        return None

    def cleanup(self, op: IngestOp) -> None:
        op.path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (WarmAnalytics, ColdLookup,
                                        ParallelScan, Ingest)}
