"""Concurrency stress for the scan pipeline and the compiled-plan caches.

These tests hammer the process-wide caches (plan/scheme compile cache in
:mod:`repro.columnar.compile.cache`, generated-column cache in the executor)
from many threads at once, starting from a *cold* cache so the compile race
itself is exercised, and assert the results stay bit-identical to serial
execution.  CI additionally runs this module as a dedicated
``-p no:cacheprovider`` invocation so the lock coverage runs even when the
rest of the suite is sharded or filtered.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import col, dataset
from repro.columnar.compile import cache_info, clear_caches
from repro.engine import Between, scan_table
from repro.schemes import (
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture()
def tables():
    rng = np.random.default_rng(42)
    n = 32_768
    schemes = {
        "rle": RunLengthEncoding(),
        "for": FrameOfReference(segment_length=128),
        "dict": DictionaryEncoding(),
        "ns": NullSuppression(),
        "delta": Delta(),
    }
    data = {
        "rle": np.repeat(rng.integers(0, 300, n // 8), 8)[:n].astype(np.int64),
        "for": (np.cumsum(rng.integers(-2, 3, n)) + 10_000).astype(np.int64),
        "dict": rng.integers(0, 64, n).astype(np.int64),
        "ns": rng.integers(0, 1 << 12, n).astype(np.int64),
        "delta": np.sort(rng.integers(0, 1 << 20, n)).astype(np.int64),
    }
    return {
        name: (data[name],
               Table.from_pydict({name: data[name]}, schemes={name: scheme},
                                 chunk_size=2_048))
        for name, scheme in schemes.items()
    }


def _expected(values, lo, hi):
    return np.flatnonzero((values >= lo) & (values <= hi))


class TestConcurrentScans:
    def test_cold_cache_concurrent_scans_agree(self, tables):
        """Many threads scanning distinct schemes through a cold compile
        cache: every scan must match its NumPy reference and the caches must
        stay consistent (no lost entries, no exceptions)."""
        clear_caches()
        barrier = threading.Barrier(8)

        jobs = []
        for name, (values, table) in tables.items():
            lo = int(np.percentile(values, 20))
            hi = int(np.percentile(values, 80))
            jobs.append((name, values, table, lo, hi))
        # duplicate jobs so several threads race on the *same* scheme key
        jobs = (jobs * 2)[:8]

        def scan(job, wait=True):
            name, values, table, lo, hi = job
            if wait:
                barrier.wait(timeout=30)
            result = scan_table(table, [Between(name, lo, hi)],
                                use_pushdown=False, use_zone_maps=False)
            return np.array_equal(result.selection.positions.values,
                                  _expected(values, lo, hi))

        # serial cold-cache baseline: how many compilations are *necessary*
        assert all(scan(job, wait=False) for job in jobs)
        serial_misses = cache_info()["plan_misses"]

        clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(scan, jobs))
        assert all(outcomes)
        # the compile race must not duplicate work: racing threads on a cold
        # key compile exactly as often as a serial run would
        assert cache_info()["plan_misses"] == serial_misses

    def test_parallel_queries_inside_parallel_scans(self, tables):
        """with_parallelism fans chunks out *inside* each of several
        concurrently running queries."""
        clear_caches()

        def run(job):
            name, (values, table) = job
            lo, hi = int(values.min()) + 1, int(values.max()) - 1
            query = (dataset(table).filter(col(name).between(lo, hi))
                     .agg(col(name).sum()))
            serial = query.collect()
            parallel = query.with_parallelism(4).collect()
            return serial.scalars == parallel.scalars

        with ThreadPoolExecutor(max_workers=5) as pool:
            outcomes = list(pool.map(run, tables.items()))
        assert all(outcomes)

    def test_repeated_parallel_scans_are_deterministic(self, tables):
        values, table = tables["for"]
        lo, hi = 9_500, 10_500
        reference = scan_table(table, [Between("for", lo, hi)])
        for __ in range(5):
            again = scan_table(table, [Between("for", lo, hi)], parallelism=8)
            assert np.array_equal(reference.selection.positions.values,
                                  again.selection.positions.values)
