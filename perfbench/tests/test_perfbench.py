"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

Each workload runs at its full size but for a fixed number of ops, so the
counts below are exact for one seed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.engine.kernels as kernels
import repro.io as repro_io
import run
from layers import PER_LAYER_METRICS, LayerProbe
from repro.storage.table import Table
from workloads import WORKLOADS, scan_workers

ROOT = Path(__file__).resolve().parents[2]
SEED = 5
TRACED_OPS = 20

#: Per-layer metrics that must be nonzero on the workload whose end-to-end
#: numbers the layer is expected to move (the table in README.md).  Ratios
#: and counts that are legitimately zero in a healthy run (declined
#: kernels, retries, respawns, compile misses after warm-up) are not listed.
NONZERO = {
    "warm_analytics": [
        "api.optimize_ms", "api.lower_self_ms",
        "engine.scan.self_ms", "engine.scan.chunks_skipped_ratio",
        "engine.scan.chunks_decompressed",
        "engine.scan.rows_computed_compressed",
        "engine.scan.bytes_decompressed_saved",
        "engine.kernels.filter_range_ms", "engine.kernels.gather_ms",
        "engine.kernels.aggregate_whole_ms", "engine.kernels.group_codes_ms",
        "engine.kernels.gather_rows",
        "engine.operators.aggregate_ms",
        "columnar.compile.plan_cache_hit_ratio",
        "schemes.decompress_ms", "schemes.decompress_calls",
    ],
    "cold_lookup": [
        "engine.scan.self_ms", "engine.scan.chunks_skipped_ratio",
        "io.reader.open_ms", "io.reader.segment_load_ms",
        "io.reader.mapped_fraction", "io.reader.segments_mapped",
    ],
    "parallel_scan": [
        "engine.operators.merge_ms",
        "engine.parallel.dispatch_ms", "engine.parallel.worker_cpu_ms",
        "engine.parallel.worker_busy_ratio", "engine.parallel.process_share",
        "engine.parallel.ranges_dispatched",
    ],
    "ingest": [
        "schemes.compress_ms", "planner.advise_ms",
        "planner.candidates_per_column", "storage.from_columns_self_ms",
        "io.writer.write_ms", "io.writer.mb_per_s",
    ],
}

#: Counts that depend only on the seed and the ops run, never on timing.
DETERMINISTIC = [
    "engine.scan.chunks_skipped_ratio", "engine.scan.chunks_decompressed",
    "engine.scan.rows_computed_compressed",
    "engine.scan.bytes_decompressed_saved", "io.reader.mapped_fraction",
    "planner.candidates_per_column", "engine.parallel.ranges_dispatched",
]


def traced_run(name, workdir):
    """Set up, warm up, then trace :data:`TRACED_OPS` ops; returns the
    per-layer metrics and the workload's bytes per value."""
    workload = WORKLOADS[name]()
    workdir.mkdir()
    workload.setup(SEED, workdir)
    try:
        warmup = run.Phase()
        index = run.run_phase(workload, 0, warmup,
                              max_ops=workload.warmup_ops())
        probe = LayerProbe()
        phase = run.Phase()
        probe.install()
        try:
            run.run_phase(workload, 0, phase, probe, first_index=index,
                          max_ops=TRACED_OPS)
        finally:
            probe.uninstall()
    finally:
        workload.teardown()
    assert warmup.failed == 0 and phase.failed == 0
    return probe.metrics(), workload.bytes_per_value()


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two independent traced runs of every workload with one seed."""
    root = tmp_path_factory.mktemp("perfbench")
    return {name: [traced_run(name, root / f"{name}-{attempt}")
                   for attempt in range(2)]
            for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_layer_metrics_nonzero_on_their_workload(traced_twice, name):
    metrics, __ = traced_twice[name][0]
    zero = [metric for metric in NONZERO[name] if not metrics[metric] > 0]
    assert not zero, f"{name}: zero per-layer metrics {zero}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_counts_repeat_for_one_seed(traced_twice, name):
    (first, first_bpv), (second, second_bpv) = traced_twice[name]
    assert first_bpv == second_bpv
    for metric in DETERMINISTIC:
        assert first[metric] == second[metric], metric


def _same_result(left, right):
    assert left.scalars.keys() == right.scalars.keys()
    for key, value in left.scalars.items():
        other = right.scalars[key]
        assert type(value) is type(other) and value == other, key
    assert left.columns.keys() == right.columns.keys()
    for key, column in left.columns.items():
        other = right.columns[key].values
        assert column.values.dtype == other.dtype, key
        assert np.array_equal(column.values, other), key
    assert left.row_count == right.row_count


@pytest.mark.parametrize("name", ["warm_analytics", "cold_lookup",
                                  "parallel_scan"])
def test_traced_results_bit_identical(tmp_path, name):
    workload = WORKLOADS[name]()
    workload.setup(SEED, tmp_path)
    probe = LayerProbe()
    try:
        for index in range(10):
            query = workload.prepare(index)
            untraced = workload.execute(query)
            probe.install()
            try:
                with probe.op(index, workload.kind(index)):
                    traced = workload.execute(query)
            finally:
                probe.uninstall()
            _same_result(untraced, traced)
            assert query.mismatch(traced) is None
    finally:
        workload.teardown()
    assert probe.ops == 10


def test_traced_ingest_writes_identical_tables(tmp_path):
    workload = WORKLOADS["ingest"]()
    workload.setup(SEED, tmp_path)
    probe = LayerProbe()
    for index in range(2):
        op = workload.prepare(index)
        untraced = workload.execute(op)
        plain = untraced.with_suffix(".untraced")
        untraced.rename(plain)
        probe.install()
        try:
            with probe.op(index, "ingest"):
                traced = workload.execute(op)
        finally:
            probe.uninstall()
        assert workload.check(op, traced) is None
        with repro_io.open_table(plain) as left, repro_io.open_table(traced) as right:
            for column in op.columns:
                assert left.table.column(column).encodings() \
                    == right.table.column(column).encodings()
                assert np.array_equal(
                    left.table.column(column).materialize().values,
                    right.table.column(column).materialize().values)
        workload.cleanup(op)


def test_wrappers_are_removed():
    before = (kernels.gather, Table.__dict__["from_columns"])
    probe = LayerProbe()
    probe.install()
    assert kernels.gather is not before[0]
    probe.uninstall()
    assert (kernels.gather, Table.__dict__["from_columns"]) == before


def test_no_scan_workers_outlive_parallel_scan(tmp_path):
    workload = WORKLOADS["parallel_scan"]()
    workload.setup(SEED, tmp_path)
    assert 0 < len(scan_workers()) <= (os.cpu_count() or 1)
    workload.teardown()
    assert scan_workers() == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, __ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for __, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER_METRICS


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
