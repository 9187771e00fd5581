#!/usr/bin/env python3
"""The repository's benchmark: closed-loop workloads over ``repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload warm_analytics --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client sends each op after the previous one completed.  ``--trace 0``
measures for ``--seconds`` seconds and reports the end-to-end metrics;
``--trace 1`` alternates untraced segments with traced repeats of the same
ops (layer wrappers installed), reports the per-layer metrics plus the
tracing overhead, and writes the spans to ``.bench_work/trace-<workload>-<seed>.json``
(Chrome trace-event JSON).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any op raised or returned a wrong answer, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

#: Set-up runs per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Warm-up lasts at least this long, so measuring starts in the machine's
#: steady state: on the shared 2-vCPU virtual machine it was tuned on, the
#: first seconds of CPU work after idle time run up to a third faster.
WARMUP_S = 6.0

#: A traced invocation alternates this many untraced and traced segments,
#: so drift over the run does not show up as tracing overhead.
TRACE_SEGMENTS = 3

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("bytes_per_value", "B"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from it — never from an installed copy."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {package}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class Phase:
    """Latencies (seconds) and failures of one measured phase."""

    latencies: List[float] = field(default_factory=list)
    failed: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_phase(workload, seconds: float, phase: Phase, probe=None,
              first_index: int = 0, max_ops: Optional[int] = None) -> int:
    """Closed loop, one client: op *i + 1* starts after op *i* is checked.

    Appends each op's latency to *phase* and returns the next op index.
    Only ``execute`` is timed; preparing inputs, checking the result and
    cleaning up run between timed intervals, with tracing paused.  The loop
    runs at least one op for *seconds* seconds, or exactly *max_ops* ops.
    """
    index = first_index
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if max_ops is not None:
            return index - first_index < max_ops
        return index == first_index or time.perf_counter() < deadline

    while more():
        prepared = workload.prepare(index)
        result = None
        problem = None
        start = time.perf_counter()
        try:
            if probe is None:
                result = workload.execute(prepared)
            else:
                with probe.op(index, workload.kind(index)):
                    result = workload.execute(prepared)
        except Exception:
            problem = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if problem is None:
            if probe is not None:
                probe.finish_op(result)
            problem = workload.check(prepared, result)
        workload.cleanup(prepared)
        phase.latencies.append(elapsed)
        if problem is not None:
            phase.failed += 1
            print(f"perfbench: op {index} failed: {problem}", file=sys.stderr)
        index += 1
    return index


def timed_setup(workload, seed: int, workdir: Path) -> float:
    """Set up :data:`SETUP_REPEATS` times; return the median set-up time.
    The last set-up stays in place for the measurement."""
    times = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = time.perf_counter()
        workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(workload) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + workload.worker_rss_kb()) / 1024.0


def end_to_end_metrics(workload, setup_s: float, phase: Phase) -> Dict[str, float]:
    latencies_ms = [latency * 1e3 for latency in phase.latencies]
    attempted = len(latencies_ms)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_p90": statistics.quantiles(latencies_ms, n=10,
                                               method="inclusive")[-1]
        if attempted > 1 else latencies_ms[0],
        "ops_per_s": phase.ops_per_s,
        "bytes_per_value": workload.bytes_per_value(),
        "success_ratio": (attempted - phase.failed) / attempted,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    """Run one workload; returns ``(metrics, attempted, failed)``."""
    from layers import PER_LAYER_METRICS, LayerProbe
    from workloads import WORKLOADS, scan_workers

    workload = WORKLOADS[name]()
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = timed_setup(workload, seed, workdir)
        warmup = Phase()
        start = time.perf_counter()
        index = run_phase(workload, 0, warmup, max_ops=workload.warmup_ops())
        remaining = WARMUP_S - (time.perf_counter() - start)
        if remaining > 0:
            index = run_phase(workload, remaining, warmup, first_index=index)
        gc.collect()  # no garbage from set-up is collected while measuring
        if not trace:
            phase = Phase()
            run_phase(workload, seconds, phase, first_index=index)
            values = end_to_end_metrics(workload, setup_s, phase)
            units = dict(END_TO_END)
            phases = [phase]
        else:
            untraced, traced = Phase(), Phase()
            probe = LayerProbe()
            segment_s = seconds / (2 * TRACE_SEGMENTS)
            for __ in range(TRACE_SEGMENTS):
                start = index
                index = run_phase(workload, segment_s, untraced,
                                  first_index=start)
                # The traced segment repeats the same ops, so the overhead
                # compares like with like.
                probe.install()
                try:
                    run_phase(workload, segment_s, traced, probe,
                              first_index=start, max_ops=index - start)
                finally:
                    probe.uninstall()
            values = probe.metrics()
            values["trace.ops_per_s_untraced"] = untraced.ops_per_s
            values["trace.ops_per_s_traced"] = traced.ops_per_s
            values["trace.overhead_ratio"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
            units = {metric: unit for metric, unit, __ in PER_LAYER_METRICS}
            phases = [untraced, traced]
            trace_path = WORK_DIR / f"trace-{name}-{seed}.json"
            probe.tracer.write_chrome_trace(
                trace_path, {"workload": name, "seed": seed,
                             "traced_ops": probe.ops})
            print(f"# spans of {probe.ops} traced ops -> {trace_path}")
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = scan_workers()
    if leaked:
        raise RuntimeError(f"{name} leaked scan workers: "
                           f"{[worker.name for worker in leaked]}")
    attempted = sum(len(phase.latencies) for phase in [warmup] + phases)
    failed = sum(phase.failed for phase in [warmup] + phases)
    return ({metric: (values[metric], units[metric]) for metric in units},
            attempted, failed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' to run every "
                             "workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: "
                     f"{', '.join(WORKLOADS)}, all")

    print(f"# perfbench on {platform.machine()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    for name in names:
        values, ops, bad = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace))
        attempted += ops
        failed += bad
        print(f"# {name}: {ops} ops, {bad} failed, "
              f"error_rate {bad / ops:.4f} ratio")
        for metric, (value, unit) in values.items():
            print(f"#   {metric:40s} {value:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
