"""Per-layer probes for the traced run: which entry points are wrapped, the
counts taken at them, and the per-layer metrics derived from spans.

Every time and count is reported **per op** of the traced phase, except
ratios, which are measured where the work happens (chunks skipped over
chunks evaluated, kernel calls that declined over kernel calls, ...).
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

from repro.columnar.compile import cache_info
from repro.engine.operators import ScanStats
from repro.io.reader import SegmentSource
from repro.schemes.base import CompressionScheme
from repro.storage.table import Table

from tracing import ADVISOR_SPAN, Tracer
from workloads import scan_workers

# By module path: ``repro.api.dataset`` is also the name of a function that
# ``repro.api`` re-exports, so attribute-style imports would get that.
api_dataset = importlib.import_module("repro.api.dataset")
api_lower = importlib.import_module("repro.api.lower")
kernels = importlib.import_module("repro.engine.kernels")
parallel = importlib.import_module("repro.engine.parallel")
advisor = importlib.import_module("repro.planner.advisor")
repro_io = importlib.import_module("repro.io")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("api.optimize_ms", "ms", "lower"),
    ("api.lower_self_ms", "ms", "lower"),
    ("engine.scan.self_ms", "ms", "lower"),
    ("engine.scan.chunks_skipped_ratio", "ratio", "higher"),
    ("engine.scan.chunks_decompressed", "count", "lower"),
    ("engine.scan.rows_computed_compressed", "count", "higher"),
    ("engine.scan.bytes_decompressed_saved", "B", "higher"),
    ("engine.kernels.filter_range_ms", "ms", "lower"),
    ("engine.kernels.gather_ms", "ms", "lower"),
    ("engine.kernels.aggregate_whole_ms", "ms", "lower"),
    ("engine.kernels.group_codes_ms", "ms", "lower"),
    ("engine.kernels.gather_rows", "count", "lower"),
    ("engine.kernels.unsupported_ratio", "ratio", "lower"),
    ("engine.operators.aggregate_ms", "ms", "lower"),
    ("engine.operators.merge_ms", "ms", "lower"),
    ("engine.parallel.dispatch_ms", "ms", "lower"),
    ("engine.parallel.worker_cpu_ms", "ms", "lower"),
    ("engine.parallel.worker_busy_ratio", "ratio", "higher"),
    ("engine.parallel.process_share", "ratio", "lower"),
    ("engine.parallel.ranges_dispatched", "count", "lower"),
    ("engine.parallel.ranges_retried", "count", "lower"),
    ("engine.parallel.workers_respawned", "count", "lower"),
    ("columnar.compile.plan_cache_hit_ratio", "ratio", "higher"),
    ("columnar.compile.plan_misses", "count", "lower"),
    ("schemes.decompress_ms", "ms", "lower"),
    ("schemes.decompress_calls", "count", "lower"),
    ("schemes.compress_ms", "ms", "lower"),
    ("planner.advise_ms", "ms", "lower"),
    ("planner.candidates_per_column", "count", "lower"),
    ("storage.from_columns_self_ms", "ms", "lower"),
    ("io.reader.open_ms", "ms", "lower"),
    ("io.reader.segment_load_ms", "ms", "lower"),
    ("io.reader.mapped_fraction", "ratio", "lower"),
    ("io.reader.segments_mapped", "count", "lower"),
    ("io.writer.write_ms", "ms", "lower"),
    ("io.writer.mb_per_s", "MB/s", "higher"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_KERNELS = ("filter_range", "gather", "aggregate_whole", "group_codes")
_OPERATORS_IN_LOWER = ("aggregate_stored", "gather_stored",
                       "group_codes_stored", "grouped_reduce")
_OPERATOR_SPANS = tuple(f"engine.operators:{name}"
                        for name in _OPERATORS_IN_LOWER
                        + ("aggregate_stored_partial",))
_DISPATCH_SPANS = ("engine.parallel:run_process_scan",
                   "engine.parallel:run_process_aggregate")


def _proc_cpu_ticks(pid: int) -> int:
    """utime + stime of *pid* in clock ticks, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return int(fields[11]) + int(fields[12])


def _all_scheme_classes() -> List[type]:
    seen: List[type] = []
    pending = [CompressionScheme]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


class LayerProbe:
    """Installs the layer wrappers and turns spans and counts into metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.ops = 0
        self.scan_stats = ScanStats()
        self.scans = 0
        self.process_scans = 0
        self.kernel_calls = 0
        self.kernel_declined = 0
        self.gather_rows = 0
        self.ranges_dispatched = 0
        self.advised_columns = 0
        self.candidates = 0
        self.bytes_written = 0
        self.bytes_mapped = 0
        self.file_bytes_opened = 0
        self.cache: Dict[str, int] = defaultdict(int)
        self.worker_cpu_ticks = 0
        self.max_workers = 0
        self._opened: List[Any] = []

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        wrap = self.tracer.wrap
        wrap(api_dataset, "optimize", "api:optimize")
        wrap(api_dataset, "run_plan", "api:run_plan")
        wrap(api_lower, "scan_table", "engine.scan:scan_table",
             on_result=self._on_scan)
        for name in _KERNELS:
            wrap(kernels, name, f"engine.kernels:{name}",
                 on_result=self._on_gather if name == "gather" else self._on_kernel)
        for name in _OPERATORS_IN_LOWER:
            wrap(api_lower, name, f"engine.operators:{name}")
        wrap(parallel, "aggregate_stored_partial",
             "engine.operators:aggregate_stored_partial")
        wrap(parallel, "merge_states", "engine.operators:merge_states")
        wrap(parallel, "run_process_scan", "engine.parallel:run_process_scan")
        wrap(parallel, "run_process_aggregate",
             "engine.parallel:run_process_aggregate",
             on_result=self._on_process_aggregate)
        wrap(parallel, "_dispatch", "engine.parallel:dispatch",
             on_result=self._on_dispatch)
        wrap(advisor, "advise", "planner:advise", on_result=self._on_advise)
        wrap(Table, "from_columns", "storage:from_columns")
        wrap(repro_io, "open_table", "io.reader:open_table",
             on_result=self._on_open)
        wrap(SegmentSource, "load", "io.reader:load")
        wrap(repro_io, "save_table", "io.writer:save_table",
             on_result=self._on_save)
        for cls in _all_scheme_classes():
            for method in ("compress", "decompress"):
                func = cls.__dict__.get(method)
                if func is not None and not getattr(func, "__isabstractmethod__", False):
                    wrap(cls, method, f"schemes:{method}", collapse=True)

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _on_scan(self, args, kwargs, result) -> None:
        self.scans += 1
        if result.backend.startswith("process"):
            self.process_scans += 1

    def _on_process_aggregate(self, args, kwargs, result) -> None:
        self.scans += 1
        self.process_scans += 1

    def _on_kernel(self, args, kwargs, result) -> None:
        self.kernel_calls += 1
        if result is None:
            self.kernel_declined += 1

    def _on_gather(self, args, kwargs, result) -> None:
        self._on_kernel(args, kwargs, result)
        if result is not None:
            self.gather_rows += len(result)

    def _on_dispatch(self, args, kwargs, result) -> None:
        ranges = args[1] if len(args) > 1 else kwargs["ranges"]
        self.ranges_dispatched += len(ranges)

    def _on_advise(self, args, kwargs, result) -> None:
        self.advised_columns += 1
        self.candidates += len(result.evaluations)

    def _on_open(self, args, kwargs, result) -> None:
        self._opened.append(result)

    def _on_save(self, args, kwargs, result) -> None:
        self.bytes_written += result.stat().st_size

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #

    @contextmanager
    def op(self, index: int, kind: str) -> Iterator[None]:
        """Trace one op: a root span, with cache and worker-CPU deltas."""
        tracer = self.tracer
        before_cache = cache_info()
        workers = scan_workers()
        self.max_workers = max(self.max_workers, len(workers))
        before_cpu = {w.pid: _proc_cpu_ticks(w.pid) for w in workers}
        tracer.op = index
        tracer.enabled = True
        span = tracer.open(f"op:{kind}")
        try:
            yield
        finally:
            tracer.close(span)
            tracer.enabled = False
            after_cache = cache_info()
            for key in ("plan_hits", "plan_misses", "scheme_hits", "scheme_misses"):
                self.cache[key] += after_cache[key] - before_cache[key]
            for pid, ticks in before_cpu.items():
                after = _proc_cpu_ticks(pid)
                if after >= ticks:
                    self.worker_cpu_ticks += after - ticks
            self.ops += 1

    def finish_op(self, result: Any) -> None:
        """Harvest counts from an op's result and the files it opened."""
        stats = getattr(result, "scan_stats", None)
        if stats is not None:
            self.scan_stats.merge(stats)
        for handle in self._opened:
            self.bytes_mapped += handle.bytes_mapped
            self.file_bytes_opened += handle.file_size
        self._opened.clear()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def _ms(self, names, self_time: bool = False) -> float:
        total = 0
        for name in names:
            totals = self.tracer.totals.get(name)
            if totals is not None:
                total += totals.self_ns if self_time else totals.total_ns
        return total / 1e6 / max(self.ops, 1)

    def _calls(self, name: str) -> int:
        totals = self.tracer.totals.get(name)
        return totals.calls if totals is not None else 0

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the ops traced so far (``trace.*`` excluded)."""
        ops = max(self.ops, 1)
        stats = self.scan_stats
        dispatch_ms = self._ms(_DISPATCH_SPANS)
        worker_cpu_ms = (self.worker_cpu_ticks * 1000.0
                         / os.sysconf("SC_CLK_TCK") / ops)
        lookups = sum(self.cache.values())
        hits = self.cache["plan_hits"] + self.cache["scheme_hits"]
        write_ms = self._ms(["io.writer:save_table"])
        return {
            "api.optimize_ms": self._ms(["api:optimize"]),
            "api.lower_self_ms": self._ms(["api:run_plan"], self_time=True),
            "engine.scan.self_ms": self._ms(["engine.scan:scan_table"],
                                            self_time=True),
            "engine.scan.chunks_skipped_ratio":
                stats.chunks_skipped / stats.chunks_total if stats.chunks_total else 0.0,
            "engine.scan.chunks_decompressed": stats.chunks_decompressed / ops,
            "engine.scan.rows_computed_compressed":
                stats.rows_computed_compressed / ops,
            "engine.scan.bytes_decompressed_saved":
                stats.bytes_decompressed_saved / ops,
            "engine.kernels.filter_range_ms":
                self._ms(["engine.kernels:filter_range"]),
            "engine.kernels.gather_ms": self._ms(["engine.kernels:gather"]),
            "engine.kernels.aggregate_whole_ms":
                self._ms(["engine.kernels:aggregate_whole"]),
            "engine.kernels.group_codes_ms":
                self._ms(["engine.kernels:group_codes"]),
            "engine.kernels.gather_rows": self.gather_rows / ops,
            "engine.kernels.unsupported_ratio":
                self.kernel_declined / self.kernel_calls if self.kernel_calls else 0.0,
            "engine.operators.aggregate_ms":
                self._ms(_OPERATOR_SPANS, self_time=True),
            "engine.operators.merge_ms":
                self._ms(["engine.operators:merge_states"]),
            "engine.parallel.dispatch_ms": dispatch_ms,
            "engine.parallel.worker_cpu_ms": worker_cpu_ms,
            "engine.parallel.worker_busy_ratio":
                worker_cpu_ms / (self.max_workers * dispatch_ms)
                if self.max_workers and dispatch_ms else 0.0,
            "engine.parallel.process_share":
                self.process_scans / self.scans if self.scans else 0.0,
            "engine.parallel.ranges_dispatched": self.ranges_dispatched / ops,
            "engine.parallel.ranges_retried": stats.ranges_retried / ops,
            "engine.parallel.workers_respawned": stats.workers_respawned / ops,
            "columnar.compile.plan_cache_hit_ratio":
                hits / lookups if lookups else 0.0,
            "columnar.compile.plan_misses": self.cache["plan_misses"] / ops,
            "schemes.decompress_ms": self._ms(["schemes:decompress"]),
            "schemes.decompress_calls": self._calls("schemes:decompress") / ops,
            "schemes.compress_ms": self._ms(["schemes:compress"]),
            "planner.advise_ms": self._ms([ADVISOR_SPAN]),
            "planner.candidates_per_column":
                self.candidates / self.advised_columns if self.advised_columns else 0.0,
            "storage.from_columns_self_ms":
                self._ms(["storage:from_columns"], self_time=True),
            "io.reader.open_ms": self._ms(["io.reader:open_table"]),
            "io.reader.segment_load_ms": self._ms(["io.reader:load"]),
            "io.reader.mapped_fraction":
                self.bytes_mapped / self.file_bytes_opened
                if self.file_bytes_opened else 0.0,
            "io.reader.segments_mapped": self._calls("io.reader:load") / ops,
            "io.writer.write_ms": write_ms,
            "io.writer.mb_per_s":
                self.bytes_written / 1e6 / (write_ms * ops / 1e3) if write_ms else 0.0,
        }
