"""Span tracing for the traced benchmark run.

The traced run wraps the public entry points of each layer of ``repro``
from the benchmark's own files — nothing inside the program records a time.
Each entry point is patched where its caller looks it up: ``repro.api.lower``
binds ``scan_table`` and the stored-column operators by name, while
``repro.engine.scan`` and ``repro.engine.operators`` reach the kernels
through the ``repro.engine.kernels`` module, so those are patched on the
module.  :meth:`Tracer.uninstall` restores every patch.

A wrapper records one span (name, start, end, parent span, op id) and, for
some entry points, counts taken from its arguments or result.  Spans stay
in memory and are written once, as Chrome trace-event JSON (which Perfetto
and ``chrome://tracing`` open), by :meth:`Tracer.write_chrome_trace`.

Layer names are this repository's modules: ``api``, ``engine.scan``,
``engine.kernels``, ``engine.operators``, ``engine.parallel``,
``columnar.compile``, ``schemes``, ``planner``, ``storage``, ``io.reader``
and ``io.writer``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Spans kept for the Chrome trace; metrics keep accumulating past it.
MAX_EXPORTED_SPANS = 200_000

ADVISOR_SPAN = "planner:advise"


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_ns",
                 "under_advisor")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"],
                 op: int):
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.op = op
        self.under_advisor = parent is not None and (
            parent.name == ADVISOR_SPAN or parent.under_advisor)
        self.child_ns = 0
        self.start = time.perf_counter_ns()
        self.end = self.start

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


class SpanTotals:
    """Calls, inclusive time and self time of one span name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records spans while :attr:`enabled` is set.

    Wrappers installed by :meth:`wrap` call straight through while the
    tracer is disabled, so the benchmark pauses tracing around its own
    reference checks.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.spans: List[Span] = []
        self.totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        # Per-thread span stacks: a thread-backend scan calls the kernels
        # from pool threads.
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1] if stack else None, self.op)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = span.end - span.start
        if stack:
            stack[-1].child_ns += duration
        key = span.name + "@advisor" if span.under_advisor else span.name
        totals = self.totals[key]
        totals.calls += 1
        totals.total_ns += duration
        totals.self_ns += duration - span.child_ns
        if len(self.spans) < MAX_EXPORTED_SPANS:
            self.spans.append(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
             collapse: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *owner* is a module or a class; on a class only an attribute the
        class defines itself is patched, and a ``staticmethod`` stays one.
        *on_result* sees the arguments and the result of each traced call
        that returned.  With *collapse*, a call made while a span of the
        same name is already open (an override calling ``super()``, a
        cascade calling its inner schemes) records nothing of its own.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        func = original.__func__ if is_static else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if collapse:
                top = tracer.current()
                if top is not None and top.name == name:
                    return func(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def write_chrome_trace(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Write the kept spans as Chrome trace-event JSON (complete events)."""
        origin = min((span.start for span in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": span.name.split(":", 1)[-1],
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) / 1000.0,
                "dur": (span.end - span.start) / 1000.0,
                "pid": pid,
                "tid": 1,
                "args": {"span": span.id, "parent": span.parent, "op": span.op},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)
