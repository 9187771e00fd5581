"""Predicates: the selection expressions the engine evaluates and pushes down.

Predicates can be evaluated in three places, cheapest first:

1. against **chunk statistics** (zone maps) — a whole chunk may be accepted
   or rejected without touching its data;
2. against the **compressed form** — e.g. a range predicate over a
   FOR/STEPFUNCTION chunk can accept or reject whole *segments* from the
   references alone, or be rewritten onto DICT codes, or be evaluated once
   per *run* of an RLE/RPE chunk;
3. against the **decompressed values** — the fallback.

The paper's §II-B points at (2) — "The rough correspondence of the column
data to a simple model can be used to speed up selections (e.g. range
queries) and joins" — and experiment E9 measures exactly the gap between
(2)+(3) and plain (3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..columnar.column import Column
from ..errors import QueryError
from ..storage.statistics import ColumnStatistics


class Predicate(abc.ABC):
    """A single-column predicate."""

    def __init__(self, column_name: str):
        self.column_name = column_name

    @abc.abstractmethod
    def evaluate(self, values: Column) -> Column:
        """Evaluate against materialised values, returning a boolean mask."""

    def chunk_decision(self, statistics: ColumnStatistics) -> Optional[bool]:
        """Decide a whole chunk from its statistics, if possible.

        Returns ``True`` when every row qualifies, ``False`` when no row can
        qualify, and ``None`` when the chunk must be inspected.
        """
        return None


@dataclass(frozen=True)
class RangeBounds:
    """Inclusive numeric bounds (used by range predicates and pushdown helpers)."""

    low: int
    high: int

    def __post_init__(self):
        if self.high < self.low:
            raise QueryError(f"empty range: [{self.low}, {self.high}]")


class Between(Predicate):
    """``low <= column <= high`` (inclusive on both ends)."""

    def __init__(self, column_name: str, low, high):
        super().__init__(column_name)
        self.bounds = RangeBounds(int(low), int(high))

    def evaluate(self, values: Column) -> Column:
        data = values.values
        return Column((data >= self.bounds.low) & (data <= self.bounds.high))

    def chunk_decision(self, statistics: ColumnStatistics) -> Optional[bool]:
        if not statistics.overlaps_range(self.bounds.low, self.bounds.high):
            return False
        if statistics.contained_in_range(self.bounds.low, self.bounds.high):
            return True
        return None

    def __repr__(self) -> str:
        return f"Between({self.column_name!r}, {self.bounds.low}, {self.bounds.high})"


class Equals(Predicate):
    """``column == value`` (a degenerate range, and treated as such for pushdown)."""

    def __init__(self, column_name: str, value):
        super().__init__(column_name)
        self.value = value

    def evaluate(self, values: Column) -> Column:
        return Column(values.values == self.value)

    def chunk_decision(self, statistics: ColumnStatistics) -> Optional[bool]:
        if not statistics.overlaps_range(self.value, self.value):
            return False
        if statistics.minimum == statistics.maximum == self.value:
            return True
        return None

    def __repr__(self) -> str:
        return f"Equals({self.column_name!r}, {self.value!r})"


class IsIn(Predicate):
    """``column ∈ candidates``."""

    def __init__(self, column_name: str, candidates: Iterable):
        super().__init__(column_name)
        self.candidates = np.asarray(sorted(set(candidates)))
        if self.candidates.size == 0:
            raise QueryError("IsIn() requires at least one candidate value")

    def evaluate(self, values: Column) -> Column:
        return Column(np.isin(values.values, self.candidates))

    def chunk_decision(self, statistics: ColumnStatistics) -> Optional[bool]:
        lo, hi = int(self.candidates.min()), int(self.candidates.max())
        if not statistics.overlaps_range(lo, hi):
            return False
        return None

    def __repr__(self) -> str:
        return f"IsIn({self.column_name!r}, {self.candidates.tolist()!r})"
