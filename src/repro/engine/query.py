"""The result record of a collected query.

Queries are built and run through the lazy API::

    from repro.api import col, dataset
    result = (dataset(table)
              .filter(col("ship_date").between(date_lo, date_hi))
              .agg(col("quantity").sum())
              .collect())

:meth:`repro.api.Dataset.collect` returns a :class:`QueryResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from ..columnar.column import Column
from ..errors import QueryError
from ..storage.column_store import DEFAULT_CHUNK_SIZE
from ..storage.table import Table
from .operators import ScanStats


@dataclass
class QueryResult:
    """The outcome of :meth:`repro.api.Dataset.collect`.

    Attributes
    ----------
    columns:
        Materialised result columns (projections, group keys, aggregates).
    scalars:
        Scalar aggregate results keyed by ``"<agg>(<column>)"``.
    row_count:
        Number of qualifying rows (for aggregates: rows aggregated).
    scan_stats:
        What the scan touched (chunks skipped, pushdown counters, ...).
    """

    columns: Dict[str, Column] = field(default_factory=dict)
    scalars: Dict[str, Union[int, float]] = field(default_factory=dict)
    row_count: int = 0
    scan_stats: Optional[ScanStats] = None

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise QueryError(
                f"result has no column {name!r}; present: {sorted(self.columns)}"
            ) from None

    def to_table(self, schemes: Any = "auto",
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> Table:
        """Wrap the result columns as an in-memory :class:`Table`.

        The default ``schemes="auto"`` re-compresses every column through
        the scheme registry's advisor, so a collected result round-trips
        into first-class compressed storage and can be queried again
        (``Dataset.from_result`` builds on this).

        Zero-row results cannot round-trip — the storage layer requires at
        least one row per stored column — so wrapping an empty result
        raises :class:`QueryError`; guard with ``result.row_count`` when a
        query may legitimately match nothing.
        """
        if not self.columns:
            raise QueryError(
                "result has no columns to wrap as a table (scalar aggregate "
                "results stay scalars)"
            )
        if len(next(iter(self.columns.values()))) == 0:
            raise QueryError(
                "cannot wrap an empty result as a table: a stored column "
                "needs at least one row"
            )
        return Table.from_columns(self.columns, schemes=schemes,
                                  chunk_size=chunk_size)
