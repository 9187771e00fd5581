"""``repro.api`` — the lazy expression DSL and logical-plan query API.

The public surface of the query layer::

    from repro.api import col, count, dataset

    result = (dataset(table, "lineitem")
              .filter((col("ship_date").between(lo, hi)) & (col("qty") > 5))
              .with_column("revenue", col("price") * col("qty"))
              .group_by("discount")
              .agg(col("revenue").sum().alias("total"), count())
              .sort("total", descending=True)
              .limit(10)
              .collect())

Structure:

* :mod:`repro.api.expr` — the expression DSL (``col``/``lit``, arithmetic,
  comparisons, ``& | ~``, ``between``/``isin``, aggregates, ``alias``);
* :mod:`repro.api.logical` — the immutable logical plan with construction-
  time validation;
* :mod:`repro.api.optimize` — boolean normalization, CNF splitting, filter
  pushdown (below select / sort / join / group-by keys), selectivity-based
  conjunct reordering, select-below-sort, projection pruning;
* :mod:`repro.api.lower` — lowering onto the chunk-parallel scan scheduler
  (:func:`repro.engine.scan.scan_table`) and the engine's operator kernels;
* :mod:`repro.api.dataset` — the :class:`Dataset` facade tying it together.
"""

from .dataset import Dataset, GroupedDataset, dataset
from .expr import Expr, col, count, lit

__all__ = [
    "Dataset",
    "GroupedDataset",
    "dataset",
    "Expr",
    "col",
    "lit",
    "count",
]
