"""Tests for predicates and their zone-map (chunk statistics) decisions."""
import numpy as np
import pytest

from repro.api import col
from repro.api.lower import ExprPredicate, ExprRowFilter, classify_conjunct
from repro.columnar import Column
from repro.engine import Between, Equals, IsIn, RangeBounds
from repro.errors import QueryError
from repro.storage import Table, compute_statistics


class TestBetween:
    def test_evaluate(self):
        mask = Between("x", 2, 4).evaluate(Column([1, 2, 3, 4, 5]))
        assert mask.to_pylist() == [False, True, True, True, False]

    def test_inclusive_bounds(self):
        mask = Between("x", 3, 3).evaluate(Column([2, 3, 4]))
        assert mask.to_pylist() == [False, True, False]

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            Between("x", 5, 4)

    def test_chunk_decision_reject(self):
        stats = compute_statistics(Column([10, 20]))
        assert Between("x", 30, 40).chunk_decision(stats) is False

    def test_chunk_decision_accept(self):
        stats = compute_statistics(Column([10, 20]))
        assert Between("x", 0, 100).chunk_decision(stats) is True

    def test_chunk_decision_inspect(self):
        stats = compute_statistics(Column([10, 20]))
        assert Between("x", 15, 100).chunk_decision(stats) is None

    def test_repr(self):
        assert "Between" in repr(Between("x", 1, 2))


class TestEquals:
    def test_evaluate(self):
        mask = Equals("x", 3).evaluate(Column([3, 1, 3]))
        assert mask.to_pylist() == [True, False, True]

    def test_chunk_decision(self):
        stats = compute_statistics(Column([5, 5, 5]))
        assert Equals("x", 5).chunk_decision(stats) is True
        assert Equals("x", 6).chunk_decision(stats) is False
        mixed = compute_statistics(Column([4, 5, 6]))
        assert Equals("x", 5).chunk_decision(mixed) is None


class TestIsIn:
    def test_evaluate(self):
        mask = IsIn("x", [2, 9]).evaluate(Column([1, 2, 3, 9]))
        assert mask.to_pylist() == [False, True, False, True]

    def test_chunk_decision_reject(self):
        stats = compute_statistics(Column([100, 200]))
        assert IsIn("x", [1, 2]).chunk_decision(stats) is False

    def test_empty_candidates_rejected(self):
        with pytest.raises(QueryError):
            IsIn("x", [])


class TestCompound:
    """Same-column conjunctions and disjunctions, written in the DSL and
    evaluated by the engine as one :class:`ExprPredicate`."""

    @staticmethod
    def _predicate(expr):
        return ExprPredicate(expr, "x", trust_bounds=True)

    def test_and_evaluate(self):
        predicate = self._predicate(col("x").between(2, 8) & (col("x") == 5))
        mask = predicate.evaluate(Column([1, 5, 7]))
        assert mask.to_pylist() == [False, True, False]

    def test_or_evaluate(self):
        predicate = self._predicate((col("x") == 1) | (col("x") == 3))
        mask = predicate.evaluate(Column([1, 2, 3]))
        assert mask.to_pylist() == [True, False, True]

    def test_and_chunk_decision(self):
        stats = compute_statistics(Column([10, 20]))
        x = col("x")
        assert self._predicate(x.between(0, 100) & x.between(200, 300)) \
            .chunk_decision(stats) is False
        assert self._predicate(x.between(0, 100) & x.between(5, 50)) \
            .chunk_decision(stats) is True
        assert self._predicate(x.between(0, 100) & x.between(15, 50)) \
            .chunk_decision(stats) is None

    def test_or_chunk_decision(self):
        stats = compute_statistics(Column([10, 20]))
        x = col("x")
        assert self._predicate(x.between(0, 5) | x.between(0, 100)) \
            .chunk_decision(stats) is True
        assert self._predicate(x.between(0, 5) | x.between(50, 60)) \
            .chunk_decision(stats) is False

    def test_cross_column_compound_is_a_row_filter(self):
        table = Table.from_columns({"x": Column([1, 2, 3]), "y": Column([3, 2, 1])})
        conjunct = classify_conjunct(col("x").between(1, 2) | col("y").between(1, 2),
                                     table, source_order=0)
        assert conjunct.kind == "rows"
        assert isinstance(conjunct.lowered, ExprRowFilter)
        mask = conjunct.lowered.evaluate({"x": np.array([1, 3, 3]),
                                          "y": np.array([5, 2, 9])})
        assert mask.tolist() == [True, True, False]


class TestRangeBounds:
    def test_valid(self):
        bounds = RangeBounds(1, 5)
        assert bounds.low == 1 and bounds.high == 5

    def test_invalid(self):
        with pytest.raises(QueryError):
            RangeBounds(5, 1)
