"""The lazy expression DSL: ``col("price") * col("qty") > lit(100)``.

Expressions are small immutable trees.  Building one never touches data —
it only records *what* to compute.  Three consumers walk the trees:

* the **logical plan** (:mod:`repro.api.logical`) validates references and
  derives output schemas at construction time;
* the **optimizer** (:mod:`repro.api.optimize`) normalizes boolean structure
  (De Morgan, double negation, CNF splitting) and estimates per-chunk
  selectivity through :meth:`Expr.decide` / :meth:`Expr.bounds` — interval
  arithmetic over the storage layer's zone maps;
* the **lowering pass** (:mod:`repro.api.lower`) compiles predicates onto
  the scan scheduler's pushdown cascade and evaluates derived expressions
  per chunk against the scan's shared decompressed buffers via
  :meth:`Expr.evaluate`.

The operator surface mirrors the NumPy semantics the engine executes:
``+ - * / // %`` arithmetic, ``== != < <= > >=`` comparisons, ``& | ~``
boolean algebra, :meth:`Expr.isin` / :meth:`Expr.between` memberships, and
aggregate constructors ``sum/min/max/mean/count`` with ``.alias(name)``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryError

#: Interval environment: column name -> inclusive (low, high) bounds, or
#: ``None`` when the column's bounds are unknown / untrusted (float columns).
Bounds = Optional[Tuple[float, float]]
BoundsEnv = Mapping[str, Bounds]
#: Value environment: column name -> materialised values (one scan chunk, a
#: gathered slice, or a whole column — expressions are elementwise and do
#: not care).
ValueEnv = Mapping[str, np.ndarray]

_AGG_OPS = ("sum", "min", "max", "mean", "count")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating, bool, np.bool_))


class Expr(abc.ABC):
    """Base class of all DSL expressions."""

    __slots__ = ()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def columns(self) -> List[str]:
        """Referenced column names, in first-use order, without duplicates."""

    @abc.abstractmethod
    def evaluate(self, env: ValueEnv) -> np.ndarray:
        """Evaluate against materialised arrays (elementwise, NumPy semantics)."""

    def output_name(self) -> str:
        """The column name this expression produces in a result."""
        return repr(self)

    def contains_aggregate(self) -> bool:
        """Whether an aggregate (``sum()``, ...) appears anywhere in the tree."""
        return any(child.contains_aggregate() for child in self.children())

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace column references per *mapping* (used to inline derived columns)."""
        return self

    # ------------------------------------------------------------------ #
    # Zone-map reasoning (interval arithmetic)
    # ------------------------------------------------------------------ #

    def bounds(self, env: BoundsEnv) -> Bounds:
        """Inclusive value bounds under *env*, or ``None`` when unknown."""
        decision = self.decide(env)
        if decision is True:
            return (1, 1)
        if decision is False:
            return (0, 0)
        return None

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        """Tri-state truth of a boolean expression under *env* bounds.

        ``True`` — every row in a chunk with these bounds qualifies;
        ``False`` — no row can qualify; ``None`` — must be evaluated.
        """
        return None

    # ------------------------------------------------------------------ #
    # Operator overloads (building, never evaluating)
    # ------------------------------------------------------------------ #

    def __add__(self, other: Any) -> "Expr":
        return Arithmetic("+", self, as_expr(other))

    def __radd__(self, other: Any) -> "Expr":
        return Arithmetic("+", as_expr(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Arithmetic("-", self, as_expr(other))

    def __rsub__(self, other: Any) -> "Expr":
        return Arithmetic("-", as_expr(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return Arithmetic("*", self, as_expr(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Arithmetic("*", as_expr(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return Arithmetic("/", self, as_expr(other))

    def __floordiv__(self, other: Any) -> "Expr":
        return Arithmetic("//", self, as_expr(other))

    def __mod__(self, other: Any) -> "Expr":
        return Arithmetic("%", self, as_expr(other))

    def __neg__(self) -> "Expr":
        return Negate(self)

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Comparison("==", self, as_expr(other))

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Comparison("!=", self, as_expr(other))

    def __lt__(self, other: Any) -> "Expr":
        return Comparison("<", self, as_expr(other))

    def __le__(self, other: Any) -> "Expr":
        return Comparison("<=", self, as_expr(other))

    def __gt__(self, other: Any) -> "Expr":
        return Comparison(">", self, as_expr(other))

    def __ge__(self, other: Any) -> "Expr":
        return Comparison(">=", self, as_expr(other))

    def __and__(self, other: Any) -> "Expr":
        return BooleanAnd(self, as_expr(other))

    def __rand__(self, other: Any) -> "Expr":
        return BooleanAnd(as_expr(other), self)

    def __or__(self, other: Any) -> "Expr":
        return BooleanOr(self, as_expr(other))

    def __ror__(self, other: Any) -> "Expr":
        return BooleanOr(as_expr(other), self)

    def __invert__(self) -> "Expr":
        return BooleanNot(self)

    # Comparisons return Exprs, so Python's truthiness would silently pick a
    # branch; fail loudly instead (``and`` / ``or`` / ``if expr`` misuse).
    def __bool__(self) -> bool:
        raise QueryError(
            f"the truth value of the lazy expression {self!r} is undefined; "
            "use & | ~ to combine predicates, not 'and'/'or'/'not'"
        )

    # ``__eq__`` builds a Comparison, so identity is the only sane hash.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #

    def isin(self, values: Iterable[Any]) -> "Expr":
        """``self ∈ values`` (mirrors :class:`repro.engine.predicates.IsIn`)."""
        return IsInExpr(self, values)

    def between(self, low: Any, high: Any) -> "Expr":
        """``low <= self <= high``, inclusive on both ends."""
        return BetweenExpr(self, low, high)

    def alias(self, name: str) -> "Expr":
        """Name the expression's output column."""
        return Alias(self, name)

    def sum(self) -> "AggExpr":
        return AggExpr("sum", self)

    def min(self) -> "AggExpr":
        return AggExpr("min", self)

    def max(self) -> "AggExpr":
        return AggExpr("max", self)

    def mean(self) -> "AggExpr":
        return AggExpr("mean", self)

    def count(self) -> "AggExpr":
        return AggExpr("count", self)


def as_expr(value: Any) -> Expr:
    """Coerce *value* into an :class:`Expr` (numbers become literals)."""
    if isinstance(value, Expr):
        return value
    if _is_number(value):
        return Literal(value)
    raise QueryError(
        f"cannot use {value!r} (type {type(value).__name__}) in an expression; "
        "expected an Expr or a number"
    )


# --------------------------------------------------------------------------- #
# Leaves
# --------------------------------------------------------------------------- #

class ColumnRef(Expr):
    """A reference to a column by name — build with :func:`col`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise QueryError(f"col() needs a non-empty column name, got {name!r}")
        self.name = name

    def columns(self) -> List[str]:
        return [self.name]

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return env[self.name]

    def bounds(self, env: BoundsEnv) -> Bounds:
        return env.get(self.name)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


class Literal(Expr):
    """A constant — build with :func:`lit` (or let numbers coerce)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        if not _is_number(value):
            raise QueryError(f"lit() supports numeric/boolean constants, got {value!r}")
        self.value = value

    def columns(self) -> List[str]:
        return []

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.value  # NumPy broadcasting does the rest

    def bounds(self, env: BoundsEnv) -> Bounds:
        v = float(self.value)
        return (v, v)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        if isinstance(self.value, (bool, np.bool_)):
            return bool(self.value)
        return None

    def __repr__(self) -> str:
        return repr(self.value)


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #

_ARITH_FNS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: np.true_divide(a, b),
    "//": lambda a, b: np.floor_divide(a, b),
    "%": lambda a, b: np.mod(a, b),
}


def _merge_columns(parts: Sequence[Expr]) -> List[str]:
    seen: Dict[str, None] = {}
    for part in parts:
        for name in part.columns():
            seen.setdefault(name)
    return list(seen)


class Arithmetic(Expr):
    """A binary arithmetic expression (``+ - * / // %``)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_FNS:
            raise QueryError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> List[str]:
        return _merge_columns((self.left, self.right))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return _ARITH_FNS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def bounds(self, env: BoundsEnv) -> Bounds:
        lb = self.left.bounds(env)
        rb = self.right.bounds(env)
        if lb is None or rb is None:
            return None
        (llo, lhi), (rlo, rhi) = lb, rb
        if self.op == "+":
            return (llo + rlo, lhi + rhi)
        if self.op == "-":
            return (llo - rhi, lhi - rlo)
        if self.op == "*":
            corners = (llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
            return (min(corners), max(corners))
        return None  # division / modulo: conservative

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Arithmetic(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Negate(Expr):
    """Arithmetic negation (``-expr``)."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def columns(self) -> List[str]:
        return self.operand.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return -self.operand.evaluate(env)

    def bounds(self, env: BoundsEnv) -> Bounds:
        b = self.operand.bounds(env)
        return None if b is None else (-b[1], -b[0])

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Negate(self.operand.substitute(mapping))

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


# --------------------------------------------------------------------------- #
# Comparisons and boolean algebra
# --------------------------------------------------------------------------- #

_CMP_FNS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_CMP_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class Comparison(Expr):
    """A comparison producing a boolean mask."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_FNS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> List[str]:
        return _merge_columns((self.left, self.right))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return _CMP_FNS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        lb = self.left.bounds(env)
        rb = self.right.bounds(env)
        if lb is None or rb is None:
            return None
        (llo, lhi), (rlo, rhi) = lb, rb
        op = self.op
        if op == "<":
            if lhi < rlo:
                return True
            if llo >= rhi:
                return False
            return None
        if op == "<=":
            if lhi <= rlo:
                return True
            if llo > rhi:
                return False
            return None
        if op == ">":
            return Comparison("<", self.right, self.left).decide(env)
        if op == ">=":
            return Comparison("<=", self.right, self.left).decide(env)
        if op == "==":
            if llo == lhi == rlo == rhi:
                return True
            if lhi < rlo or llo > rhi:
                return False
            return None
        # "!="
        inner = Comparison("==", self.left, self.right).decide(env)
        return None if inner is None else not inner

    def negated(self) -> "Comparison":
        """``NOT (a < b)`` is ``a >= b`` — exact under NumPy total orders."""
        return Comparison(_CMP_NEGATE[self.op], self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Comparison(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanAnd(Expr):
    """Conjunction (``&``)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def columns(self) -> List[str]:
        return _merge_columns((self.left, self.right))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.left.evaluate(env) & self.right.evaluate(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        a, b = self.left.decide(env), self.right.decide(env)
        if a is False or b is False:
            return False
        if a is True and b is True:
            return True
        return None

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return BooleanAnd(self.left.substitute(mapping), self.right.substitute(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class BooleanOr(Expr):
    """Disjunction (``|``)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def columns(self) -> List[str]:
        return _merge_columns((self.left, self.right))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.left.evaluate(env) | self.right.evaluate(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        a, b = self.left.decide(env), self.right.decide(env)
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return None

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return BooleanOr(self.left.substitute(mapping), self.right.substitute(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class BooleanNot(Expr):
    """Negation (``~``)."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def columns(self) -> List[str]:
        return self.operand.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return ~self.operand.evaluate(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        inner = self.operand.decide(env)
        return None if inner is None else not inner

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return BooleanNot(self.operand.substitute(mapping))

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


class BetweenExpr(Expr):
    """``low <= operand <= high`` (inclusive, like the engine's ``Between``)."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expr, low: Any, high: Any):
        if not _is_number(low) or not _is_number(high):
            raise QueryError(
                f"between() bounds must be numbers, got {low!r} and {high!r}")
        if high < low:
            raise QueryError(f"between(): empty range [{low}, {high}]")
        self.operand = operand
        self.low = low
        self.high = high

    def columns(self) -> List[str]:
        return self.operand.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        values = self.operand.evaluate(env)
        return (values >= self.low) & (values <= self.high)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        b = self.operand.bounds(env)
        if b is None:
            return None
        lo, hi = b
        if self.low <= lo and hi <= self.high:
            return True
        if hi < self.low or lo > self.high:
            return False
        return None

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return BetweenExpr(self.operand.substitute(mapping), self.low, self.high)

    def __repr__(self) -> str:
        return f"({self.operand!r} BETWEEN {self.low} AND {self.high})"


class IsInExpr(Expr):
    """``operand ∈ candidates``."""

    __slots__ = ("operand", "candidates")

    def __init__(self, operand: Expr, candidates: Iterable[Any]):
        values = tuple(sorted(set(candidates)))
        if not values:
            raise QueryError("isin() requires at least one candidate value")
        if not all(_is_number(v) for v in values):
            raise QueryError(f"isin() candidates must be numbers, got {values!r}")
        self.operand = operand
        self.candidates = values

    def columns(self) -> List[str]:
        return self.operand.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return np.isin(self.operand.evaluate(env), np.asarray(self.candidates))

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        b = self.operand.bounds(env)
        if b is None:
            return None
        lo, hi = b
        if hi < self.candidates[0] or lo > self.candidates[-1]:
            return False
        if lo == hi and lo in self.candidates:
            return True
        return None

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return IsInExpr(self.operand.substitute(mapping), self.candidates)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.candidates)
        return f"({self.operand!r} IN ({inner}))"


# --------------------------------------------------------------------------- #
# Aggregates and aliases
# --------------------------------------------------------------------------- #

class AggExpr(Expr):
    """An aggregate over an (optional) input expression.

    ``operand=None`` is ``count(*)``.  Aggregates may only appear in
    :meth:`Dataset.agg` / :meth:`GroupedDataset.agg` — the logical plan
    rejects them inside filters, projections and sort keys.
    """

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Optional[Expr]):
        if op not in _AGG_OPS:
            raise QueryError(f"unknown aggregate {op!r}; known: {_AGG_OPS}")
        if operand is not None and operand.contains_aggregate():
            raise QueryError(
                f"nested aggregates are not supported: {op}({operand!r})")
        if operand is None and op != "count":
            raise QueryError(f'only count may aggregate over "*", not {op!r}')
        self.op = op
        self.operand = operand

    def columns(self) -> List[str]:
        return [] if self.operand is None else self.operand.columns()

    def children(self) -> Tuple[Expr, ...]:
        return () if self.operand is None else (self.operand,)

    def contains_aggregate(self) -> bool:
        return True

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        raise QueryError(
            f"aggregate {self!r} cannot be evaluated elementwise; "
            "use Dataset.agg() / group_by().agg()"
        )

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        if self.operand is None:
            return self
        return AggExpr(self.op, self.operand.substitute(mapping))

    def output_name(self) -> str:
        inner = "*" if self.operand is None else self.operand.output_name()
        return f"{self.op}({inner})"

    def __repr__(self) -> str:
        inner = "*" if self.operand is None else repr(self.operand)
        return f"{self.op}({inner})"


class Alias(Expr):
    """A transparent rename of an expression's output column."""

    __slots__ = ("inner", "name")

    def __init__(self, inner: Expr, name: str):
        if not isinstance(name, str) or not name:
            raise QueryError(f"alias() needs a non-empty name, got {name!r}")
        self.inner = inner
        self.name = name

    def columns(self) -> List[str]:
        return self.inner.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.inner,)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.inner.evaluate(env)

    def bounds(self, env: BoundsEnv) -> Bounds:
        return self.inner.bounds(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        return self.inner.decide(env)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Alias(self.inner.substitute(mapping), self.name)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.inner!r} AS {self.name}"


# --------------------------------------------------------------------------- #
# Boolean normalization (shared by the optimizer)
# --------------------------------------------------------------------------- #

def normalize_boolean(expr: Expr) -> Expr:
    """Push ``NOT`` inward (De Morgan) and drop double negations.

    ``~(a | b)`` becomes ``~a & ~b`` so CNF splitting can push both halves
    into the scan independently; ``~(a < b)`` becomes ``a >= b`` which the
    lowering pass may turn into a native range predicate.
    """
    if isinstance(expr, BooleanNot):
        inner = expr.operand
        if isinstance(inner, BooleanNot):
            return normalize_boolean(inner.operand)
        if isinstance(inner, BooleanOr):
            return BooleanAnd(normalize_boolean(BooleanNot(inner.left)),
                              normalize_boolean(BooleanNot(inner.right)))
        if isinstance(inner, BooleanAnd):
            return BooleanOr(normalize_boolean(BooleanNot(inner.left)),
                             normalize_boolean(BooleanNot(inner.right)))
        if isinstance(inner, Comparison):
            return inner.negated()
        return BooleanNot(normalize_boolean(inner))
    if isinstance(expr, BooleanAnd):
        return BooleanAnd(normalize_boolean(expr.left), normalize_boolean(expr.right))
    if isinstance(expr, BooleanOr):
        return BooleanOr(normalize_boolean(expr.left), normalize_boolean(expr.right))
    return expr


def split_conjuncts(expr: Expr) -> List[Expr]:
    """CNF-split a normalized expression into its top-level AND conjuncts."""
    if isinstance(expr, BooleanAnd):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    if isinstance(expr, Alias):
        return split_conjuncts(expr.inner)
    return [expr]


# --------------------------------------------------------------------------- #
# Public constructors
# --------------------------------------------------------------------------- #

def col(name: str) -> ColumnRef:
    """Reference a column by name: ``col("price")``."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """A literal constant: ``lit(100)``."""
    return Literal(value)


def count() -> AggExpr:
    """``count(*)`` — counts qualifying rows (per group under ``group_by``)."""
    return AggExpr("count", None)
