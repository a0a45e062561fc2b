"""Compilation of expression ASTs into Python callables.

A compiled expression is a function ``row -> value`` where *row* is a plain
tuple laid out according to a :class:`RowSchema`.  SQL three-valued logic is
implemented with ``None`` standing for UNKNOWN in boolean context; filters
only keep rows evaluating to ``True``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .ast import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    ExistsSubquery,
    Expr,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    LiteralValue,
    Star,
    UnaryOp,
)
from .errors import ExecutionError
from .types import Geometry, SqlType

Compiled = Callable[[Tuple[Any, ...]], Any]


class RowSchema:
    """Maps (qualifier, column) pairs to tuple positions.

    A column may be reachable without a qualifier when its bare name is
    unambiguous across the schema.
    """

    __slots__ = ("fields", "types", "_by_key", "_by_name", "_memo")

    def __init__(
        self,
        fields: Sequence[Tuple[Optional[str], str]],
        types: Optional[Sequence[Optional[SqlType]]] = None,
    ):
        self.fields: Tuple[Tuple[Optional[str], str], ...] = tuple(
            (qualifier.lower() if qualifier else None, name.lower())
            for qualifier, name in fields
        )
        #: each field's declared type (None where unknown: a derived
        #: table's or a computed column), or None for a schema of no
        #: base-table columns
        self.types: Optional[Tuple[Optional[SqlType], ...]] = (
            tuple(types) if types is not None else None
        )
        self._by_key: Dict[Tuple[str, str], int] = {}
        for position, (qualifier, name) in enumerate(self.fields):
            if qualifier is not None:
                self._by_key[(qualifier, name)] = position
        # bare name -> positions, built on the first bare-name lookup
        # (unfolded SQL qualifies almost every reference)
        self._by_name: Optional[Dict[str, List[int]]] = None
        # lookup memo, including misses; fields are immutable so entries
        # never go stale.  Join ordering resolves the same refs against
        # the same schema many times in one execution.
        self._memo: Dict[Tuple[Optional[str], str], Optional[int]] = {}

    def __len__(self) -> int:
        return len(self.fields)

    def resolve(self, ref: ColumnRef) -> int:
        position = self.try_resolve(ref)
        if position is None:
            qualifier, name = ref.key
            label = f"{qualifier}.{name}" if qualifier is not None else name
            raise ExecutionError(
                f"unknown column {label} (have {self.fields})"
            )
        return position

    def try_resolve(self, ref: ColumnRef) -> Optional[int]:
        key = ref.key
        memo = self._memo
        if key in memo:
            return memo[key]
        qualifier, name = key
        if qualifier is not None:
            position = self._by_key.get((qualifier, name))
        else:
            # Ambiguity is tolerated when all candidate positions are join-
            # equal duplicates of the same column name (NATURAL JOIN output);
            # we pick the first, matching common engine behaviour.
            by_name = self._by_name
            if by_name is None:
                by_name = {}
                for index, (_, field_name) in enumerate(self.fields):
                    by_name.setdefault(field_name, []).append(index)
                self._by_name = by_name  # published whole: readers share it
            positions = by_name.get(name)
            position = positions[0] if positions else None
        memo[key] = position
        return position

    def concat(self, other: "RowSchema") -> "RowSchema":
        """*self*'s fields, then *other*'s.

        Join outputs are built on every execution, so the fields (already
        normalized) are not normalized again: the qualified lookup tables
        are merged, *other*'s later positions winning as in ``__init__``.
        """
        schema = RowSchema.__new__(RowSchema)
        schema.fields = self.fields + other.fields
        if self.types is None and other.types is None:
            schema.types = None
        else:
            schema.types = (self.types or (None,) * len(self.fields)) + (
                other.types or (None,) * len(other.fields)
            )
        by_key = self._by_key.copy()
        offset = len(self.fields)
        for key, position in other._by_key.items():
            by_key[key] = position + offset
        schema._by_key = by_key
        schema._by_name = None
        schema._memo = {}
        return schema

    def select(self, positions: Sequence[int]) -> "RowSchema":
        """The fields at *positions*, with their types."""
        types = self.types
        return RowSchema(
            [self.fields[p] for p in positions],
            None if types is None else [types[p] for p in positions],
        )

    def names(self) -> List[str]:
        return [name for _, name in self.fields]


# -- helpers ---------------------------------------------------------------


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    regex = []
    for char in pattern:
        if char == "%":
            regex.append(".*")
        elif char == "_":
            regex.append(".")
        else:
            regex.append(re.escape(char))
    return re.compile("".join(regex), re.DOTALL | re.IGNORECASE)


def _numeric_pair(left: Any, right: Any) -> bool:
    return isinstance(left, (int, float)) and not isinstance(left, bool) and isinstance(
        right, (int, float)
    ) and not isinstance(right, bool)


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Three-valued comparison: -1/0/1 or None when NULL/incomparable."""
    if left is None or right is None:
        return None
    if isinstance(left, Geometry) or isinstance(right, Geometry):
        return 0 if left == right else None
    if _numeric_pair(left, right):
        return (left > right) - (left < right)
    if isinstance(left, bool) and isinstance(right, bool):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    # mixed-type comparison: try numeric coercion of strings (MySQL-ish)
    try:
        left_num = float(left)
        right_num = float(right)
    except (TypeError, ValueError):
        return None
    return (left_num > right_num) - (left_num < right_num)


def _and3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _not3(value: Optional[bool]) -> Optional[bool]:
    if value is None:
        return None
    return not value


_SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {}


def _scalar(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def register(func: Callable[..., Any]) -> Callable[..., Any]:
        _SCALAR_FUNCTIONS[name] = func
        return func

    return register


@_scalar("UPPER")
def _fn_upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


@_scalar("LOWER")
def _fn_lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


@_scalar("LENGTH")
def _fn_length(value: Any) -> Any:
    return None if value is None else len(str(value))


@_scalar("ABS")
def _fn_abs(value: Any) -> Any:
    return None if value is None else abs(value)


@_scalar("ROUND")
def _fn_round(value: Any, digits: Any = 0) -> Any:
    if value is None:
        return None
    return round(value, int(digits or 0))


@_scalar("COALESCE")
def _fn_coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


@_scalar("NULLIF")
def _fn_nullif(left: Any, right: Any) -> Any:
    return None if left == right else left


@_scalar("CONCAT")
def _fn_concat(*values: Any) -> Any:
    if any(value is None for value in values):
        return None
    return "".join(str(value) for value in values)


@_scalar("SUBSTR")
def _fn_substr(value: Any, start: Any, length: Any = None) -> Any:
    if value is None or start is None:
        return None
    text = str(value)
    begin = int(start) - 1
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


@_scalar("YEAR")
def _fn_year(value: Any) -> Any:
    """Extract the year from an ISO date string (MySQL YEAR())."""
    if value is None:
        return None
    try:
        return int(str(value)[:4])
    except ValueError as exc:
        raise ExecutionError(f"YEAR() got non-date {value!r}") from exc


@_scalar("MBRWITHIN")
def _fn_mbr_within(inner: Any, outer: Any) -> Any:
    """Bounding-box containment for geometries (MySQL MBRWithin)."""
    if inner is None or outer is None:
        return None
    if not isinstance(inner, Geometry) or not isinstance(outer, Geometry):
        raise ExecutionError("MBRWITHIN expects geometry arguments")
    in_box = inner.bounding_box()
    out_box = outer.bounding_box()
    return (
        in_box[0] >= out_box[0]
        and in_box[1] >= out_box[1]
        and in_box[2] <= out_box[2]
        and in_box[3] <= out_box[3]
    )


def _cast_value(value: Any, target: SqlType) -> Any:
    if value is None:
        return None
    try:
        if target in (SqlType.INTEGER, SqlType.BIGINT):
            return int(float(value)) if not isinstance(value, bool) else int(value)
        if target in (SqlType.DOUBLE, SqlType.DECIMAL):
            return float(value)
        if target is SqlType.BOOLEAN:
            return bool(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"cannot CAST {value!r} to {target.value}") from exc


class ExpressionCompiler:
    """Compiles expression trees against a fixed :class:`RowSchema`.

    ``subquery_executor`` is a callback evaluating a SelectStatement and
    returning its rows; it is injected by the executor to support IN/EXISTS
    subqueries (uncorrelated only).
    """

    def __init__(
        self,
        schema: RowSchema,
        subquery_executor: Optional[Callable[[Any], List[Tuple[Any, ...]]]] = None,
    ):
        self._schema = schema
        self._subquery_executor = subquery_executor
        self._subquery_cache: Dict[int, Any] = {}

    def compile(self, expr: Expr) -> Compiled:
        if isinstance(expr, LiteralValue):
            value = expr.value
            return lambda row: value
        if isinstance(expr, ColumnRef):
            position = self._schema.resolve(expr)
            return lambda row: row[position]
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in select lists and COUNT(*)")
        if isinstance(expr, UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, IsNull):
            operand = self.compile(expr.operand)
            if expr.negated:
                return lambda row: operand(row) is not None
            return lambda row: operand(row) is None
        if isinstance(expr, InList):
            return self._compile_in_list(expr)
        if isinstance(expr, InSubquery):
            return self._compile_in_subquery(expr)
        if isinstance(expr, ExistsSubquery):
            return self._compile_exists(expr)
        if isinstance(expr, Between):
            return self._compile_between(expr)
        if isinstance(expr, FunctionCall):
            return self._compile_function(expr)
        if isinstance(expr, Cast):
            operand = self.compile(expr.operand)
            target = expr.target
            return lambda row: _cast_value(operand(row), target)
        if isinstance(expr, CaseWhen):
            return self._compile_case(expr)
        raise ExecutionError(f"cannot compile expression {expr!r}")

    # -- node compilers ------------------------------------------------------

    def _compile_unary(self, expr: UnaryOp) -> Compiled:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            return lambda row: _not3(operand(row))
        if expr.op == "-":
            return lambda row: None if operand(row) is None else -operand(row)
        return operand  # unary '+'

    def _compile_binary(self, expr: BinaryOp) -> Compiled:
        op = expr.op
        if op == "AND":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return lambda row: _and3(left(row), right(row))
        if op == "OR":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return lambda row: _or3(left(row), right(row))
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison(op, left, right)
        if op == "LIKE":
            return self._compile_like(left, expr.right)
        if op == "||":
            def concat(row: Tuple[Any, ...]) -> Any:
                left_value = left(row)
                right_value = right(row)
                if left_value is None or right_value is None:
                    return None
                return str(left_value) + str(right_value)

            return concat
        if op in ("+", "-", "*", "/", "%"):
            return _arithmetic(op, left, right)
        raise ExecutionError(f"unsupported operator {op!r}")

    def _compile_like(self, left: Compiled, pattern_expr: Expr) -> Compiled:
        if isinstance(pattern_expr, LiteralValue) and isinstance(
            pattern_expr.value, str
        ):
            regex = _like_to_regex(pattern_expr.value)

            def like_static(row: Tuple[Any, ...]) -> Optional[bool]:
                value = left(row)
                if value is None:
                    return None
                return regex.fullmatch(str(value)) is not None

            return like_static
        pattern = self.compile(pattern_expr)

        def like_dynamic(row: Tuple[Any, ...]) -> Optional[bool]:
            value = left(row)
            pattern_value = pattern(row)
            if value is None or pattern_value is None:
                return None
            return _like_to_regex(str(pattern_value)).fullmatch(str(value)) is not None

        return like_dynamic

    def _compile_in_list(self, expr: InList) -> Compiled:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def evaluate(row: Tuple[Any, ...]) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            found = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif sql_compare(value, candidate) == 0:
                    found = True
                    break
            if found:
                result: Optional[bool] = True
            elif saw_null:
                result = None
            else:
                result = False
            return _not3(result) if negated else result

        return evaluate

    def _run_subquery(self, subquery: Any) -> List[Tuple[Any, ...]]:
        if self._subquery_executor is None:
            raise ExecutionError("subqueries are not available in this context")
        key = id(subquery)
        if key not in self._subquery_cache:
            self._subquery_cache[key] = self._subquery_executor(subquery)
        return self._subquery_cache[key]

    def _compile_in_subquery(self, expr: InSubquery) -> Compiled:
        operand = self.compile(expr.operand)
        negated = expr.negated
        subquery = expr.subquery

        def evaluate(row: Tuple[Any, ...]) -> Optional[bool]:
            rows = self._run_subquery(subquery)
            value = operand(row)
            if value is None:
                return None
            values = {r[0] for r in rows}
            saw_null = None in values
            found = any(
                candidate is not None and sql_compare(value, candidate) == 0
                for candidate in values
            )
            if found:
                result: Optional[bool] = True
            elif saw_null:
                result = None
            else:
                result = False
            return _not3(result) if negated else result

        return evaluate

    def _compile_exists(self, expr: ExistsSubquery) -> Compiled:
        negated = expr.negated
        subquery = expr.subquery

        def evaluate(row: Tuple[Any, ...]) -> bool:
            rows = self._run_subquery(subquery)
            exists = bool(rows)
            return (not exists) if negated else exists

        return evaluate

    def _compile_between(self, expr: Between) -> Compiled:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def evaluate(row: Tuple[Any, ...]) -> Optional[bool]:
            value = operand(row)
            low_cmp = sql_compare(value, low(row))
            high_cmp = sql_compare(value, high(row))
            if low_cmp is None or high_cmp is None:
                result: Optional[bool] = None
            else:
                result = low_cmp >= 0 and high_cmp <= 0
            return _not3(result) if negated else result

        return evaluate

    def _compile_function(self, expr: FunctionCall) -> Compiled:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name} outside of an aggregation context"
            )
        func = _SCALAR_FUNCTIONS.get(expr.name.upper())
        if func is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [self.compile(arg) for arg in expr.args]
        return lambda row: func(*(arg(row) for arg in args))

    def _compile_case(self, expr: CaseWhen) -> Compiled:
        branches = [
            (self.compile(condition), self.compile(result))
            for condition, result in expr.branches
        ]
        default = self.compile(expr.default) if expr.default is not None else None

        def evaluate(row: Tuple[Any, ...]) -> Any:
            for condition, result in branches:
                if condition(row) is True:
                    return result(row)
            return default(row) if default is not None else None

        return evaluate


def _comparison(op: str, left: Compiled, right: Compiled) -> Compiled:
    def evaluate(row: Tuple[Any, ...]) -> Optional[bool]:
        comparison = sql_compare(left(row), right(row))
        if comparison is None:
            return None
        if op == "=":
            return comparison == 0
        if op == "<>":
            return comparison != 0
        if op == "<":
            return comparison < 0
        if op == "<=":
            return comparison <= 0
        if op == ">":
            return comparison > 0
        return comparison >= 0

    return evaluate


def _arithmetic(op: str, left: Compiled, right: Compiled) -> Compiled:
    def evaluate(row: Tuple[Any, ...]) -> Any:
        left_value = left(row)
        right_value = right(row)
        if left_value is None or right_value is None:
            return None
        try:
            if op == "+":
                return left_value + right_value
            if op == "-":
                return left_value - right_value
            if op == "*":
                return left_value * right_value
            if op == "/":
                if right_value == 0:
                    return None  # MySQL semantics: division by zero -> NULL
                result = left_value / right_value
                return result
            if right_value == 0:
                return None
            return left_value % right_value
        except TypeError as exc:
            raise ExecutionError(
                f"bad operands for {op}: {left_value!r}, {right_value!r}"
            ) from exc

    return evaluate


def scalar_function_names() -> List[str]:
    """Names of the registered scalar functions (for documentation/tests)."""
    return sorted(_SCALAR_FUNCTIONS)
