"""Abstract syntax trees for the SQL dialect.

Expression nodes double as the exchange format between the OBDA unfolder
(which builds SQL programmatically) and the engine, so every node has a
``to_sql()`` pretty-printer producing parseable SQL text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .types import SqlType, format_value

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for scalar expressions."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_sql()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference."""

    name: str
    qualifier: Optional[str] = None

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    @cached_property
    def key(self) -> Tuple[Optional[str], str]:
        # cached_property writes to __dict__ directly, sidestepping the
        # frozen-dataclass __setattr__; the node is immutable so the
        # normalized key never changes
        return (
            self.qualifier.lower() if self.qualifier else None,
            self.name.lower(),
        )


@dataclass(frozen=True)
class LiteralValue(Expr):
    """A constant (int, float, str, bool, Geometry or None)."""

    value: Any

    def to_sql(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    qualifier: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT', '-', '+'
    operand: Expr

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator: comparison, arithmetic, AND/OR, LIKE, string ``||``."""

    op: str
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def to_sql(self) -> str:
        items = ", ".join(item.to_sql() for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({items}))"


@dataclass(frozen=True)
class InSubquery(Expr):
    operand: Expr
    subquery: "SelectStatement"
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({self.subquery.to_sql()}))"


@dataclass(frozen=True)
class ExistsSubquery(Expr):
    subquery: "SelectStatement"
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({keyword} ({self.subquery.to_sql()}))"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {keyword} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar or aggregate function call.

    ``distinct`` only matters for aggregates (``COUNT(DISTINCT x)``).
    """

    name: str
    args: Tuple[Expr, ...]
    distinct: bool = False

    AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in self.AGGREGATES

    def to_sql(self) -> str:
        args = ", ".join(arg.to_sql() for arg in self.args)
        if self.distinct:
            return f"{self.name}(DISTINCT {args})"
        return f"{self.name}({args})"


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    target: SqlType

    def to_sql(self) -> str:
        return f"CAST({self.operand.to_sql()} AS {self.target.value})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """Searched CASE expression."""

    branches: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


def conjunction(parts: Sequence[Expr]) -> Optional[Expr]:
    """AND together a list of predicates (None for an empty list)."""
    result: Optional[Expr] = None
    for part in parts:
        result = part if result is None else BinaryOp("AND", result, part)
    return result


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten nested ANDs into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and every sub-expression, depth first.

    An explicit stack, not nested generators: a ``yield from`` chain
    costs every yielded node one resume per level above it.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        children = _subexpressions(node)
        if children:
            stack.extend(reversed(children))


def _subexpressions(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of *expr*, left to right (a subquery
    is not entered)."""
    if isinstance(expr, (ColumnRef, LiteralValue)):
        return ()
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, (UnaryOp, IsNull, InSubquery, Cast)):
        return (expr.operand,)
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, CaseWhen):
        parts = [part for branch in expr.branches for part in branch]
        if expr.default is not None:
            parts.append(expr.default)
        return tuple(parts)
    return ()


def expr_columns(expr: Expr) -> List[ColumnRef]:
    """All column references appearing in *expr* (depth first)."""
    return [node for node in walk_expr(expr) if isinstance(node, ColumnRef)]


def replace_expr(expr: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Structurally replace subtrees listed in *mapping* (by equality).

    Subquery expressions are not entered: only a listed subquery node
    itself is replaced.  A node is looked up only when *mapping* has a
    key of its type (nodes of different types are never equal), so an
    operator node is not hashed, subtree and all, at every level.
    """
    if not mapping:
        return expr
    return _replace(expr, mapping, frozenset(type(key) for key in mapping))


def _replace(
    expr: Expr, mapping: Mapping[Expr, Expr], key_types: "frozenset[type]"
) -> Expr:
    """*expr* with the listed subtrees replaced; a node none of whose
    children changed is returned as it is, not rebuilt."""
    if type(expr) in key_types and expr in mapping:
        return mapping[expr]
    if isinstance(expr, (ColumnRef, LiteralValue)):
        return expr
    if isinstance(expr, BinaryOp):
        left = _replace(expr.left, mapping, key_types)
        right = _replace(expr.right, mapping, key_types)
        if left is expr.left and right is expr.right:
            return expr
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, IsNull):
        operand = _replace(expr.operand, mapping, key_types)
        return expr if operand is expr.operand else IsNull(operand, expr.negated)
    if isinstance(expr, UnaryOp):
        operand = _replace(expr.operand, mapping, key_types)
        return expr if operand is expr.operand else UnaryOp(expr.op, operand)
    if isinstance(expr, Cast):
        operand = _replace(expr.operand, mapping, key_types)
        return expr if operand is expr.operand else Cast(operand, expr.target)
    if isinstance(expr, FunctionCall):
        args = _replace_all(expr.args, mapping, key_types)
        return expr if args is expr.args else FunctionCall(expr.name, args, expr.distinct)
    if isinstance(expr, InList):
        operand = _replace(expr.operand, mapping, key_types)
        items = _replace_all(expr.items, mapping, key_types)
        if operand is expr.operand and items is expr.items:
            return expr
        return InList(operand, items, expr.negated)
    if isinstance(expr, Between):
        parts = (expr.operand, expr.low, expr.high)
        replaced = _replace_all(parts, mapping, key_types)
        return expr if replaced is parts else Between(*replaced, expr.negated)
    if isinstance(expr, CaseWhen):
        branches = tuple(
            (_replace(c, mapping, key_types), _replace(r, mapping, key_types))
            for c, r in expr.branches
        )
        default = _replace(expr.default, mapping, key_types) if expr.default else None
        if default is expr.default and all(
            new[0] is old[0] and new[1] is old[1]
            for new, old in zip(branches, expr.branches)
        ):
            return expr
        return CaseWhen(branches, default)
    return expr


def _replace_all(
    exprs: Tuple[Expr, ...], mapping: Mapping[Expr, Expr], key_types: "frozenset[type]"
) -> Tuple[Expr, ...]:
    """*exprs* replaced one by one; the same tuple when none changed."""
    replaced = tuple(_replace(e, mapping, key_types) for e in exprs)
    if all(new is old for new, old in zip(replaced, exprs)):
        return exprs
    return replaced


# ---------------------------------------------------------------------------
# Table references (FROM clause)
# ---------------------------------------------------------------------------


class TableRef:
    """Base class for FROM-clause items."""


@dataclass(frozen=True)
class NamedTable(TableRef):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return (self.alias or self.name).lower()

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} {self.alias}"
        return self.name


@dataclass(frozen=True)
class SubquerySource(TableRef):
    query: "SelectStatement"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias.lower()

    def to_sql(self) -> str:
        return f"({self.query.to_sql()}) {self.alias}"


@dataclass(frozen=True)
class Join(TableRef):
    """INNER / LEFT / NATURAL join between two table refs."""

    kind: str  # 'INNER', 'LEFT', 'NATURAL'
    left: TableRef
    right: TableRef
    condition: Optional[Expr] = None  # None for NATURAL and CROSS

    def to_sql(self) -> str:
        left = self.left.to_sql()
        right = self.right.to_sql()
        if self.kind == "NATURAL":
            return f"{left} NATURAL JOIN {right}"
        if self.condition is None:
            return f"{left} CROSS JOIN {right}"
        keyword = "LEFT JOIN" if self.kind == "LEFT" else "JOIN"
        return f"{left} {keyword} {right} ON {self.condition.to_sql()}"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias.lower()
        if isinstance(self.expr, ColumnRef):
            return self.expr.name.lower()
        return self.expr.to_sql().lower()


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class SelectStatement:
    """One SELECT block, optionally with UNION branches chained via ``union``."""

    items: Tuple[SelectItem, ...]
    source: Optional[TableRef]
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    union: Optional["UnionTail"] = None

    def _block_sql(self) -> str:
        """This SELECT block only, ignoring the union tail."""
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        if self.source is not None:
            parts.append("FROM")
            parts.append(self.source.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.to_sql() for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)

    def to_sql(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # rendered once, like ColumnRef.key: the statement is immutable,
        # and one mapping source is the derived table of many UCQ blocks.
        # Iterate the union chain: an unoptimized UCQ can have hundreds
        # of branches, deeper than Python's recursion limit
        segments = [self._block_sql()]
        tail = self.union
        while tail is not None:
            segments.append("UNION ALL" if tail.all else "UNION")
            segments.append(tail.query._block_sql())
            tail = tail.query.union
        return " ".join(segments)

    def union_branches(self) -> List["SelectStatement"]:
        """Flatten the UNION chain into the list of SELECT blocks."""
        branches = [self.without_union()]
        tail = self.union
        while tail is not None:
            branches.append(tail.query.without_union())
            tail = tail.query.union
        return branches

    def without_union(self) -> "SelectStatement":
        if self.union is None:
            return self
        return SelectStatement(
            items=self.items,
            source=self.source,
            where=self.where,
            group_by=self.group_by,
            having=self.having,
            order_by=self.order_by,
            limit=self.limit,
            offset=self.offset,
            distinct=self.distinct,
            union=None,
        )


@dataclass(frozen=True)
class UnionTail:
    query: SelectStatement
    all: bool = False


@dataclass(frozen=True)
class ColumnDef:
    name: str
    sql_type: SqlType
    not_null: bool = False
    primary_key: bool = False

    def to_sql(self) -> str:
        parts = [self.name, self.sql_type.value]
        if self.not_null:
            parts.append("NOT NULL")
        if self.primary_key:
            parts.append("PRIMARY KEY")
        return " ".join(parts)


@dataclass(frozen=True)
class ForeignKeyDef:
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def to_sql(self) -> str:
        cols = ", ".join(self.columns)
        refs = ", ".join(self.ref_columns)
        return f"FOREIGN KEY ({cols}) REFERENCES {self.ref_table} ({refs})"


@dataclass(frozen=True)
class CreateTableStatement:
    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[ForeignKeyDef, ...] = ()

    def to_sql(self) -> str:
        parts = [col.to_sql() for col in self.columns]
        if self.primary_key:
            parts.append(f"PRIMARY KEY ({', '.join(self.primary_key)})")
        parts.extend(fk.to_sql() for fk in self.foreign_keys)
        return f"CREATE TABLE {self.name} ({', '.join(parts)})"


@dataclass(frozen=True)
class CreateIndexStatement:
    name: str
    table: str
    columns: Tuple[str, ...]

    def to_sql(self) -> str:
        return f"CREATE INDEX {self.name} ON {self.table} ({', '.join(self.columns)})"


@dataclass(frozen=True)
class InsertStatement:
    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expr, ...], ...]

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(v.to_sql() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class DeleteStatement:
    table: str
    where: Optional[Expr] = None

    def to_sql(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where.to_sql()}"
        return text


@dataclass(frozen=True)
class UpdateStatement:
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None

    def to_sql(self) -> str:
        sets = ", ".join(f"{col} = {val.to_sql()}" for col, val in self.assignments)
        text = f"UPDATE {self.table} SET {sets}"
        if self.where is not None:
            text += f" WHERE {self.where.to_sql()}"
        return text


Statement = Union[
    SelectStatement,
    CreateTableStatement,
    CreateIndexStatement,
    InsertStatement,
    DeleteStatement,
    UpdateStatement,
]
