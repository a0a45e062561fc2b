"""SPARQL query model: variables, triple patterns, group patterns and
expressions.

The model is deliberately close to the SPARQL 1.1 grammar; the algebra
translation in :mod:`repro.sparql.algebra` lowers it to evaluable operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..rdf.terms import IRI, BNode, Literal, Term


@dataclass(frozen=True, slots=True)
class Var:
    """A SPARQL variable (without the leading ``?``/``$``)."""

    name: str

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()


PatternTerm = Union[Var, IRI, BNode, Literal]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    obj: PatternTerm

    def variables(self) -> List[Var]:
        return [t for t in (self.subject, self.predicate, self.obj) if isinstance(t, Var)]

    def n3(self) -> str:
        def render(term: PatternTerm) -> str:
            return term.n3()

        return f"{render(self.subject)} {render(self.predicate)} {render(self.obj)} ."

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for SPARQL expressions."""


@dataclass(frozen=True)
class VarExpr(Expression):
    var: Var


@dataclass(frozen=True)
class TermExpr(Expression):
    term: Term


@dataclass(frozen=True)
class UnaryExpr(Expression):
    op: str  # '!', '-', '+'
    operand: Expression


@dataclass(frozen=True)
class BinaryExpr(Expression):
    op: str  # '||', '&&', '=', '!=', '<', '<=', '>', '>=', '+', '-', '*', '/'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class CallExpr(Expression):
    """Built-in call (BOUND, STR, REGEX, ...) or a cast by datatype IRI."""

    name: str
    args: Tuple[Expression, ...]


@dataclass(frozen=True)
class AggregateExpr(Expression):
    """COUNT/SUM/AVG/MIN/MAX, with optional DISTINCT and COUNT(*)."""

    name: str  # upper-case
    argument: Optional[Expression]  # None => COUNT(*)
    distinct: bool = False


def expression_variables(expr: Expression) -> List[Var]:
    found: List[Var] = []
    _collect_expression_variables(expr, found)
    return found


def _collect_expression_variables(node: Expression, found: List[Var]) -> None:
    # a module-level function, not a self-recursive closure: a closure
    # that refers to itself is a reference cycle left for the collector
    if isinstance(node, VarExpr):
        found.append(node.var)
    elif isinstance(node, UnaryExpr):
        _collect_expression_variables(node.operand, found)
    elif isinstance(node, BinaryExpr):
        _collect_expression_variables(node.left, found)
        _collect_expression_variables(node.right, found)
    elif isinstance(node, CallExpr):
        for arg in node.args:
            _collect_expression_variables(arg, found)
    elif isinstance(node, AggregateExpr) and node.argument is not None:
        _collect_expression_variables(node.argument, found)


# ---------------------------------------------------------------------------
# Group graph patterns
# ---------------------------------------------------------------------------


class Pattern:
    """Base class for graph patterns."""


@dataclass(frozen=True)
class BGP(Pattern):
    """A basic graph pattern: a conjunction of triple patterns."""

    triples: Tuple[TriplePattern, ...]

    def variables(self) -> List[Var]:
        seen: Dict[Var, None] = {}
        for triple in self.triples:
            for var in triple.variables():
                seen.setdefault(var)
        return list(seen)


@dataclass(frozen=True)
class GroupPattern(Pattern):
    """A ``{ ... }`` group: sequence of patterns and filters joined."""

    elements: Tuple[Pattern, ...]
    filters: Tuple[Expression, ...] = ()


@dataclass(frozen=True)
class OptionalPattern(Pattern):
    pattern: Pattern


@dataclass(frozen=True)
class UnionPattern(Pattern):
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class BindPattern(Pattern):
    """``BIND (expr AS ?v)``."""

    expression: Expression
    var: Var


def pattern_variables(pattern: Pattern) -> List[Var]:
    """In-scope variables of a pattern, in first-appearance order."""
    seen: Dict[Var, None] = {}

    def walk(node: Pattern) -> None:
        if isinstance(node, BGP):
            for var in node.variables():
                seen.setdefault(var)
        elif isinstance(node, GroupPattern):
            for element in node.elements:
                walk(element)
        elif isinstance(node, OptionalPattern):
            walk(node.pattern)
        elif isinstance(node, UnionPattern):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, BindPattern):
            seen.setdefault(node.var)

    walk(pattern)
    return list(seen)


# ---------------------------------------------------------------------------
# The query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a plain variable or ``(expr AS ?v)``."""

    var: Var
    expression: Optional[Expression] = None  # None => project the variable


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class SelectQuery:
    projections: Tuple[Projection, ...]  # empty => SELECT *
    where: Pattern
    distinct: bool = False
    group_by: Tuple[Expression, ...] = ()
    having: Tuple[Expression, ...] = ()
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    prefixes: Tuple[Tuple[str, str], ...] = ()
    form: str = "SELECT"  # 'SELECT' | 'ASK'

    @property
    def is_ask(self) -> bool:
        return self.form == "ASK"

    @property
    def select_star(self) -> bool:
        return not self.projections

    def projected_variables(self) -> List[Var]:
        if self.select_star:
            return pattern_variables(self.where)
        return [p.var for p in self.projections]

    def has_aggregates(self) -> bool:
        if self.group_by:
            return True
        for projection in self.projections:
            if projection.expression is not None and _contains_aggregate(
                projection.expression
            ):
                return True
        return any(_contains_aggregate(h) for h in self.having)


def _contains_aggregate(expr: Expression) -> bool:
    if isinstance(expr, AggregateExpr):
        return True
    if isinstance(expr, UnaryExpr):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, BinaryExpr):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, CallExpr):
        return any(_contains_aggregate(arg) for arg in expr.args)
    return False
