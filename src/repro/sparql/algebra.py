"""Translation of group graph patterns into SPARQL algebra.

The algebra is the exchange format between the evaluator (triple-store
execution) and the OBDA rewriter/unfolder (which works on the BGP/Join/
LeftJoin/Union/Filter structure).  The translation follows the SPARQL 1.1
specification, section 18.2, restricted to the operators we support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .ast import (
    BGP,
    BindPattern,
    Expression,
    GroupPattern,
    OptionalPattern,
    Pattern,
    TriplePattern,
    UnionPattern,
    Var,
)
from .errors import SparqlError


class AlgebraNode:
    """Base class of algebra operators."""


@dataclass(frozen=True)
class AlgBGP(AlgebraNode):
    triples: Tuple[TriplePattern, ...]


@dataclass(frozen=True)
class AlgJoin(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode


@dataclass(frozen=True)
class AlgLeftJoin(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode
    condition: Optional[Expression] = None


@dataclass(frozen=True)
class AlgUnion(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode


@dataclass(frozen=True)
class AlgFilter(AlgebraNode):
    condition: Expression
    child: AlgebraNode


@dataclass(frozen=True)
class AlgExtend(AlgebraNode):
    child: AlgebraNode
    var: Var
    expression: Expression


_EMPTY = AlgBGP(())


def translate(pattern: Pattern) -> AlgebraNode:
    """Lower a parsed group graph pattern to algebra."""
    if isinstance(pattern, BGP):
        return AlgBGP(pattern.triples)
    if isinstance(pattern, UnionPattern):
        return AlgUnion(translate(pattern.left), translate(pattern.right))
    if isinstance(pattern, OptionalPattern):
        # A bare OPTIONAL at top level joins against the unit table.
        return AlgLeftJoin(_EMPTY, translate(pattern.pattern), None)
    if isinstance(pattern, GroupPattern):
        node: AlgebraNode = _EMPTY
        for element in pattern.elements:
            if isinstance(element, OptionalPattern):
                node = AlgLeftJoin(node, translate(element.pattern), None)
            elif isinstance(element, BindPattern):
                node = AlgExtend(node, element.var, element.expression)
            else:
                translated = translate(element)
                node = translated if node is _EMPTY else AlgJoin(node, translated)
        for condition in pattern.filters:
            node = AlgFilter(condition, node)
        return node
    raise SparqlError(f"cannot translate pattern {pattern!r}")


def simplify(node: AlgebraNode) -> AlgebraNode:
    """Merge adjacent BGPs in joins and drop unit-table joins."""
    if isinstance(node, AlgJoin):
        left = simplify(node.left)
        right = simplify(node.right)
        if isinstance(left, AlgBGP) and not left.triples:
            return right
        if isinstance(right, AlgBGP) and not right.triples:
            return left
        if isinstance(left, AlgBGP) and isinstance(right, AlgBGP):
            return AlgBGP(left.triples + right.triples)
        return AlgJoin(left, right)
    if isinstance(node, AlgLeftJoin):
        return AlgLeftJoin(simplify(node.left), simplify(node.right), node.condition)
    if isinstance(node, AlgUnion):
        return AlgUnion(simplify(node.left), simplify(node.right))
    if isinstance(node, AlgFilter):
        return AlgFilter(node.condition, simplify(node.child))
    if isinstance(node, AlgExtend):
        return AlgExtend(simplify(node.child), node.var, node.expression)
    return node


def algebra_variables(node: AlgebraNode) -> List[Var]:
    """In-scope variables of an algebra tree, in first-appearance order."""
    seen: dict[Var, None] = {}
    _collect_variables(node, seen)
    return list(seen)


def _collect_variables(current: AlgebraNode, seen: dict[Var, None]) -> None:
    # module-level, not a self-recursive closure (that would be a
    # reference cycle left for the collector on every compile)
    if isinstance(current, AlgBGP):
        for triple in current.triples:
            for var in triple.variables():
                seen.setdefault(var)
    elif isinstance(current, (AlgJoin, AlgUnion, AlgLeftJoin)):
        _collect_variables(current.left, seen)
        _collect_variables(current.right, seen)
    elif isinstance(current, AlgFilter):
        _collect_variables(current.child, seen)
    elif isinstance(current, AlgExtend):
        _collect_variables(current.child, seen)
        seen.setdefault(current.var)


def collect_bgps(node: AlgebraNode) -> List[AlgBGP]:
    """All BGPs in the tree (used by query-statistics reporting)."""
    bgps: List[AlgBGP] = []
    _collect_bgps(node, bgps)
    return bgps


def _collect_bgps(current: AlgebraNode, bgps: List[AlgBGP]) -> None:
    if isinstance(current, AlgBGP):
        bgps.append(current)
    elif isinstance(current, (AlgJoin, AlgUnion, AlgLeftJoin)):
        _collect_bgps(current.left, bgps)
        _collect_bgps(current.right, bgps)
    elif isinstance(current, (AlgFilter, AlgExtend)):
        _collect_bgps(current.child, bgps)


def count_optionals(node: AlgebraNode) -> int:
    """Number of LeftJoin operators (the #opt statistic of Table 7)."""
    if isinstance(node, AlgLeftJoin):
        return 1 + count_optionals(node.left) + count_optionals(node.right)
    if isinstance(node, (AlgJoin, AlgUnion)):
        return count_optionals(node.left) + count_optionals(node.right)
    if isinstance(node, (AlgFilter, AlgExtend)):
        return count_optionals(node.child)
    return 0
