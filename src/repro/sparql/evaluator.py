"""SPARQL algebra evaluation over an in-memory RDF graph.

This is the execution engine of the triple-store baseline and the ground
truth the OBDA integration tests compare against.  Solutions are
dictionaries mapping :class:`~repro.sparql.ast.Var` to RDF terms.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import Literal, Term
from .algebra import (
    AlgBGP,
    AlgExtend,
    AlgFilter,
    AlgJoin,
    AlgLeftJoin,
    AlgUnion,
    AlgebraNode,
    simplify,
    translate,
)
from .ast import (
    AggregateExpr,
    BinaryExpr,
    CallExpr,
    Expression,
    PatternTerm,
    Projection,
    SelectQuery,
    TriplePattern,
    UnaryExpr,
    Var,
    VarExpr,
)
from .errors import ExpressionError, SparqlEvalError
from .expressions import (
    evaluate,
    evaluate_filter,
    order_key,
)
from .parser import parse_query

Solution = Dict[Var, Term]


class SparqlResult:
    """Projected variable names + solution rows (terms or None).

    For ASK queries ``boolean`` holds the answer and ``rows`` is empty.
    """

    __slots__ = ("variables", "rows", "boolean")

    def __init__(
        self,
        variables: List[str],
        rows: List[Tuple[Optional[Term], ...]],
        boolean: Optional[bool] = None,
    ):
        self.variables = variables
        self.rows = rows
        self.boolean = boolean

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_dicts(self) -> List[Dict[str, Optional[Term]]]:
        return [dict(zip(self.variables, row)) for row in self.rows]

    def to_python_rows(self) -> List[Tuple[Any, ...]]:
        """Rows with literals converted to Python values, IRIs to strings."""
        converted: List[Tuple[Any, ...]] = []
        for row in self.rows:
            values: List[Any] = []
            for term in row:
                if term is None:
                    values.append(None)
                elif isinstance(term, Literal):
                    values.append(term.to_python())
                else:
                    values.append(str(term))
            converted.append(tuple(values))
        return converted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparqlResult(variables={self.variables}, rows={len(self.rows)})"


def _match_triple(
    graph: Graph, pattern: TriplePattern, solution: Solution
) -> List[Solution]:
    def resolve(term: PatternTerm) -> Optional[Term]:
        if isinstance(term, Var):
            return solution.get(term)
        return term

    subject = resolve(pattern.subject)
    predicate = resolve(pattern.predicate)
    obj = resolve(pattern.obj)
    output: List[Solution] = []
    for s, p, o in graph.triples(subject, predicate, obj):
        extended = dict(solution)
        consistent = True
        for var_term, value in (
            (pattern.subject, s),
            (pattern.predicate, p),
            (pattern.obj, o),
        ):
            if isinstance(var_term, Var):
                bound = extended.get(var_term)
                if bound is None:
                    extended[var_term] = value
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            output.append(extended)
    return output


def _selectivity(pattern: TriplePattern, bound: set) -> int:
    """Lower = more selective; used to order BGP triple evaluation."""
    score = 0
    for term in (pattern.subject, pattern.predicate, pattern.obj):
        if isinstance(term, Var) and term not in bound:
            score += 1
    return score


def _evaluate_bgp(graph: Graph, triples: Sequence[TriplePattern]) -> List[Solution]:
    solutions: List[Solution] = [{}]
    remaining = list(triples)
    bound: set = set()
    while remaining:
        remaining.sort(key=lambda t: _selectivity(t, bound))
        pattern = remaining.pop(0)
        next_solutions: List[Solution] = []
        for solution in solutions:
            next_solutions.extend(_match_triple(graph, pattern, solution))
            if not next_solutions and not solutions:
                break
        solutions = next_solutions
        if not solutions:
            return []
        for var in pattern.variables():
            bound.add(var)
    return solutions


def _compatible(left: Solution, right: Solution) -> Optional[Solution]:
    merged = dict(left)
    for var, value in right.items():
        bound = merged.get(var)
        if bound is None:
            merged[var] = value
        elif bound != value:
            return None
    return merged


def _hash_join(
    left: List[Solution], right: List[Solution]
) -> List[Solution]:
    if not left or not right:
        return []
    left_vars = set().union(*(s.keys() for s in left)) if left else set()
    right_vars = set().union(*(s.keys() for s in right)) if right else set()
    shared = sorted(left_vars & right_vars, key=lambda v: v.name)
    output: List[Solution] = []
    if not shared:
        for left_solution in left:
            for right_solution in right:
                merged = _compatible(left_solution, right_solution)
                if merged is not None:
                    output.append(merged)
        return output
    buckets: Dict[Tuple[Optional[Term], ...], List[Solution]] = {}
    for right_solution in right:
        key = tuple(right_solution.get(var) for var in shared)
        buckets.setdefault(key, []).append(right_solution)
    for left_solution in left:
        key = tuple(left_solution.get(var) for var in shared)
        # variables unbound on either side require a scan of compatible
        # buckets; with our queries shared vars are always bound, so the
        # direct probe is enough -- fall back to None-tolerant probing.
        candidates = buckets.get(key, [])
        if any(part is None for part in key):
            candidates = [
                candidate
                for bucket in buckets.values()
                for candidate in bucket
            ]
        for right_solution in candidates:
            merged = _compatible(left_solution, right_solution)
            if merged is not None:
                output.append(merged)
    return output


class SparqlEvaluator:
    """Evaluates parsed queries against a graph."""

    def __init__(self, graph: Graph):
        self.graph = graph

    # -- algebra ------------------------------------------------------------

    def evaluate_algebra(self, node: AlgebraNode) -> List[Solution]:
        if isinstance(node, AlgBGP):
            return _evaluate_bgp(self.graph, node.triples)
        if isinstance(node, AlgJoin):
            return _hash_join(
                self.evaluate_algebra(node.left), self.evaluate_algebra(node.right)
            )
        if isinstance(node, AlgLeftJoin):
            return self._left_join(node)
        if isinstance(node, AlgUnion):
            return self.evaluate_algebra(node.left) + self.evaluate_algebra(node.right)
        if isinstance(node, AlgFilter):
            child = self.evaluate_algebra(node.child)
            return [s for s in child if evaluate_filter(node.condition, s)]
        if isinstance(node, AlgExtend):
            child = self.evaluate_algebra(node.child)
            output = []
            for solution in child:
                extended = dict(solution)
                try:
                    extended[node.var] = evaluate(node.expression, solution)
                except ExpressionError:
                    pass  # leave unbound
                output.append(extended)
            return output
        raise SparqlEvalError(f"cannot evaluate {node!r}")

    def _left_join(self, node: AlgLeftJoin) -> List[Solution]:
        left = self.evaluate_algebra(node.left)
        right = self.evaluate_algebra(node.right)
        output: List[Solution] = []
        for left_solution in left:
            matched = False
            for right_solution in right:
                merged = _compatible(left_solution, right_solution)
                if merged is None:
                    continue
                if node.condition is not None and not evaluate_filter(
                    node.condition, merged
                ):
                    continue
                output.append(merged)
                matched = True
            if not matched:
                output.append(dict(left_solution))
        return output

    # -- queries ----------------------------------------------------------------

    def execute(self, query: SelectQuery | str) -> SparqlResult:
        if isinstance(query, str):
            query = parse_query(query)
        algebra = simplify(translate(query.where))
        solutions = self.evaluate_algebra(algebra)
        if query.is_ask:
            return SparqlResult([], [], boolean=bool(solutions))
        if query.has_aggregates():
            rows = self._aggregate(query, solutions)
            variables = [p.var.name for p in query.projections]
        else:
            projected = query.projected_variables()
            variables = [var.name for var in projected]
            rows = []
            for solution in solutions:
                values: List[Optional[Term]] = []
                for projection in (
                    query.projections
                    or [Projection(var) for var in projected]
                ):
                    if projection.expression is None:
                        values.append(solution.get(projection.var))
                    else:
                        try:
                            values.append(evaluate(projection.expression, solution))
                        except ExpressionError:
                            values.append(None)
                rows.append(tuple(values))
        if query.distinct:
            seen: set = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        if query.order_by:
            rows = self._order(query, variables, rows)
        start = query.offset or 0
        if query.limit is not None:
            rows = rows[start : start + query.limit]
        elif start:
            rows = rows[start:]
        return SparqlResult(variables, rows)

    # -- aggregation ----------------------------------------------------------------

    def _aggregate(
        self, query: SelectQuery, solutions: List[Solution]
    ) -> List[Tuple[Optional[Term], ...]]:
        group_exprs = list(query.group_by)
        groups: Dict[Tuple[Optional[Term], ...], List[Solution]] = {}
        order: List[Tuple[Optional[Term], ...]] = []
        for solution in solutions:
            key_parts: List[Optional[Term]] = []
            for expr in group_exprs:
                try:
                    key_parts.append(evaluate(expr, solution))
                except ExpressionError:
                    key_parts.append(None)
            key = tuple(key_parts)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(solution)
        if not group_exprs and not groups:
            groups[()] = []
            order.append(())
        rows: List[Tuple[Optional[Term], ...]] = []
        for key in order:
            members = groups[key]
            key_bindings: Solution = {}
            for expr, value in zip(group_exprs, key):
                if isinstance(expr, VarExpr) and value is not None:
                    key_bindings[expr.var] = value
            values: List[Optional[Term]] = []
            alias_bindings: Solution = dict(key_bindings)
            for projection in query.projections:
                if projection.expression is None:
                    value = key_bindings.get(projection.var)
                else:
                    value = self._evaluate_aggregate_expression(
                        projection.expression, members, key_bindings
                    )
                if value is not None:
                    alias_bindings[projection.var] = value
                values.append(value)
            # HAVING may reference SELECT aliases (e.g. the COUNT alias)
            if query.having and not all(
                self._evaluate_having(h, members, alias_bindings)
                for h in query.having
            ):
                continue
            rows.append(tuple(values))
        return rows

    def _evaluate_having(
        self, expr: Expression, members: List[Solution], key_bindings: Solution
    ) -> bool:
        value = self._evaluate_aggregate_expression(expr, members, key_bindings)
        if value is None:
            return False
        try:
            from .expressions import effective_boolean_value

            return effective_boolean_value(value)
        except ExpressionError:
            return False

    def _evaluate_aggregate_expression(
        self, expr: Expression, members: List[Solution], key_bindings: Solution
    ) -> Optional[Term]:
        """Evaluate an expression that may contain aggregates over a group."""
        try:
            return self._eval_agg(expr, members, key_bindings)
        except ExpressionError:
            return None

    def _eval_agg(
        self, expr: Expression, members: List[Solution], key_bindings: Solution
    ) -> Term:
        if isinstance(expr, AggregateExpr):
            return _compute_aggregate(expr, members)
        if isinstance(expr, VarExpr):
            return evaluate(expr, key_bindings)
        if isinstance(expr, UnaryExpr):
            inner = self._eval_agg(expr.operand, members, key_bindings)
            return evaluate(UnaryExpr(expr.op, _const(inner)), {})
        if isinstance(expr, BinaryExpr):
            left = self._eval_agg(expr.left, members, key_bindings)
            right = self._eval_agg(expr.right, members, key_bindings)
            return evaluate(BinaryExpr(expr.op, _const(left), _const(right)), {})
        if isinstance(expr, CallExpr):
            args = tuple(
                _const(self._eval_agg(arg, members, key_bindings)) for arg in expr.args
            )
            return evaluate(CallExpr(expr.name, args), {})
        return evaluate(expr, key_bindings)

    # -- ordering --------------------------------------------------------------------

    def _order(
        self,
        query: SelectQuery,
        variables: List[str],
        rows: List[Tuple[Optional[Term], ...]],
    ) -> List[Tuple[Optional[Term], ...]]:
        def key_function(row: Tuple[Optional[Term], ...]):
            keys = []
            for condition in query.order_by:
                bindings = {
                    Var(name): term
                    for name, term in zip(variables, row)
                    if term is not None
                }
                try:
                    term = evaluate(condition.expression, bindings)
                except ExpressionError:
                    term = None
                key = order_key(term)
                if not condition.ascending:
                    key = _Reversed(key)
                keys.append(key)
            return tuple(keys)

        return sorted(rows, key=key_function)


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _const(term: Term) -> Expression:
    from .ast import TermExpr

    return TermExpr(term)


def _compute_aggregate(expr: AggregateExpr, members: List[Solution]) -> Term:
    from ..rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER

    values: List[Term] = []
    if expr.argument is not None:
        for solution in members:
            try:
                values.append(evaluate(expr.argument, solution))
            except ExpressionError:
                continue
    if expr.name == "COUNT":
        if expr.argument is None:
            count = len(members)
        else:
            count = len(set(values)) if expr.distinct else len(values)
        return Literal(str(count), XSD_INTEGER)
    if expr.distinct:
        unique: List[Term] = []
        seen: set = set()
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique
    if not values:
        raise ExpressionError(f"{expr.name} over empty group")
    from .expressions import _numeric_value  # internal but stable

    if expr.name in ("SUM", "AVG"):
        numbers = [_numeric_value(value) for value in values]
        integral = not any(isinstance(number, float) for number in numbers)
        # fsum is exact, hence independent of summation order
        total = sum(numbers) if integral else math.fsum(numbers)
        if expr.name == "AVG":
            total = total / len(numbers)
            if integral:
                # the mean of integers is a decimal (XPath op:numeric-divide),
                # an integral one written without a fraction
                lexical = str(int(total)) if total.is_integer() else repr(total)
                return Literal(lexical, XSD_DECIMAL)
        if isinstance(total, int):
            return Literal(str(total), XSD_INTEGER)
        return Literal(repr(total), XSD_DOUBLE)
    # MIN / MAX over the order_key order
    ordered = sorted(values, key=order_key)
    return ordered[0] if expr.name == "MIN" else ordered[-1]


def query_graph(graph: Graph, sparql: str) -> SparqlResult:
    """Convenience one-shot evaluation."""
    return SparqlEvaluator(graph).execute(sparql)
