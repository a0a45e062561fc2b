"""Compiled logical plans.

The executor used to redo the whole *logical* planning pass on every
execution: re-parse the SQL text, split the UNION chain into branches,
flatten the WHERE clause into conjuncts and re-detect aggregates.  For
OBDA-generated SQL (tens of kilobytes of UNION blocks) that work dwarfs
the per-row effort on small instances and is identical run after run.

This module splits that pass out into a reusable :class:`CompiledPlan`.
:func:`compile_select` performs the logical planning once, producing a
plan holding the branch decomposition, per-branch conjunct lists and
aggregate flags, and one compiled sub-plan per distinct derived table or
IN/EXISTS subquery a branch reads.  All of it is a pure function of the
immutable AST, so a plan never goes stale and is never re-planned: DML,
index creation and ``set_profile`` change what executing it returns,
not the plan.

Whoever wants to reuse a plan holds on to the object (the OBDA engine's
query cache does); there is no text-keyed cache in between, and the
executors keep no compile state of their own.

Physical decisions (index scans, join order, hash vs. sort dedup) remain
execution-time choices made from live cardinalities and the active
:class:`~repro.sql.profiles.EngineProfile`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .ast import (
    ExistsSubquery,
    Expr,
    FunctionCall,
    InSubquery,
    Join,
    NamedTable,
    SelectStatement,
    Star,
    SubquerySource,
    TableRef,
    split_conjuncts,
    walk_expr,
)
from .expressions import RowSchema


def statement_has_aggregates(statement: SelectStatement) -> bool:
    """True when the select list or HAVING clause contains an aggregate."""

    def has_aggregate(expr: Expr) -> bool:
        return any(
            isinstance(node, FunctionCall) and node.is_aggregate
            for node in walk_expr(expr)
        )

    if any(has_aggregate(item.expr) for item in statement.items):
        return True
    if statement.having is not None and has_aggregate(statement.having):
        return True
    return False


@dataclass(frozen=True)
class SubPlan:
    """A derived table or IN/EXISTS subquery, compiled once per plan.

    ``key`` is the statement's SQL text: equal texts share one compiled
    plan, and the vectorized executor keys a derived table's result by
    it in the per-query shared-scan context.  ``schema`` is the row
    schema a derived table exposes under its alias, when its select list
    names every column (a ``*`` is resolved against the catalog at
    execution).
    """

    key: str
    plan: "CompiledPlan"
    schema: Optional[RowSchema] = None


@dataclass
class PlannedBlock:
    """One UNION branch with its pre-computed logical analysis."""

    statement: SelectStatement  # the branch, union tail stripped
    union_all: bool  # how this branch is glued to the next one
    where_conjuncts: List[Expr]
    has_aggregates: bool
    batch_eligible: bool = False
    # id() of each derived table (its SubquerySource) and IN/EXISTS
    # subquery (its statement) of the branch -> its sub-plan; the
    # branch's AST pins those nodes, so the ids stay valid for as long as
    # the plan lives
    subplans: Dict[int, SubPlan] = field(default_factory=dict)


def _batch_eligible_source(source: Optional[TableRef]) -> bool:
    """True when the source tree is scans glued by inner joins.

    Scans are base tables or derived tables (the latter evaluated by an
    independent sub-execution and carried as a materialized leg -- SQL
    has no lateral derived tables, so they can never be correlated).
    """
    if source is None:
        return False
    if isinstance(source, (NamedTable, SubquerySource)):
        return True
    if isinstance(source, Join):
        if source.kind != "INNER":
            return False
        return _batch_eligible_source(source.left) and _batch_eligible_source(
            source.right
        )
    return False  # LEFT/NATURAL join trees stay on the row path


def _derived_tables(source: Optional[TableRef]) -> Iterator[SubquerySource]:
    """Every derived table in a FROM tree."""
    if isinstance(source, SubquerySource):
        yield source
    elif isinstance(source, Join):
        yield from _derived_tables(source.left)
        yield from _derived_tables(source.right)


def _derived_schema(node: SubquerySource) -> Optional[RowSchema]:
    """The columns a derived table exposes, when its select list names
    them all (its first branch's, for a UNION)."""
    items = node.query.items
    if any(isinstance(item.expr, Star) for item in items):
        return None
    binding = node.alias.lower()
    return RowSchema([(binding, item.output_name) for item in items])


def _predicate_statements(statement: SelectStatement) -> Iterator[SelectStatement]:
    """The statement of every IN/EXISTS subquery in one block's
    expressions (select list, join conditions, WHERE, GROUP BY, HAVING,
    ORDER BY); nested statements are their sub-plans' business."""
    exprs: List[Expr] = [item.expr for item in statement.items]
    pending: List[Optional[TableRef]] = [statement.source]
    while pending:
        ref = pending.pop()
        if isinstance(ref, Join):
            if ref.condition is not None:
                exprs.append(ref.condition)
            pending.append(ref.left)
            pending.append(ref.right)
    if statement.where is not None:
        exprs.append(statement.where)
    exprs.extend(statement.group_by)
    if statement.having is not None:
        exprs.append(statement.having)
    exprs.extend(order.expr for order in statement.order_by)
    for expr in exprs:
        for node in walk_expr(expr):
            if isinstance(node, (InSubquery, ExistsSubquery)):
                yield node.subquery


@dataclass
class CompiledPlan:
    """A reusable compiled artifact for one SELECT statement.

    The plan holds only *logical* analysis -- it never embeds table rows,
    cardinalities or physical operator choices, so executing a plan always
    reflects the current data and profile.
    """

    statement: SelectStatement
    blocks: List[PlannedBlock]
    dedup_needed: bool
    key_digest: str = ""

    def describe_key(self) -> str:
        """The plan-identity summary EXPLAIN prints."""
        return f"sha1={self.key_digest or '-'} blocks={len(self.blocks)}"


def _decompose(statement: SelectStatement) -> Tuple[List[PlannedBlock], bool]:
    blocks: List[PlannedBlock] = []
    compiled: Dict[str, SubPlan] = {}  # one compiled plan per distinct text
    node: Optional[SelectStatement] = statement
    dedup_needed = False
    while node is not None:
        tail = node.union
        block = node.without_union()
        predicates = list(_predicate_statements(block))
        subplans: Dict[int, SubPlan] = {}
        for sub in predicates:
            subplans[id(sub)] = _subplan_of_text(sub, compiled)
        for derived in _derived_tables(block.source):
            text_plan = _subplan_of_text(derived.query, compiled)
            subplans[id(derived)] = SubPlan(
                text_plan.key, text_plan.plan, _derived_schema(derived)
            )
        blocks.append(
            PlannedBlock(
                statement=block,
                union_all=tail.all if tail else True,
                where_conjuncts=split_conjuncts(block.where),
                has_aggregates=statement_has_aggregates(block),
                # subquery predicates keep the row path: their
                # evaluation needs per-row context
                batch_eligible=_batch_eligible_source(block.source)
                and not predicates,
                subplans=subplans,
            )
        )
        if tail is not None and not tail.all:
            dedup_needed = True
        node = tail.query if tail else None
    return blocks, dedup_needed


def _subplan_of_text(sub: SelectStatement, compiled: Dict[str, SubPlan]) -> SubPlan:
    """The sub-plan of *sub*'s text, compiled on its first occurrence."""
    key = sub.to_sql()
    subplan = compiled.get(key)
    if subplan is None:
        subplan = compiled[key] = SubPlan(key, compile_select(sub))
    return subplan


def compile_select(
    statement: SelectStatement, sql_text: Optional[str] = None
) -> CompiledPlan:
    """Run the logical planning pass once and package it as a plan."""
    blocks, dedup_needed = _decompose(statement)
    digest = ""
    if sql_text is not None:
        digest = hashlib.sha1(sql_text.encode("utf-8")).hexdigest()[:12]
    return CompiledPlan(
        statement=statement,
        blocks=blocks,
        dedup_needed=dedup_needed,
        key_digest=digest,
    )
