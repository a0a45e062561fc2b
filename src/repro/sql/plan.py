"""Compiled logical plans and their one lifecycle.

The executor used to redo the whole *logical* planning pass on every
execution: re-parse the SQL text, split the UNION chain into branches,
flatten the WHERE clause into conjuncts and re-detect aggregates.  For
OBDA-generated SQL (tens of kilobytes of UNION blocks) that work dwarfs
the per-row effort on small instances and is identical run after run.

This module splits that pass out into a reusable :class:`CompiledPlan`:

* :func:`compile_select` performs the logical planning once, producing a
  plan object holding the branch decomposition plus per-branch conjunct
  lists and aggregate flags (all immutable with respect to table *data*);
* plans carry the owning database's *generation*; any mutation event
  (DML, index creation, ``set_profile``) bumps the generation, and a
  stale plan is transparently re-planned from its retained AST on next
  use (:func:`refresh_plan`) -- physical operator choices stay fresh
  without re-parsing.

Whoever wants to reuse a plan holds on to the object (the OBDA engine's
query cache does); there is no text-keyed cache in between.

Physical decisions (index scans, join order, hash vs. sort dedup) remain
execution-time choices made from live cardinalities and the active
:class:`~repro.sql.profiles.EngineProfile`, exactly as before.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .ast import (
    ExistsSubquery,
    Expr,
    FunctionCall,
    InSubquery,
    Join,
    NamedTable,
    SelectStatement,
    SubquerySource,
    TableRef,
    split_conjuncts,
    walk_expr,
)


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


@dataclass
class PlannedBlock:
    """One UNION branch with its pre-computed logical analysis."""

    statement: SelectStatement  # the branch, union tail stripped
    union_all: bool  # how this branch is glued to the next one
    where_conjuncts: List[Expr]
    has_aggregates: bool
    batch_eligible: bool = False


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


def block_batch_eligible(statement: SelectStatement) -> bool:
    """Logical eligibility of one UNION branch for the vectorized path.

    The batch path covers the OBDA workload shape: base-table scans glued
    by inner joins, scalar expressions, aggregation, DISTINCT, ORDER BY
    and LIMIT.  LEFT/NATURAL joins, derived tables and subquery predicates
    keep the row path (the correctness oracle); the executor counts those
    fallbacks so coverage is observable.
    """
    if not _batch_eligible_source(statement.source):
        return False
    exprs: List[Expr] = [item.expr for item in statement.items]
    pending: List[TableRef] = [statement.source]
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
                return False  # correlated eval needs per-row context
    return True


@dataclass
class CompiledPlan:
    """A reusable compiled artifact for one SELECT statement.

    The plan holds only *logical* analysis -- it never embeds table rows,
    cardinalities or physical operator choices, so executing a plan always
    reflects the current data.  ``generation``/``profile_name`` track the
    mutation epoch it was compiled under; :meth:`Database.execute_plan`
    refreshes stale plans in place (cheap: no SQL re-parse).
    """

    statement: SelectStatement
    blocks: List[PlannedBlock]
    dedup_needed: bool
    profile_name: str = ""
    generation: int = -1
    key_digest: str = ""
    _refresh_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def describe_key(self) -> str:
        """The plan-identity summary EXPLAIN prints."""
        return (
            f"sha1={self.key_digest or '-'} blocks={len(self.blocks)} "
            f"profile={self.profile_name or '-'} generation={self.generation}"
        )


def _decompose(statement: SelectStatement) -> Tuple[List[PlannedBlock], bool]:
    blocks: List[PlannedBlock] = []
    node: Optional[SelectStatement] = statement
    dedup_needed = False
    while node is not None:
        tail = node.union
        block = node.without_union()
        blocks.append(
            PlannedBlock(
                statement=block,
                union_all=tail.all if tail else True,
                where_conjuncts=split_conjuncts(block.where),
                has_aggregates=statement_has_aggregates(block),
                batch_eligible=block_batch_eligible(block),
            )
        )
        if tail is not None and not tail.all:
            dedup_needed = True
        node = tail.query if tail else None
    return blocks, dedup_needed


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


def refresh_plan(plan: CompiledPlan, profile_name: str, generation: int) -> None:
    """Re-plan a stale plan in place from its retained AST.

    Holders of the plan object (e.g. the OBDA engine's end-to-end query
    cache) see the refresh without re-compiling their artifact; the AST is
    immutable so concurrent readers of the old block list stay correct.
    """
    with plan._refresh_lock:
        if plan.generation == generation and plan.profile_name == profile_name:
            return  # another thread refreshed it first
        blocks, dedup_needed = _decompose(plan.statement)
        plan.blocks = blocks
        plan.dedup_needed = dedup_needed
        plan.profile_name = profile_name
        plan.generation = generation
