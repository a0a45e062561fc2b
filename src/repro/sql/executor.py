"""Query planning and execution.

The executor evaluates a :class:`~repro.sql.ast.SelectStatement` against a
:class:`~repro.sql.catalog.Catalog`.  Planning is deliberately simple but
covers the optimizations that matter for OBDA-generated SQL:

* **predicate pushdown** -- single-relation conjuncts of the WHERE clause
  are applied at scan time, using hash/sorted indexes when the predicate is
  an equality with, or a range against, a constant;
* **greedy join ordering** -- the flattened inner-join block starts from
  the smallest pushed-down relation and repeatedly adds the relation with a
  connecting equi-predicate whose estimated output is smallest;
* **profile-gated physical joins** -- index-nested-loop always; hash join
  only when the :class:`~repro.sql.profiles.EngineProfile` allows it;
* **hash vs. sort dedup** for DISTINCT and UNION, again profile-gated.

Aggregation, HAVING, ORDER BY, LIMIT/OFFSET and UNION chains are evaluated
on materialized intermediate lists -- plenty for laptop-scale benchmarks and
much easier to reason about than a streaming Volcano design.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .ast import (
    BinaryOp,
    Between,
    CaseWhen,
    Cast,
    ColumnRef,
    ExistsSubquery,
    Expr,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    LiteralValue,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubquerySource,
    TableRef,
    UnaryOp,
    expr_columns,
    replace_expr,
    split_conjuncts,
    walk_expr,
)
from .catalog import Catalog, Table
from .errors import ExecutionError
from .expressions import ExpressionCompiler, RowSchema, sql_compare
from .optimizer import CostModel, SharedScanContext, scan_key
from .plan import CompiledPlan, PlannedBlock, SubPlan, compile_select
from .profiles import EngineProfile, postgresql_profile

RowT = Tuple[Any, ...]


@dataclass
class ExecutionStats:
    """Counters exposed to the Mixer's quality metrics."""

    rows_scanned: int = 0
    index_lookups: int = 0
    hash_joins: int = 0
    nested_loop_joins: int = 0
    index_nl_joins: int = 0
    # rows emitted by join operators (hash, index-NL, NL, LEFT, NATURAL):
    # host-independent work, equal on both executors for one join order
    join_rows: int = 0
    union_branches: int = 0
    # always 0: plans are never re-planned (the e2e benchmark's control
    # API still reads the name)
    plan_recompiles: int = 0
    # sorted-index maintenance counters (aggregated from the catalog)
    index_batch_sorts: int = 0
    index_merges: int = 0
    # cross-disjunct scan sharing (see repro.sql.optimizer)
    shared_scan_hits: int = 0
    shared_scan_misses: int = 0
    shared_build_hits: int = 0
    # cost-based physical optimization
    build_side_swaps: int = 0
    # vectorized executor: blocks run on the batch path / fallbacks to
    # the row path (ineligible shape or unsupported operator)
    batch_blocks: int = 0
    batch_fallbacks: int = 0

    def reset(self) -> None:
        for counter in dataclasses.fields(self):
            setattr(self, counter.name, counter.default)


@dataclass
class Relation:
    """A planned FROM item: schema + materialized rows (+ base table)."""

    schema: RowSchema
    rows: List[RowT]
    binding: Optional[str] = None
    base_table: Optional[Table] = None

    @property
    def size(self) -> int:
        return len(self.rows)

    def stats_view(self) -> "Relation":
        """What the cost model reads; the batch relation builds a stand-in."""
        return self


class QueryResult:
    """Column names + row tuples, with convenience accessors."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: List[str], rows: List[RowT]):
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[RowT]:
        return iter(self.rows)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        try:
            position = self.columns.index(name.lower())
        except ValueError as exc:
            raise ExecutionError(f"no result column {name!r}") from exc
        return [row[position] for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult(columns={self.columns}, rows={len(self.rows)})"


def _sort_key_function(
    compiled: List[Tuple[Callable[[RowT], Any], bool]]
) -> Callable[[RowT], Any]:
    """Build a cmp_to_key sort key honouring NULLS FIRST and mixed types."""

    def compare(left: RowT, right: RowT) -> int:
        for evaluate, ascending in compiled:
            left_value = evaluate(left)
            right_value = evaluate(right)
            if left_value is None and right_value is None:
                continue
            if left_value is None:
                return -1 if ascending else 1
            if right_value is None:
                return 1 if ascending else -1
            comparison = sql_compare(left_value, right_value)
            if comparison is None:
                comparison = (str(left_value) > str(right_value)) - (
                    str(left_value) < str(right_value)
                )
            if comparison:
                return comparison if ascending else -comparison
        return 0

    return functools.cmp_to_key(compare)


def _hashable(value: Any) -> Any:
    return value if not isinstance(value, list) else tuple(value)


class Executor:
    """Evaluates statements against a catalog under an engine profile."""

    def __init__(self, catalog: Catalog, profile: Optional[EngineProfile] = None):
        self.catalog = catalog
        self.profile = profile or postgresql_profile()
        self.stats = ExecutionStats()
        # when not None, physical-operator decisions are appended here
        # (the Database.explain facility)
        self.trace: Optional[List[str]] = None
        # EXPLAIN ANALYZE mode: trace lines carry actual row counts,
        # estimated-vs-actual cardinality and per-disjunct timings
        self.analyze: bool = False
        # per-thread execution state: the active shared-scan context
        # (multi-disjunct UNIONs only), the cancellation token and the
        # running block's sub-plans.  Thread-local because the Database
        # facade shares one Executor across concurrent request threads:
        # instance state would let one query's teardown null the context
        # out from under another thread's in-flight union
        self._local = threading.local()
        # the row schema of each (table, binding) scan, with the table
        # pinned so a re-created table of the same name gets a new one
        self._scan_schemas: Dict[Tuple[str, str], Tuple[Table, RowSchema]] = {}

    def _trace(self, message: str) -> None:
        if self.trace is not None:
            self.trace.append(message)

    @property
    def _shared(self) -> Optional[SharedScanContext]:
        """This thread's active shared-scan context (None when unset)."""
        return getattr(self._local, "context", None)

    @_shared.setter
    def _shared(self, context: Optional[SharedScanContext]) -> None:
        self._local.context = context

    # -- cooperative cancellation --------------------------------------

    #: rows between in-loop cancellation polls (scan/probe/project loops)
    CANCEL_BATCH_ROWS = 4096

    @property
    def cancel_token(self):
        """This thread's active cancellation token (None when unset)."""
        return getattr(self._local, "token", None)

    def set_cancel_token(self, token) -> None:
        self._local.token = token

    def _check_cancel(self) -> None:
        """Operator-boundary poll: raise QueryCancelled if the token tripped."""
        token = self.cancel_token
        if token is not None:
            token.check()

    def _cancellable_rows(
        self, rows: Sequence[RowT], interval: Optional[int] = None
    ):
        """Wrap a row list with periodic token polls (row-batch boundary).

        Returns the list unchanged when no token is active, so the hot
        path pays a single attribute lookup per operator, never per row.
        """
        token = self.cancel_token
        if token is None:
            return rows
        step = interval or self.CANCEL_BATCH_ROWS

        def checked():
            for position, row in enumerate(rows):
                if position % step == 0:
                    token.check()
                yield row

        return checked()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute_plan(self, plan: CompiledPlan) -> QueryResult:
        """Execute a pre-compiled logical plan (see :mod:`repro.sql.plan`)."""
        blocks = plan.blocks
        if len(blocks) == 1:
            columns, rows = self._run_block(blocks[0])
            return QueryResult(columns, rows)
        return self._execute_union(plan)

    def _run_block(self, block: PlannedBlock) -> Tuple[List[str], List[RowT]]:
        """Execute one branch with its sub-plans in reach of ``_subplan``;
        a derived table's own branches nest inside."""
        local = self._local
        outer = getattr(local, "subplans", None)
        local.subplans = block.subplans
        try:
            return self._execute_block(block)
        finally:
            local.subplans = outer

    def _execute_union(self, plan: CompiledPlan) -> QueryResult:
        """Multi-disjunct UNION: one sequential loop over shared scans."""
        blocks = plan.blocks
        self.stats.union_branches += len(blocks)
        owns_shared = self._shared is None
        if owns_shared:
            self._shared = SharedScanContext()
        branch_results: List[Tuple[List[str], List[RowT]]] = []
        try:
            for position, block in enumerate(blocks):
                self._check_cancel()
                started = time.perf_counter()
                columns, branch_rows = self._run_block(block)
                if self.analyze:
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    self._trace(
                        f"Disjunct {position + 1}/{len(blocks)}: "
                        f"{len(branch_rows)} rows in {elapsed_ms:.2f} ms"
                    )
                branch_results.append((columns, branch_rows))
        finally:
            if owns_shared:
                context = self._shared
                self._shared = None
                if context is not None:
                    self.stats.shared_scan_hits += context.hits
                    self.stats.shared_scan_misses += context.misses
                    self.stats.shared_build_hits += context.build_hits
        first_columns = branch_results[0][0]
        width = len(first_columns)
        rows: List[RowT] = []
        for columns, branch_rows in branch_results:
            if len(columns) != width:
                raise ExecutionError(
                    "UNION branches have different column counts: "
                    f"{width} vs {len(columns)}"
                )
            rows.extend(branch_rows)
        if plan.dedup_needed:
            rows = self._deduplicate(rows)
        # ORDER BY / LIMIT of the first branch apply to the whole union
        head = blocks[0].statement
        if head.order_by:
            schema = RowSchema([(None, c) for c in first_columns])
            order_by = _resolve_ordinals(head.order_by, first_columns)
            rows = self._order_rows(rows, order_by, schema)
        rows = _apply_limit(rows, head.limit, head.offset)
        return QueryResult(first_columns, rows)

    def _subplan(self, node: Any) -> SubPlan:
        """The running block's sub-plan for a derived table (*node* is its
        ``SubquerySource``) or an IN/EXISTS subquery (its statement).

        A statement outside any plan (a DML WHERE clause, a whole-UNION
        ORDER BY) is compiled for this one use.
        """
        subplans = getattr(self._local, "subplans", None)
        subplan = subplans.get(id(node)) if subplans else None
        if subplan is None:
            statement = node.query if isinstance(node, SubquerySource) else node
            subplan = SubPlan(statement.to_sql(), compile_select(statement))
        return subplan

    def run_subquery(self, statement: SelectStatement) -> List[RowT]:
        """The rows of an IN/EXISTS subquery."""
        return self.execute_plan(self._subplan(statement).plan).rows

    # ------------------------------------------------------------------
    # one SELECT block
    # ------------------------------------------------------------------

    def _execute_block(self, planned: PlannedBlock) -> Tuple[List[str], List[RowT]]:
        self._check_cancel()
        statement = planned.statement
        # the conjunct list is read-only here; sharing it across
        # executions of a cached plan is safe
        where_conjuncts = planned.where_conjuncts
        consumed: Set[int] = set()
        if statement.source is None:
            relation = Relation(RowSchema([]), [()])
        else:
            relation = self._plan_source(statement.source, where_conjuncts, consumed)
        # apply any conjunct not consumed by pushdown/joins
        remaining = [c for i, c in enumerate(where_conjuncts) if i not in consumed]
        if remaining:
            relation = self._filter_compiled(relation, remaining)
        source_rows: Optional[List[RowT]] = None
        if planned.has_aggregates or statement.group_by:
            columns, rows = self._aggregate(statement, relation)
        else:
            columns, rows = self._project(statement, relation)
            source_rows = relation.rows
        return self._finish_block(
            statement, columns, rows, relation.schema, source_rows
        )

    def _finish_block(
        self,
        statement: SelectStatement,
        columns: List[str],
        rows: List[RowT],
        source_schema: RowSchema,
        source_rows: Optional[List[RowT]],
    ) -> Tuple[List[str], List[RowT]]:
        """The operator tail shared by the row and batch paths:
        DISTINCT, ORDER BY (with source-column access), LIMIT/OFFSET."""
        if statement.distinct:
            rows = self._deduplicate(rows)
            source_rows = None  # alignment with source rows is lost
        if statement.order_by and statement.union is None:
            output_schema = RowSchema([(None, c) for c in columns])
            order_by = _resolve_ordinals(statement.order_by, columns)
            if source_rows is not None and len(source_rows) == len(rows):
                # ORDER BY may reference source columns (e.g. e.name) that
                # are not in the select list: sort projected rows zipped
                # with their source rows under the combined schema.
                combined_schema = output_schema.concat(source_schema)
                combined_rows = [p + s for p, s in zip(rows, source_rows)]
                combined_rows = self._order_rows(
                    combined_rows, order_by, combined_schema
                )
                width = len(columns)
                rows = [row[:width] for row in combined_rows]
            else:
                rows = self._order_rows(rows, order_by, output_schema)
        if statement.union is None:
            rows = _apply_limit(rows, statement.limit, statement.offset)
        return columns, rows

    def _compiler(self, schema: RowSchema) -> ExpressionCompiler:
        return ExpressionCompiler(schema, subquery_executor=self.run_subquery)

    def _compile_all(
        self, schema: RowSchema, exprs: Sequence[Expr]
    ) -> List[Callable[[RowT], Any]]:
        """Compile *exprs* against *schema* for this execution."""
        compiler = self._compiler(schema)
        return [compiler.compile(expr) for expr in exprs]

    def _scan_schema(self, table: Table, binding: str) -> RowSchema:
        """The (cached) row schema of one base-table scan.

        DROP TABLE + CREATE TABLE under the same name produces a new
        Table object, so the pinned-table identity check makes stale
        entries unreachable without any invalidation hook.
        """
        key = (table.name, binding)
        entry = self._scan_schemas.get(key)
        if entry is not None and entry[0] is table:
            return entry[1]
        schema = RowSchema([(binding, c) for c in table.column_names])
        self._scan_schemas[key] = (table, schema)
        return schema

    def _filter_compiled(
        self, relation: Relation, conjuncts: Sequence[Expr]
    ) -> Relation:
        """Apply residual conjuncts."""
        predicates = self._compile_all(relation.schema, conjuncts)
        return Relation(
            relation.schema,
            [
                row
                for row in self._cancellable_rows(relation.rows)
                if all(predicate(row) is True for predicate in predicates)
            ],
        )

    def _combine_compiled(
        self, schema: RowSchema, conjuncts: Sequence[Expr]
    ) -> Optional[Callable[[RowT], Any]]:
        """One predicate per conjunct, folded into a single test.

        Per-conjunct AND with ``is True`` matches SQL three-valued logic:
        a row passes a conjunction iff every conjunct is exactly TRUE.
        """
        if not conjuncts:
            return None
        predicates = self._compile_all(schema, conjuncts)
        if len(predicates) == 1:
            only = predicates[0]
            return lambda row: only(row) is True
        return lambda row: all(predicate(row) is True for predicate in predicates)

    # ------------------------------------------------------------------
    # FROM planning
    # ------------------------------------------------------------------

    def _plan_source(
        self,
        source: TableRef,
        where_conjuncts: List[Expr],
        consumed: Set[int],
    ) -> Relation:
        relations, join_conjuncts, left_joins = self._flatten(source)
        if left_joins:
            # LEFT JOIN present: evaluate the tree structurally (no reordering)
            return self._plan_tree(source)
        # pushdown: WHERE conjuncts that touch exactly one relation are
        # grouped per relation first, so the filtered scan can be looked
        # up in (or stored into) the shared-scan cache as one unit and the
        # cost model can order the predicates before application
        local: Dict[int, List[Expr]] = {}
        for index, conjunct in enumerate(where_conjuncts):
            target = self._single_relation_target(conjunct, relations)
            if target is not None:
                consumed.add(index)
                for position, relation in enumerate(relations):
                    if relation is target:
                        local.setdefault(position, []).append(conjunct)
                        break
                continue
            # multi-relation conjuncts participate in join planning
            if self._resolvable_in(conjunct, relations):
                consumed.add(index)
                join_conjuncts.append(conjunct)
        for position, relation in enumerate(relations):
            self._filter_relation(relation, local.get(position, []))
        return self._join_relations(relations, join_conjuncts)

    def _flatten(
        self, source: TableRef
    ) -> Tuple[List[Relation], List[Expr], bool]:
        """Flatten INNER-join trees into relations + conjuncts.

        Returns (relations, join conjuncts, saw_left_join).  When a LEFT
        join is present the caller falls back to structural evaluation.
        """
        relations: List[Relation] = []
        conjuncts: List[Expr] = []
        saw_left = self._flatten_into(source, relations, conjuncts)
        return relations, conjuncts, saw_left

    def _flatten_into(
        self, node: TableRef, relations: List[Relation], conjuncts: List[Expr]
    ) -> bool:
        """Recursive step of :meth:`_flatten`; True once a LEFT join is seen.

        A method, not a nested closure: a self-recursive closure is a
        reference cycle that would hold the scanned rows until the next
        full collection.
        """
        if not isinstance(node, Join):
            relations.append(self._scan(node))
            return False
        if node.kind == "LEFT":
            return True
        if node.kind == "NATURAL":
            # handled structurally too (needs schema knowledge)
            relations.append(self._plan_tree(node))
            return False
        if self._flatten_into(node.left, relations, conjuncts):
            return True
        if self._flatten_into(node.right, relations, conjuncts):
            return True
        if node.condition is not None:
            conjuncts.extend(split_conjuncts(node.condition))
        return False

    def _plan_tree(self, node: TableRef) -> Relation:
        """Structural (no reordering) evaluation of a FROM subtree."""
        if isinstance(node, NamedTable) or isinstance(node, SubquerySource):
            return self._scan(node)
        assert isinstance(node, Join)
        left = self._plan_tree(node.left)
        right = self._plan_tree(node.right)
        if node.kind == "NATURAL":
            joined = self._natural_join(left, right)
        elif node.kind == "LEFT":
            joined = self._left_join(left, right, node.condition)
        else:
            joined = self._inner_join(left, right, split_conjuncts(node.condition))
        self.stats.join_rows += joined.size
        return joined

    def _scan(self, node: TableRef) -> Relation:
        if isinstance(node, NamedTable):
            table = self.catalog.table(node.name)
            binding = (node.alias or node.name).lower()
            schema = self._scan_schema(table, binding)
            shared_key = (
                (table.name.lower(), frozenset())
                if self._shared is not None
                else None
            )
            rows = (
                self._shared.lookup_scan(shared_key)
                if shared_key is not None and self._shared is not None
                else None
            )
            if rows is None:
                rows = list(table.iter_rows())
                self.stats.rows_scanned += len(rows)
                if shared_key is not None and self._shared is not None:
                    self._shared.store_scan(shared_key, rows)
            self._trace(f"SeqScan {table.name} as {binding} ({len(rows)} rows)")
            return Relation(schema, rows, binding, table)
        if isinstance(node, SubquerySource):
            subplan = self._subplan(node)
            result = self.execute_plan(subplan.plan)
            binding = node.alias.lower()
            schema = subplan.schema
            if schema is None:
                schema = RowSchema([(binding, c) for c in result.columns])
            return Relation(schema, result.rows, binding)
        raise ExecutionError(f"cannot scan {node!r}")

    # -- pushdown -----------------------------------------------------------

    def _resolvable_in(self, conjunct: Expr, relations: List[Relation]) -> bool:
        """All column refs resolve somewhere in the flattened relations."""
        if any(
            isinstance(node, (InSubquery, ExistsSubquery))
            for node in _walk_expr(conjunct)
        ):
            return False
        refs = expr_columns(conjunct)
        for ref in refs:
            if not any(r.schema.try_resolve(ref) is not None for r in relations):
                return False
        return True

    def _single_relation_target(
        self, conjunct: Expr, relations: List[Relation]
    ) -> Optional[Relation]:
        refs = expr_columns(conjunct)
        if not refs:
            return None
        if any(
            isinstance(node, (InSubquery, ExistsSubquery))
            for node in _walk_expr(conjunct)
        ):
            return None
        target: Optional[Relation] = None
        for ref in refs:
            owners = [r for r in relations if r.schema.try_resolve(ref) is not None]
            if len(owners) != 1:
                return None
            if target is None:
                target = owners[0]
            elif target is not owners[0]:
                return None
        return target

    def _filter_relation(self, relation: Relation, conjuncts: List[Expr]) -> None:
        """Apply a relation's pushed-down conjuncts, sharing when possible.

        With an active :class:`SharedScanContext`, the (table, canonical
        predicate set) key is probed first: another UNION disjunct that
        already produced this exact filtered scan donates its row list.
        On a miss the predicates are applied (cost-ordered) and the
        result is stored for the remaining disjuncts.
        """
        if not conjuncts:
            return
        shared_key = None
        if self._shared is not None and relation.base_table is not None:
            shared_key = scan_key(relation.base_table.name, conjuncts)
            if shared_key is not None:
                rows = self._shared.lookup_scan(shared_key)
                if rows is not None:
                    self._trace(
                        f"SharedScan {relation.base_table.name} "
                        f"({len(rows)} rows reused)"
                    )
                    relation.rows = rows
                    return
        for conjunct in self._order_local_predicates(relation, conjuncts):
            self._apply_local_predicate(relation, conjunct)
        if shared_key is not None and self._shared is not None:
            # _apply_local_predicate always rebinds relation.rows to a
            # fresh list, so this never aliases the unfiltered scan
            self._shared.store_scan(shared_key, relation.rows)

    def _order_local_predicates(
        self, relation: Relation, conjuncts: List[Expr]
    ) -> List[Expr]:
        """Cost-based application order for pushed-down predicates.

        Index-eligible predicates go first (only the first filter of a
        relation can use an index -- afterwards the row ids are stale),
        ranked by estimated selectivity; the rest follow most-selective
        first so later passes touch fewer rows.
        """
        if len(conjuncts) < 2:
            return conjuncts
        cost = CostModel(getattr(self.catalog, "statistics", None))
        ranked = []
        for position, conjunct in enumerate(conjuncts):
            indexable = self._index_candidate(relation, conjunct)
            selectivity = cost.predicate_selectivity(relation, conjunct)
            ranked.append((not indexable, selectivity, position, conjunct))
        ranked.sort(key=lambda item: item[:3])
        return [item[3] for item in ranked]

    def _index_candidate(self, relation: Relation, conjunct: Expr) -> bool:
        """Whether an index access path exists for ``col OP literal``."""
        table = relation.base_table
        if table is None or not isinstance(conjunct, BinaryOp):
            return False
        left, right = conjunct.left, conjunct.right
        if isinstance(right, ColumnRef) and isinstance(left, LiteralValue):
            left, right = right, left
            op = _mirror_op(conjunct.op)
        else:
            op = conjunct.op
        if not (isinstance(left, ColumnRef) and isinstance(right, LiteralValue)):
            return False
        if relation.schema.try_resolve(left) is None:
            return False
        column = left.name.lower()
        if op == "=":
            return table.hash_index_for((column,)) is not None
        if op in ("<", "<=", ">", ">="):
            return table.sorted_index_for(column) is not None
        return False

    def _apply_local_predicate(self, relation: Relation, conjunct: Expr) -> None:
        """Filter a relation in place, via an index when possible."""
        index_rows = self._try_index_scan(relation, conjunct)
        if index_rows is not None:
            relation.rows = index_rows
            return
        compiled = self._compiler(relation.schema).compile(conjunct)
        relation.rows = [
            row
            for row in self._cancellable_rows(relation.rows)
            if compiled(row) is True
        ]

    def _try_index_scan(
        self, relation: Relation, conjunct: Expr
    ) -> Optional[List[RowT]]:
        """Use a hash/sorted index for ``col OP literal`` when available."""
        table = relation.base_table
        if table is None or len(relation.rows) != table.row_count:
            return None  # already filtered; index row ids would be stale
        if not isinstance(conjunct, BinaryOp):
            return None
        left, right = conjunct.left, conjunct.right
        if isinstance(right, ColumnRef) and isinstance(left, LiteralValue):
            left, right = right, left
            op = _mirror_op(conjunct.op)
        else:
            op = conjunct.op
        if not (isinstance(left, ColumnRef) and isinstance(right, LiteralValue)):
            return None
        if relation.schema.try_resolve(left) is None:
            return None
        column = left.name.lower()
        value = right.value
        if value is None:
            return []
        if op == "=":
            index = table.hash_index_for((column,))
            if index is None:
                return None
            self.stats.index_lookups += 1
            self._trace(f"IndexScan {table.name}.{column} = {value!r}")
            row_ids = sorted(index.lookup((value,)))
            return [table.rows[i] for i in row_ids if table.rows[i] is not None]
        if op in ("<", "<=", ">", ">="):
            index = table.sorted_index_for(column)
            if index is None:
                return None
            self.stats.index_lookups += 1
            if op in ("<", "<="):
                row_ids = index.range(high=value, include_high=(op == "<="))
            else:
                row_ids = index.range(low=value, include_low=(op == ">="))
            rows = [table.rows[i] for i in row_ids]
            return [row for row in rows if row is not None]
        return None

    # -- join ordering -----------------------------------------------------

    def _join_relations(
        self, relations: List[Any], conjuncts: List[Expr]
    ) -> Any:
        """Order and run the joins of one flattened inner-join block.

        The one join-order search of both executors: it reads only what a
        row :class:`Relation` and the vectorized ``BatchRelation`` both
        expose (``schema``, ``size``, ``stats_view()``) and delegates the
        two physical steps -- the pairwise join (:meth:`_inner_join`) and
        the residual filter (:meth:`_filter_compiled`) -- which the
        vectorized executor overrides for its relation type.

        The search is greedy System-R ordering over a precomputed
        equi-join graph: the conjunct->relation incidence is resolved
        once up front, then each round scores only the connected
        candidates with the cost model's join estimate.  Intermediates
        are materialized, so the *actual* cardinality feeds the next
        round (adaptive execution -- misestimates cannot compound).
        Conjuncts that reference one relation, nothing, or an ambiguous
        name are applied as a residual filter at the end; a single
        relation therefore just gets every conjunct as its filter.
        """
        if not relations:
            return Relation(RowSchema([]), [()])
        cost = CostModel(getattr(self.catalog, "statistics", None))
        views = [relation.stats_view() for relation in relations]
        edges: List[Tuple[Expr, frozenset]] = []
        residual: List[Expr] = []
        for conjunct in conjuncts:
            owners = self._conjunct_owners(conjunct, relations)
            if owners is not None and len(owners) >= 2:
                edges.append((conjunct, owners))
            else:
                residual.append(conjunct)
        order = sorted(range(len(relations)), key=lambda i: relations[i].size)
        start = order[0]
        current = relations[start]
        joined = {start}
        pending = set(order[1:])
        while pending:
            best: Optional[Tuple[float, int, List[Expr]]] = None
            current_view = current.stats_view()
            for index in pending:
                connecting = [
                    conjunct
                    for conjunct, owners in edges
                    if index in owners
                    and owners & joined
                    and owners <= joined | {index}
                ]
                if not connecting:
                    continue
                candidate = relations[index]
                left_keys, right_keys, _, _ = self._equi_keys(
                    current, candidate, connecting
                )
                estimate = cost.join_estimate(
                    current_view, views[index], left_keys, right_keys
                )
                if best is None or estimate < best[0]:
                    best = (estimate, index, connecting)
            if best is None:
                # cross-join fallback: smallest candidate first
                index = min(pending, key=lambda i: relations[i].size)
                candidate = relations[index]
                estimate = float(current.size) * float(candidate.size)
                connecting = []
            else:
                estimate, index, connecting = best
                candidate = relations[index]
            pending.discard(index)
            joined.add(index)
            if connecting:
                edges = [
                    (conjunct, owners)
                    for conjunct, owners in edges
                    if not any(conjunct is used for used in connecting)
                ]
            current = self._inner_join(
                current, candidate, connecting, estimate=estimate
            )
            self.stats.join_rows += current.size
        # every >=2-owner edge is consumed the round its last owner joins;
        # `edges` can only hold leftovers if a cross join raced one in
        residual.extend(conjunct for conjunct, _ in edges)
        if residual:
            current = self._filter_compiled(current, residual)
        return current

    @staticmethod
    def _conjunct_owners(
        conjunct: Expr, relations: List[Relation]
    ) -> Optional[frozenset]:
        """Indices of the relations a conjunct references.

        None when the conjunct references no columns, an unresolvable
        column, or a name that is ambiguous across the FROM items -- all
        cases the join search must leave to the residual filter.
        """
        refs = expr_columns(conjunct)
        if not refs:
            return None
        owners = set()
        for ref in refs:
            owner = None
            for index, relation in enumerate(relations):
                if relation.schema.try_resolve(ref) is not None:
                    if owner is not None:
                        return None
                    owner = index
            if owner is None:
                return None
            owners.add(owner)
        return frozenset(owners)

    # -- physical joins ------------------------------------------------------

    @staticmethod
    def _equi_keys(
        left: Relation, right: Relation, conjuncts: Sequence[Expr]
    ) -> Tuple[List[int], List[int], List[Expr], List[Expr]]:
        """Split conjuncts into equi-join key positions and residuals."""
        left_keys: List[int] = []
        right_keys: List[int] = []
        equi: List[Expr] = []
        residual: List[Expr] = []
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                left_position = left.schema.try_resolve(conjunct.left)
                right_position = right.schema.try_resolve(conjunct.right)
                if left_position is None or right_position is None:
                    left_position = left.schema.try_resolve(conjunct.right)
                    right_position = right.schema.try_resolve(conjunct.left)
                if left_position is not None and right_position is not None:
                    left_keys.append(left_position)
                    right_keys.append(right_position)
                    equi.append(conjunct)
                    continue
            residual.append(conjunct)
        return left_keys, right_keys, equi, residual

    def _trace_join(
        self, message: str, estimate: Optional[float], actual: int
    ) -> None:
        """Join trace line; EXPLAIN ANALYZE adds est-vs-actual counts."""
        if self.trace is None:
            return
        if self.analyze:
            if estimate is not None:
                message += f" est={estimate:.0f} actual={actual}"
            else:
                message += f" actual={actual}"
        self.trace.append(message)

    def _hash_build(
        self, build: Relation, build_keys: Sequence[int]
    ) -> Dict[Tuple[Any, ...], List[RowT]]:
        """Build (or reuse) the hash-join bucket table for one side.

        With an active shared-scan context the buckets are keyed by the
        identity of the (shared) row list and the key positions, so
        disjuncts hashing the same scan on the same columns build once.
        """
        key_positions = tuple(build_keys)
        if self._shared is not None:
            cached = self._shared.lookup_build(build.rows, key_positions)
            if cached is not None:
                return cached
        buckets: Dict[Any, List[RowT]] = {}
        if len(key_positions) == 1:
            # single-key joins (the OBDA common case) bucket on the bare
            # value; the probe side uses the same scalar keys
            position = key_positions[0]
            for row in build.rows:
                value = row[position]
                if value is None:
                    continue
                if isinstance(value, list):
                    value = tuple(value)
                buckets.setdefault(value, []).append(row)
        else:
            for row in build.rows:
                key = tuple(_hashable(row[p]) for p in build_keys)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(row)
        if self._shared is not None:
            self._shared.store_build(build.rows, key_positions, buckets)
        return buckets

    def _index_nl_join(
        self,
        left: Relation,
        right: Relation,
        left_keys: Sequence[int],
        index: Any,
        schema: RowSchema,
        compiled_residual: Optional[Callable[[RowT], Any]],
        estimate: Optional[float],
    ) -> Relation:
        self.stats.index_nl_joins += 1
        table = right.base_table
        assert table is not None
        output: List[RowT] = []
        rows = table.rows
        if len(left_keys) == 1:
            position = left_keys[0]
            for left_row in self._cancellable_rows(left.rows):
                value = left_row[position]
                if value is None:
                    continue
                if isinstance(value, list):
                    value = tuple(value)
                for row_id in sorted(index.lookup((value,))):
                    right_row = rows[row_id]
                    if right_row is None:
                        continue
                    combined = left_row + right_row
                    if (
                        compiled_residual is None
                        or compiled_residual(combined) is True
                    ):
                        output.append(combined)
        else:
            for left_row in self._cancellable_rows(left.rows):
                key = tuple(_hashable(left_row[p]) for p in left_keys)
                if any(part is None for part in key):
                    continue
                for row_id in sorted(index.lookup(key)):
                    right_row = rows[row_id]
                    if right_row is None:
                        continue
                    combined = left_row + right_row
                    if (
                        compiled_residual is None
                        or compiled_residual(combined) is True
                    ):
                        output.append(combined)
        self._trace_join(
            f"IndexNLJoin outer={len(left.rows)} inner={table.name}",
            estimate,
            len(output),
        )
        return Relation(schema, output)

    def _inner_join(
        self,
        left: Relation,
        right: Relation,
        conjuncts: Sequence[Expr],
        estimate: Optional[float] = None,
    ) -> Relation:
        self._check_cancel()
        schema = left.schema.concat(right.schema)
        left_keys, right_keys, _, residual = self._equi_keys(left, right, conjuncts)
        compiled_residual = self._combine_compiled(schema, residual)
        output: List[RowT] = []
        if left_keys:
            if self.profile.hash_join:
                # index-aware access path: a small probe side against an
                # already-indexed full base table beats building a new
                # hash table over it
                if (
                    right.base_table is not None
                    and len(right.rows) == right.base_table.row_count
                    and len(left.rows) * 4 <= len(right.rows)
                ):
                    columns = [right.schema.fields[p][1] for p in right_keys]
                    index = right.base_table.hash_index_for(columns)
                    if index is not None:
                        return self._index_nl_join(
                            left,
                            right,
                            left_keys,
                            index,
                            schema,
                            compiled_residual,
                            estimate,
                        )
                self.stats.hash_joins += 1
                # build-side selection: hash the smaller input
                swap = len(left.rows) < len(right.rows)
                if swap:
                    self.stats.build_side_swaps += 1
                build, probe = (left, right) if swap else (right, left)
                build_keys, probe_keys = (
                    (left_keys, right_keys) if swap else (right_keys, left_keys)
                )
                buckets = self._hash_build(build, build_keys)
                if len(probe_keys) == 1:
                    # scalar probe keys, matching _hash_build's buckets
                    position = probe_keys[0]
                    empty: Tuple[RowT, ...] = ()
                    for probe_row in self._cancellable_rows(probe.rows):
                        value = probe_row[position]
                        if value is None:
                            continue
                        if isinstance(value, list):
                            value = tuple(value)
                        for build_row in buckets.get(value, empty):
                            combined = (
                                build_row + probe_row
                                if swap
                                else probe_row + build_row
                            )
                            if (
                                compiled_residual is None
                                or compiled_residual(combined) is True
                            ):
                                output.append(combined)
                else:
                    for probe_row in self._cancellable_rows(probe.rows):
                        key = tuple(_hashable(probe_row[p]) for p in probe_keys)
                        if any(part is None for part in key):
                            continue
                        for build_row in buckets.get(key, ()):
                            combined = (
                                build_row + probe_row
                                if swap
                                else probe_row + build_row
                            )
                            if (
                                compiled_residual is None
                                or compiled_residual(combined) is True
                            ):
                                output.append(combined)
                self._trace_join(
                    f"HashJoin build={len(build.rows)} probe={len(probe.rows)}"
                    + (" (swapped)" if swap else ""),
                    estimate,
                    len(output),
                )
                return Relation(schema, output)
            # index nested loop: probe right base-table index if available
            index = None
            if right.base_table is not None and len(right.rows) == right.base_table.row_count:
                columns = [right.schema.fields[p][1] for p in right_keys]
                index = right.base_table.hash_index_for(columns)
                if index is None and right.base_table.row_count > 64:
                    index = right.base_table.create_hash_index(columns)
            if index is not None:
                return self._index_nl_join(
                    left, right, left_keys, index, schema, compiled_residual, estimate
                )
            # derived-table auto-keying (MySQL 5.6+): equi-joins against a
            # materialized subquery get a transient hash key, counted as an
            # index NL join rather than a hash join
            self.stats.index_nl_joins += 1
            buckets = self._hash_build(right, right_keys)
            if len(left_keys) == 1:
                position = left_keys[0]
                empty = ()
                for left_row in self._cancellable_rows(left.rows):
                    value = left_row[position]
                    if value is None:
                        continue
                    if isinstance(value, list):
                        value = tuple(value)
                    for right_row in buckets.get(value, empty):
                        combined = left_row + right_row
                        if (
                            compiled_residual is None
                            or compiled_residual(combined) is True
                        ):
                            output.append(combined)
            else:
                for left_row in self._cancellable_rows(left.rows):
                    key = tuple(_hashable(left_row[p]) for p in left_keys)
                    if any(part is None for part in key):
                        continue
                    for right_row in buckets.get(key, ()):
                        combined = left_row + right_row
                        if (
                            compiled_residual is None
                            or compiled_residual(combined) is True
                        ):
                            output.append(combined)
            self._trace_join(
                f"AutoKeyJoin (derived) build={len(right.rows)} "
                f"probe={len(left.rows)}",
                estimate,
                len(output),
            )
            return Relation(schema, output)
        # block nested loop fallback; the inner loop is the row-batch
        # boundary here -- a cross join's cost is outer x inner, so outer
        # polls alone could stall for a huge inner relation
        self.stats.nested_loop_joins += 1
        compiled = self._combine_compiled(schema, list(conjuncts))
        for left_row in self._cancellable_rows(left.rows, interval=64):
            for right_row in self._cancellable_rows(right.rows):
                combined = left_row + right_row
                if compiled is None or compiled(combined) is True:
                    output.append(combined)
        self._trace_join(
            f"BlockNLJoin outer={len(left.rows)} inner={len(right.rows)}",
            estimate,
            len(output),
        )
        return Relation(schema, output)

    def _left_join(
        self, left: Relation, right: Relation, condition: Optional[Expr]
    ) -> Relation:
        self._check_cancel()
        schema = left.schema.concat(right.schema)
        conjuncts = split_conjuncts(condition)
        left_keys, right_keys, _, residual = self._equi_keys(left, right, conjuncts)
        compiled_residual = self._combine_compiled(schema, residual)
        null_pad = (None,) * len(right.schema)
        output: List[RowT] = []
        if left_keys and (self.profile.hash_join or len(right.rows) > 64):
            self.stats.hash_joins += 1
            buckets: Dict[Tuple[Any, ...], List[RowT]] = {}
            for row in right.rows:
                key = tuple(_hashable(row[p]) for p in right_keys)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(row)
            for left_row in self._cancellable_rows(left.rows):
                key = tuple(_hashable(left_row[p]) for p in left_keys)
                matched = False
                if not any(part is None for part in key):
                    for right_row in buckets.get(key, ()):
                        combined = left_row + right_row
                        if compiled_residual is None or compiled_residual(combined) is True:
                            output.append(combined)
                            matched = True
                if not matched:
                    output.append(left_row + null_pad)
            return Relation(schema, output)
        self.stats.nested_loop_joins += 1
        compiled = self._combine_compiled(schema, conjuncts)
        for left_row in self._cancellable_rows(left.rows, interval=64):
            matched = False
            for right_row in self._cancellable_rows(right.rows):
                combined = left_row + right_row
                if compiled is None or compiled(combined) is True:
                    output.append(combined)
                    matched = True
            if not matched:
                output.append(left_row + null_pad)
        return Relation(schema, output)

    def _natural_join(self, left: Relation, right: Relation) -> Relation:
        self._check_cancel()
        left_names = [name for _, name in left.schema.fields]
        right_names = [name for _, name in right.schema.fields]
        shared = [name for name in left_names if name in right_names]
        left_positions = {name: left_names.index(name) for name in shared}
        right_positions = {name: right_names.index(name) for name in shared}
        # output schema: all left fields + right fields minus shared
        kept_right = [
            (position, field)
            for position, field in enumerate(right.schema.fields)
            if field[1] not in shared
        ]
        schema = RowSchema(list(left.schema.fields) + [f for _, f in kept_right])
        output: List[RowT] = []
        if shared:
            buckets: Dict[Tuple[Any, ...], List[RowT]] = {}
            for row in right.rows:
                key = tuple(_hashable(row[right_positions[name]]) for name in shared)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(row)
            self.stats.hash_joins += 1
            for left_row in left.rows:
                key = tuple(_hashable(left_row[left_positions[name]]) for name in shared)
                if any(part is None for part in key):
                    continue
                for right_row in buckets.get(key, ()):
                    trimmed = tuple(right_row[p] for p, _ in kept_right)
                    output.append(left_row + trimmed)
        else:
            self.stats.nested_loop_joins += 1
            for left_row in left.rows:
                for right_row in right.rows:
                    output.append(left_row + right_row)
        return Relation(schema, output)

    # ------------------------------------------------------------------
    # projection / aggregation / dedup / ordering
    # ------------------------------------------------------------------

    def _expand_items(
        self, items: Sequence[SelectItem], schema: RowSchema
    ) -> List[SelectItem]:
        expanded: List[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star):
                qualifier = item.expr.qualifier
                for field_qualifier, name in schema.fields:
                    if qualifier is None or field_qualifier == qualifier.lower():
                        expanded.append(SelectItem(ColumnRef(name, field_qualifier)))
            else:
                expanded.append(item)
        return expanded

    def _project(
        self, statement: SelectStatement, relation: Relation
    ) -> Tuple[List[str], List[RowT]]:
        self._check_cancel()
        items = self._expand_items(statement.items, relation.schema)
        columns = [item.output_name for item in items]
        if all(isinstance(item.expr, ColumnRef) for item in items):
            # pure column projection (the OBDA-unfolding common case):
            # one itemgetter per row instead of one closure call per cell
            positions = [relation.schema.resolve(item.expr) for item in items]
            if len(positions) == 1:
                position = positions[0]
                rows = [
                    (row[position],)
                    for row in self._cancellable_rows(relation.rows)
                ]
            else:
                getter = operator.itemgetter(*positions)
                rows = [
                    getter(row) for row in self._cancellable_rows(relation.rows)
                ]
            return columns, rows
        compiled = self._compile_all(relation.schema, [item.expr for item in items])
        rows = [
            tuple(fn(row) for fn in compiled)
            for row in self._cancellable_rows(relation.rows)
        ]
        return columns, rows

    def _aggregate(
        self, statement: SelectStatement, relation: Relation
    ) -> Tuple[List[str], List[RowT]]:
        self._check_cancel()
        items = self._expand_items(statement.items, relation.schema)
        compiler = self._compiler(relation.schema)
        # collect aggregate calls from items + having
        aggregate_calls: List[FunctionCall] = []

        def collect(expr: Expr) -> None:
            for node in _walk_expr(expr):
                if isinstance(node, FunctionCall) and node.is_aggregate:
                    if node not in aggregate_calls:
                        aggregate_calls.append(node)

        for item in items:
            collect(item.expr)
        if statement.having is not None:
            collect(statement.having)
        group_exprs = list(statement.group_by)
        compiled_groups = [compiler.compile(expr) for expr in group_exprs]
        # group rows
        groups: Dict[Tuple[Any, ...], List[RowT]] = {}
        order: List[Tuple[Any, ...]] = []
        for row in self._cancellable_rows(relation.rows):
            key = tuple(_hashable(fn(row)) for fn in compiled_groups)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not group_exprs and not groups:
            groups[()] = []
            order.append(())
        # evaluate aggregates per group
        compiled_args = []
        for call in aggregate_calls:
            if call.args and not isinstance(call.args[0], Star):
                compiled_args.append(compiler.compile(call.args[0]))
            else:
                compiled_args.append(None)
        group_rows: List[RowT] = []
        for key in order:
            member_rows = groups[key]
            values: List[Any] = list(key)
            for call, arg in zip(aggregate_calls, compiled_args):
                values.append(_evaluate_aggregate(call, arg, member_rows))
            group_rows.append(tuple(values))
        # synthetic schema: group-by slots then aggregate slots
        synthetic_fields: List[Tuple[Optional[str], str]] = []
        replacement: Dict[Expr, ColumnRef] = {}
        for position, expr in enumerate(group_exprs):
            name = f"_g{position}"
            synthetic_fields.append((None, name))
            replacement[expr] = ColumnRef(name)
        for position, call in enumerate(aggregate_calls):
            name = f"_a{position}"
            synthetic_fields.append((None, name))
            replacement[call] = ColumnRef(name)
        synthetic_schema = RowSchema(synthetic_fields)
        synthetic_compiler = ExpressionCompiler(
            synthetic_schema, subquery_executor=self.run_subquery
        )
        if statement.having is not None:
            # HAVING may reference select-list aliases (MySQL-compatible):
            # substitute them with the underlying expressions first
            alias_map = {
                item.output_name: item.expr for item in items if item.alias
            }
            having = _substitute_aliases(statement.having, alias_map)
            having = replace_expr(having, replacement)
            compiled_having = synthetic_compiler.compile(having)
            group_rows = [row for row in group_rows if compiled_having(row) is True]
        columns = [item.output_name for item in items]
        projected: List[RowT] = []
        compiled_items = [
            synthetic_compiler.compile(replace_expr(item.expr, replacement))
            for item in items
        ]
        for row in group_rows:
            projected.append(tuple(fn(row) for fn in compiled_items))
        return columns, projected

    def _deduplicate(self, rows: List[RowT]) -> List[RowT]:
        self._check_cancel()
        self._trace(
            f"Distinct ({'hash' if self.profile.hash_distinct else 'sort'}) "
            f"over {len(rows)} rows"
        )
        if self.profile.hash_distinct:
            seen: Set[Tuple[Any, ...]] = set()
            output: List[RowT] = []
            # rows are almost always tuples of hashable scalars, so hash
            # the row itself; _hashable only rewrites lists, and a list in
            # the row raises TypeError into the fallback
            for row in rows:
                try:
                    if row not in seen:
                        seen.add(row)
                        output.append(row)
                except TypeError:
                    key = tuple(_hashable(value) for value in row)
                    if key not in seen:
                        seen.add(key)
                        output.append(row)
            return output
        # sort-based dedup (MySQL filesort behaviour)
        decorated = sorted(
            rows, key=lambda row: tuple(_sortable(value) for value in row)
        )
        output = []
        previous: Optional[RowT] = None
        for row in decorated:
            if previous is None or row != previous:
                output.append(row)
            previous = row
        return output

    def _order_rows(
        self, rows: List[RowT], order_by: Sequence[OrderItem], schema: RowSchema
    ) -> List[RowT]:
        self._check_cancel()
        compiler = ExpressionCompiler(schema, subquery_executor=self.run_subquery)
        # qualified refs (t.b) may survive into post-projection ordering
        # when the projection renamed them; fall back to the bare name
        relaxed = [
            OrderItem(_relax_column_refs(item.expr, schema), item.ascending)
            for item in order_by
        ]
        compiled = [(compiler.compile(item.expr), item.ascending) for item in relaxed]
        return sorted(rows, key=_sort_key_function(compiled))


def _resolve_ordinals(
    order_by: Sequence[OrderItem], columns: List[str]
) -> List[OrderItem]:
    """Translate ``ORDER BY 1`` ordinals into output-column references."""
    resolved: List[OrderItem] = []
    for item in order_by:
        expr = item.expr
        if isinstance(expr, LiteralValue) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(columns):
                raise ExecutionError(f"ORDER BY position {expr.value} out of range")
            resolved.append(OrderItem(ColumnRef(columns[position]), item.ascending))
        else:
            resolved.append(item)
    return resolved


def _apply_limit(
    rows: List[RowT], limit: Optional[int], offset: Optional[int]
) -> List[RowT]:
    start = offset or 0
    if limit is None:
        return rows[start:] if start else rows
    return rows[start : start + limit]


def _sortable(value: Any) -> Tuple[int, Any]:
    """Total-order key tolerant of mixed types and NULLs."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


# the expression walker moved to repro.sql.ast (shared with the planner)
_walk_expr = walk_expr


def _relax_column_refs(expr: Expr, schema: RowSchema) -> Expr:
    """Drop qualifiers that no longer resolve but whose bare name does."""

    def relax(node: Expr) -> Expr:
        if isinstance(node, ColumnRef) and node.qualifier is not None:
            if schema.try_resolve(node) is None:
                bare = ColumnRef(node.name)
                if schema.try_resolve(bare) is not None:
                    return bare
        return node

    return _map_expr(expr, relax)


def _map_expr(expr: Expr, fn) -> Expr:
    """Rebuild an expression applying *fn* to every node bottom-up."""
    if isinstance(expr, UnaryOp):
        return fn(UnaryOp(expr.op, _map_expr(expr.operand, fn)))
    if isinstance(expr, BinaryOp):
        return fn(
            BinaryOp(expr.op, _map_expr(expr.left, fn), _map_expr(expr.right, fn))
        )
    if isinstance(expr, IsNull):
        return fn(IsNull(_map_expr(expr.operand, fn), expr.negated))
    if isinstance(expr, Between):
        return fn(
            Between(
                _map_expr(expr.operand, fn),
                _map_expr(expr.low, fn),
                _map_expr(expr.high, fn),
                expr.negated,
            )
        )
    if isinstance(expr, InList):
        return fn(
            InList(
                _map_expr(expr.operand, fn),
                tuple(_map_expr(item, fn) for item in expr.items),
                expr.negated,
            )
        )
    if isinstance(expr, FunctionCall):
        return fn(
            FunctionCall(
                expr.name,
                tuple(_map_expr(arg, fn) for arg in expr.args),
                expr.distinct,
            )
        )
    if isinstance(expr, Cast):
        return fn(Cast(_map_expr(expr.operand, fn), expr.target))
    if isinstance(expr, CaseWhen):
        return fn(
            CaseWhen(
                tuple(
                    (_map_expr(c, fn), _map_expr(r, fn)) for c, r in expr.branches
                ),
                _map_expr(expr.default, fn) if expr.default else None,
            )
        )
    return fn(expr)


def _substitute_aliases(expr: Expr, aliases: Dict[str, Expr]) -> Expr:
    """Replace unqualified column refs naming select aliases."""
    if isinstance(expr, ColumnRef) and expr.qualifier is None:
        replacement = aliases.get(expr.name.lower())
        if replacement is not None:
            return replacement
        return expr
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _substitute_aliases(expr.operand, aliases))
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _substitute_aliases(expr.left, aliases),
            _substitute_aliases(expr.right, aliases),
        )
    if isinstance(expr, IsNull):
        return IsNull(_substitute_aliases(expr.operand, aliases), expr.negated)
    if isinstance(expr, Between):
        return Between(
            _substitute_aliases(expr.operand, aliases),
            _substitute_aliases(expr.low, aliases),
            _substitute_aliases(expr.high, aliases),
            expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            _substitute_aliases(expr.operand, aliases),
            tuple(_substitute_aliases(item, aliases) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            tuple(_substitute_aliases(arg, aliases) for arg in expr.args),
            expr.distinct,
        )
    if isinstance(expr, Cast):
        return Cast(_substitute_aliases(expr.operand, aliases), expr.target)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple(
                (
                    _substitute_aliases(c, aliases),
                    _substitute_aliases(r, aliases),
                )
                for c, r in expr.branches
            ),
            _substitute_aliases(expr.default, aliases) if expr.default else None,
        )
    return expr


def _stable_sum(values: List[Any]) -> Any:
    # fsum is exact, hence independent of summation order; plain sum()
    # of floats varies in the last ulp with row iteration order
    if any(isinstance(value, float) for value in values):
        return math.fsum(values)
    return sum(values)


def _evaluate_aggregate(
    call: FunctionCall,
    compiled_arg: Optional[Callable[[RowT], Any]],
    rows: List[RowT],
) -> Any:
    name = call.name.upper()
    if name == "COUNT":
        if compiled_arg is None:  # COUNT(*)
            return len(rows)
        values = [compiled_arg(row) for row in rows]
        values = [value for value in values if value is not None]
        if call.distinct:
            return len({_hashable(value) for value in values})
        return len(values)
    values = [compiled_arg(row) for row in rows] if compiled_arg else []
    values = [value for value in values if value is not None]
    if call.distinct:
        unique: List[Any] = []
        seen: Set[Any] = set()
        for value in values:
            key = _hashable(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        values = unique
    if not values:
        return None
    if name == "SUM":
        return _stable_sum(values)
    if name == "AVG":
        return _stable_sum(values) / len(values)
    if name == "MIN":
        return min(values, key=_sortable)
    if name == "MAX":
        return max(values, key=_sortable)
    raise ExecutionError(f"unknown aggregate {name}")


def _mirror_op(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}.get(
        op, op
    )
