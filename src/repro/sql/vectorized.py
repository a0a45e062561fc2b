"""Vectorized batch executor: batch-at-a-time operators over column arrays.

:class:`VectorizedExecutor` subclasses the row-at-a-time
:class:`~repro.sql.executor.Executor` and overrides one entry point,
``_execute_block``, plus the two physical steps the inherited join-order
search delegates (``_inner_join``, ``_filter_compiled``).  Blocks whose
logical shape the batch path covers (``PlannedBlock.batch_eligible``:
base tables glued by inner joins, no subquery predicates) run on column
vectors with late materialization; everything else falls through to the
inherited row operators, which double as the correctness oracle in the
differential harness (``tests/test_vectorized.py``, the ``vectorized``
diffcheck config).

Design points:

* **Late materialization** -- a :class:`BatchRelation` carries *positions*
  (table row ids) per joined leg, never row tuples; full rows are gathered
  only for generic-expression fallbacks and at projection/ORDER BY time.
* **Kernels with strict gates** -- filter kernels
  (:mod:`repro.sql.columnar`) only fire when the literal's type guarantees
  agreement with ``sql_compare``; otherwise the conjunct is evaluated by
  the same compiled expressions the row path uses, over gathered rows, so
  the two paths cannot disagree.
* **One join planner, mirrored operator choice** -- join ordering is the
  inherited search itself (``Executor._join_relations``); per pair, index
  scans, index-nested-loop gating, build-side swaps and the
  shared-scan/build caches replicate the row path's decisions one-to-one
  (including their statistics counters), so EXPLAIN output and optimizer
  behaviour stay comparable.
* **Operator-tail reuse** -- DISTINCT/ORDER BY/LIMIT run through the
  inherited ``_finish_block``, and aggregation feeds the inherited
  ``_aggregate`` with a reduced-schema materialization, keeping
  three-valued logic, ``math.fsum`` aggregation and NULLS-FIRST ordering
  byte-identical with the row path.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Join,
    LiteralValue,
    NamedTable,
    SelectStatement,
    Star,
    SubquerySource,
    TableRef,
    expr_columns,
    split_conjuncts,
    walk_expr,
)
from .catalog import Table
from .columnar import ColumnStore, select_cmp, select_eq, select_in, select_null
from .errors import ExecutionError
from .executor import Executor, Relation, RowT, _hashable, _mirror_op
from .expressions import RowSchema
from .optimizer import canonical_predicate, scan_key
from .plan import PlannedBlock

# never called here (derived tables run the sub-plans their plan
# carries); the e2e benchmark's tracer wraps the name in this module
from .plan import compile_select  # noqa: F401

#: shared-scan cache namespace for vectorized position lists (the row path
#: stores row lists under the bare table name; the two must never mix)
_VEC_SCAN_PREFIX = "vec::"


class _Leg:
    """One base-table constituent of a batch relation.

    ``positions`` are table row ids; values stay in the table's column
    store until gathered.
    """

    __slots__ = ("table", "store", "positions")

    def __init__(self, table: Table, store: ColumnStore, positions) -> None:
        self.table = table
        self.store = store
        self.positions = positions

    @property
    def width(self) -> int:
        return len(self.table.columns)

    def codec(self, local: int):
        return self.store.columns[local]

    def gather(self, local: int) -> list:
        return self.store.columns[local].gather(self.positions)

    def gather_rows(self) -> List[RowT]:
        return self.store.gather_rows(self.positions)

    def replace(self, positions) -> "_Leg":
        return _Leg(self.table, self.store, positions)


class _DerivedLeg:
    """One derived-table (subquery) constituent of a batch relation.

    The sub-execution's result rows are carried as-is; ``positions``
    index into that row list.  No codecs and no indexes, so filters on a
    derived leg always take the compiled-expression path.
    """

    __slots__ = ("rows", "positions", "width", "key")

    table = None  # duck-types _Leg for BatchRelation.base_table

    def __init__(
        self, rows: List[RowT], positions, width: int, key: Optional[str] = None
    ) -> None:
        self.rows = rows
        self.positions = positions
        self.width = width
        self.key = key  # shared-scan namespace of the source derived table

    def codec(self, local: int):
        return None

    def gather(self, local: int) -> list:
        rows = self.rows
        return [rows[i][local] for i in self.positions]

    def gather_rows(self) -> List[RowT]:
        rows = self.rows
        return [rows[i] for i in self.positions]

    def replace(self, positions) -> "_DerivedLeg":
        return _DerivedLeg(self.rows, positions, self.width, self.key)


class BatchRelation:
    """A (possibly joined) relation in positional form.

    ``schema`` is the concatenation of the legs' scan schemas; column
    ``position`` in the schema maps to one (leg, local column).  All legs
    hold equally long position lists -- row *i* of the relation is the
    combination of ``leg.positions[i]`` across legs.
    """

    __slots__ = ("schema", "legs", "_offsets", "_gathered")

    def __init__(self, schema: RowSchema, legs: list) -> None:
        self.schema = schema
        self.legs = legs
        offsets: List[int] = []
        total = 0
        for leg in legs:
            offsets.append(total)
            total += leg.width
        self._offsets = offsets
        self._gathered: Dict[int, list] = {}

    @property
    def size(self) -> int:
        return len(self.legs[0].positions)

    @property
    def base_table(self) -> Optional[Table]:
        return self.legs[0].table if len(self.legs) == 1 else None

    def leg_local(self, position: int):
        offsets = self._offsets
        for index in range(len(self.legs) - 1, -1, -1):
            if position >= offsets[index]:
                return self.legs[index], position - offsets[index]
        raise ExecutionError(f"column position {position} out of range")

    def gather_column(self, position: int) -> list:
        column = self._gathered.get(position)
        if column is None:
            leg, local = self.leg_local(position)
            column = leg.gather(local)
            self._gathered[position] = column
        return column

    def with_positions(self, positions) -> "BatchRelation":
        return BatchRelation(self.schema, [self.legs[0].replace(positions)])

    def take_legs(self, take: Sequence[int]) -> list:
        legs = []
        for leg in self.legs:
            source = leg.positions
            legs.append(leg.replace([source[i] for i in take]))
        return legs

    def take(self, keep: Sequence[int]) -> "BatchRelation":
        return BatchRelation(self.schema, self.take_legs(keep))

    def materialize(self) -> List[RowT]:
        """Gather full rows (the late-materialization endpoint)."""
        width = len(self.schema)
        if width == 0:
            return [() for _ in range(self.size)]
        columns = [self.gather_column(p) for p in range(width)]
        return list(zip(*columns))

    def stats_view(self) -> Relation:
        """A row-``Relation`` stand-in for the cost model and predicate
        helpers: same schema/cardinality/base table, no materialized rows
        (``range`` only answers ``len``)."""
        table = self.base_table
        return Relation(self.schema, range(self.size), None, table)


class VectorizedExecutor(Executor):
    """Batch-at-a-time executor; falls back to the row path per block."""

    # ------------------------------------------------------------------
    # block dispatch
    # ------------------------------------------------------------------

    def _execute_block(self, planned: PlannedBlock) -> Tuple[List[str], List[RowT]]:
        if planned.batch_eligible:
            self.stats.batch_blocks += 1
            return self._execute_block_batch(planned)
        self.stats.batch_fallbacks += 1
        return super()._execute_block(planned)

    def _execute_block_batch(
        self, planned: PlannedBlock
    ) -> Tuple[List[str], List[RowT]]:
        self._check_cancel()
        statement = planned.statement
        where_conjuncts = planned.where_conjuncts
        relations: List[BatchRelation] = []
        join_conjuncts: List[Expr] = []
        assert statement.source is not None
        self._batch_legs(statement.source, relations, join_conjuncts)
        # pushdown classification, mirroring Executor._plan_source
        consumed = set()
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
            if self._resolvable_in(conjunct, relations):
                consumed.add(index)
                join_conjuncts.append(conjunct)
        for position in range(len(relations)):
            relations[position] = self._batch_filter_leg(
                relations[position], local.get(position, [])
            )
        relation = self._join_relations(relations, join_conjuncts)
        remaining = [
            c for i, c in enumerate(where_conjuncts) if i not in consumed
        ]
        if remaining:
            relation = self._batch_filter(relation, remaining)
        source_rows: Optional[List[RowT]] = None
        if planned.has_aggregates or statement.group_by:
            reduced = self._reduced_relation(statement, relation)
            columns, rows = self._aggregate(statement, reduced)
            source_schema = reduced.schema
        else:
            columns, rows = self._batch_project(statement, relation)
            source_schema = relation.schema
            if (
                statement.order_by
                and statement.union is None
                and not statement.distinct
            ):
                # ORDER BY may reference non-projected source columns;
                # materialize the source rows so the inherited combined
                # sort behaves exactly like the row path
                source_rows = relation.materialize()
        return self._finish_block(
            statement, columns, rows, source_schema, source_rows
        )

    def _batch_legs(
        self,
        node: TableRef,
        relations: List[BatchRelation],
        join_conjuncts: List[Expr],
    ) -> None:
        """Append the scanned legs of an INNER-join tree and its ON
        conjuncts.  A method, not a nested closure: a self-recursive
        closure is a reference cycle that would hold the scanned rows
        until the next full collection."""
        if isinstance(node, Join):
            self._batch_legs(node.left, relations, join_conjuncts)
            self._batch_legs(node.right, relations, join_conjuncts)
            if node.condition is not None:
                join_conjuncts.extend(split_conjuncts(node.condition))
        elif isinstance(node, NamedTable):
            relations.append(self._batch_scan(node))
        else:
            assert isinstance(node, SubquerySource)
            relations.append(self._batch_subquery_scan(node))

    # ------------------------------------------------------------------
    # scan + leg-local filters
    # ------------------------------------------------------------------

    def _batch_scan(self, node: NamedTable) -> BatchRelation:
        table = self.catalog.table(node.name)
        binding = (node.alias or node.name).lower()
        schema = self._scan_schema(table, binding)
        store = table.column_store()
        positions = store.live_positions()
        self.stats.rows_scanned += len(positions)
        self._trace(
            f"BatchScan {table.name} as {binding} ({len(positions)} rows)"
        )
        return BatchRelation(schema, [_Leg(table, store, positions)])

    def _batch_subquery_scan(self, node: SubquerySource) -> BatchRelation:
        """Evaluate a derived table once per execution and leg-ify it.

        OBDA-unfolded UCQs repeat the same derived table (a small UNION
        of base-table projections) verbatim across hundreds of
        disjuncts.  The row path re-executes its sub-plan per disjunct;
        here the result is cached in the shared-scan context keyed by the
        sub-plan's SQL text, so each distinct derived table is evaluated
        once per query execution.  The cached position list is identity-
        stable, which also lets hash-join builds over the derived leg be
        shared across disjuncts.
        """
        subplan = self._subplan(node)
        # the SQL text starts with SELECT, so it never names a table: the
        # sub-plan's own string is the key, its hash computed once
        shared_key = (subplan.key, frozenset())
        binding = node.alias.lower()
        shared = self._shared
        cached = shared.lookup_scan(shared_key) if shared is not None else None
        if cached is None:
            result = self.execute_plan(subplan.plan)
            positions = range(len(result.rows))
            cached = (tuple(result.columns), result.rows, positions)
            if shared is not None:
                shared.store_scan(shared_key, cached)
        columns, rows, positions = cached
        schema = subplan.schema
        if schema is None:
            schema = RowSchema([(binding, c) for c in columns])
        self._trace(
            f"BatchSubqueryScan as {binding} ({len(rows)} rows)"
        )
        return BatchRelation(
            schema,
            [_DerivedLeg(rows, positions, len(columns), subplan.key)],
        )

    def _batch_filter_leg(
        self, relation: BatchRelation, conjuncts: List[Expr]
    ) -> BatchRelation:
        """Apply a leg's pushed-down conjuncts: shared-position reuse,
        index access path, typed kernels, compiled fallback -- in that
        order."""
        if not conjuncts:
            return relation
        table = relation.base_table
        shared = self._shared
        shared_key = None
        if shared is not None:
            if table is not None:
                base_key = scan_key(table.name, conjuncts)
                if base_key is not None:
                    shared_key = (_VEC_SCAN_PREFIX + base_key[0], base_key[1])
            else:
                # derived leg: same text + same (qualifier-stripped)
                # predicates -> same filtered positions, whatever the alias
                leg_key = getattr(relation.legs[0], "key", None)
                if leg_key is not None:
                    canonical = []
                    for conjunct in conjuncts:
                        text = canonical_predicate(conjunct)
                        if text is None:
                            canonical = None
                            break
                        canonical.append(text)
                    if canonical is not None:
                        shared_key = (leg_key + "#filtered", frozenset(canonical))
            if shared_key is not None:
                positions = shared.lookup_scan(shared_key)
                if positions is not None:
                    self._trace(
                        f"SharedBatchScan ({len(positions)} positions reused)"
                    )
                    return relation.with_positions(positions)
        ordered = self._order_local_predicates(
            relation.stats_view(), conjuncts
        )
        current = relation
        generic: List[Expr] = []
        for conjunct in ordered:
            filtered = self._apply_leg_kernel(current, conjunct)
            if filtered is None:
                generic.append(conjunct)
            else:
                current = filtered
        if generic:
            current = self._leg_generic_filter(current, generic)
        if shared_key is not None and shared is not None:
            # kernels and the generic filter always produce fresh lists,
            # so the stored positions never alias the unfiltered scan
            shared.store_scan(shared_key, current.legs[0].positions)
        return current

    def _apply_leg_kernel(
        self, relation: BatchRelation, conjunct: Expr
    ) -> Optional[BatchRelation]:
        """One conjunct via index or typed kernel; None -> compiled path."""
        positions = self._leg_index_positions(relation, conjunct)
        if positions is not None:
            return relation.with_positions(positions)
        form = _predicate_form(relation.schema, conjunct)
        if form is None:
            return None
        leg = relation.legs[0]
        kind, column_position, payload = form
        codec = leg.codec(column_position)
        if codec is None:
            return None  # derived leg: compiled-expression path
        if kind == "null":
            result = select_null(codec, leg.positions, payload)
        elif kind == "in":
            literals, negated = payload
            result = select_in(codec, leg.positions, literals, negated)
        else:
            op, literal = payload
            if literal is None:
                # col OP NULL is never TRUE under three-valued logic
                result = []
            elif op == "=":
                result = select_eq(codec, leg.positions, literal)
            elif op == "<>":
                result = select_eq(codec, leg.positions, literal, negated=True)
            else:
                result = select_cmp(codec, leg.positions, op, literal)
        if result is None:
            return None
        return relation.with_positions(result)

    def _leg_index_positions(
        self, relation: BatchRelation, conjunct: Expr
    ) -> Optional[list]:
        """Positions-level mirror of Executor._try_index_scan."""
        table = relation.base_table
        if table is None or relation.size != table.row_count:
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
        live = relation.legs[0].store.live
        if op == "=":
            index = table.hash_index_for((column,))
            if index is None:
                return None
            self.stats.index_lookups += 1
            self._trace(f"IndexScan {table.name}.{column} = {value!r}")
            return [i for i in sorted(index.lookup((value,))) if live[i]]
        if op in ("<", "<=", ">", ">="):
            index = table.sorted_index_for(column)
            if index is None:
                return None
            self.stats.index_lookups += 1
            if op in ("<", "<="):
                row_ids = index.range(high=value, include_high=(op == "<="))
            else:
                row_ids = index.range(low=value, include_low=(op == ">="))
            return [i for i in row_ids if live[i]]
        return None

    def _leg_generic_filter(
        self, relation: BatchRelation, conjuncts: List[Expr]
    ) -> BatchRelation:
        """Compiled-expression fallback over one leg's gathered rows."""
        leg = relation.legs[0]
        predicates = self._compile_all(relation.schema, conjuncts)
        rows = leg.gather_rows()
        kept = [
            position
            for position, row in zip(leg.positions, rows)
            if all(predicate(row) is True for predicate in predicates)
        ]
        return relation.with_positions(kept)

    # ------------------------------------------------------------------
    # generic batch evaluation (reduced-schema compiled expressions)
    # ------------------------------------------------------------------

    def _batch_values(self, relation: BatchRelation, expr: Expr) -> list:
        """Evaluate one expression over every row of the relation.

        Only the referenced columns are gathered; the expression is
        compiled against the *reduced* schema of those columns (kept in
        full-schema order, so bare-name disambiguation matches the row
        path exactly).  A template ``CONCAT`` of columns and literals runs
        as a column kernel instead (:meth:`_batch_concat`).
        """
        if isinstance(expr, FunctionCall) and expr.name.upper() == "CONCAT":
            values = self._batch_concat(relation, expr)
            if values is not None:
                return values
        schema = relation.schema
        positions = set()
        for ref in expr_columns(expr):
            position = schema.try_resolve(ref)
            if position is not None:
                positions.add(position)
        needed = sorted(positions)
        reduced = RowSchema([schema.fields[p] for p in needed])
        compiled = self._compiler(reduced).compile(expr)
        if not needed:
            # no column references: the value is row-independent
            return [compiled(())] * relation.size
        columns = [relation.gather_column(p) for p in needed]
        if len(columns) == 1:
            return [compiled((value,)) for value in columns[0]]
        return [compiled(row) for row in zip(*columns)]

    def _batch_concat(
        self, relation: BatchRelation, expr: FunctionCall
    ) -> Optional[list]:
        """``CONCAT`` of columns and non-NULL literals -- the unfolder's
        IRI templates -- a column at a time.  Row by row the value equals
        ``_fn_concat``'s: ``str()`` of each part, NULL when a part is NULL.
        None for any other shape (compiled path)."""
        args = expr.args
        if not any(isinstance(arg, ColumnRef) for arg in args) or not all(
            isinstance(arg, ColumnRef)
            or (isinstance(arg, LiteralValue) and arg.value is not None)
            for arg in args
        ):
            return None
        parts: list = []
        nullable: List[list] = []
        for arg in args:
            if isinstance(arg, LiteralValue):
                parts.append(repeat(str(arg.value)))
                continue
            position = relation.schema.try_resolve(arg)
            if position is None:
                return None
            column = relation.gather_column(position)
            parts.append(map(str, column))
            if None in column:
                nullable.append(column)
        values = list(map("".join, zip(*parts)))
        for column in nullable:
            for index, value in enumerate(column):
                if value is None:
                    values[index] = None
        return values

    def _batch_filter(
        self, relation: BatchRelation, conjuncts: Sequence[Expr]
    ) -> BatchRelation:
        for conjunct in conjuncts:
            if relation.size == 0:
                break
            values = self._batch_values(relation, conjunct)
            keep = [i for i, value in enumerate(values) if value is True]
            if len(keep) != relation.size:
                relation = relation.take(keep)
        return relation

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _filter_compiled(self, relation, conjuncts: Sequence[Expr]):
        """Residual-filter step of the inherited join planner."""
        if isinstance(relation, BatchRelation):
            return self._batch_filter(relation, conjuncts)
        return super()._filter_compiled(relation, conjuncts)

    def _inner_join(
        self,
        left,
        right,
        conjuncts: Sequence[Expr],
        estimate: Optional[float] = None,
    ):
        """Pairwise-join step of the inherited join planner."""
        if not isinstance(left, BatchRelation):
            # row relations of a fallback block keep the row operators
            return super()._inner_join(left, right, conjuncts, estimate)
        self._check_cancel()
        schema = left.schema.concat(right.schema)
        left_keys, right_keys, _, residual = self._equi_keys(
            left, right, conjuncts
        )
        if left_keys:
            joined = None
            right_unfiltered = (
                right.base_table is not None
                and right.size == right.base_table.row_count
            )
            if self.profile.hash_join:
                if right_unfiltered and left.size * 4 <= right.size:
                    columns = [right.schema.fields[p][1] for p in right_keys]
                    index = right.base_table.hash_index_for(columns)
                    if index is not None:
                        joined = self._batch_index_nl(
                            left, right, left_keys, index, schema, estimate
                        )
                if joined is None:
                    joined = self._batch_hash_join(
                        left,
                        right,
                        left_keys,
                        right_keys,
                        schema,
                        estimate,
                    )
            else:
                index = None
                if right_unfiltered:
                    columns = [right.schema.fields[p][1] for p in right_keys]
                    index = right.base_table.hash_index_for(columns)
                    if index is None and right.base_table.row_count > 64:
                        index = right.base_table.create_hash_index(columns)
                if index is not None:
                    joined = self._batch_index_nl(
                        left, right, left_keys, index, schema, estimate
                    )
                else:
                    # derived-table auto-keying analogue: build right,
                    # probe left, counted as an index NL join
                    joined = self._batch_hash_join(
                        left,
                        right,
                        left_keys,
                        right_keys,
                        schema,
                        estimate,
                        count_as_index_nl=True,
                    )
        else:
            # positional cross product; conjuncts become a post-filter
            self.stats.nested_loop_joins += 1
            left_take = [
                i for i in range(left.size) for _ in range(right.size)
            ]
            right_take = list(range(right.size)) * left.size
            joined = BatchRelation(
                schema, left.take_legs(left_take) + right.take_legs(right_take)
            )
            self._trace_join(
                f"BatchNLJoin outer={left.size} inner={right.size}",
                estimate,
                joined.size,
            )
            residual = list(conjuncts)
        if residual:
            joined = self._batch_filter(joined, residual)
        return joined

    def _batch_hash_build(
        self, relation: BatchRelation, keys: Sequence[int]
    ) -> Dict[Any, List[int]]:
        """Bucket table mapping key -> row indices of *relation*.

        Single-leg builds are shared through the scan context, keyed by
        the identity of the (shared) position list -- the positional
        analogue of the row path's build sharing.
        """
        key_positions = tuple(keys)
        shared = self._shared
        share_on = None
        if shared is not None and len(relation.legs) == 1:
            share_on = relation.legs[0].positions
            cached = shared.lookup_build(share_on, key_positions)
            if cached is not None:
                return cached
        values = [relation.gather_column(p) for p in keys]
        buckets: Dict[Any, List[int]] = {}
        if len(keys) == 1:
            for index, value in enumerate(values[0]):
                if value is None:
                    continue
                if isinstance(value, list):
                    value = tuple(value)
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [index]
                else:
                    bucket.append(index)
        else:
            for index, raw in enumerate(zip(*values)):
                key = tuple(_hashable(part) for part in raw)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(index)
        if share_on is not None and shared is not None:
            shared.store_build(share_on, key_positions, buckets)
        return buckets

    def _batch_hash_join(
        self,
        left: BatchRelation,
        right: BatchRelation,
        left_keys: Sequence[int],
        right_keys: Sequence[int],
        schema: RowSchema,
        estimate: Optional[float],
        count_as_index_nl: bool = False,
    ) -> BatchRelation:
        if count_as_index_nl:
            self.stats.index_nl_joins += 1
            swap = False
        else:
            self.stats.hash_joins += 1
            # build-side selection: hash the smaller input
            swap = left.size < right.size
            if swap:
                self.stats.build_side_swaps += 1
        build, probe = (left, right) if swap else (right, left)
        build_keys, probe_keys = (
            (left_keys, right_keys) if swap else (right_keys, left_keys)
        )
        buckets = self._batch_hash_build(build, build_keys)
        probe_values = [probe.gather_column(p) for p in probe_keys]
        build_take: List[int] = []
        probe_take: List[int] = []
        token = self.cancel_token
        if len(probe_keys) == 1:
            get = buckets.get
            for index, value in enumerate(probe_values[0]):
                if token is not None and index % self.CANCEL_BATCH_ROWS == 0:
                    token.check()
                if value is None:
                    continue
                if isinstance(value, list):
                    value = tuple(value)
                matches = get(value)
                if matches:
                    if len(matches) == 1:
                        build_take.append(matches[0])
                        probe_take.append(index)
                    else:
                        build_take.extend(matches)
                        probe_take.extend([index] * len(matches))
        else:
            get = buckets.get
            for index, raw in enumerate(zip(*probe_values)):
                if token is not None and index % self.CANCEL_BATCH_ROWS == 0:
                    token.check()
                key = tuple(_hashable(part) for part in raw)
                if any(part is None for part in key):
                    continue
                matches = get(key)
                if matches:
                    build_take.extend(matches)
                    probe_take.extend([index] * len(matches))
        left_take, right_take = (
            (build_take, probe_take) if swap else (probe_take, build_take)
        )
        joined = BatchRelation(
            schema, left.take_legs(left_take) + right.take_legs(right_take)
        )
        label = "BatchAutoKeyJoin" if count_as_index_nl else "BatchHashJoin"
        self._trace_join(
            f"{label} build={build.size} probe={probe.size}"
            + (" (swapped)" if swap else ""),
            estimate,
            joined.size,
        )
        return joined

    def _batch_index_nl(
        self,
        left: BatchRelation,
        right: BatchRelation,
        left_keys: Sequence[int],
        index,
        schema: RowSchema,
        estimate: Optional[float],
    ) -> BatchRelation:
        """Probe the right base table's hash index with left key vectors."""
        self.stats.index_nl_joins += 1
        right_leg = right.legs[0]
        live = right_leg.store.live
        left_values = [left.gather_column(p) for p in left_keys]
        left_take: List[int] = []
        right_positions: List[int] = []
        token = self.cancel_token
        if len(left_keys) == 1:
            for position, value in enumerate(left_values[0]):
                if token is not None and position % self.CANCEL_BATCH_ROWS == 0:
                    token.check()
                if value is None:
                    continue
                if isinstance(value, list):
                    value = tuple(value)
                row_ids = index.lookup((value,))
                if row_ids:
                    for row_id in sorted(row_ids):
                        if live[row_id]:
                            left_take.append(position)
                            right_positions.append(row_id)
        else:
            for position, raw in enumerate(zip(*left_values)):
                if token is not None and position % self.CANCEL_BATCH_ROWS == 0:
                    token.check()
                key = tuple(_hashable(part) for part in raw)
                if any(part is None for part in key):
                    continue
                for row_id in sorted(index.lookup(key)):
                    if live[row_id]:
                        left_take.append(position)
                        right_positions.append(row_id)
        joined = BatchRelation(
            schema,
            left.take_legs(left_take) + [right_leg.replace(right_positions)],
        )
        self._trace_join(
            f"BatchIndexNLJoin outer={left.size} inner={right_leg.table.name}",
            estimate,
            joined.size,
        )
        return joined

    # ------------------------------------------------------------------
    # projection + aggregation feeds
    # ------------------------------------------------------------------

    def _batch_project(
        self, statement: SelectStatement, relation: BatchRelation
    ) -> Tuple[List[str], List[RowT]]:
        self._check_cancel()
        items = self._expand_items(statement.items, relation.schema)
        columns = [item.output_name for item in items]
        value_columns: List[list] = []
        for item in items:
            if isinstance(item.expr, ColumnRef):
                position = relation.schema.resolve(item.expr)
                value_columns.append(relation.gather_column(position))
            else:
                value_columns.append(self._batch_values(relation, item.expr))
        if len(value_columns) == 1:
            rows = [(value,) for value in value_columns[0]]
        else:
            rows = list(zip(*value_columns))
        return columns, rows

    def _reduced_relation(
        self, statement: SelectStatement, relation: BatchRelation
    ) -> Relation:
        """Materialize only the columns aggregation references.

        The reduced schema keeps full-schema field order, so qualified and
        bare-name resolution inside the inherited ``_aggregate`` behaves
        exactly as it would against the full schema.
        """
        schema = relation.schema
        exprs: List[Expr] = [item.expr for item in statement.items]
        exprs.extend(statement.group_by)
        if statement.having is not None:
            exprs.append(statement.having)
        star = False
        needed = set()
        for expr in exprs:
            for node in walk_expr(expr):
                if isinstance(node, Star):
                    star = True
                elif isinstance(node, ColumnRef):
                    position = schema.try_resolve(node)
                    if position is not None:
                        needed.add(position)
        if star:
            positions = list(range(len(schema)))
        else:
            positions = sorted(needed)
        if star:
            reduced_schema = schema
        else:
            reduced_schema = RowSchema([schema.fields[p] for p in positions])
        if not positions:
            rows: List[RowT] = [()] * relation.size
        else:
            columns = [relation.gather_column(p) for p in positions]
            if len(columns) == 1:
                rows = [(value,) for value in columns[0]]
            else:
                rows = list(zip(*columns))
        return Relation(reduced_schema, rows)


def _predicate_form(
    schema: RowSchema, conjunct: Expr
) -> Optional[Tuple[str, int, Any]]:
    """Classify a conjunct for kernel dispatch.

    Returns ``("cmp", position, (op, literal))``,
    ``("null", position, negated)``, ``("in", position, (literals,
    negated))`` -- or None for anything else (compiled fallback).
    """
    if isinstance(conjunct, IsNull):
        operand = conjunct.operand
        if isinstance(operand, ColumnRef):
            position = schema.try_resolve(operand)
            if position is not None:
                return ("null", position, conjunct.negated)
        return None
    if isinstance(conjunct, InList):
        operand = conjunct.operand
        if isinstance(operand, ColumnRef) and all(
            isinstance(item, LiteralValue) for item in conjunct.items
        ):
            position = schema.try_resolve(operand)
            if position is not None:
                literals = [item.value for item in conjunct.items]
                return ("in", position, (literals, conjunct.negated))
        return None
    if isinstance(conjunct, BinaryOp):
        left, right = conjunct.left, conjunct.right
        if isinstance(right, ColumnRef) and isinstance(left, LiteralValue):
            left, right = right, left
            op = _mirror_op(conjunct.op)
        else:
            op = conjunct.op
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return None
        if not (
            isinstance(left, ColumnRef) and isinstance(right, LiteralValue)
        ):
            return None
        position = schema.try_resolve(left)
        if position is None:
            return None
        return ("cmp", position, (op, right.value))
    return None
