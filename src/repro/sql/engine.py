"""The public database facade.

:class:`Database` ties together parser, catalog and executor, and adds DML
(INSERT/DELETE/UPDATE) with constraint enforcement.  This is the engine the
OBDA system executes its unfolded SQL against, and the store VIG populates.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..concurrency import ReadWriteLock
from .ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .catalog import Catalog, Table
from .errors import ExecutionError, IntegrityError
from .executor import ExecutionStats, Executor, QueryResult
from .vectorized import VectorizedExecutor
from .expressions import ExpressionCompiler, RowSchema
from .parser import parse_script, parse_statement
from .plan import CompiledPlan, compile_select
from .profiles import EngineProfile, postgresql_profile
from .stats import CatalogStatistics, collect_statistics


def refresh_plan(*args: Any, **kwargs: Any) -> None:
    """Inert: compiled plans are never re-planned, so nothing calls this.

    Kept only because the e2e benchmark's tracer wraps this module
    attribute by name (its ``sql.plan`` span), like ``cache_stats()``'s
    ``rewrite_cache_hits`` that always reads 0.
    """


class Database:
    """An in-memory relational database with a SQL text interface.

    A SELECT is compiled once into a :class:`~repro.sql.plan.CompiledPlan`
    that holds only logical analysis, so a plan object held by a caller
    runs against the current data, indexes and profile without ever being
    re-planned.  :attr:`plan_generation` counts data changes (DML,
    ``insert_rows``, CREATE TABLE): the stamps of ANALYZE statistics and
    of the OBDA engine's verified facts/constraints compare against it.
    A readers-writer lock at this facade lets concurrent Mixer clients
    run SELECTs in parallel while mutations run exclusively.
    """

    #: valid values for the ``execute_plan``/``explain`` executor arg
    EXECUTORS = ("row", "vectorized")

    def __init__(
        self,
        profile: Optional[EngineProfile] = None,
        enforce_foreign_keys: bool = True,
    ):
        self.catalog = Catalog()
        self.profile = profile or postgresql_profile()
        self.enforce_foreign_keys = enforce_foreign_keys
        self._make_executors()
        self._plan_generation = 0
        self._lock = ReadWriteLock()

    def _make_executors(self) -> None:
        """(Re)build the row and vectorized executors.

        Both share one :class:`ExecutionStats` instance, so counters are
        consistent no matter which path executed a query.
        """
        self._executor = Executor(self.catalog, self.profile)
        self._vectorized = VectorizedExecutor(self.catalog, self.profile)
        self._vectorized.stats = self._executor.stats

    def _select_executor(self, executor: Optional[str]) -> Executor:
        """The named executor; None means the row executor."""
        if executor is None or executor == "row":
            return self._executor
        if executor == "vectorized":
            return self._vectorized
        raise ExecutionError(
            f"unknown executor {executor!r} (expected one of {self.EXECUTORS})"
        )

    # -- profile management -------------------------------------------------

    def set_profile(self, profile: EngineProfile) -> None:
        """Swap the engine profile (e.g. mysql vs postgresql emulation).

        Profiles change physical operator choices, which are made at
        execution time, so compiled plans run unchanged under the new
        profile; no row changed, so the generation stays.
        """
        with self._lock.write():
            self.profile = profile
            self._make_executors()

    # -- statistics ---------------------------------------------------------

    def analyze(self) -> Dict[str, Any]:
        """ANALYZE: collect per-table/per-column statistics in the catalog.

        The statistics are stamped with the current plan generation and
        marked stale by the next data change.  Returns a summary dict
        (tables/columns/rows analyzed).
        """
        with self._lock.write():
            statistics = collect_statistics(self.catalog, self._plan_generation)
            self.catalog.statistics = statistics
            return statistics.summary()

    @property
    def statistics(self) -> Optional[CatalogStatistics]:
        return self.catalog.statistics

    @property
    def statistics_fresh(self) -> bool:
        statistics = self.catalog.statistics
        return statistics is not None and statistics.fresh

    @property
    def stats(self) -> ExecutionStats:
        stats = self._executor.stats
        batch_sorts = merges = 0
        for table in self.catalog.tables():
            for index in table._sorted_indexes.values():
                batch_sorts += index.batch_sorts
                merges += index.merges
        stats.index_batch_sorts = batch_sorts
        stats.index_merges = merges
        return stats

    @property
    def plan_generation(self) -> int:
        return self._plan_generation

    # -- statement execution ----------------------------------------------------

    def execute(self, sql: Union[str, Statement]) -> QueryResult:
        """Execute one statement; queries return a :class:`QueryResult`.

        DDL/DML return an empty result whose single column ``affected``
        holds the number of affected rows.  A caller that repeats a SELECT
        keeps the plan from :meth:`compile` and runs it through
        :meth:`execute_plan`.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, SelectStatement):
            return self.execute_plan(self._compile(statement, "execute()"))
        if isinstance(statement, CreateTableStatement):
            with self._lock.write():
                table = self.catalog.create_table_from_ast(statement)
                self._auto_index(table)
                self._data_changed()
            return QueryResult(["affected"], [(0,)])
        if isinstance(statement, CreateIndexStatement):
            with self._lock.write():
                table = self.catalog.table(statement.table)
                table.create_hash_index(statement.columns)
                if len(statement.columns) == 1:
                    table.create_sorted_index(statement.columns[0])
            return QueryResult(["affected"], [(0,)])
        if isinstance(statement, InsertStatement):
            with self._lock.write():
                count = self._execute_insert(statement)
                self._data_changed()
            return QueryResult(["affected"], [(count,)])
        if isinstance(statement, DeleteStatement):
            with self._lock.write():
                count = self._execute_delete(statement)
                self._data_changed()
            return QueryResult(["affected"], [(count,)])
        if isinstance(statement, UpdateStatement):
            with self._lock.write():
                count = self._execute_update(statement)
                self._data_changed()
            return QueryResult(["affected"], [(count,)])
        raise ExecutionError(f"cannot execute {statement!r}")

    # -- compiled-plan interface --------------------------------------------

    def compile(self, sql: Union[str, SelectStatement]) -> CompiledPlan:
        """Compile a SELECT into a reusable plan.

        The returned plan can be executed many times via
        :meth:`execute_plan`; each execution reflects the data, indexes
        and profile current at that moment.
        """
        return self._compile(sql, "compile()")

    def execute_plan(
        self, plan: CompiledPlan, token=None, executor: Optional[str] = None
    ) -> QueryResult:
        """Execute a compiled plan.

        ``token`` (a :class:`repro.concurrency.CancellationToken`) arms
        cooperative cancellation for this call only: the executor stores it
        thread-locally, so concurrent readers sharing this Database are
        unaffected, and it is always cleared on exit.  ``executor`` picks
        the execution path for this call (``"row"``, the default, or
        ``"vectorized"``).
        """
        engine = self._select_executor(executor)
        with self._lock.read():
            if token is None:
                return engine.execute_plan(plan)
            engine.set_cancel_token(token)
            try:
                return engine.execute_plan(plan)
            finally:
                engine.set_cancel_token(None)

    def _compile(self, sql: Union[str, Statement], caller: str) -> CompiledPlan:
        """Parse text input, insist on a SELECT and compile it."""
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(statement, SelectStatement):
            raise ExecutionError(f"{caller} only applies to SELECT statements")
        return compile_select(statement, sql if isinstance(sql, str) else None)

    def _data_changed(self) -> None:
        """Bump the generation after a data change (caller holds the
        write lock)."""
        self._plan_generation += 1
        # the cost model ignores stale statistics (falls back to live
        # sizes)
        if self.catalog.statistics is not None:
            self.catalog.statistics.stale = True

    def execute_script(self, sql: str) -> List[QueryResult]:
        return [self.execute(statement) for statement in parse_script(sql)]

    def query(self, sql: Union[str, SelectStatement]) -> QueryResult:
        """Execute a SELECT and fail fast on anything else."""
        return self.execute_plan(self._compile(sql, "query()"))

    def explain(
        self,
        sql: Union[str, SelectStatement],
        analyze: bool = False,
        executor: Optional[str] = None,
    ) -> List[str]:
        """Run a SELECT with plan tracing and return the operator trace.

        Unlike a cost-only EXPLAIN, this executes the query (the planner
        makes its physical choices from actual cardinalities), so the
        trace reflects exactly what a plain ``execute`` would do.  The
        first line (``plan-key:``) summarizes the plan: text digest and
        block count.

        ``analyze=True`` (EXPLAIN ANALYZE) additionally annotates every
        join with its actual output row count -- and, when ANALYZE
        statistics are fresh, the estimated-vs-actual cardinality -- and
        reports per-disjunct row counts and timings for UNION queries,
        plus a statistics header line.
        """
        plan = self._compile(sql, "EXPLAIN")
        # exclusive lock: the trace is executor-level mutable state, so a
        # concurrent execute/explain on another thread would interleave
        # its operator lines into (or clear) this trace under a shared
        # read lock.  EXPLAIN is diagnostic, so exclusivity is cheap.
        engine = self._select_executor(executor)
        with self._lock.write():
            engine.trace = []
            engine.analyze = analyze
            try:
                result = engine.execute_plan(plan)
            finally:
                trace = engine.trace or []
                engine.trace = None
                engine.analyze = False
        trace.append(f"Result: {len(result.rows)} rows")
        header = [f"plan-key: {plan.describe_key()}"]
        if analyze:
            statistics = self.catalog.statistics
            if statistics is None:
                statistics_line = "statistics: none (run analyze())"
            elif statistics.stale:
                statistics_line = "statistics: stale (re-run analyze())"
            else:
                summary = statistics.summary()
                statistics_line = (
                    f"statistics: fresh (generation {summary['generation']}, "
                    f"{summary['tables']} tables, {summary['rows']} rows)"
                )
            header.append(statistics_line)
        return header + trace

    # -- programmatic data loading ------------------------------------------------

    def insert_rows(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any]],
        columns: Optional[Sequence[str]] = None,
        check_foreign_keys: Optional[bool] = None,
    ) -> int:
        """Bulk insert Python tuples (much faster than INSERT statements)."""
        with self._lock.write():
            count = self._insert_rows_locked(
                table_name, rows, columns, check_foreign_keys
            )
            self._data_changed()
        return count

    def _insert_rows_locked(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any]],
        columns: Optional[Sequence[str]] = None,
        check_foreign_keys: Optional[bool] = None,
    ) -> int:
        table = self.catalog.table(table_name)
        ordered_rows: Iterable[Sequence[Any]]
        if columns is not None:
            positions = [table.column_position(column) for column in columns]
            if len(set(positions)) != len(positions):
                raise IntegrityError(f"duplicate columns in insert: {columns}")

            def reorder(row: Sequence[Any]) -> List[Any]:
                full: List[Any] = [None] * len(table.columns)
                for position, value in zip(positions, row):
                    full[position] = value
                return full

            ordered_rows = (reorder(row) for row in rows)
        else:
            ordered_rows = rows
        count = 0
        check_fk = (
            self.enforce_foreign_keys
            if check_foreign_keys is None
            else check_foreign_keys
        )
        for row in ordered_rows:
            if check_fk:
                self._check_row_foreign_keys(table, row if columns is None else row)
            table.insert(row)
            count += 1
        return count

    def _check_row_foreign_keys(self, table: Table, values: Sequence[Any]) -> None:
        if not table.foreign_keys:
            return
        if len(values) != len(table.columns):
            return  # reordered rows were already expanded by insert_rows
        for fk in table.foreign_keys:
            if not self.catalog.has_table(fk.ref_table):
                raise IntegrityError(
                    f"{table.name}: FK references missing table {fk.ref_table}"
                )
            key = tuple(values[table.column_position(c)] for c in fk.columns)
            if any(part is None for part in key):
                continue
            target = self.catalog.table(fk.ref_table)
            index = target.hash_index_for(fk.ref_columns) or target.create_hash_index(
                fk.ref_columns
            )
            if not index.contains_key(key):
                raise IntegrityError(
                    f"{table.name}{fk.columns}={key!r} not found in "
                    f"{fk.ref_table}{fk.ref_columns}"
                )

    # -- DML ------------------------------------------------------------------------

    def _execute_insert(self, statement: InsertStatement) -> int:
        table = self.catalog.table(statement.table)
        schema = RowSchema([])
        compiler = ExpressionCompiler(schema)
        count = 0
        for row_exprs in statement.rows:
            values = [compiler.compile(expr)(()) for expr in row_exprs]
            if statement.columns:
                positions = [table.column_position(c) for c in statement.columns]
                full: List[Any] = [None] * len(table.columns)
                for position, value in zip(positions, values):
                    full[position] = value
                values = full
            if self.enforce_foreign_keys:
                self._check_row_foreign_keys(table, values)
            table.insert(values)
            count += 1
        return count

    def _execute_delete(self, statement: DeleteStatement) -> int:
        table = self.catalog.table(statement.table)
        schema = RowSchema([(table.name, c) for c in table.column_names])
        predicate = None
        if statement.where is not None:
            compiler = ExpressionCompiler(
                schema, subquery_executor=self._executor.run_subquery
            )
            predicate = compiler.compile(statement.where)
        doomed = [
            row_id
            for row_id, row in table.iter_row_ids()
            if predicate is None or predicate(row) is True
        ]
        for row_id in doomed:
            table.delete_row(row_id)
        return len(doomed)

    def _execute_update(self, statement: UpdateStatement) -> int:
        table = self.catalog.table(statement.table)
        schema = RowSchema([(table.name, c) for c in table.column_names])
        compiler = ExpressionCompiler(
            schema, subquery_executor=self._executor.run_subquery
        )
        predicate = (
            compiler.compile(statement.where) if statement.where is not None else None
        )
        assignments = [
            (table.column_position(column), compiler.compile(value))
            for column, value in statement.assignments
        ]
        touched = [
            (row_id, row)
            for row_id, row in table.iter_row_ids()
            if predicate is None or predicate(row) is True
        ]
        for row_id, row in touched:
            updated = list(row)
            for position, evaluate in assignments:
                updated[position] = evaluate(row)
            table.update_row(row_id, updated)
        return len(touched)

    # -- schema helpers ----------------------------------------------------------------

    def _auto_index(self, table: Table) -> None:
        """Index PK (done by Table) plus every FK column set.

        Real deployments of the NPD benchmark index foreign keys; without
        them the MySQL profile would fall back to block-nested-loop joins
        everywhere, which is not the behaviour the paper measures.
        """
        for fk in table.foreign_keys:
            table.create_hash_index(fk.columns)

    def create_indexes_for_statistics(self) -> None:
        """Create sorted indexes on all ordered columns (used by VIG)."""
        for table in self.catalog.tables():
            for column in table.columns:
                if column.sql_type.is_ordered:
                    table.create_sorted_index(column.name)

    def clone_schema(self, profile: Optional[EngineProfile] = None) -> "Database":
        """A new empty database with the same tables and constraints."""
        clone = Database(profile or self.profile, self.enforce_foreign_keys)
        for table in self.catalog.tables():
            clone.catalog.create_table(
                Table(
                    table.name,
                    table.columns,
                    table.primary_key,
                    table.foreign_keys,
                )
            )
            clone._auto_index(clone.catalog.table(table.name))
        return clone

    def clone_with_data(self, profile: Optional[EngineProfile] = None) -> "Database":
        """Deep-copy schema and rows (indexes are rebuilt lazily)."""
        clone = self.clone_schema(profile)
        for table in self.catalog.tables():
            target = clone.catalog.table(table.name)
            for row in table.iter_rows():
                target.insert(row)
        return clone

    def table_sizes(self) -> Dict[str, int]:
        return {table.name: table.row_count for table in self.catalog.tables()}

    def total_rows(self) -> int:
        return self.catalog.total_rows()

