"""ANALYZE statistics: per-table / per-column summaries for the optimizer.

The cost-based physical optimizer (:mod:`repro.sql.optimizer`) needs the
same measures VIG's analysis phase computes for data generation -- row
counts, number of distinct values, NULL fractions and value bounds -- but
collected *inside* the engine and attached to the catalog: every data
change bumps the database's plan generation, and statistics stamped with
an older generation are stale.

Stale statistics are never wrong-answers-dangerous here (the executor
always filters and joins exactly; estimates only steer operator order and
build-side choices), so staleness degrades gracefully: the optimizer
falls back to live materialized cardinalities and default selectivities
until the next ``ANALYZE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .catalog import Catalog, Table


@dataclass
class ColumnStatistics:
    """Summary of one column, as of the stamped generation."""

    column: str
    n_distinct: int
    null_count: int
    row_count: int
    min_value: Any = None
    max_value: Any = None

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    def describe(self) -> str:
        return (
            f"{self.column}: n_distinct={self.n_distinct} "
            f"null_frac={self.null_fraction:.3f} "
            f"min={self.min_value!r} max={self.max_value!r}"
        )


@dataclass
class TableStatistics:
    """Row count plus per-column statistics for one table."""

    table: str
    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())


@dataclass
class CatalogStatistics:
    """The ANALYZE artifact the catalog carries for the optimizer.

    ``generation`` is the database's plan generation at collection time;
    :meth:`Database._data_changed` marks the object stale on every data
    change (DML, ``insert_rows``, CREATE TABLE).  ``stale``
    statistics stay inspectable (EXPLAIN prints them) but the optimizer
    ignores them.
    """

    tables: Dict[str, TableStatistics] = field(default_factory=dict)
    generation: int = -1
    stale: bool = True

    def table(self, name: str) -> Optional[TableStatistics]:
        return self.tables.get(name.lower())

    @property
    def fresh(self) -> bool:
        return not self.stale

    def summary(self) -> Dict[str, Any]:
        return {
            "tables": len(self.tables),
            "columns": sum(len(t.columns) for t in self.tables.values()),
            "rows": sum(t.row_count for t in self.tables.values()),
            "generation": self.generation,
            "stale": self.stale,
        }


def _analyze_table(table: Table) -> TableStatistics:
    store = getattr(table, "_column_store", None)
    if store is not None:
        # the columnar mirror answers ANALYZE per column without
        # materializing rows; semantics match the row loop below exactly
        stats = TableStatistics(table=table.name, row_count=store.live_count)
        for position, column in enumerate(table.columns):
            n_distinct, nulls, minimum, maximum = store.analyze_column(position)
            stats.columns[column.lname] = ColumnStatistics(
                column=column.lname,
                n_distinct=n_distinct,
                null_count=nulls,
                row_count=store.live_count,
                min_value=minimum,
                max_value=maximum,
            )
        return stats
    positions = range(len(table.columns))
    distinct: list[set] = [set() for _ in positions]
    nulls = [0 for _ in positions]
    minima: list[Any] = [None for _ in positions]
    maxima: list[Any] = [None for _ in positions]
    comparable = [True for _ in positions]
    rows = 0
    for row in table.iter_rows():
        rows += 1
        for position in positions:
            value = row[position]
            if value is None:
                nulls[position] += 1
                continue
            try:
                distinct[position].add(value)
            except TypeError:
                # unhashable (geometry rings are tuples, but be defensive)
                distinct[position].add(repr(value))
            if not comparable[position]:
                continue
            try:
                if minima[position] is None or value < minima[position]:
                    minima[position] = value
                if maxima[position] is None or value > maxima[position]:
                    maxima[position] = value
            except TypeError:
                # mixed or unordered types (e.g. geometry): no bounds
                comparable[position] = False
                minima[position] = maxima[position] = None
    stats = TableStatistics(table=table.name, row_count=rows)
    for position, column in enumerate(table.columns):
        stats.columns[column.lname] = ColumnStatistics(
            column=column.lname,
            n_distinct=len(distinct[position]),
            null_count=nulls[position],
            row_count=rows,
            min_value=minima[position],
            max_value=maxima[position],
        )
    return stats


def collect_statistics(catalog: Catalog, generation: int) -> CatalogStatistics:
    """One ANALYZE pass over every table of the catalog."""
    statistics = CatalogStatistics(generation=generation, stale=False)
    for table in catalog.tables():
        statistics.tables[table.name.lower()] = _analyze_table(table)
    return statistics
