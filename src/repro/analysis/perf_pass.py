"""Pass 4 -- performance lint over the unfolded SQL (``PERF_NO_ACCESS_PATH``).

Every catalogue query is unfolded into its UCQ and each UNION disjunct
is statically costed with the same inputs the executor's cost model uses
(:mod:`repro.sql.stats` when ANALYZE has run, live table cardinalities
otherwise): base tables contribute their row counts, local ``col OP
literal`` predicates shrink them by class-based selectivities, and every
equi-join edge divides by the larger ``n_distinct`` of its key pair.

A disjunct whose estimated output cardinality exceeds the threshold
while *no* atom offers a usable access path -- a hash/sorted index on a
filtered column or on either side of a join edge -- is flagged: on a
real engine this is the disjunct that degenerates into full-scan nested
loops at growth factor 1500.  The pass is advisory (INFO): estimates
steer attention, they do not prove a defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..obda.mapping import MappingCollection
from ..obda.system import OBDAEngine
from ..owl.model import Ontology
from ..sparql.ast import SelectQuery
from ..sparql.parser import parse_query
from ..sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    IsNull,
    Join,
    LiteralValue,
    NamedTable,
    TableRef,
    expr_columns,
    split_conjuncts,
)
from ..sql.engine import Database
from ..sql.optimizer import (
    BETWEEN_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    EQUALITY_SELECTIVITY,
    RANGE_SELECTIVITY,
)
from ..sql.plan import compile_select
from .facts import FactBase
from .model import Finding, Severity

QueryMap = Dict[str, Union[str, SelectQuery]]

#: flag disjuncts estimated above this many output rows with no index
DEFAULT_CARDINALITY_THRESHOLD = 100_000.0


@dataclass
class _Atom:
    """One base-table occurrence of a disjunct, with its running estimate."""

    alias: str
    table_name: str
    rows: float


def _conjunct_selectivity(conjunct: Expr) -> float:
    if isinstance(conjunct, IsNull):
        # unfolded disjuncts carry IS NOT NULL guards on join columns;
        # most values are present, so the guard barely filters
        return 0.1 if not conjunct.negated else 0.9
    if isinstance(conjunct, Between):
        return BETWEEN_SELECTIVITY
    if isinstance(conjunct, BinaryOp):
        if conjunct.op == "=":
            return EQUALITY_SELECTIVITY
        if conjunct.op in ("<", "<=", ">", ">="):
            return RANGE_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _column_indexed(database: Database, atom: _Atom, column: str) -> bool:
    table = database.catalog.table(atom.table_name)
    return (
        table.hash_index_for((column,)) is not None
        or table.sorted_index_for(column) is not None
    )


def _indexed_local_predicate(
    database: Database, atom: _Atom, conjunct: Expr
) -> bool:
    """An equality/range predicate over an indexed column of *atom*."""
    if isinstance(conjunct, Between):
        operand = conjunct.operand
        return isinstance(operand, ColumnRef) and _column_indexed(
            database, atom, operand.name.lower()
        )
    if not isinstance(conjunct, BinaryOp):
        return False
    if conjunct.op not in ("=", "<", "<=", ">", ">="):
        return False
    sides = (conjunct.left, conjunct.right)
    for side, other in (sides, sides[::-1]):
        if isinstance(side, ColumnRef) and isinstance(other, LiteralValue):
            return _column_indexed(database, atom, side.name.lower())
    return False


def _collect_atoms(
    node: TableRef,
    database: Database,
    atoms: Dict[str, _Atom],
    join_conjuncts: List[Expr],
) -> bool:
    """Gather base-table atoms + join conditions; False = not analyzable."""
    if isinstance(node, NamedTable):
        if not database.catalog.has_table(node.name):
            return False
        table = database.catalog.table(node.name)
        alias = (node.alias or node.name).lower()
        atoms[alias] = _Atom(alias, table.name.lower(), float(table.row_count))
        return True
    if isinstance(node, Join):
        if node.kind != "INNER":
            return False  # LEFT/NATURAL: structural evaluation, skip
        if not _collect_atoms(node.left, database, atoms, join_conjuncts):
            return False
        if not _collect_atoms(node.right, database, atoms, join_conjuncts):
            return False
        if node.condition is not None:
            join_conjuncts.extend(split_conjuncts(node.condition))
        return True
    return False  # subquery sources etc.


def estimate_disjunct(
    database: Database,
    statement_source: Optional[TableRef],
    where_conjuncts: List[Expr],
) -> Optional[Tuple[float, bool, List[str]]]:
    """(estimated cardinality, has access path, tables) for one disjunct.

    Returns None when the disjunct cannot be analyzed statically (outer
    joins, derived tables, missing tables).
    """
    if statement_source is None:
        return None
    atoms: Dict[str, _Atom] = {}
    join_conjuncts: List[Expr] = []
    if not _collect_atoms(statement_source, database, atoms, join_conjuncts):
        return None
    if not atoms:
        return None
    statistics = database.catalog.statistics
    fresh = statistics is not None and statistics.fresh

    def ndv(atom: _Atom, column: str) -> int:
        if fresh:
            table_stats = statistics.table(atom.table_name)
            if table_stats is not None:
                column_stats = table_stats.column(column)
                if column_stats is not None:
                    return max(1, column_stats.n_distinct)
        return max(1, int(atom.rows))

    has_access = False
    join_edges: List[BinaryOp] = []
    for conjunct in list(where_conjuncts) + join_conjuncts:
        refs = expr_columns(conjunct)
        owners = {ref.qualifier.lower() for ref in refs if ref.qualifier}
        if len(owners) == 1 and owners <= set(atoms):
            atom = atoms[next(iter(owners))]
            if _indexed_local_predicate(database, atom, conjunct):
                has_access = True
            atom.rows = max(1.0, atom.rows * _conjunct_selectivity(conjunct))
            continue
        if (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            join_edges.append(conjunct)
    estimate = 1.0
    for atom in atoms.values():
        estimate *= max(1.0, atom.rows)
    for edge in join_edges:
        left, right = edge.left, edge.right
        left_alias = (left.qualifier or "").lower()
        right_alias = (right.qualifier or "").lower()
        if left_alias not in atoms or right_alias not in atoms:
            continue
        left_atom, right_atom = atoms[left_alias], atoms[right_alias]
        left_column = left.name.lower()
        right_column = right.name.lower()
        estimate /= max(
            ndv(left_atom, left_column), ndv(right_atom, right_column)
        )
        if _column_indexed(database, left_atom, left_column) or _column_indexed(
            database, right_atom, right_column
        ):
            has_access = True
    tables = sorted({atom.table_name for atom in atoms.values()})
    return estimate, has_access, tables


def run_perf_pass(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    factbase: FactBase,
    queries: QueryMap,
    threshold: float = DEFAULT_CARDINALITY_THRESHOLD,
) -> List[Finding]:
    """PERF_NO_ACCESS_PATH findings over one benchmark's query catalogue."""
    engine = OBDAEngine(database, ontology, mappings, factbase=factbase)
    findings: List[Finding] = []
    for name, sparql in queries.items():
        try:
            query = parse_query(sparql) if isinstance(sparql, str) else sparql
            unfolded = engine.unfolder.unfold_query(query)
        except Exception:
            continue  # parse/unfold defects are the other passes' findings
        if unfolded.statement is None:
            continue
        plan = compile_select(unfolded.statement)
        for position, block in enumerate(plan.blocks):
            analyzed = estimate_disjunct(
                database, block.statement.source, list(block.where_conjuncts)
            )
            if analyzed is None:
                continue
            estimate, has_access, tables = analyzed
            if estimate > threshold and not has_access:
                findings.append(
                    Finding(
                        "PERF_NO_ACCESS_PATH",
                        Severity.INFO,
                        "query",
                        f"{name}#disjunct{position}",
                        f"estimated cardinality {estimate:.0f} over "
                        f"{', '.join(tables)} with no usable index; "
                        "expect full-scan joins at benchmark scale",
                    )
                )
    return findings
