"""Cost-based physical optimization for the SQL executor.

This module sits between the logical plan (:mod:`repro.sql.plan`) and the
executor (:mod:`repro.sql.executor`) and owns the *decisions* the executor
used to make by fixed rules:

* :class:`CostModel` -- cardinality and selectivity estimation backed by
  the ANALYZE statistics of :mod:`repro.sql.stats` (n_distinct, NULL
  fractions, min/max), with graceful fallbacks when statistics are stale
  or missing;
* :class:`SharedScanContext` -- the per-query cache that lets identical
  base-table scans, filtered sub-plans and hash-join build tables be
  computed once and reused across the UNION disjuncts of an unfolded
  UCQ.

The executor keeps making *adaptive* decisions: every intermediate result
is materialized, so after each join the true cardinality replaces the
estimate.  The cost model only has to rank the candidates for the next
step, which is a much easier problem than full-query cost prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

from .ast import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    LiteralValue,
    UnaryOp,
)
from .stats import CatalogStatistics, ColumnStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import Relation

#: selectivity defaults (System-R heritage) used when statistics cannot
#: answer; chosen to rank predicate classes sensibly, not to be accurate
EQUALITY_SELECTIVITY = 0.05
RANGE_SELECTIVITY = 1.0 / 3.0
BETWEEN_SELECTIVITY = 0.25
DEFAULT_SELECTIVITY = 0.25


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


class CostModel:
    """Cardinality/selectivity estimation over ANALYZE statistics.

    All estimators degrade gracefully: with no (or stale) statistics they
    fall back to materialized cardinalities and the class-based default
    selectivities above.  Estimates steer operator choices only -- the
    executor always applies predicates and join conditions exactly.
    """

    def __init__(self, statistics: Optional[CatalogStatistics]):
        self.statistics = (
            statistics if statistics is not None and statistics.fresh else None
        )

    @property
    def has_statistics(self) -> bool:
        return self.statistics is not None

    def _column_stats(
        self, relation: "Relation", position: int
    ) -> Optional[ColumnStatistics]:
        table = relation.base_table
        if table is None or self.statistics is None:
            return None
        table_stats = self.statistics.table(table.name)
        if table_stats is None:
            return None
        _, name = relation.schema.fields[position]
        return table_stats.column(name)

    def column_ndv(self, relation: "Relation", position: int) -> int:
        """Estimated number of distinct values in one relation column.

        A filtered relation cannot have more distinct values than rows,
        so the statistics value is capped by the live cardinality; without
        statistics the live cardinality itself is the (upper-bound)
        estimate, which treats every column as key-like.
        """
        live = max(1, len(relation.rows))
        stats = self._column_stats(relation, position)
        if stats is None:
            return live
        return max(1, min(live, stats.n_distinct))

    def join_estimate(
        self,
        left: "Relation",
        right: "Relation",
        left_keys: Sequence[int],
        right_keys: Sequence[int],
    ) -> float:
        """Estimated output cardinality of an equi-join.

        The classic formula: ``|L| * |R| / prod(max(ndv_l, ndv_r))`` over
        the key pairs; a pair-free join is a cross product.
        """
        estimate = float(len(left.rows)) * float(len(right.rows))
        for left_position, right_position in zip(left_keys, right_keys):
            divisor = max(
                self.column_ndv(left, left_position),
                self.column_ndv(right, right_position),
            )
            estimate /= max(1, divisor)
        return estimate

    def predicate_selectivity(self, relation: "Relation", conjunct: Expr) -> float:
        """Estimated fraction of rows surviving one local predicate."""
        if isinstance(conjunct, IsNull):
            fraction = self._null_fraction(relation, conjunct.operand)
            if fraction is None:
                return DEFAULT_SELECTIVITY
            return (1.0 - fraction) if conjunct.negated else fraction
        if isinstance(conjunct, Between):
            return BETWEEN_SELECTIVITY
        if isinstance(conjunct, InList):
            ndv = self._operand_ndv(relation, conjunct.operand)
            if ndv is None:
                return DEFAULT_SELECTIVITY
            fraction = min(1.0, len(conjunct.items) / ndv)
            return (1.0 - fraction) if conjunct.negated else fraction
        if isinstance(conjunct, BinaryOp):
            column, _ = _column_literal_sides(conjunct)
            if conjunct.op == "=":
                if column is not None:
                    ndv = self._operand_ndv(relation, column)
                    if ndv is not None:
                        return 1.0 / ndv
                return EQUALITY_SELECTIVITY
            if conjunct.op in ("<", "<=", ">", ">="):
                return RANGE_SELECTIVITY
            if conjunct.op == "<>":
                ndv = (
                    self._operand_ndv(relation, column)
                    if column is not None
                    else None
                )
                return 1.0 - (1.0 / ndv if ndv else EQUALITY_SELECTIVITY)
        return DEFAULT_SELECTIVITY

    def _operand_ndv(self, relation: "Relation", operand: Expr) -> Optional[int]:
        if not isinstance(operand, ColumnRef):
            return None
        position = relation.schema.try_resolve(operand)
        if position is None:
            return None
        return self.column_ndv(relation, position)

    def _null_fraction(self, relation: "Relation", operand: Expr) -> Optional[float]:
        if not isinstance(operand, ColumnRef):
            return None
        position = relation.schema.try_resolve(operand)
        if position is None:
            return None
        stats = self._column_stats(relation, position)
        return stats.null_fraction if stats is not None else None


def _column_literal_sides(
    conjunct: BinaryOp,
) -> Tuple[Optional[ColumnRef], Optional[LiteralValue]]:
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and isinstance(right, LiteralValue):
        return left, right
    if isinstance(right, ColumnRef) and isinstance(left, LiteralValue):
        return right, left
    return None, None


# ---------------------------------------------------------------------------
# cross-disjunct scan sharing
# ---------------------------------------------------------------------------


def canonical_predicate(conjunct: Expr) -> Optional[str]:
    """Alias-independent canonical text of a single-relation predicate.

    The unfolder gives every UNION disjunct fresh table aliases, so the
    same filtered scan appears as ``t3.kind = 'x'`` in one disjunct and
    ``t17.kind = 'x'`` in another.  Stripping the qualifiers (all refs
    are known to resolve in the one target relation) makes the two render
    identically.  Returns None for expressions containing nodes we do not
    canonicalize (subqueries, stars): those scans are simply not shared.
    """
    stripped = _strip_qualifiers(conjunct)
    if stripped is None:
        return None
    return stripped.to_sql()


def _strip_qualifiers(expr: Expr) -> Optional[Expr]:
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name)
    if isinstance(expr, LiteralValue):
        return expr
    if isinstance(expr, UnaryOp):
        operand = _strip_qualifiers(expr.operand)
        return UnaryOp(expr.op, operand) if operand is not None else None
    if isinstance(expr, BinaryOp):
        left = _strip_qualifiers(expr.left)
        right = _strip_qualifiers(expr.right)
        if left is None or right is None:
            return None
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, IsNull):
        operand = _strip_qualifiers(expr.operand)
        return IsNull(operand, expr.negated) if operand is not None else None
    if isinstance(expr, Between):
        parts = [
            _strip_qualifiers(expr.operand),
            _strip_qualifiers(expr.low),
            _strip_qualifiers(expr.high),
        ]
        if any(part is None for part in parts):
            return None
        return Between(parts[0], parts[1], parts[2], expr.negated)
    if isinstance(expr, InList):
        operand = _strip_qualifiers(expr.operand)
        items = tuple(_strip_qualifiers(item) for item in expr.items)
        if operand is None or any(item is None for item in items):
            return None
        return InList(operand, items, expr.negated)
    if isinstance(expr, FunctionCall):
        args = tuple(_strip_qualifiers(arg) for arg in expr.args)
        if any(arg is None for arg in args):
            return None
        return FunctionCall(expr.name, args, expr.distinct)
    if isinstance(expr, Cast):
        operand = _strip_qualifiers(expr.operand)
        return Cast(operand, expr.target) if operand is not None else None
    if isinstance(expr, CaseWhen):
        branches = []
        for condition, result in expr.branches:
            stripped_condition = _strip_qualifiers(condition)
            stripped_result = _strip_qualifiers(result)
            if stripped_condition is None or stripped_result is None:
                return None
            branches.append((stripped_condition, stripped_result))
        default = None
        if expr.default is not None:
            default = _strip_qualifiers(expr.default)
            if default is None:
                return None
        return CaseWhen(tuple(branches), default)
    # subqueries, stars, anything new: refuse to canonicalize
    return None


def scan_key(
    table_name: str, conjuncts: Sequence[Expr]
) -> Optional[Tuple[str, frozenset]]:
    """The shared-scan cache key for a filtered base-table scan."""
    canonical: List[str] = []
    for conjunct in conjuncts:
        text = canonical_predicate(conjunct)
        if text is None:
            return None
        canonical.append(text)
    return (table_name.lower(), frozenset(canonical))


@dataclass
class SharedScanContext:
    """Per-query-execution cache of scans and hash-join build tables.

    Lives for exactly one ``execute_plan`` call (the multi-disjunct UNION
    of an unfolded UCQ) on the thread that runs it -- the executor keeps
    the active context thread-local, so no two threads ever see the same
    instance and the dicts need no lock.  Data cannot mutate mid-query --
    the Database facade holds the read lock for the whole execution -- so
    sharing the materialized (and filtered) row lists across disjuncts is
    safe: the executor never mutates a row list in place, it only rebinds
    ``Relation.rows``.

    Hash-join build tables are keyed by the *identity* of the shared row
    (or position) list plus the key positions and their coercion: two
    disjuncts hashing the same shared scan on the same columns reuse one
    bucket dict.  The referenced lists are pinned in the cache, so ids
    stay unambiguous for the context's lifetime.
    """

    _scans: Dict[Tuple[str, frozenset], List[tuple]] = field(default_factory=dict)
    _builds: Dict[Tuple[int, Hashable], Tuple[Any, Dict]] = field(
        default_factory=dict
    )
    hits: int = 0
    misses: int = 0
    build_hits: int = 0
    build_misses: int = 0

    def lookup_scan(self, key: Tuple[str, frozenset]) -> Optional[List[tuple]]:
        rows = self._scans.get(key)
        if rows is None:
            self.misses += 1
            return None
        self.hits += 1
        return rows

    def store_scan(self, key: Tuple[str, frozenset], rows: List[tuple]) -> None:
        self._scans.setdefault(key, rows)

    def lookup_build(self, rows: Sequence[Any], key_positions: Hashable) -> Optional[Dict]:
        entry = self._builds.get((id(rows), key_positions))
        if entry is None:
            self.build_misses += 1
            return None
        self.build_hits += 1
        return entry[1]

    def store_build(
        self, rows: Sequence[Any], key_positions: Hashable, buckets: Dict
    ) -> None:
        # keep a reference to *rows* so the id() key cannot be reused
        self._builds.setdefault((id(rows), key_positions), (rows, buckets))
