"""VIG validation (Section 5.2, Table 8).

Compares the growth of every ontology element's virtual extension against
its *expected* growth:

* elements built from intrinsically constant columns should not grow;
* everything else should grow linearly with the growth factor.

For each element we report the deviation of the actual growth from the
expected growth (as a fraction of the expected growth) and whether it
exceeds the paper's 50 % error threshold, aggregated separately for
classes, object properties and data properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obda.mapping import (
    LiteralTermMap,
    MappingAssertion,
    MappingCollection,
    SourceBranch,
)
from ..obda.materializer import virtual_extension_sizes
from ..sql.engine import Database
from .analysis import DatabaseProfile, analyze


@dataclass
class ElementGrowth:
    entity: str
    kind: str  # 'class' | 'object' | 'data'
    seed_size: int
    grown_size: int
    expected_growth: float
    actual_growth: float

    @property
    def deviation(self) -> float:
        """|actual - expected| / expected."""
        if self.expected_growth == 0:
            return 0.0
        return abs(self.actual_growth - self.expected_growth) / self.expected_growth


@dataclass
class ValidationSummary:
    """One row group of Table 8."""

    kind: str
    elements: int
    avg_deviation: float
    err50_absolute: int

    @property
    def err50_relative(self) -> float:
        if self.elements == 0:
            return 0.0
        return self.err50_absolute / self.elements


def _columns_constant(
    profile: DatabaseProfile,
    assertion: MappingAssertion,
    columns: Tuple[str, ...],
    threshold: float,
) -> Optional[bool]:
    """Are all the given term-map columns intrinsically constant?

    Returns None when the columns cannot be located in any source table
    (e.g. they are aliases of computed expressions).
    """
    tables = assertion.source.tables
    verdicts: List[bool] = []
    for column in columns:
        found = False
        for table in tables:
            table_profile = profile.tables.get(table)
            if table_profile and column in table_profile.columns:
                verdicts.append(
                    table_profile.columns[column].is_constant(threshold)
                )
                found = True
                break
        if not found:
            return None
    if not verdicts:
        return None
    return all(verdicts)


def expected_growth_classification(
    profile: DatabaseProfile,
    mappings: MappingCollection,
    constant_threshold: float = 0.95,
) -> Dict[str, bool]:
    """entity -> is the element expected to stay constant?

    An element is constant when *every* assertion populating it builds its
    terms only from intrinsically constant columns.
    """
    verdict: Dict[str, bool] = {}
    for entity in mappings.entities():
        assertion_verdicts: List[bool] = []
        for assertion in mappings.for_entity(entity):
            columns = assertion.referenced_columns()
            if not columns:
                assertion_verdicts.append(True)  # constants only
                continue
            constant = _columns_constant(
                profile, assertion, columns, constant_threshold
            )
            assertion_verdicts.append(bool(constant))
        verdict[entity] = all(assertion_verdicts) if assertion_verdicts else False
    return verdict


def _equality_columns(block: SourceBranch) -> List[str]:
    """Columns compared to a constant in a SELECT block's WHERE clause."""
    from ..sql.ast import BinaryOp, ColumnRef, LiteralValue

    columns: List[str] = []
    for conjunct in block.filters:
        if isinstance(conjunct, BinaryOp) and conjunct.op in ("=", "LIKE"):
            left, right = conjunct.left, conjunct.right
            if isinstance(right, ColumnRef) and isinstance(left, LiteralValue):
                left, right = right, left
            if isinstance(left, ColumnRef) and isinstance(right, LiteralValue):
                columns.append(left.name.lower())
    return columns


def _column_duplicate_ratio(
    profile: DatabaseProfile, tables: Sequence[str], column: str
) -> Optional[float]:
    for table in tables:
        table_profile = profile.tables.get(table)
        if table_profile and column in table_profile.columns:
            return table_profile.columns[column].duplicate_ratio
    return None


def expected_growth_model(
    profile: DatabaseProfile,
    mappings: MappingCollection,
    growth_factor: float,
    constant_threshold: float = 0.95,
) -> Dict[str, float]:
    """entity -> expected growth of its virtual extension under VIG.

    The model mirrors VIG's generation strategy:

    * extensions built from intrinsically constant columns stay at 1×;
    * a selection ``σ_{C=v}(T)`` grows by ``1 + (g-1)·dup(C)``: new rows
      receive a duplicate of an existing ``C`` value with probability
      ``dup(C)`` (drawn uniformly over the distinct values), so nearly
      unique columns almost never reproduce ``v``;
    * multiple equality filters multiply their duplicate ratios;
    * unfiltered assertions over growing tables grow linearly.
    """
    expectations: Dict[str, float] = {}
    for entity in mappings.entities():
        best = 0.0
        for assertion in mappings.for_entity(entity):
            columns = assertion.referenced_columns()
            tables = assertion.source.tables
            constant = (
                _columns_constant(profile, assertion, columns, constant_threshold)
                if columns
                else True
            )
            if constant:
                best = max(best, 1.0)
                continue
            for block in assertion.source.blocks:
                selectivity = 1.0
                for column in _equality_columns(block):
                    ratio = _column_duplicate_ratio(profile, tables, column)
                    if ratio is not None:
                        selectivity *= ratio
                best = max(best, 1.0 + (growth_factor - 1.0) * selectivity)
        expectations[entity] = best if best > 0 else 1.0
    return expectations


def _entity_kind(mappings: MappingCollection, entity: str) -> str:
    assertion = mappings.for_entity(entity)[0]
    if assertion.is_class_assertion:
        return "class"
    if isinstance(assertion.object, LiteralTermMap):
        return "data"
    return "object"


def measure_growth(
    seed_database: Database,
    grown_database: Database,
    mappings: MappingCollection,
    growth_factor: float,
    profile: Optional[DatabaseProfile] = None,
    constant_threshold: float = 0.95,
) -> List[ElementGrowth]:
    """Per-element growth records comparing seed and grown databases."""
    profile = profile or analyze(seed_database)
    expectations = expected_growth_model(
        profile, mappings, growth_factor, constant_threshold
    )
    seed_sizes = virtual_extension_sizes(seed_database, mappings)
    grown_sizes = virtual_extension_sizes(grown_database, mappings)
    records: List[ElementGrowth] = []
    for entity in mappings.entities():
        seed_size = seed_sizes.get(entity, 0)
        if seed_size == 0:
            continue  # growth undefined for empty seeds
        grown_size = grown_sizes.get(entity, 0)
        expected = expectations.get(entity, float(growth_factor))
        records.append(
            ElementGrowth(
                entity=entity,
                kind=_entity_kind(mappings, entity),
                seed_size=seed_size,
                grown_size=grown_size,
                expected_growth=expected,
                actual_growth=grown_size / seed_size,
            )
        )
    return records


def summarize(records: List[ElementGrowth]) -> Dict[str, ValidationSummary]:
    """Aggregate per-kind (the class/obj/data row groups of Table 8)."""
    summaries: Dict[str, ValidationSummary] = {}
    for kind in ("class", "object", "data"):
        group = [record for record in records if record.kind == kind]
        if not group:
            summaries[kind] = ValidationSummary(kind, 0, 0.0, 0)
            continue
        avg_dev = sum(record.deviation for record in group) / len(group)
        err50 = sum(1 for record in group if record.deviation > 0.5)
        summaries[kind] = ValidationSummary(kind, len(group), avg_dev, err50)
    return summaries
