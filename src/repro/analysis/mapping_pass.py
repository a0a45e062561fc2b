"""Pass 1 -- mapping ⇄ schema cross-validation.

Every R2RML assertion's source SQL is parsed and resolved against the
catalog: scopes are built for named tables, joins and derived tables, and
each projected output is traced to its base table/column so the pass can
report unknown tables/columns, term-map columns missing from the
projection, datatype clashes between SQL column types and mapping
datatype ranges, NULLable template columns lacking an ``IS NOT NULL``
guard, join columns no declared FK covers, and duplicate/subsumed
assertions (via ``obda/containment.py``).  Declared FKs are additionally
row-verified against the data (layer ``schema``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..obda.containment import covering
from ..obda.mapping import (
    IriTermMap,
    LiteralTermMap,
    MappingAssertion,
    MappingCollection,
)
from ..rdf.terms import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
)
from ..sql import ast as sql
from ..sql.catalog import Catalog
from ..sql.errors import SqlError
from ..sql.types import SqlType
from .model import Finding, Severity


@dataclass
class OutputColumn:
    """One projected column of a source SQL, traced to its base column."""

    name: str
    table: Optional[str] = None
    column: Optional[str] = None
    sql_type: Optional[SqlType] = None
    not_null: bool = False
    guarded: bool = False  # an IS NOT NULL conjunct covers it


# binding -> (column -> OutputColumn); a None value marks a binding whose
# table is unknown, so column lookups against it stay silent (no cascades)
Scope = Dict[str, Optional[Dict[str, OutputColumn]]]


class SourceResolver:
    """Resolves one assertion's source SQL against the catalog."""

    def __init__(self, catalog: Catalog, subject: str):
        self.catalog = catalog
        self.subject = subject
        self.findings: List[Finding] = []

    def _finding(self, code: str, severity: Severity, message: str) -> None:
        self.findings.append(
            Finding(code, severity, "mapping", self.subject, message)
        )

    # -- scope construction --------------------------------------------------

    def _table_outputs(self, table_name: str) -> Optional[Dict[str, OutputColumn]]:
        if not self.catalog.has_table(table_name):
            self._finding(
                "MAP_UNKNOWN_TABLE",
                Severity.ERROR,
                f"source references unknown table {table_name!r}",
            )
            return None
        table = self.catalog.table(table_name)
        return {
            column.lname: OutputColumn(
                column.lname,
                table.name,
                column.lname,
                column.sql_type,
                column.not_null or column.lname in table.primary_key,
            )
            for column in table.columns
        }

    def _scope_of(self, source: sql.TableRef) -> Scope:
        if isinstance(source, sql.NamedTable):
            return {source.binding: self._table_outputs(source.name)}
        if isinstance(source, sql.SubquerySource):
            outputs = self.resolve(source.query)
            return {source.binding: outputs}
        if isinstance(source, sql.Join):
            scope: Scope = {}
            scope.update(self._scope_of(source.left))
            scope.update(self._scope_of(source.right))
            if source.condition is not None:
                self._check_join_condition(source.condition, scope)
            return scope
        return {}

    # -- lookups -------------------------------------------------------------

    def _lookup(self, ref: sql.ColumnRef, scope: Scope) -> Optional[OutputColumn]:
        name = ref.name.lower()
        if ref.qualifier is not None:
            binding = ref.qualifier.lower()
            outputs = scope.get(binding)
            if binding not in scope:
                self._finding(
                    "MAP_UNKNOWN_COLUMN",
                    Severity.ERROR,
                    f"column {ref.to_sql()} references unknown alias {binding!r}",
                )
                return None
            if outputs is None:
                return None  # table already reported unknown
            if name not in outputs:
                self._finding(
                    "MAP_UNKNOWN_COLUMN",
                    Severity.ERROR,
                    f"unknown column {ref.to_sql()}",
                )
                return None
            return outputs[name]
        hits = []
        suppressed = False
        for outputs in scope.values():
            if outputs is None:
                suppressed = True
            elif name in outputs:
                hits.append(outputs[name])
        if hits:
            return hits[0]
        if not suppressed:
            self._finding(
                "MAP_UNKNOWN_COLUMN",
                Severity.ERROR,
                f"unknown column {ref.to_sql()}",
            )
        return None

    def _check_expr(self, expr: Optional[sql.Expr], scope: Scope) -> None:
        if expr is None:
            return
        for ref in sql.expr_columns(expr):
            self._lookup(ref, scope)

    def _check_join_condition(self, condition: sql.Expr, scope: Scope) -> None:
        self._check_expr(condition, scope)
        for left, right in _equality_pairs(condition):
            first = self._lookup(left, scope)
            second = self._lookup(right, scope)
            if first is None or second is None:
                continue
            if first.table is None or second.table is None:
                continue
            if not _fk_covers(self.catalog, first, second):
                self.findings.append(
                    Finding(
                        "MAP_JOIN_NO_FK",
                        Severity.WARNING,
                        "mapping",
                        self.subject,
                        f"join {first.table}.{first.column} = "
                        f"{second.table}.{second.column} is not covered by a "
                        "declared foreign key",
                    )
                )

    # -- statement resolution ------------------------------------------------

    def resolve(
        self, statement: sql.SelectStatement
    ) -> Optional[Dict[str, OutputColumn]]:
        """Outputs of *statement* (union-merged), or None when unresolvable."""
        outputs = self._resolve_block(statement.without_union())
        tail = statement.union
        while tail is not None:
            branch = self._resolve_block(tail.query.without_union())
            outputs = _merge_union(outputs, branch)
            tail = tail.query.union
        return outputs

    def _resolve_block(
        self, statement: sql.SelectStatement
    ) -> Optional[Dict[str, OutputColumn]]:
        scope = self._scope_of(statement.source) if statement.source else {}
        self._check_expr(statement.where, scope)
        self._check_expr(statement.having, scope)
        for expr in statement.group_by:
            self._check_expr(expr, scope)
        for item in statement.order_by:
            self._check_expr(item.expr, scope)
        for left, right in _equality_pairs(statement.where):
            if left.qualifier and right.qualifier and left.qualifier != right.qualifier:
                first = self._lookup(left, scope)
                second = self._lookup(right, scope)
                if (
                    first is not None
                    and second is not None
                    and first.table
                    and second.table
                    and not _fk_covers(self.catalog, first, second)
                ):
                    self.findings.append(
                        Finding(
                            "MAP_JOIN_NO_FK",
                            Severity.WARNING,
                            "mapping",
                            self.subject,
                            f"implicit join {first.table}.{first.column} = "
                            f"{second.table}.{second.column} is not covered by "
                            "a declared foreign key",
                        )
                    )
        guarded = _guarded_columns(statement.where)
        outputs: Dict[str, OutputColumn] = {}
        unknown_source = any(v is None for v in scope.values())
        for item in statement.items:
            if isinstance(item.expr, sql.Star):
                if item.expr.qualifier is not None:
                    star_scope: Scope = {
                        item.expr.qualifier.lower(): scope.get(
                            item.expr.qualifier.lower()
                        )
                    }
                else:
                    star_scope = scope
                for outputs_of_binding in star_scope.values():
                    if outputs_of_binding is None:
                        continue
                    for column in outputs_of_binding.values():
                        entry = _copy_output(column)
                        entry.guarded = column.guarded or (
                            (column.column or column.name) in guarded
                        )
                        outputs[entry.name] = entry
                continue
            resolved: Optional[OutputColumn] = None
            if isinstance(item.expr, sql.ColumnRef):
                resolved = self._lookup(item.expr, scope)
            else:
                self._check_expr(item.expr, scope)
            name = item.output_name
            if resolved is not None:
                entry = _copy_output(resolved)
                entry.name = name
                entry.guarded = resolved.guarded or (
                    item.expr.name.lower() in guarded
                    or (resolved.column or "") in guarded
                )
            else:
                entry = OutputColumn(name)
            outputs[name] = entry
        if unknown_source and not outputs:
            return None
        return outputs


def _copy_output(column: OutputColumn) -> OutputColumn:
    return OutputColumn(
        column.name,
        column.table,
        column.column,
        column.sql_type,
        column.not_null,
        column.guarded,
    )


def _merge_union(
    first: Optional[Dict[str, OutputColumn]],
    second: Optional[Dict[str, OutputColumn]],
) -> Optional[Dict[str, OutputColumn]]:
    """Positional UNION merge: keep first branch's names, AND the facts."""
    if first is None or second is None:
        return first or second
    merged: Dict[str, OutputColumn] = {}
    second_list = list(second.values())
    for position, (name, left) in enumerate(first.items()):
        if position < len(second_list):
            right = second_list[position]
            entry = _copy_output(left)
            entry.not_null = left.not_null and right.not_null
            entry.guarded = left.guarded and right.guarded
            if (left.table, left.column) != (right.table, right.column):
                entry.table = None
                entry.column = None
            if left.sql_type != right.sql_type:
                entry.sql_type = left.sql_type or right.sql_type
            merged[name] = entry
        else:
            merged[name] = _copy_output(left)
    return merged


def _guarded_columns(where: Optional[sql.Expr]) -> Set[str]:
    """Column names protected by a top-level ``x IS NOT NULL`` conjunct."""
    guarded: Set[str] = set()
    for conjunct in sql.split_conjuncts(where):
        if (
            isinstance(conjunct, sql.IsNull)
            and conjunct.negated
            and isinstance(conjunct.operand, sql.ColumnRef)
        ):
            guarded.add(conjunct.operand.name.lower())
    return guarded


def _equality_pairs(expr: Optional[sql.Expr]):
    """All ``col = col`` comparisons anywhere in *expr*."""
    if expr is None:
        return
    for node in sql.walk_expr(expr):
        if (
            isinstance(node, sql.BinaryOp)
            and node.op == "="
            and isinstance(node.left, sql.ColumnRef)
            and isinstance(node.right, sql.ColumnRef)
        ):
            yield node.left, node.right


def _fk_covers(
    catalog: Catalog, first: OutputColumn, second: OutputColumn
) -> bool:
    """Does a declared FK cover the join first=second in either direction?"""
    for child, parent in ((first, second), (second, first)):
        if not catalog.has_table(child.table or ""):
            continue
        for fk in catalog.table(child.table or "").foreign_keys:
            if (
                child.column in fk.columns
                and fk.ref_table == parent.table
                and parent.column
                in fk.ref_columns[fk.columns.index(child.column or "") :][:1]
            ):
                return True
    return False


# -- datatype compatibility --------------------------------------------------

_NUMERIC_SQL = {
    SqlType.INTEGER,
    SqlType.BIGINT,
    SqlType.DOUBLE,
    SqlType.DECIMAL,
}
_TEXT_SQL = {SqlType.VARCHAR, SqlType.TEXT}


def _type_compatible(datatype: str, sql_type: SqlType) -> bool:
    if datatype == XSD_STRING:
        return True  # strings absorb anything
    if sql_type in _TEXT_SQL:
        return True  # lexical forms can be re-parsed; not a clash
    if datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_GYEAR):
        return sql_type in _NUMERIC_SQL
    if datatype in (XSD_DATE, XSD_DATETIME):
        return sql_type == SqlType.DATE
    if datatype == XSD_BOOLEAN:
        return sql_type == SqlType.BOOLEAN
    return True  # unknown datatype: give it the benefit of the doubt


# -- the pass ---------------------------------------------------------------


def run_mapping_pass(
    catalog: Catalog, mappings: MappingCollection
) -> List[Finding]:
    findings: List[Finding] = []
    resolutions: Dict[str, Optional[Dict[str, OutputColumn]]] = {}
    for assertion in _all_assertions(mappings):
        resolver = SourceResolver(catalog, assertion.id)
        try:
            statement = assertion.parsed_source()
        except SqlError as exc:
            findings.append(
                Finding(
                    "MAP_PARSE",
                    Severity.ERROR,
                    "mapping",
                    assertion.id,
                    f"source SQL does not parse: {exc}",
                )
            )
            resolutions[assertion.id] = None
            continue
        outputs = resolver.resolve(statement)
        findings.extend(resolver.findings)
        resolutions[assertion.id] = outputs
        if outputs is None:
            continue
        had_errors = any(f.is_error for f in resolver.findings)
        findings.extend(
            _check_term_maps(assertion, outputs, skip_missing=had_errors)
        )
    findings.extend(_check_redundancy(mappings))
    findings.extend(_check_schema(catalog))
    return findings


def _all_assertions(mappings: MappingCollection) -> List[MappingAssertion]:
    return sorted(
        list(mappings.class_assertions()) + list(mappings.property_assertions()),
        key=lambda a: a.id,
    )


def _check_term_maps(
    assertion: MappingAssertion,
    outputs: Dict[str, OutputColumn],
    skip_missing: bool = False,
) -> List[Finding]:
    findings: List[Finding] = []
    template_columns: List[str] = []
    for term_map in (assertion.subject, assertion.object):
        if isinstance(term_map, IriTermMap):
            template_columns.extend(term_map.template.columns)
    for column in assertion.referenced_columns():
        if column not in outputs:
            if not skip_missing:
                findings.append(
                    Finding(
                        "MAP_MISSING_OUTPUT",
                        Severity.ERROR,
                        "mapping",
                        assertion.id,
                        f"term map references column {column!r} that the "
                        "source SQL does not project",
                    )
                )
            continue
        resolved = outputs[column]
        if column in template_columns and not resolved.not_null and not resolved.guarded:
            findings.append(
                Finding(
                    "MAP_NULLABLE_TEMPLATE",
                    Severity.INFO,
                    "mapping",
                    assertion.id,
                    f"template column {column!r} is NULLable and has no "
                    "IS NOT NULL guard; NULL rows are silently dropped",
                )
            )
    obj = assertion.object
    if isinstance(obj, LiteralTermMap) and obj.column in outputs:
        resolved = outputs[obj.column]
        if resolved.sql_type is not None and not _type_compatible(
            obj.datatype, resolved.sql_type
        ):
            findings.append(
                Finding(
                    "MAP_TYPE_CLASH",
                    Severity.ERROR,
                    "mapping",
                    assertion.id,
                    f"literal column {obj.column!r} has SQL type "
                    f"{resolved.sql_type.name} but the mapping declares "
                    f"datatype {obj.datatype}",
                )
            )
    return findings


def _check_redundancy(mappings: MappingCollection) -> List[Finding]:
    """Duplicate / subsumed assertions per entity, by the containment rule
    T-mapping compilation drops them with."""
    findings: List[Finding] = []
    groups: Dict[str, List[MappingAssertion]] = {}
    for assertion in _all_assertions(mappings):
        groups.setdefault(assertion.entity, []).append(assertion)
    for group in groups.values():
        if len(group) < 2:
            continue
        covers = covering(group)
        for i, first in enumerate(group):
            for j in range(i + 1, len(group)):
                second = group[j]
                forward = j in covers[i]
                backward = i in covers[j]
                if forward and backward:
                    findings.append(
                        Finding(
                            "MAP_DUPLICATE",
                            Severity.INFO,
                            "mapping",
                            second.id,
                            f"assertion duplicates {first.id} (sources are "
                            "equivalent); SQO will prune one copy",
                        )
                    )
                elif forward:
                    findings.append(
                        Finding(
                            "MAP_SUBSUMED",
                            Severity.INFO,
                            "mapping",
                            first.id,
                            f"assertion is subsumed by {second.id}",
                        )
                    )
                elif backward:
                    findings.append(
                        Finding(
                            "MAP_SUBSUMED",
                            Severity.INFO,
                            "mapping",
                            second.id,
                            f"assertion is subsumed by {first.id}",
                        )
                    )
    return findings


def _check_schema(catalog: Catalog) -> List[Finding]:
    findings: List[Finding] = []
    for table, fk, status, dangling in catalog.foreign_key_status():
        if status == "missing_table":
            findings.append(
                Finding(
                    "SCH_FK_BROKEN",
                    Severity.ERROR,
                    "schema",
                    table,
                    f"foreign key {fk.key()} references a missing table or "
                    "column",
                )
            )
        elif status == "violated":
            findings.append(
                Finding(
                    "SCH_FK_VIOLATED",
                    Severity.ERROR,
                    "schema",
                    table,
                    f"foreign key {fk.key()} has {dangling} dangling rows",
                )
            )
    return findings
