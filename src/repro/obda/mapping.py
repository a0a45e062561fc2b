"""The mapping layer: R2RML-style assertions from SQL sources to triples.

Following the paper's presentation (Table 5), a mapping assertion relates
one SQL query to one triple template::

    :{id} rdf:type :Employee        <-  SELECT id FROM TEmployee
    :{id} :SellsProduct :{product}  <-  SELECT id, product FROM TSellsProduct

The paper's NPD mapping counts 1190 such assertions covering 464 ontology
entities; :mod:`repro.npd.mappings` generates them, and
:mod:`repro.obda.r2rml` round-trips them through an Ontop-style ``.obda``
textual syntax.

Each distinct source text is parsed and profiled once into a
:class:`MappingSource` (base table, output-to-base-column map, WHERE
conjuncts, modifiers per UNION branch); T-mapping containment, the
unfolder's semantic optimisations, constraint inference and VIG
validation all read that one object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..rdf.terms import (
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from ..sql.ast import (
    ColumnRef,
    Expr,
    Join,
    NamedTable,
    SelectStatement,
    Star,
    SubquerySource,
    TableRef,
    split_conjuncts,
)
from ..sql.errors import SqlError
from ..sql.lexer import TokenType, tokenize
from ..sql.parser import parse_select
from ..sql.types import format_value


class MappingError(ValueError):
    """Raised on malformed mapping assertions."""


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class Template:
    """An IRI (or literal) template with ``{column}`` placeholders."""

    pattern: str
    #: placeholder column names, lower-cased, in pattern order
    columns: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: literal text between placeholders (len == len(columns) + 1)
    fragments: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # parsed once: every render() and every unfolder shape check reads
        # both; excluded from repr/eq/hash, which stay the pattern's
        parts = _PLACEHOLDER_RE.split(self.pattern)
        object.__setattr__(self, "columns", tuple(p.lower() for p in parts[1::2]))
        object.__setattr__(self, "fragments", tuple(parts[::2]))

    def render(self, values: Sequence[object]) -> Optional[str]:
        """Instantiate the template; None when any argument is NULL."""
        if any(value is None for value in values):
            return None
        fragments = self.fragments
        parts: List[str] = []
        for index, fragment in enumerate(fragments):
            parts.append(fragment)
            if index < len(values):
                parts.append(_encode_value(values[index]))
        return "".join(parts)

    def match(self, text: str) -> Optional[Tuple[str, ...]]:
        """Invert the template against a concrete IRI string."""
        regex_parts = []
        for index, fragment in enumerate(self.fragments):
            regex_parts.append(re.escape(fragment))
            if index < len(self.columns):
                regex_parts.append(r"([^/#]*)")
        match = re.fullmatch("".join(regex_parts), text)
        if match is None:
            return None
        return tuple(match.groups())

    def compatible_with(self, other: "Template") -> bool:
        """Can two templates ever produce the same string?

        Conservative structural check used by the unfolder to prune
        joins/unions between assertions with incompatible IRI shapes:
        templates are compatible only when their literal fragments are
        identical (same prefix/suffix skeleton).
        """
        return self.fragments == other.fragments

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pattern


def _encode_value(value: object) -> str:
    text = str(value)
    # conservative percent-encoding of IRI-hostile characters
    return (
        text.replace("%", "%25")
        .replace(" ", "%20")
        .replace("<", "%3C")
        .replace(">", "%3E")
        .replace('"', "%22")
    )


# ---------------------------------------------------------------------------
# Term maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IriTermMap:
    """Constructs an IRI from a template over source columns."""

    template: Template

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.template.columns

    def make_term(self, values: Sequence[object]) -> Optional[IRI]:
        rendered = self.template.render(values)
        if rendered is None:
            return None
        return IRI(rendered)


@dataclass(frozen=True)
class LiteralTermMap:
    """Constructs a typed literal from a single source column."""

    column: str
    datatype: str = XSD_STRING

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column.lower(),)

    def make_term(self, values: Sequence[object]) -> Optional[Literal]:
        (value,) = values
        if value is None:
            return None
        datatype = self.datatype
        if datatype == XSD_STRING:
            # refine under-declared mappings from the runtime value, the
            # same way the OBDA result translator does -- otherwise the
            # materialized instance says "259.48"^^xsd:string where the
            # virtual one says "259.48"^^xsd:double
            if isinstance(value, bool):
                datatype = XSD_BOOLEAN
            elif isinstance(value, int):
                datatype = XSD_INTEGER
            elif isinstance(value, float):
                datatype = XSD_DOUBLE
        if isinstance(value, bool):
            lexical = "true" if value else "false"
        elif (
            isinstance(value, float)
            and value.is_integer()
            and datatype in (XSD_INTEGER, XSD_DECIMAL)
        ):
            # same collapse as the OBDA result translator, so the
            # materialized and virtual instances agree on lexical forms
            lexical = str(int(value))
        else:
            lexical = str(value)
        return Literal(lexical, datatype)


@dataclass(frozen=True)
class ConstantTermMap:
    """A constant RDF term (rarely used, but R2RML allows it)."""

    term: Term

    @property
    def columns(self) -> Tuple[str, ...]:
        return ()

    def make_term(self, values: Sequence[object]) -> Term:
        return self.term


TermMap = Union[IriTermMap, LiteralTermMap, ConstantTermMap]


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@dataclass(frozen=True)
class MappingAssertion:
    """One assertion: ``subject predicate object <- source SQL``.

    * class assertion: predicate == rdf:type, object is a ConstantTermMap
      holding the class IRI;
    * property assertion: predicate is the property IRI, object is an
      IRI/Literal/Constant term map.
    """

    id: str
    source_sql: str
    subject: TermMap
    predicate: str
    object: TermMap

    def __post_init__(self) -> None:
        if isinstance(self.subject, LiteralTermMap):
            raise MappingError(f"{self.id}: literal subject is illegal")

    @property
    def is_class_assertion(self) -> bool:
        return self.predicate == RDF_TYPE_IRI

    @property
    def entity(self) -> str:
        """The ontology entity this assertion populates."""
        if self.is_class_assertion:
            if not isinstance(self.object, ConstantTermMap) or not isinstance(
                self.object.term, IRI
            ):
                raise MappingError(f"{self.id}: class assertion needs constant class")
            return self.object.term.value
        return self.predicate

    @cached_property
    def source(self) -> MappingSource:
        # cached_property writes the instance __dict__ directly, past the
        # frozen __setattr__; the unfolder reads this once per atom choice
        return MappingSource.of(self.source_sql)

    def parsed_source(self) -> SelectStatement:
        source = self.source
        if source.statement is None:
            raise source.error
        return source.statement

    def referenced_columns(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for column in self.subject.columns + self.object.columns:
            seen.setdefault(column)
        return tuple(seen)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.id}: ... <- {self.source_sql[:60]}"


def assertion_body_key(assertion: MappingAssertion) -> Tuple[str, str, str, str]:
    """Identity of an assertion's *body*, independent of its id.

    T-mapping compilation deduplicates on it and re-emits raw assertions
    under fresh ids (and may attribute a shared body to any one of several
    origins), so consumers that must recognise "the entity's own
    assertions" — e.g. exact-mapping enforcement — compare bodies, not ids.
    """
    return (
        assertion.source.key,
        repr(assertion.subject),
        assertion.predicate,
        repr(assertion.object),
    )


class MappingCollection:
    """All assertions of one OBDA specification, indexed by entity."""

    def __init__(self, assertions: Iterable[MappingAssertion] = ()):
        self._assertions: List[MappingAssertion] = []
        self._by_entity: Dict[str, List[MappingAssertion]] = {}
        self._by_id: Dict[str, MappingAssertion] = {}
        for assertion in assertions:
            self.add(assertion)

    def add(self, assertion: MappingAssertion) -> None:
        if assertion.id in self._by_id:
            raise MappingError(f"duplicate mapping id {assertion.id}")
        self._assertions.append(assertion)
        self._by_id[assertion.id] = assertion
        self._by_entity.setdefault(assertion.entity, []).append(assertion)

    def __len__(self) -> int:
        return len(self._assertions)

    def __iter__(self) -> Iterator[MappingAssertion]:
        return iter(self._assertions)

    def by_id(self, assertion_id: str) -> MappingAssertion:
        try:
            return self._by_id[assertion_id]
        except KeyError as exc:
            raise MappingError(f"unknown mapping id {assertion_id!r}") from exc

    def for_entity(self, entity: str | IRI) -> List[MappingAssertion]:
        key = entity.value if isinstance(entity, IRI) else entity
        return list(self._by_entity.get(key, ()))

    def entities(self) -> List[str]:
        return sorted(self._by_entity)

    def class_assertions(self) -> List[MappingAssertion]:
        return [a for a in self._assertions if a.is_class_assertion]

    def property_assertions(self) -> List[MappingAssertion]:
        return [a for a in self._assertions if not a.is_class_assertion]

    def validate(self) -> List[str]:
        """Check that every term-map column is produced by its source.

        Returns a list of problem descriptions (empty when valid).
        ``SELECT *`` sources cannot be checked without a catalog and are
        skipped.
        """
        problems: List[str] = []
        for assertion in self._assertions:
            source = assertion.source
            if source.statement is None:
                problems.append(
                    f"{assertion.id}: unparseable source ({source.error})"
                )
                continue
            if any(block.star for block in source.blocks):
                continue
            outputs = set.intersection(
                *(set(block.columns) | set(block.expressions) for block in source.blocks)
            )
            for column in assertion.referenced_columns():
                if column not in outputs:
                    problems.append(
                        f"{assertion.id}: column {column!r} not in source "
                        f"outputs {sorted(outputs)}"
                    )
        return problems

    def statistics(self) -> Dict[str, float]:
        """Mapping-complexity statistics as reported in Section 5."""
        union_counts: List[int] = []
        join_counts: List[int] = []
        for assertion in self._assertions:
            union_counts.append(len(assertion.source.branches))
            join_counts.append(
                sum(
                    isinstance(ref, Join)
                    for ref in _from_items(assertion.parsed_source())
                )
            )
        total = len(self._assertions)
        return {
            "assertions": total,
            "entities": len(self._by_entity),
            "avg_spj_unions": (sum(union_counts) / total) if total else 0.0,
            "avg_joins_per_spj": (
                sum(join_counts) / max(1, sum(union_counts))
            ),
        }


# ---------------------------------------------------------------------------
# Mapping sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceBranch:
    """What one SELECT block of a mapping source reads and projects.

    Transparent ``SELECT * FROM (X) alias`` wrappers are already removed.
    ``table`` is set only when the block scans one named base table and
    every star in it belongs to that table; joins, subqueries and
    unparseable sources leave it None, and every shape-based optimisation
    treats such a block as opaque.
    """

    table: Optional[str] = None
    #: output column -> base column, for bare column references
    columns: Mapping[str, str] = field(default_factory=dict)
    #: the branch projects ``*`` (or ``binding.*``)
    star: bool = False
    #: output column -> canonical text, for every other select item
    expressions: Mapping[str, str] = field(default_factory=dict)
    #: the WHERE conjuncts, and their canonical texts
    filters: Tuple[Expr, ...] = ()
    conjuncts: FrozenSet[str] = frozenset()
    #: which of WHERE, GROUP BY, HAVING, DISTINCT, LIMIT, OFFSET appear
    modifiers: FrozenSet[str] = frozenset()

    @property
    def plain(self) -> bool:
        """An unfiltered, unmodified scan of one base table."""
        return self.table is not None and not self.modifiers

    def base_column(self, output: str) -> Optional[str]:
        """The base column an output column copies, if any."""
        return self.columns.get(output) or (output if self.star else None)


@dataclass(frozen=True)
class MappingSource:
    """One mapping source SQL text, parsed and profiled once.

    Every assertion over the same text shares one instance (see
    :meth:`of`), so T-mapping containment, the unfolder's semantic
    optimisations, constraint inference and VIG validation all read the
    same answer to "what does this source look like".
    """

    #: the parsed statement; None when the text does not parse
    statement: Optional[SelectStatement]
    error: Optional[SqlError]
    #: identity of the text: identifiers and keywords folded to lower
    #: case, whitespace normalised, string literals exactly as written
    key: str
    #: one profile per top-level UNION branch; a UNION nested inside a
    #: wrapper stays one opaque branch, an unparseable text is one too
    branches: Tuple[SourceBranch, ...]
    #: one profile per SELECT block, nested UNIONs flattened
    blocks: Tuple[SourceBranch, ...]
    #: every base table the source reads, in FROM-clause order
    tables: Tuple[str, ...]

    @classmethod
    def of(cls, sql: str) -> "MappingSource":
        source = _SOURCES.get(sql)
        if source is None:
            source = _SOURCES.setdefault(sql, _build_source(sql))
        return source

    @property
    def single(self) -> Optional[SourceBranch]:
        """The branch of a non-UNION source that scans one base table."""
        if len(self.branches) == 1 and self.branches[0].table is not None:
            return self.branches[0]
        return None

    @property
    def projection(self) -> Optional[SourceBranch]:
        """The branch of a ``SELECT a, b FROM t`` source: one plain scan
        whose every item is a bare column under its own name."""
        branch = self.single
        if (
            branch is None
            or not branch.plain
            or branch.star
            or branch.expressions
            or any(out != base for out, base in branch.columns.items())
        ):
            return None
        return branch


# assertion sources repeat heavily across T-mappings: one profile per text
_SOURCES: Dict[str, MappingSource] = {}


def _build_source(sql: str) -> MappingSource:
    try:
        statement = parse_select(sql)
    except SqlError as exc:
        opaque = (SourceBranch(),)
        return MappingSource(None, exc, sql.strip(), opaque, opaque, ())
    branches: List[SourceBranch] = []
    blocks: List[SourceBranch] = []
    for top in statement.union_branches():
        top = unwrap(top)
        profiles = _flatten(top)
        blocks.extend(profiles)
        branches.append(SourceBranch() if top.union is not None else profiles[0])
    return MappingSource(
        statement,
        None,
        _canonical(sql),
        tuple(branches),
        tuple(blocks),
        tuple(
            ref.name.lower()
            for ref in _from_items(statement)
            if isinstance(ref, NamedTable)
        ),
    )


def _flatten(statement: SelectStatement) -> List[SourceBranch]:
    blocks: List[SourceBranch] = []
    for block in statement.union_branches():
        block = unwrap(block)
        if block.union is None:
            blocks.append(_profile_block(block))
        else:
            blocks.extend(_flatten(block))
    return blocks


def _canonical(text: str) -> str:
    """*text* re-spelled from its tokens: identifiers and keywords in
    lower case, string literals exactly as written."""
    return " ".join(
        format_value(token.value)
        if token.type is TokenType.STRING
        else token.value.lower()
        for token in tokenize(text)[:-1]
    )


def unwrap(statement: SelectStatement) -> SelectStatement:
    """Strip transparent ``SELECT * FROM (X) alias`` wrappers."""
    while (
        statement.union is None
        and statement.where is None
        and not statement.group_by
        and not statement.distinct
        and statement.having is None
        and statement.limit is None
        and statement.offset is None
        and len(statement.items) == 1
        and isinstance(statement.items[0].expr, Star)
        and statement.items[0].expr.qualifier is None
        and isinstance(statement.source, SubquerySource)
    ):
        statement = statement.source.query
    return statement


def _profile_block(block: SelectStatement) -> SourceBranch:
    source = block.source
    table = source.name.lower() if isinstance(source, NamedTable) else None
    columns: Dict[str, str] = {}
    expressions: Dict[str, str] = {}
    star = False
    for item in block.items:
        expr = item.expr
        if isinstance(expr, Star):
            star = True
            if expr.qualifier is not None and (
                table is None or expr.qualifier.lower() != source.binding
            ):
                table = None
        elif isinstance(expr, ColumnRef):
            columns[item.output_name] = expr.name.lower()
        else:
            expressions[item.output_name] = _canonical(expr.to_sql())
    filters = tuple(split_conjuncts(block.where))
    present = (
        ("WHERE", block.where is not None),
        ("GROUP BY", bool(block.group_by)),
        ("HAVING", block.having is not None),
        ("DISTINCT", block.distinct),
        ("LIMIT", block.limit is not None),
        ("OFFSET", block.offset is not None),
    )
    return SourceBranch(
        table,
        columns,
        star,
        expressions,
        filters,
        frozenset(_canonical(conjunct.to_sql()) for conjunct in filters),
        frozenset(name for name, flag in present if flag),
    )


def _from_items(statement: SelectStatement) -> Iterator[TableRef]:
    """Every FROM-clause node of every UNION block, depth first, nested
    subqueries included."""
    for block in statement.union_branches():
        yield from _table_ref_items(block.source)


def _table_ref_items(ref: Optional[TableRef]) -> Iterator[TableRef]:
    if ref is None:
        return
    yield ref
    if isinstance(ref, Join):
        yield from _table_ref_items(ref.left)
        yield from _table_ref_items(ref.right)
    elif isinstance(ref, SubquerySource):
        yield from _from_items(ref.query)
