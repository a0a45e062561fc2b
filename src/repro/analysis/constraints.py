"""Optimization-grade OBDA constraints: exact mappings and virtual FDs.

Implements the constraint layer of Hovland, Lanti, Rezk and Xiao's *OBDA
Constraints for Effective Query Answering* on top of PR 3's FactBase:

* :class:`ExactMappingConstraint` -- an ontology entity whose *own* raw
  mapping assertions already produce its full extension: every individual
  (or pair) contributed by a mapped proper sub-entity in the subconcept /
  subrole closure is also produced by the entity's own assertions.  An
  exact class needs no subclass expansion in the rewriter and no
  subclass-origin disjuncts in the unfolder.
* :class:`VfdConstraint` -- a *virtual functional dependency* over a base
  table: rows that agree on the (non-NULL) determinant columns also agree
  on the dependent column, NULLs included.  VFDs license merging the
  redundant self-joins that OBDA unfolding produces when several mapping
  assertions over the same table are joined on a non-key subject.

Both kinds are *inferred* from the mappings against the schema and then
*verified* against the data, like the FactBase facts; users can also
*declare* constraints with a two-line syntax (:func:`parse_declarations`)
and the verifier confirms or rejects each declaration with a Finding:

* ``CON_EXACT_VIOLATED`` -- a declared exact mapping has a counterexample
  individual contributed by a sub-entity only;
* ``CON_VFD_VIOLATED`` -- a declared VFD has two rows agreeing on the
  determinants but not on the dependent;
* ``CON_UNVERIFIABLE`` -- a declaration references an unknown entity,
  table or column, or data verification was disabled.

Only constraints that survive verification end up in the
:class:`ConstraintSet` the engine consumes; rejected *inferred* candidates
are dropped silently (they were never asserted by anyone) but reported in
the :class:`ConstraintReport` for ``--constraints`` JSON output.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..obda.mapping import IriTermMap, LiteralTermMap, Template
from ..owl.model import (
    ClassConcept,
    DataSomeValues,
    Ontology,
    Role,
    SomeValues,
)
from ..owl.reasoner import QLReasoner
from ..rdf.terms import IRI
from ..sql.errors import SqlError
from .facts import ENTITY_KINDS, MappedGenerators, ontology_entities
from .model import Finding, Severity

CON_EXACT_VIOLATED = "CON_EXACT_VIOLATED"
CON_VFD_VIOLATED = "CON_VFD_VIOLATED"
CON_UNVERIFIABLE = "CON_UNVERIFIABLE"


# ---------------------------------------------------------------------------
# Constraint model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactMappingConstraint:
    """Entity whose own mappings cover its whole subentity closure."""

    entity: str
    kind: str  # "class" | "object-property" | "data-property"
    origin: str  # "declared" | "inferred" | "static"

    def label(self) -> str:
        return f"exact:{self.entity}[{self.kind},{self.origin}]"


@dataclass(frozen=True)
class VfdConstraint:
    """Strict virtual functional dependency ``table: determinants -> dep``.

    *Strict* means rows with equal, all-non-NULL determinant values agree
    on the dependent **including NULL-ness** -- exactly the condition under
    which the unfolder may collapse a self-join over the determinants into
    a single scan without changing the produced set of answers.
    """

    table: str
    determinants: Tuple[str, ...]
    dependent: str
    origin: str  # "declared" | "inferred"

    def label(self) -> str:
        dets = ",".join(self.determinants)
        return f"vfd:{self.table}({dets})->{self.dependent}[{self.origin}]"


Constraint = Union[ExactMappingConstraint, VfdConstraint]


class ConstraintSet:
    """Verified constraints, indexed for the unfolder/rewriter lookups."""

    def __init__(
        self,
        exact: Iterable[ExactMappingConstraint] = (),
        vfds: Iterable[VfdConstraint] = (),
        declarations: Iterable["Declaration"] = (),
        generation: Optional[int] = None,
    ) -> None:
        self.exact_constraints = tuple(exact)
        self.vfd_constraints = tuple(vfds)
        self.declarations = tuple(declarations)
        # database plan-generation this set was verified against; the
        # engine compares it on every execute to detect staleness
        self.generation = generation
        self._exact: Dict[str, ExactMappingConstraint] = {
            c.entity: c for c in self.exact_constraints
        }
        self._vfds: Dict[str, List[Tuple[frozenset, str, VfdConstraint]]] = {}
        for vfd in self.vfd_constraints:
            self._vfds.setdefault(vfd.table, []).append(
                (frozenset(vfd.determinants), vfd.dependent, vfd)
            )

    # -- lookups -------------------------------------------------------------

    def exact(self, entity: str) -> Optional[ExactMappingConstraint]:
        return self._exact.get(entity)

    def vfd_covers(
        self, table: str, determinants: Iterable[str], dependent: str
    ) -> Optional[VfdConstraint]:
        """A VFD whose determinants are a subset of *determinants*.

        FD weakening: if ``X -> y`` holds then ``X' -> y`` holds for every
        ``X' ⊇ X`` (rows agreeing on non-NULL X' agree on the subset X).
        """
        available = {c.lower() for c in determinants}
        dep = dependent.lower()
        for dets, dependent_col, vfd in self._vfds.get(table.lower(), ()):
            if dependent_col == dep and dets <= available:
                return vfd
        return None

    # -- bookkeeping ---------------------------------------------------------

    def all_constraints(self) -> Tuple[Constraint, ...]:
        return self.exact_constraints + self.vfd_constraints

    def __len__(self) -> int:
        return len(self.exact_constraints) + len(self.vfd_constraints)

    def fingerprint(self) -> str:
        digest = hashlib.sha1()
        for constraint in sorted(self.all_constraints(), key=repr):
            digest.update(repr(constraint).encode("utf-8"))
        return digest.hexdigest()[:16]

    def counts(self) -> Dict[str, int]:
        return {
            "exact": len(self.exact_constraints),
            "exact_declared": sum(
                1 for c in self.exact_constraints if c.origin == "declared"
            ),
            "vfd": len(self.vfd_constraints),
            "vfd_declared": sum(
                1 for c in self.vfd_constraints if c.origin == "declared"
            ),
        }

    def describe(self) -> str:
        counts = self.counts()
        return (
            f"{counts['exact']} exact mappings, {counts['vfd']} virtual FDs "
            f"(fingerprint {self.fingerprint()})"
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.counts())
        payload["fingerprint"] = self.fingerprint()
        payload["exact_entities"] = sorted(
            c.entity for c in self.exact_constraints
        )
        payload["vfds"] = sorted(c.label() for c in self.vfd_constraints)
        return payload


# ---------------------------------------------------------------------------
# Declaration syntax
# ---------------------------------------------------------------------------


class ConstraintSyntaxError(ValueError):
    """Raised on malformed constraint declaration text."""


@dataclass(frozen=True)
class Declaration:
    """One user-asserted constraint, prior to verification.

    Textual syntax (one declaration per line, ``#`` comments)::

        exact <http://sws.ifi.uio.no/vocab/npd-v2#Quadrant>
        vfd licence: prlnpdidlicence -> prlname
    """

    kind: str  # "exact" | "vfd"
    entity: str = ""
    table: str = ""
    determinants: Tuple[str, ...] = ()
    dependent: str = ""
    line: int = 0

    def label(self) -> str:
        if self.kind == "exact":
            return f"exact:{self.entity}"
        dets = ",".join(self.determinants)
        return f"vfd:{self.table}({dets})->{self.dependent}"


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment -- but IRIs carry fragments, so a ``#``
    inside ``<...>`` is part of the IRI, not a comment."""
    in_iri = False
    for position, char in enumerate(line):
        if char == "<":
            in_iri = True
        elif char == ">":
            in_iri = False
        elif char == "#" and not in_iri:
            return line[:position]
    return line


def parse_declarations(text: str) -> List[Declaration]:
    """Parse constraint declaration text; raises ConstraintSyntaxError."""
    declarations: List[Declaration] = []
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "exact":
            if not rest:
                raise ConstraintSyntaxError(
                    f"line {number}: 'exact' needs an entity IRI"
                )
            entity = rest
            if entity.startswith("<") and entity.endswith(">"):
                entity = entity[1:-1]
            if not entity or " " in entity:
                raise ConstraintSyntaxError(
                    f"line {number}: malformed entity IRI {rest!r}"
                )
            declarations.append(
                Declaration(kind="exact", entity=entity, line=number)
            )
        elif keyword == "vfd":
            table, colon, spec = rest.partition(":")
            table = table.strip().lower()
            dets_text, arrow, dep = spec.partition("->")
            if not colon or not arrow or not table:
                raise ConstraintSyntaxError(
                    f"line {number}: expected 'vfd table: col, ... -> col', "
                    f"got {line!r}"
                )
            determinants = tuple(
                sorted(
                    {c.strip().lower() for c in dets_text.split(",") if c.strip()}
                )
            )
            dependent = dep.strip().lower()
            if not determinants or not dependent or " " in dependent:
                raise ConstraintSyntaxError(
                    f"line {number}: expected 'vfd table: col, ... -> col', "
                    f"got {line!r}"
                )
            declarations.append(
                Declaration(
                    kind="vfd",
                    table=table,
                    determinants=determinants,
                    dependent=dependent,
                    line=number,
                )
            )
        else:
            raise ConstraintSyntaxError(
                f"line {number}: unknown declaration keyword {keyword!r}"
            )
    return declarations


# ---------------------------------------------------------------------------
# Inference: candidate constraints from mappings vs. schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExactCandidate:
    """An exact-mapping candidate plus the proper generators to check."""

    constraint: ExactMappingConstraint
    proper_generators: Tuple[object, ...] = ()


def infer_exact_candidates(
    ontology: Ontology, generators: MappedGenerators
) -> List[_ExactCandidate]:
    """Exact-mapping candidates for every mapped entity.

    Entities whose mapped closure is just themselves are exact *statically*
    (origin ``static``, nothing to verify); entities with mapped proper
    sub-entities become ``inferred`` candidates whose proper generators
    must be data-checked for containment in the entity's own extension.
    """
    candidates: List[_ExactCandidate] = []
    for kind, entity in ontology_entities(ontology):
        if not generators.mapped(kind, entity):
            continue
        proper = generators.proper(kind, entity)
        origin = "static" if not proper else "inferred"
        candidates.append(
            _ExactCandidate(ExactMappingConstraint(entity, kind, origin), proper)
        )
    return candidates


def infer_vfd_candidates(database, mappings) -> List[VfdConstraint]:
    """VFD candidates from subject-template usage in bare-projection sources.

    For every assertion ``SELECT x.., y.. FROM t`` whose subject template
    reads columns X and which references a non-subject column y, the pair
    ``t: X -> y`` is a candidate -- it is exactly the dependency that, when
    it holds, collapses the self-join the unfolder would otherwise emit
    between this assertion and its siblings.  Candidates where X contains
    the primary key are skipped: uniqueness already licenses the merge via
    the FactBase.
    """
    catalog = database.catalog
    seen: Dict[Tuple[str, Tuple[str, ...], str], VfdConstraint] = {}
    for assertion in mappings:
        branch = assertion.source.projection
        if branch is None or not catalog.has_table(branch.table):
            continue
        table_name = branch.table
        table = catalog.table(table_name)
        outputs = branch.columns
        if not all(table.has_column(column) for column in outputs):
            continue
        subject_cols = tuple(c.lower() for c in assertion.subject.columns)
        if not subject_cols or any(c not in outputs for c in subject_cols):
            continue
        if table.primary_key and set(table.primary_key) <= set(subject_cols):
            continue  # unique subject: merging is already fact-licensed
        determinants = tuple(sorted(set(subject_cols)))
        for column in assertion.referenced_columns():
            column = column.lower()
            if column in determinants or column not in outputs:
                continue
            key = (table_name, determinants, column)
            if key not in seen:
                seen[key] = VfdConstraint(
                    table_name, determinants, column, "inferred"
                )
    return sorted(seen.values(), key=lambda c: c.label())


# ---------------------------------------------------------------------------
# Verification against the data
# ---------------------------------------------------------------------------


#: argument types whose equality already implies an equal rendering
_RAW_ARGUMENT_TYPES = frozenset({int, str, type(None)})


class _Extension:
    """One extension as term keys, rendered to terms only on demand."""

    __slots__ = ("keys", "_render", "_terms")

    def __init__(self, keys: Set[object], render: Callable[[object], object]) -> None:
        self.keys = keys
        self._render = render
        self._terms: Optional[Set[object]] = None

    def outside(self, keys: Set[object]) -> Set[object]:
        """The terms of *keys* that are not in this extension.

        A key in :attr:`keys` renders a term of the extension, so only the
        keys that miss are rendered, and compared with the rendered
        extension: a miss may still render a member.
        """
        missing = keys - self.keys
        if not missing:
            return missing
        if self._terms is None:
            self._terms = set(map(self._render, self.keys))
        return set(map(self._render, missing)) - self._terms


class _ExtensionCache:
    """Extensions of mapped entities (raw mappings), as term keys.

    Each distinct mapping source runs once.  A term key stands for the term
    a term map builds, without building it: an IRI template's key is
    ``(fragments, arguments)``, a literal or constant map's key is its
    term.  Arguments stay ints and strings and anything else becomes its
    ``str``, which is all :meth:`Template.render` reads of it, so equal
    keys always render equal terms.  Unequal keys may render one term too
    (``1`` vs ``"1"``, two templates with different fragments, adjacent
    placeholders), which :meth:`_Extension.outside` settles by rendering.
    """

    def __init__(self, database, mappings) -> None:
        self._database = database
        self._mappings = mappings
        #: source key -> (row count, column name -> values)
        self._sources: Dict[str, Tuple[int, Dict[str, Sequence[object]]]] = {}
        self._templates: Dict[Tuple[str, ...], Template] = {}
        self._extensions: Dict[Tuple[str, str], _Extension] = {}

    def subjects(self, entity: str) -> _Extension:
        return self._extension(entity, "subjects")

    def objects(self, entity: str) -> _Extension:
        return self._extension(entity, "objects")

    def pairs(self, entity: str) -> _Extension:
        return self._extension(entity, "pairs")

    def generator_instances(self, generator) -> Set[object]:
        """Keys of the individuals a basic concept contributes to a class."""
        if isinstance(generator, ClassConcept):
            return self.subjects(generator.iri).keys
        if isinstance(generator, SomeValues):
            if generator.role.inverse:
                return self.objects(generator.role.iri).keys
            return self.subjects(generator.role.iri).keys
        if isinstance(generator, DataSomeValues):
            return self.subjects(generator.prop.iri).keys
        return set()

    def role_pairs(self, role: Role) -> Set[object]:
        pairs = self.pairs(role.iri).keys
        if role.inverse:
            return {(obj, subject) for subject, obj in pairs}
        return pairs

    def _extension(self, entity: str, side: str) -> _Extension:
        extension = self._extensions.get((entity, side))
        if extension is not None:
            return extension
        keys: Set[object] = set()
        for assertion in self._mappings.for_entity(entity):
            count, columns = self._columns(assertion)
            # a row yields a triple only when both of its terms are
            # non-NULL; a side that is not kept is read for NULLs only
            subjects = self._keys(assertion.subject, count, columns, side != "objects")
            objects = self._keys(assertion.object, count, columns, side != "subjects")
            rows = zip(subjects, objects)
            if side == "subjects":
                keys.update(s for s, o in rows if s is not None and o is not None)
            elif side == "objects":
                keys.update(o for s, o in rows if s is not None and o is not None)
            else:
                keys.update(p for p in rows if p[0] is not None and p[1] is not None)
        # a render function that holds the templates only, not the cache:
        # the cache must not sit in a reference cycle, or it outlives the
        # load until a full collection (and stays for good once the server
        # freezes the loaded heap)
        render = partial(_render_pair if side == "pairs" else _render, self._templates)
        extension = self._extensions[(entity, side)] = _Extension(keys, render)
        return extension

    def _columns(self, assertion) -> Tuple[int, Dict[str, Sequence[object]]]:
        source = assertion.source
        cached = self._sources.get(source.key)
        if cached is None:
            result = self._database.execute(assertion.parsed_source())
            values = list(zip(*result.rows)) or [()] * len(result.columns)
            cached = (len(result.rows), dict(zip(result.columns, values)))
            self._sources[source.key] = cached
        return cached

    def _keys(self, term_map, count: int, columns, terms: bool) -> Sequence[object]:
        """Per-row term keys of *term_map*, None where the term is NULL.

        With *terms* off, a literal map yields its raw values: enough to
        tell the NULL rows, without building a literal.
        """
        if isinstance(term_map, IriTermMap):
            template = term_map.template
            fragments = template.fragments
            self._templates.setdefault(fragments, template)
            arguments = [_arguments(columns[name]) for name in template.columns]
            if not arguments:
                return [(fragments, ())] * count
            if len(arguments) == 1:
                return [None if v is None else (fragments, (v,)) for v in arguments[0]]
            return [
                None if None in args else (fragments, args) for args in zip(*arguments)
            ]
        if isinstance(term_map, LiteralTermMap):
            values = columns[term_map.columns[0]]
            if not terms:
                return values
            make = term_map.make_term
            return [make((value,)) for value in values]
        return [term_map.make_term(())] * count


def _render(templates: Dict[Tuple[str, ...], Template], key: object) -> object:
    if type(key) is tuple:  # (fragments, arguments) of an IRI template
        fragments, arguments = key
        return IRI(templates[fragments].render(arguments))
    return key  # a literal or constant term


def _render_pair(templates: Dict[Tuple[str, ...], Template], pair: object) -> object:
    subject, obj = pair  # type: ignore[misc]
    return _render(templates, subject), _render(templates, obj)


def _arguments(values: Sequence[object]) -> Sequence[object]:
    """Template arguments whose equality implies an equal rendering."""
    if set(map(type, values)) <= _RAW_ARGUMENT_TYPES:
        return values
    return [v if v is None or type(v) is int else str(v) for v in values]


def verify_exact(
    cache: _ExtensionCache, candidate: _ExactCandidate
) -> Optional[str]:
    """None when the candidate holds, else a human-readable counterexample."""
    constraint = candidate.constraint
    if constraint.origin == "static":
        return None
    if constraint.kind == "class":
        own = cache.subjects(constraint.entity)
        for generator in candidate.proper_generators:
            extra = own.outside(cache.generator_instances(generator))
            if extra:
                sample = sorted(str(term) for term in extra)[0]
                return f"{generator} contributes {sample} not in own extension"
        return None
    own_pairs = cache.pairs(constraint.entity)
    for generator in candidate.proper_generators:
        if isinstance(generator, Role):
            extra_pairs = own_pairs.outside(cache.role_pairs(generator))
        else:  # DataPropertyRef
            extra_pairs = own_pairs.outside(cache.pairs(generator.iri).keys)
        if extra_pairs:
            subject, obj = sorted(
                extra_pairs, key=lambda pair: (str(pair[0]), str(pair[1]))
            )[0]
            return (
                f"{generator} contributes ({subject}, {obj}) "
                f"not in own extension"
            )
    return None


def verify_vfd(database, vfd: VfdConstraint) -> Optional[str]:
    """None when the VFD holds on the data, else a counterexample string."""
    catalog = database.catalog
    if not catalog.has_table(vfd.table):
        raise KeyError(f"unknown table {vfd.table!r}")
    table = catalog.table(vfd.table)
    for column in vfd.determinants + (vfd.dependent,):
        if not table.has_column(column):
            raise KeyError(f"unknown column {vfd.table}.{column}")
    det_positions = [table.column_position(c) for c in vfd.determinants]
    dep_position = table.column_position(vfd.dependent)
    seen: Dict[Tuple[object, ...], object] = {}
    for row in table.iter_rows():
        key = tuple(row[i] for i in det_positions)
        if any(value is None for value in key):
            continue  # strict VFDs quantify over non-NULL determinants
        value = row[dep_position]
        if key in seen:
            if seen[key] != value:
                dets = ",".join(vfd.determinants)
                return (
                    f"rows with {dets}={key!r} disagree on "
                    f"{vfd.dependent}: {seen[key]!r} vs {value!r}"
                )
        else:
            seen[key] = value
    return None


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


@dataclass
class ConstraintReport:
    """Outcome of one constraint inference + verification run."""

    constraints: ConstraintSet
    findings: List[Finding] = field(default_factory=list)
    inferred: List[str] = field(default_factory=list)
    verified: List[str] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "constraints": self.constraints.to_dict(),
            "inferred": sorted(self.inferred),
            "verified": sorted(self.verified),
            "rejected": sorted(self.rejected),
            "findings": [f.to_dict() for f in self.findings],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _declared_exact_candidate(
    declaration: Declaration, ontology: Ontology, generators: MappedGenerators
) -> Optional[_ExactCandidate]:
    """Build the verification obligation for a declared exact constraint."""
    entity = declaration.entity
    kind = next(
        (kind for kind, members in ENTITY_KINDS if entity in getattr(ontology, members)),
        None,
    )
    if kind is None:
        raise KeyError(f"unknown entity {entity!r}")
    if not generators.mapped(kind, entity):
        return None
    return _ExactCandidate(
        ExactMappingConstraint(entity, kind, "declared"),
        generators.proper(kind, entity),
    )


def build_constraints(
    database=None,
    ontology: Optional[Ontology] = None,
    mappings=None,
    declarations: Union[str, Sequence[Declaration]] = (),
    verify_data: bool = True,
) -> ConstraintReport:
    """Infer, merge with declarations, and data-verify OBDA constraints.

    Returns a :class:`ConstraintReport` whose ``constraints`` hold only
    the verified survivors; failed *declarations* additionally produce
    ERROR findings (``CON_EXACT_VIOLATED`` / ``CON_VFD_VIOLATED``), and
    unverifiable ones produce ``CON_UNVERIFIABLE`` warnings.
    """
    started = time.perf_counter()
    if isinstance(declarations, str):
        declarations = parse_declarations(declarations)
    declarations = tuple(declarations)
    findings: List[Finding] = []
    inferred: List[str] = []
    verified: List[str] = []
    rejected: List[str] = []
    exact_out: List[ExactMappingConstraint] = []
    vfd_out: List[VfdConstraint] = []

    have_assets = ontology is not None and mappings is not None
    generators = (
        MappedGenerators(mappings, QLReasoner.of(ontology)) if have_assets else None
    )
    cache = (
        _ExtensionCache(database, mappings)
        if database is not None and mappings is not None
        else None
    )

    # -- exact mappings ------------------------------------------------------
    exact_candidates: List[_ExactCandidate] = []
    declared_exact_entities: Set[str] = set()
    for declaration in declarations:
        if declaration.kind != "exact":
            continue
        declared_exact_entities.add(declaration.entity)
        if not have_assets:
            findings.append(
                Finding(
                    CON_UNVERIFIABLE,
                    Severity.WARNING,
                    "constraints",
                    declaration.label(),
                    "no ontology/mappings loaded to verify against",
                )
            )
            continue
        try:
            candidate = _declared_exact_candidate(declaration, ontology, generators)
        except KeyError:
            findings.append(
                Finding(
                    CON_UNVERIFIABLE,
                    Severity.WARNING,
                    "constraints",
                    declaration.label(),
                    f"entity {declaration.entity} not in the ontology",
                )
            )
            continue
        if candidate is None:
            findings.append(
                Finding(
                    CON_UNVERIFIABLE,
                    Severity.WARNING,
                    "constraints",
                    declaration.label(),
                    f"entity {declaration.entity} has no mapping assertions",
                )
            )
            continue
        exact_candidates.append(candidate)
    if have_assets:
        for candidate in infer_exact_candidates(ontology, generators):
            if candidate.constraint.entity in declared_exact_entities:
                continue  # the declaration's obligation supersedes
            exact_candidates.append(candidate)

    for candidate in exact_candidates:
        constraint = candidate.constraint
        inferred.append(constraint.label())
        if constraint.origin == "static" or not candidate.proper_generators:
            verified.append(constraint.label())
            exact_out.append(constraint)
            continue
        if not verify_data or cache is None:
            if constraint.origin == "declared":
                findings.append(
                    Finding(
                        CON_UNVERIFIABLE,
                        Severity.WARNING,
                        "constraints",
                        constraint.entity,
                        "data verification disabled; exactness not assumed",
                    )
                )
            rejected.append(constraint.label())
            continue
        try:
            counterexample = verify_exact(cache, candidate)
        except (SqlError, KeyError) as exc:
            # broken assets (e.g. a mapping over a dropped column) make
            # the extension unmaterializable; the mapping pass reports
            # the defect itself, here the candidate is just unverifiable
            rejected.append(constraint.label())
            if constraint.origin == "declared":
                findings.append(
                    Finding(
                        CON_UNVERIFIABLE,
                        Severity.WARNING,
                        "constraints",
                        constraint.entity,
                        f"cannot verify: {exc}",
                    )
                )
            continue
        if counterexample is None:
            verified.append(constraint.label())
            exact_out.append(constraint)
        else:
            rejected.append(constraint.label())
            if constraint.origin == "declared":
                findings.append(
                    Finding(
                        CON_EXACT_VIOLATED,
                        Severity.ERROR,
                        "constraints",
                        constraint.entity,
                        f"declared exact mapping violated: {counterexample}",
                    )
                )

    # -- virtual functional dependencies -------------------------------------
    vfd_candidates: List[VfdConstraint] = []
    declared_vfd_keys: Set[Tuple[str, Tuple[str, ...], str]] = set()
    for declaration in declarations:
        if declaration.kind != "vfd":
            continue
        vfd = VfdConstraint(
            declaration.table,
            declaration.determinants,
            declaration.dependent,
            "declared",
        )
        declared_vfd_keys.add((vfd.table, vfd.determinants, vfd.dependent))
        vfd_candidates.append(vfd)
    if database is not None and mappings is not None:
        for vfd in infer_vfd_candidates(database, mappings):
            key = (vfd.table, vfd.determinants, vfd.dependent)
            if key not in declared_vfd_keys:
                vfd_candidates.append(vfd)

    for vfd in vfd_candidates:
        inferred.append(vfd.label())
        if database is None or not verify_data:
            if vfd.origin == "declared":
                findings.append(
                    Finding(
                        CON_UNVERIFIABLE,
                        Severity.WARNING,
                        "constraints",
                        vfd.label(),
                        "data verification disabled; VFD not assumed",
                    )
                )
            rejected.append(vfd.label())
            continue
        try:
            counterexample = verify_vfd(database, vfd)
        except KeyError as exc:
            rejected.append(vfd.label())
            findings.append(
                Finding(
                    CON_UNVERIFIABLE,
                    Severity.WARNING,
                    "constraints",
                    vfd.label(),
                    f"cannot verify: {exc.args[0]}",
                )
            )
            continue
        if counterexample is None:
            verified.append(vfd.label())
            vfd_out.append(vfd)
        else:
            rejected.append(vfd.label())
            if vfd.origin == "declared":
                findings.append(
                    Finding(
                        CON_VFD_VIOLATED,
                        Severity.ERROR,
                        "constraints",
                        vfd.label(),
                        f"declared VFD violated: {counterexample}",
                    )
                )

    generation = (
        database.plan_generation if database is not None else None
    )
    constraints = ConstraintSet(
        exact_out, vfd_out, declarations, generation=generation
    )
    return ConstraintReport(
        constraints=constraints,
        findings=findings,
        inferred=inferred,
        verified=verified,
        rejected=rejected,
        elapsed_seconds=time.perf_counter() - started,
    )
