"""Seeded asset mutator: inject one realistic defect per mutant class.

Each mutant takes a pristine benchmark (database + ontology + mappings)
and corrupts exactly one thing a real deployment gets wrong -- a column
disappears under the mappings, a foreign key dangles, a literal range is
mistyped, a class loses all its mappings, the TBox contradicts itself.
``obdalint`` must flag every mutant with the expected finding code while
the pristine assets stay clean; the test suite and the CLI's
``--mutant`` flag both drive this module.

The choice of *which* column/row/assertion to corrupt is drawn from a
seeded RNG over the eligible candidates, so mutants are deterministic
per seed but still cover different sites across seeds.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..npd.ontology import build_npd_ontology
from ..obda.mapping import (
    IriTermMap,
    LiteralTermMap,
    MappingCollection,
    Template,
)
from ..owl.model import ClassConcept, DataSomeValues, Ontology, SomeValues, SubClassOf
from ..owl.reasoner import QLReasoner
from ..rdf.terms import XSD_DATE, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from ..sql.catalog import Table
from ..sql.engine import Database
from ..sql.types import SqlType

NPDV = "http://sws.ifi.uio.no/vocab/npd-v2#"

Assets = Tuple[Database, Ontology, MappingCollection]


@dataclass(frozen=True)
class Mutant:
    """One defect class: how to inject it and what obdalint must say."""

    name: str
    description: str
    #: finding codes of which at least one must surface as an ERROR
    expect_codes: Tuple[str, ...]
    apply: Callable[[Database, Ontology, MappingCollection, random.Random], Assets]
    #: constraint declaration lines to analyze the mutant under (the
    #: constraint mutants assert something the verifier must then refute)
    declarations: Tuple[str, ...] = ()


def _mapped_columns_of(table: Table, mappings: MappingCollection) -> List[str]:
    """Columns of *table* referenced by some mapping source, not key-bearing."""
    keyish = set(table.primary_key)
    for fk in table.foreign_keys:
        keyish.update(fk.columns)
    referenced = set()
    for assertion in mappings:
        if table.name.lower() in assertion.source_sql.lower():
            referenced.update(assertion.referenced_columns())
    return sorted(
        column.lname
        for column in table.columns
        if column.lname in referenced and column.lname not in keyish
    )


def _drop_column(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    catalog = database.catalog
    candidates = []
    for name in catalog.table_names():
        table = catalog.table(name)
        for column in _mapped_columns_of(table, mappings):
            candidates.append((name, column))
    if not candidates:  # pragma: no cover - NPD always has candidates
        raise RuntimeError("no droppable mapped column found")
    table_name, doomed = rng.choice(candidates)
    old = catalog.table(table_name)
    position = old.column_position(doomed)
    columns = [c for i, c in enumerate(old.columns) if i != position]
    replacement = Table(
        old.name,
        columns,
        primary_key=old.primary_key,
        foreign_keys=old.foreign_keys,
    )
    for row in old.iter_rows():
        replacement.insert(row[:position] + row[position + 1 :])
    catalog.drop_table(table_name)
    catalog.create_table(replacement)
    return database, ontology, mappings


def _break_fk(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    catalog = database.catalog
    candidates = []
    for name in catalog.table_names():
        table = catalog.table(name)
        for fk in table.foreign_keys:
            if table.row_count > 0:
                candidates.append((name, fk))
    if not candidates:  # pragma: no cover - NPD always has FKs
        raise RuntimeError("no breakable foreign key found")
    table_name, fk = rng.choice(candidates)
    table = catalog.table(table_name)
    victim = list(table.iter_rows())[rng.randrange(table.row_count)]
    row = list(victim)
    for column in fk.columns:
        position = table.column_position(column)
        value = row[position]
        # a dangling key of the right type: numbers get an out-of-range
        # value, strings a marker no parent table ever contains
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            row[position] = type(value)(999999999)
        else:
            row[position] = "DANGLING-REF"
    for column in table.primary_key:
        position = table.column_position(column)
        value = row[position]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            row[position] = type(value)(888888888)
        else:
            row[position] = f"MUTANT-{rng.randrange(10**6)}"
    table.insert(row)
    return database, ontology, mappings


def _retype_range(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    numeric_sql = {SqlType.INTEGER, SqlType.BIGINT, SqlType.DOUBLE, SqlType.DECIMAL}
    numeric_xsd = {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE}
    catalog = database.catalog
    candidates = []
    for assertion in mappings:
        obj = assertion.object
        if not isinstance(obj, LiteralTermMap) or obj.datatype not in numeric_xsd:
            continue
        # only retype when the backing column is provably numeric, so the
        # mutated datatype (xsd:date) is a guaranteed clash
        for name in catalog.table_names():
            table = catalog.table(name)
            if (
                table.has_column(obj.column)
                and table.column(obj.column).sql_type in numeric_sql
                and name in assertion.source_sql.lower()
            ):
                candidates.append(assertion.id)
                break
    if not candidates:  # pragma: no cover - NPD has numeric data properties
        raise RuntimeError("no numeric literal mapping found to retype")
    doomed = rng.choice(sorted(candidates))
    mutated = []
    for assertion in mappings:
        if assertion.id == doomed:
            assertion = dataclasses.replace(
                assertion,
                object=dataclasses.replace(assertion.object, datatype=XSD_DATE),
            )
        mutated.append(assertion)
    return database, ontology, MappingCollection(mutated)


#: classes a required catalogue-query BGP selects from; orphaning any of
#: them makes at least one of the 21 queries provably empty
_ORPHAN_TARGETS = (
    NPDV + "Field",
    NPDV + "Discovery",
    NPDV + "Pipeline",
)


def _orphan_class(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    target = rng.choice(_ORPHAN_TARGETS)
    reasoner = QLReasoner.of(ontology)
    doomed_classes = set()
    doomed_predicates = set()
    for concept in reasoner.subconcepts_of(ClassConcept(target)):
        if isinstance(concept, ClassConcept):
            doomed_classes.add(concept.iri)
        elif isinstance(concept, SomeValues):
            doomed_predicates.add(concept.role.iri)
        elif isinstance(concept, DataSomeValues):
            doomed_predicates.add(concept.prop.iri)
    survivors = [
        assertion
        for assertion in mappings
        if not (
            (assertion.is_class_assertion and assertion.entity in doomed_classes)
            or (
                not assertion.is_class_assertion
                and assertion.entity in doomed_predicates
            )
        )
    ]
    return database, ontology, MappingCollection(survivors)


def _unsat_class(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    # rebuild the ontology so the pristine object is never mutated
    mutated = build_npd_ontology()
    pairs = [
        axiom
        for axiom in mutated.axioms
        if isinstance(axiom, SubClassOf)
        and isinstance(axiom.sub, ClassConcept)
        and isinstance(axiom.sup, ClassConcept)
        and axiom.sub != axiom.sup
    ]
    if not pairs:  # pragma: no cover - the NPD TBox is a deep hierarchy
        raise RuntimeError("no SubClassOf pair found to contradict")
    axiom = rng.choice(sorted(pairs, key=str))
    # sub ⊑ sup and now disj(sub, sup): sub becomes unsatisfiable
    mutated.add_disjoint(axiom.sub, axiom.sup)
    return database, mutated, mappings


def _identity(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    """The defect lives in the declarations, not the assets."""
    return database, ontology, mappings


#: a class whose own mappings are exact on the pristine seed at every
#: scale the mutants run at, with several mapped subclasses
_EXACT_TEMPLATE_TARGET = NPDV + "Discovery"


def _stale_template_subclass(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    """One subclass mapping mints its IRIs under the old npd-v1 namespace.

    The copy's template has other literal fragments than every mapping of
    the declared class, so no individual it adds shares a template
    argument key with the class's own extension; only rendering its IRIs
    shows them outside that extension.
    """
    reasoner = QLReasoner.of(ontology)
    candidates = [
        assertion
        for concept in reasoner.subconcepts_of(
            ClassConcept(_EXACT_TEMPLATE_TARGET), reflexive=False
        )
        if isinstance(concept, ClassConcept)
        for assertion in mappings.for_entity(concept.iri)
        if isinstance(assertion.subject, IriTermMap)
        and database.execute(assertion.parsed_source()).rows
    ]
    if not candidates:  # pragma: no cover - NPD maps four Discovery kinds
        raise RuntimeError(f"no populated subclass mapping of {_EXACT_TEMPLATE_TARGET}")
    original = rng.choice(candidates)
    pattern = original.subject.template.pattern
    stale = IriTermMap(Template(pattern.replace("/npd-v2/", "/npd-v1/", 1)))
    if stale == original.subject:  # pragma: no cover - NPD IRIs are npd-v2
        raise RuntimeError(f"{pattern} has no npd-v2 segment to make stale")
    copy = dataclasses.replace(original, id=f"{original.id}-npd-v1", subject=stale)
    return database, ontology, MappingCollection([*mappings, copy])


def _vfd_dup_row(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    rng: random.Random,
) -> Assets:
    """Break ``field_operator_hst(fldnpdidfield) -> cmpnpdidcompany``.

    That VFD holds on the pristine seed (one operator per field in the
    history sheet).  One extra row -- same field, fresh history date,
    *different* existing company -- refutes it while keeping every key
    and foreign key intact, so only the VFD verifier can notice.
    """
    table = database.catalog.table("field_operator_hst")
    rows = list(table.iter_rows())
    if not rows:  # pragma: no cover - the NPD seed always populates it
        raise RuntimeError("field_operator_hst is empty, nothing to duplicate")
    victim = list(rows[rng.randrange(len(rows))])
    field_pos = table.column_position("fldnpdidfield")
    date_pos = table.column_position("fldoperdatefrom")
    company_pos = table.column_position("cmpnpdidcompany")
    company = database.catalog.table("company")
    company_pk = company.column_position("cmpnpdidcompany")
    others = sorted(
        {row[company_pk] for row in company.iter_rows()} - {victim[company_pos]}
    )
    if not others:  # pragma: no cover - the NPD seed has many companies
        raise RuntimeError("no second company to reassign the field to")
    victim[company_pos] = others[rng.randrange(len(others))]
    taken = {row[date_pos] for row in rows if row[field_pos] == victim[field_pos]}
    day = 1
    while f"1899-01-{day:02d}" in taken:  # pragma: no cover - 1899 is free
        day += 1
    victim[date_pos] = f"1899-01-{day:02d}"
    table.insert(tuple(victim))
    return database, ontology, mappings


MUTANTS: Dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            "drop-column",
            "drop a mapped, non-key column from one table",
            ("MAP_UNKNOWN_COLUMN",),
            _drop_column,
        ),
        Mutant(
            "break-fk",
            "insert a row whose foreign key dangles",
            ("SCH_FK_VIOLATED",),
            _break_fk,
        ),
        Mutant(
            "retype-range",
            "retype a numeric literal mapping to xsd:date",
            ("MAP_TYPE_CLASH",),
            _retype_range,
        ),
        Mutant(
            "orphan-class",
            "delete every mapping that populates a queried class",
            ("QRY_EMPTY",),
            _orphan_class,
        ),
        Mutant(
            "unsat-class",
            "add a disjointness axiom contradicting the class hierarchy",
            ("ONT_UNSATISFIABLE",),
            _unsat_class,
        ),
        Mutant(
            "false-exact",
            "declare ProductionLicence exact although subclasses add tuples",
            ("CON_EXACT_VIOLATED",),
            _identity,
            declarations=(f"exact <{NPDV}ProductionLicence>",),
        ),
        Mutant(
            "false-exact-template",
            "declare Discovery exact although a subclass mapping mints its "
            "IRIs under another template",
            ("CON_EXACT_VIOLATED",),
            _stale_template_subclass,
            declarations=(f"exact <{_EXACT_TEMPLATE_TARGET}>",),
        ),
        Mutant(
            "vfd-dup-row",
            "one duplicate history row breaking a declared VFD",
            ("CON_VFD_VIOLATED",),
            _vfd_dup_row,
            declarations=(
                "vfd field_operator_hst: fldnpdidfield -> cmpnpdidcompany",
            ),
        ),
        Mutant(
            "vfd-scale-trap",
            "declare a VFD that holds at scale 0.1 but breaks at 0.25",
            ("CON_VFD_VIOLATED",),
            _identity,
            declarations=("vfd licence: prlyeargranted -> prlstatus",),
        ),
    )
}


def apply_mutant(
    name: str,
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    seed: int = 0,
) -> Assets:
    """Inject one named defect; returns the (possibly rebuilt) assets."""
    try:
        mutant = MUTANTS[name]
    except KeyError:
        known = ", ".join(sorted(MUTANTS))
        raise KeyError(f"unknown mutant {name!r} (known: {known})") from None
    rng = random.Random(f"{name}:{seed}")
    return mutant.apply(database, ontology, mappings, rng)
