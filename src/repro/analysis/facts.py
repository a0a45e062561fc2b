"""Verified facts exported by the analyzer to license engine optimizations.

Every optimization the unfolder or rewriter performs must cite a fact
recorded here, in the spirit of Hovland et al.'s *OBDA Constraints for
Effective Query Answering*: the facts play the role of their exact
predicates and FK/uniqueness constraints.  Facts come in four flavours:

* :class:`NotNullFact` -- a column holds no NULL (declared NOT NULL, or
  verified against the data), so ``IS NOT NULL`` guards on it are no-ops;
* :class:`UniqueFact` -- a column set is a key for the current data
  (declared PK, or verified distinct + null-free), licensing self-join
  merging;
* :class:`ForeignKeyFact` -- a declared FK whose every non-NULL key was
  verified to resolve, licensing FK join elimination;
* :class:`EmptyEntityFact` -- a class/property no mapping can ever
  populate (checked over the whole subconcept closure, so it stays sound
  under T-mapping expansion), licensing empty-disjunct skipping;
* :class:`ExactMappingFact` -- an entity whose raw mappings already
  capture its full extension (no proper sub-entity contributes),
  informational for mapping authors.

A :class:`FactBase` indexes the facts for the O(1) lookups the unfolder
needs and carries a content fingerprint that the engine folds into its
cache keys (different facts => different compiled SQL).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..owl.model import (
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Ontology,
    Role,
    SomeValues,
)
from ..owl.reasoner import QLReasoner


@dataclass(frozen=True)
class NotNullFact:
    table: str
    column: str
    origin: str  # "declared" | "data"

    def label(self) -> str:
        return f"not_null:{self.table}.{self.column}[{self.origin}]"


@dataclass(frozen=True)
class UniqueFact:
    table: str
    columns: Tuple[str, ...]
    origin: str  # "pk" | "data"

    def label(self) -> str:
        return f"unique:{self.table}({','.join(self.columns)})[{self.origin}]"


@dataclass(frozen=True)
class ForeignKeyFact:
    table: str
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]
    verified: bool

    def label(self) -> str:
        state = "verified" if self.verified else "declared"
        return (
            f"fk:{self.table}({','.join(self.columns)})->"
            f"{self.ref_table}({','.join(self.ref_columns)})[{state}]"
        )


@dataclass(frozen=True)
class EmptyEntityFact:
    entity: str
    kind: str  # "class" | "object-property" | "data-property"

    def label(self) -> str:
        return f"empty:{self.entity}[{self.kind}]"


@dataclass(frozen=True)
class ExactMappingFact:
    entity: str
    kind: str

    def label(self) -> str:
        return f"exact:{self.entity}[{self.kind}]"


class FactBase:
    """Indexed collection of verified facts with a content fingerprint."""

    def __init__(
        self,
        not_null: Iterable[NotNullFact] = (),
        unique: Iterable[UniqueFact] = (),
        foreign_keys: Iterable[ForeignKeyFact] = (),
        empty_entities: Iterable[EmptyEntityFact] = (),
        exact_mappings: Iterable[ExactMappingFact] = (),
    ) -> None:
        self.not_null_facts = tuple(not_null)
        self.unique_facts = tuple(unique)
        self.foreign_key_facts = tuple(foreign_keys)
        self.empty_entity_facts = tuple(empty_entities)
        self.exact_mapping_facts = tuple(exact_mappings)
        #: data generation (``Database.plan_generation``) the facts were
        #: verified at; the engine demotes the fact base when DML outruns
        #: it.  None means "unknown" (e.g. hand-built fact bases)
        self.generation: Optional[int] = None
        self._not_null: Dict[Tuple[str, str], NotNullFact] = {
            (f.table, f.column): f for f in self.not_null_facts
        }
        self._unique: Dict[str, List[UniqueFact]] = {}
        for fact in self.unique_facts:
            self._unique.setdefault(fact.table, []).append(fact)
        self._fks: Dict[Tuple[str, Tuple[str, ...], str, Tuple[str, ...]], ForeignKeyFact]
        self._fks = {
            (f.table, f.columns, f.ref_table, f.ref_columns): f
            for f in self.foreign_key_facts
        }
        self._empty: Dict[str, EmptyEntityFact] = {
            f.entity: f for f in self.empty_entity_facts
        }

    # -- lookups used by the unfolder/rewriter -------------------------------

    def not_null(self, table: str, column: str) -> Optional[NotNullFact]:
        return self._not_null.get((table.lower(), column.lower()))

    def unique_key_within(
        self, table: str, columns: Iterable[str]
    ) -> Optional[UniqueFact]:
        """A unique fact whose key columns all appear in *columns*."""
        available = {c.lower() for c in columns}
        for fact in self._unique.get(table.lower(), ()):
            if set(fact.columns) <= available:
                return fact
        return None

    def covering_fk(
        self,
        table: str,
        columns: Sequence[str],
        ref_table: str,
        ref_columns: Sequence[str],
    ) -> Optional[ForeignKeyFact]:
        """The verified FK matching the positional column tuples exactly."""
        fact = self._fks.get(
            (
                table.lower(),
                tuple(c.lower() for c in columns),
                ref_table.lower(),
                tuple(c.lower() for c in ref_columns),
            )
        )
        if fact is not None and fact.verified:
            return fact
        return None

    def empty_entity(self, entity: str) -> Optional[EmptyEntityFact]:
        return self._empty.get(entity)

    # -- bookkeeping ---------------------------------------------------------

    def all_facts(self) -> Tuple[object, ...]:
        return (
            self.not_null_facts
            + self.unique_facts
            + self.foreign_key_facts
            + self.empty_entity_facts
            + self.exact_mapping_facts
        )

    def __len__(self) -> int:
        return len(self.all_facts())

    def fingerprint(self) -> str:
        digest = hashlib.sha1()
        for fact in sorted(self.all_facts(), key=repr):
            digest.update(repr(fact).encode("utf-8"))
        return digest.hexdigest()[:16]

    def counts(self) -> Dict[str, int]:
        return {
            "not_null": len(self.not_null_facts),
            "unique": len(self.unique_facts),
            "foreign_key": len(self.foreign_key_facts),
            "fk_verified": sum(1 for f in self.foreign_key_facts if f.verified),
            "empty_entity": len(self.empty_entity_facts),
            "exact_mapping": len(self.exact_mapping_facts),
        }

    def describe(self) -> str:
        counts = self.counts()
        return (
            f"{counts['not_null']} not-null, {counts['unique']} unique, "
            f"{counts['fk_verified']}/{counts['foreign_key']} FKs verified, "
            f"{counts['empty_entity']} empty entities, "
            f"{counts['exact_mapping']} exact mappings "
            f"(fingerprint {self.fingerprint()})"
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.counts())
        payload["fingerprint"] = self.fingerprint()
        payload["empty_entities"] = sorted(
            f.entity for f in self.empty_entity_facts
        )
        return payload


#: the ontology's entity kinds, each with the ``Ontology`` attribute that
#: lists its members
ENTITY_KINDS = (
    ("class", "classes"),
    ("object-property", "object_properties"),
    ("data-property", "data_properties"),
)


def ontology_entities(ontology: Ontology) -> Iterator[Tuple[str, str]]:
    """(kind, IRI) of every ontology entity, kind by kind, IRIs sorted."""
    for kind, members in ENTITY_KINDS:
        for entity in sorted(getattr(ontology, members)):
            yield kind, entity


class MappedGenerators:
    """Which entities the mappings populate, and per ontology entity the
    mapped generators the reasoner puts strictly below it."""

    def __init__(self, mappings, reasoner: QLReasoner) -> None:
        self.classes: Set[str] = {a.entity for a in mappings.class_assertions()}
        self.predicates: Set[str] = {a.entity for a in mappings.property_assertions()}
        self.reasoner = reasoner

    def mapped(self, kind: str, entity: str) -> bool:
        """Does some assertion populate *entity* itself?"""
        return entity in (self.classes if kind == "class" else self.predicates)

    def proper(self, kind: str, entity: str) -> Tuple[object, ...]:
        """The generators strictly below *entity* that can produce data."""
        if kind == "class":
            below = self.reasoner.subconcepts_of(ClassConcept(entity), reflexive=False)
        elif kind == "object-property":
            below = self.reasoner.subroles_of(Role(entity), reflexive=False)
        else:
            below = self.reasoner.sub_data_properties_of(
                DataPropertyRef(entity), reflexive=False
            )
        return tuple(g for g in below if self._generates(g))

    def _generates(self, generator) -> bool:
        if isinstance(generator, ClassConcept):
            return generator.iri in self.classes
        if isinstance(generator, SomeValues):
            # an R triple populates both ∃R and ∃R⁻, so direction is irrelevant
            return generator.role.iri in self.predicates
        if isinstance(generator, DataSomeValues):
            return generator.prop.iri in self.predicates
        if isinstance(generator, (Role, DataPropertyRef)):
            return generator.iri in self.predicates
        return True  # unknown concept forms: assume populated (stay sound)


def _empty_entity_facts(
    ontology: Ontology, mappings, reasoner: QLReasoner
) -> Tuple[List[EmptyEntityFact], List[ExactMappingFact]]:
    """An entity no mapped generator populates is empty; a mapped one
    with no mapped generator strictly below it is exact."""
    generators = MappedGenerators(mappings, reasoner)
    empties: List[EmptyEntityFact] = []
    exacts: List[ExactMappingFact] = []
    for kind, entity in ontology_entities(ontology):
        if generators.proper(kind, entity):
            continue
        if generators.mapped(kind, entity):
            exacts.append(ExactMappingFact(entity, kind))
        else:
            empties.append(EmptyEntityFact(entity, kind))
    return empties, exacts


def build_factbase(
    database=None,
    ontology: Optional[Ontology] = None,
    mappings=None,
    verify_data: bool = True,
) -> FactBase:
    """Derive the fact base from the catalog (and optionally the assets).

    Schema-level facts (declared NOT NULL, PKs, FKs) always come out;
    *verify_data* additionally scans the rows for data-level not-null /
    uniqueness facts and row-verifies every declared FK.  Ontology-level
    facts (empty entities) need *ontology* + *mappings*.
    """
    not_null: List[NotNullFact] = []
    unique: List[UniqueFact] = []
    fks: List[ForeignKeyFact] = []
    if database is not None:
        catalog = database.catalog
        for table in catalog.tables():
            declared = set()
            for column in table.columns:
                if column.not_null or column.lname in table.primary_key:
                    declared.add(column.lname)
                    not_null.append(
                        NotNullFact(table.name, column.lname, "declared")
                    )
            if verify_data:
                for column in table.null_free_columns():
                    if column not in declared:
                        not_null.append(NotNullFact(table.name, column, "data"))
            if table.primary_key:
                unique.append(UniqueFact(table.name, table.primary_key, "pk"))
            if verify_data:
                pk_single = (
                    table.primary_key[0] if len(table.primary_key) == 1 else None
                )
                for column in table.data_unique_columns():
                    if column != pk_single:
                        unique.append(UniqueFact(table.name, (column,), "data"))
        if verify_data:
            for name, fk, status, _count in catalog.foreign_key_status():
                fks.append(
                    ForeignKeyFact(
                        name,
                        fk.columns,
                        fk.ref_table,
                        fk.ref_columns,
                        verified=status == "ok",
                    )
                )
        else:
            for name, fk in catalog.foreign_key_edges():
                fks.append(
                    ForeignKeyFact(
                        name, fk.columns, fk.ref_table, fk.ref_columns, False
                    )
                )
    empties: List[EmptyEntityFact] = []
    exacts: List[ExactMappingFact] = []
    if ontology is not None and mappings is not None:
        empties, exacts = _empty_entity_facts(
            ontology, mappings, QLReasoner.of(ontology)
        )
    factbase = FactBase(not_null, unique, fks, empties, exacts)
    if database is not None:
        factbase.generation = database.plan_generation
    return factbase
