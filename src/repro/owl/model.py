"""OWL 2 QL ontology model.

The model covers the OWL 2 QL normal form the NPD benchmark exercises:

* *basic concepts* ``B ::= A | ∃R | ∃R⁻`` (named class or unqualified
  existential over an object property or its inverse);
* *general concepts on the right-hand side* additionally allow the
  qualified existential ``∃R.A`` -- these are the axioms that "infer new
  objects" and give rise to tree witnesses during query rewriting;
* concept inclusions ``B ⊑ C``, concept disjointness ``B ⊓ B' ⊑ ⊥``;
* role inclusions ``R ⊑ S`` (with inverses on either side) and role
  disjointness;
* data property inclusions, and domain/range axioms for both kinds of
  properties (stored desugared into inclusions).

Classes here are pure data; all inference lives in
:mod:`repro.owl.reasoner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple, Union

from ..rdf.terms import IRI


class OwlError(ValueError):
    """Raised on malformed ontology constructs."""


# ---------------------------------------------------------------------------
# Roles (object properties, possibly inverted) and data properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Role:
    """An object property or its inverse."""

    iri: str
    inverse: bool = False

    def inv(self) -> "Role":
        return Role(self.iri, not self.inverse)

    def n3(self) -> str:
        return f"{self.iri}⁻" if self.inverse else self.iri

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()


@dataclass(frozen=True, slots=True)
class DataPropertyRef:
    """A data property reference (no inverses exist for data properties)."""

    iri: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.iri


# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClassConcept:
    """A named class ``A``."""

    iri: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.iri


@dataclass(frozen=True, slots=True)
class SomeValues:
    """Unqualified existential ``∃R`` (R possibly inverse)."""

    role: Role

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"∃{self.role}"


@dataclass(frozen=True, slots=True)
class DataSomeValues:
    """Unqualified existential over a data property ``∃U``."""

    prop: DataPropertyRef

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"∃{self.prop}"


BasicConcept = Union[ClassConcept, SomeValues, DataSomeValues]


@dataclass(frozen=True, slots=True)
class QualifiedSome:
    """Qualified existential ``∃R.A`` -- legal only on axiom RHS in QL."""

    role: Role
    filler: ClassConcept

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"∃{self.role}.{self.filler}"


Concept = Union[ClassConcept, SomeValues, DataSomeValues, QualifiedSome]


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubClassOf:
    sub: BasicConcept
    sup: Concept

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.sub} ⊑ {self.sup}"


@dataclass(frozen=True, slots=True)
class SubObjectPropertyOf:
    sub: Role
    sup: Role


@dataclass(frozen=True, slots=True)
class SubDataPropertyOf:
    sub: DataPropertyRef
    sup: DataPropertyRef


@dataclass(frozen=True, slots=True)
class DisjointClasses:
    first: BasicConcept
    second: BasicConcept


@dataclass(frozen=True, slots=True)
class DisjointObjectProperties:
    first: Role
    second: Role


Axiom = Union[
    SubClassOf,
    SubObjectPropertyOf,
    SubDataPropertyOf,
    DisjointClasses,
    DisjointObjectProperties,
]


# ---------------------------------------------------------------------------
# The ontology
# ---------------------------------------------------------------------------


class Ontology:
    """A mutable OWL 2 QL ontology (declarations + axioms).

    The builder-style ``add_*`` methods return ``self`` so the NPD ontology
    generator can chain them.  Every ``declare_*``/``add_*`` call bumps
    :attr:`revision`, so :meth:`repro.owl.reasoner.QLReasoner.of` can hand
    every consumer one classification per revision.
    """

    def __init__(self, iri: str = "urn:repro:ontology"):
        self.iri = iri
        self.classes: Set[str] = set()
        self.object_properties: Set[str] = set()
        self.data_properties: Set[str] = set()
        self.axioms: List[Axiom] = []
        #: bumped by every declaration and axiom; mutate only through the
        #: ``declare_*``/``add_*`` methods so classifications never go stale
        self.revision = 0
        #: (revision, reasoner) of the latest classification; written and
        #: read only by :meth:`repro.owl.reasoner.QLReasoner.of`
        self.classification: Optional[Tuple[int, object]] = None

    # -- declarations ------------------------------------------------------

    def declare_class(self, iri: str | IRI) -> "Ontology":
        self.revision += 1
        self.classes.add(_iri_str(iri))
        return self

    def declare_object_property(self, iri: str | IRI) -> "Ontology":
        self.revision += 1
        self.object_properties.add(_iri_str(iri))
        return self

    def declare_data_property(self, iri: str | IRI) -> "Ontology":
        self.revision += 1
        self.data_properties.add(_iri_str(iri))
        return self

    # -- axiom sugar ----------------------------------------------------------

    def add_subclass(
        self, sub: Concept | str | IRI, sup: Concept | str | IRI
    ) -> "Ontology":
        self.revision += 1
        sub_concept = _as_concept(sub)
        sup_concept = _as_concept(sup)
        if isinstance(sub_concept, QualifiedSome):
            raise OwlError("OWL 2 QL forbids qualified existentials on the LHS")
        self._register(sub_concept)
        self._register(sup_concept)
        self.axioms.append(SubClassOf(sub_concept, sup_concept))
        return self

    def add_subproperty(self, sub: Role | str | IRI, sup: Role | str | IRI) -> "Ontology":
        self.revision += 1
        sub_role = _as_role(sub)
        sup_role = _as_role(sup)
        self.object_properties.add(sub_role.iri)
        self.object_properties.add(sup_role.iri)
        self.axioms.append(SubObjectPropertyOf(sub_role, sup_role))
        return self

    def add_data_subproperty(self, sub: str | IRI, sup: str | IRI) -> "Ontology":
        self.revision += 1
        sub_prop = DataPropertyRef(_iri_str(sub))
        sup_prop = DataPropertyRef(_iri_str(sup))
        self.data_properties.add(sub_prop.iri)
        self.data_properties.add(sup_prop.iri)
        self.axioms.append(SubDataPropertyOf(sub_prop, sup_prop))
        return self

    def add_domain(self, prop: Role | str | IRI, cls: Concept | str | IRI) -> "Ontology":
        """``domain(R) = C``  desugars to  ``∃R ⊑ C``."""
        self.revision += 1
        role = _as_role(prop)
        self.object_properties.add(role.iri)
        return self.add_subclass(SomeValues(role), cls)

    def add_range(self, prop: Role | str | IRI, cls: Concept | str | IRI) -> "Ontology":
        """``range(R) = C``  desugars to  ``∃R⁻ ⊑ C``."""
        self.revision += 1
        role = _as_role(prop)
        self.object_properties.add(role.iri)
        return self.add_subclass(SomeValues(role.inv()), cls)

    def add_data_domain(self, prop: str | IRI, cls: Concept | str | IRI) -> "Ontology":
        """``domain(U) = C``  desugars to  ``∃U ⊑ C``."""
        self.revision += 1
        data_prop = DataPropertyRef(_iri_str(prop))
        self.data_properties.add(data_prop.iri)
        return self.add_subclass(DataSomeValues(data_prop), cls)

    def add_existential(
        self,
        sub: Concept | str | IRI,
        role: Role | str | IRI,
        filler: str | IRI | None = None,
    ) -> "Ontology":
        """``sub ⊑ ∃role.filler`` (or unqualified when *filler* is None)."""
        self.revision += 1
        role_obj = _as_role(role)
        self.object_properties.add(role_obj.iri)
        if filler is None:
            return self.add_subclass(sub, SomeValues(role_obj))
        filler_concept = ClassConcept(_iri_str(filler))
        self.classes.add(filler_concept.iri)
        return self.add_subclass(sub, QualifiedSome(role_obj, filler_concept))

    def add_disjoint(
        self, first: Concept | str | IRI, second: Concept | str | IRI
    ) -> "Ontology":
        self.revision += 1
        first_concept = _as_concept(first)
        second_concept = _as_concept(second)
        if isinstance(first_concept, QualifiedSome) or isinstance(
            second_concept, QualifiedSome
        ):
            raise OwlError("disjointness only between basic concepts in QL")
        self._register(first_concept)
        self._register(second_concept)
        self.axioms.append(DisjointClasses(first_concept, second_concept))
        return self

    def add_disjoint_properties(
        self, first: Role | str | IRI, second: Role | str | IRI
    ) -> "Ontology":
        self.revision += 1
        first_role = _as_role(first)
        second_role = _as_role(second)
        self.object_properties.add(first_role.iri)
        self.object_properties.add(second_role.iri)
        self.axioms.append(DisjointObjectProperties(first_role, second_role))
        return self

    def _register(self, concept: Concept) -> None:
        if isinstance(concept, ClassConcept):
            self.classes.add(concept.iri)
        elif isinstance(concept, SomeValues):
            self.object_properties.add(concept.role.iri)
        elif isinstance(concept, DataSomeValues):
            self.data_properties.add(concept.prop.iri)
        elif isinstance(concept, QualifiedSome):
            self.object_properties.add(concept.role.iri)
            self.classes.add(concept.filler.iri)

    # -- axiom views -------------------------------------------------------------

    def subclass_axioms(self) -> Iterator[SubClassOf]:
        for axiom in self.axioms:
            if isinstance(axiom, SubClassOf):
                yield axiom

    def subproperty_axioms(self) -> Iterator[SubObjectPropertyOf]:
        for axiom in self.axioms:
            if isinstance(axiom, SubObjectPropertyOf):
                yield axiom

    def data_subproperty_axioms(self) -> Iterator[SubDataPropertyOf]:
        for axiom in self.axioms:
            if isinstance(axiom, SubDataPropertyOf):
                yield axiom

    def disjointness_axioms(self) -> Iterator[DisjointClasses]:
        for axiom in self.axioms:
            if isinstance(axiom, DisjointClasses):
                yield axiom

    def existential_axioms(self) -> Iterator[SubClassOf]:
        """Axioms with a qualified existential on the RHS."""
        for axiom in self.subclass_axioms():
            if isinstance(axiom.sup, QualifiedSome):
                yield axiom

    def inclusion_axiom_count(self) -> int:
        """The #i-axioms statistic of Table 3."""
        return sum(
            1
            for axiom in self.axioms
            if isinstance(axiom, (SubClassOf, SubObjectPropertyOf, SubDataPropertyOf))
        )

    def __len__(self) -> int:
        return len(self.axioms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ontology(classes={len(self.classes)}, "
            f"obj_props={len(self.object_properties)}, "
            f"data_props={len(self.data_properties)}, axioms={len(self.axioms)})"
        )


# ---------------------------------------------------------------------------
# coercions
# ---------------------------------------------------------------------------


def _iri_str(value: str | IRI) -> str:
    return value.value if isinstance(value, IRI) else value


def _as_concept(value: Concept | str | IRI) -> Concept:
    if isinstance(value, (ClassConcept, SomeValues, DataSomeValues, QualifiedSome)):
        return value
    return ClassConcept(_iri_str(value))


def _as_role(value: Role | str | IRI) -> Role:
    if isinstance(value, Role):
        return value
    return Role(_iri_str(value))
