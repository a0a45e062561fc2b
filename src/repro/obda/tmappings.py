"""T-mapping compilation (Rodriguez-Muro & Calvanese, cited as [22]).

A *T-mapping* embeds the ontology's class/property hierarchy into the
mapping set at load time: for every ontology entity, the compiled
collection contains one assertion per mapping of every entity subsumed by
it.  After compilation the query rewriter only has to deal with
existential axioms, which is exactly the architecture of Ontop that the
paper benchmarks (the "starting phase" doing "the embedding of the
inferences into the mappings").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Set, Tuple

from ..owl.model import (
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Role,
    SomeValues,
)
from ..owl.reasoner import QLReasoner
from ..rdf.terms import IRI
from .containment import covering
from .mapping import (
    ConstantTermMap,
    LiteralTermMap,
    MappingAssertion,
    MappingCollection,
    MappingError,
    RDF_TYPE_IRI,
    TermMap,
    assertion_body_key,
)


@dataclass
class TMappingResult:
    """Compiled mappings plus load-phase metrics."""

    mappings: MappingCollection
    elapsed_seconds: float
    derived_assertions: int
    duplicate_assertions_removed: int
    contained_assertions_removed: int = 0


class TMappingCompiler:
    """Compiles a mapping collection against an ontology.

    With ``optimize=True`` (the default, matching Ontop) a containment
    pass removes assertions whose triples another assertion of the same
    entity provably yields too (:mod:`repro.obda.containment`) -- e.g.
    the filtered ``WildcatWellbore`` mapping inside the saturated
    ``Wellbore`` entity, the wrapped status-class unions over the same
    sheets, the ``name_col`` renamings of a sub-property's source, or the
    gratuitously nested redundant twins the NPD mappings contain on
    purpose.
    """

    def __init__(self, reasoner: QLReasoner, optimize: bool = True):
        self.reasoner = reasoner
        self.optimize = optimize

    def compile(self, mappings: MappingCollection) -> TMappingResult:
        started = time.perf_counter()
        compiled = MappingCollection()
        seen: Set[Tuple[str, str, str, str]] = set()
        duplicates = 0

        def emit(
            origin: MappingAssertion, subject: TermMap, predicate: str, obj: TermMap
        ) -> None:
            nonlocal duplicates
            assertion = MappingAssertion(
                f"tm{len(compiled)}_{origin.id}",
                origin.source_sql,
                subject,
                predicate,
                obj,
            )
            key = assertion_body_key(assertion)
            if key in seen:
                duplicates += 1
                return
            seen.add(key)
            compiled.add(assertion)

        ontology = self.reasoner.ontology
        # classes: union over all basic subconcepts
        for cls in sorted(ontology.classes):
            target = ConstantTermMap(IRI(cls))
            for sub in self.reasoner.subconcepts_of(ClassConcept(cls)):
                if isinstance(sub, ClassConcept):
                    for assertion in mappings.for_entity(sub.iri):
                        if assertion.is_class_assertion:
                            emit(assertion, assertion.subject, RDF_TYPE_IRI, target)
                elif isinstance(sub, SomeValues):
                    for assertion in mappings.for_entity(sub.role.iri):
                        if assertion.is_class_assertion:
                            continue
                        subject = (
                            assertion.object if sub.role.inverse else assertion.subject
                        )
                        if isinstance(subject, LiteralTermMap):
                            raise MappingError(
                                f"object property {sub.role.iri} maps to a literal"
                            )
                        emit(assertion, subject, RDF_TYPE_IRI, target)
                elif isinstance(sub, DataSomeValues):
                    for assertion in mappings.for_entity(sub.prop.iri):
                        emit(assertion, assertion.subject, RDF_TYPE_IRI, target)
        # object properties: union over subroles (inverses swap the maps)
        for prop in sorted(ontology.object_properties):
            for sub_role in self.reasoner.subroles_of(Role(prop)):
                for assertion in mappings.for_entity(sub_role.iri):
                    if assertion.is_class_assertion:
                        continue
                    if sub_role.inverse:
                        if isinstance(assertion.object, LiteralTermMap):
                            continue  # cannot invert a literal-valued map
                        emit(assertion, assertion.object, prop, assertion.subject)
                    else:
                        emit(assertion, assertion.subject, prop, assertion.object)
        # data properties
        for prop in sorted(ontology.data_properties):
            for sub_prop in self.reasoner.sub_data_properties_of(DataPropertyRef(prop)):
                for assertion in mappings.for_entity(sub_prop.iri):
                    if assertion.is_class_assertion:
                        continue
                    emit(assertion, assertion.subject, prop, assertion.object)
        # keep assertions for entities outside the ontology untouched
        known = set(ontology.classes) | set(ontology.object_properties) | set(
            ontology.data_properties
        )
        for assertion in mappings:
            if assertion.entity not in known:
                emit(assertion, assertion.subject, assertion.predicate, assertion.object)
        derived = len(compiled)
        contained_removed = 0
        if self.optimize:
            compiled, contained_removed = _containment_pass(compiled)
        elapsed = time.perf_counter() - started
        return TMappingResult(compiled, elapsed, derived, duplicates, contained_removed)


def _containment_pass(
    mappings: MappingCollection,
) -> Tuple[MappingCollection, int]:
    """Drop assertions provably covered by a sibling of the same entity."""
    optimized = MappingCollection()
    removed = 0
    for entity in mappings.entities():
        assertions = mappings.for_entity(entity)
        covers = covering(assertions)
        ranks = [_rank(assertion) for assertion in assertions]
        for position, candidate in enumerate(assertions):
            # break ties between mutually covering (equivalent) assertions
            # on a total order of their bodies, never on emission order:
            # keep the simpler one
            if any(
                position not in covers[other] or ranks[other] < ranks[position]
                for other in covers[position]
            ):
                removed += 1
            else:
                optimized.add(candidate)
    return optimized, removed


def _rank(assertion: MappingAssertion) -> Tuple[int, int, str, str, str]:
    # the term maps are part of the order: two renamed twins over one
    # source text tie on the source alone
    source = assertion.source
    return (
        len(source.branches),
        len(source.key),
        source.key,
        repr(assertion.subject),
        repr(assertion.object),
    )


def compile_tmappings(
    reasoner: QLReasoner, mappings: MappingCollection, optimize: bool = True
) -> TMappingResult:
    """Convenience wrapper."""
    return TMappingCompiler(reasoner, optimize).compile(mappings)
