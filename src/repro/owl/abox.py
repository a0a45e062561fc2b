"""ABox-level reasoning: graph saturation and consistency checking.

``saturate_graph`` computes the inferred closure of an RDF graph under the
*non-existential* part of an OWL 2 QL ontology (class/property hierarchies,
domains and ranges).  This is what a forward-chaining triple store would
materialize; existential axioms introduce anonymous witnesses that cannot
be returned in answers and are instead handled at query-rewriting time by
:mod:`repro.obda.rewriter`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..rdf.graph import Graph, Triple
from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import IRI, Term
from .model import (
    BasicConcept,
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Role,
    SomeValues,
)
from .reasoner import QLReasoner


def _entailed_by_membership(
    reasoner: QLReasoner, concept: BasicConcept, member: Term
) -> Iterable[Triple]:
    """Triples entailed by ``member : concept`` via named superconcepts."""
    for sup in reasoner.superconcepts_of(concept, reflexive=False):
        if isinstance(sup, ClassConcept):
            yield (member, RDF_TYPE, IRI(sup.iri))


def saturate_graph(graph: Graph, reasoner: QLReasoner) -> int:
    """Add all inferred (non-existential) triples in place.

    Returns the number of triples added.  The computation is a fixpoint
    but, because QL hierarchies are already transitively closed by the
    reasoner, a single pass over the asserted triples suffices.
    """
    inferred: List[Triple] = []
    ontology = reasoner.ontology
    for subject, predicate, obj in list(graph):
        if predicate == RDF_TYPE and isinstance(obj, IRI):
            inferred.extend(
                _entailed_by_membership(reasoner, ClassConcept(obj.value), subject)
            )
            continue
        prop_iri = predicate.value
        if prop_iri in ontology.object_properties:
            role = Role(prop_iri)
            for sup_role in reasoner.superroles_of(role, reflexive=False):
                if sup_role.inverse:
                    if isinstance(obj, IRI):
                        inferred.append((obj, IRI(sup_role.iri), subject))
                else:
                    inferred.append((subject, IRI(sup_role.iri), obj))
            inferred.extend(
                _entailed_by_membership(reasoner, SomeValues(role), subject)
            )
            if isinstance(obj, IRI):
                inferred.extend(
                    _entailed_by_membership(reasoner, SomeValues(role.inv()), obj)
                )
        elif prop_iri in ontology.data_properties:
            data_prop = DataPropertyRef(prop_iri)
            for sup_prop in reasoner.super_data_properties_of(
                data_prop, reflexive=False
            ):
                inferred.append((subject, IRI(sup_prop.iri), obj))
            inferred.extend(
                _entailed_by_membership(reasoner, DataSomeValues(data_prop), subject)
            )
    return graph.update(inferred)


def concept_extension(
    graph: Graph, reasoner: QLReasoner, concept: BasicConcept
) -> Set[Term]:
    """Members of a basic concept in the (possibly unsaturated) graph,
    computed by expanding the concept to all its subsumees."""
    members: Set[Term] = set()
    for sub in reasoner.subconcepts_of(concept):
        if isinstance(sub, ClassConcept):
            members.update(graph.subjects(RDF_TYPE, IRI(sub.iri)))
        elif isinstance(sub, SomeValues):
            if sub.role.inverse:
                members.update(graph.objects(None, IRI(sub.role.iri)))
            else:
                members.update(graph.subjects(IRI(sub.role.iri), None))
        elif isinstance(sub, DataSomeValues):
            members.update(graph.subjects(IRI(sub.prop.iri), None))
    return members


def find_inconsistencies(
    graph: Graph, reasoner: QLReasoner, limit: Optional[int] = None
) -> List[Tuple[Term, BasicConcept, BasicConcept]]:
    """Individuals violating a disjointness axiom.

    Returns (individual, concept, concept) witnesses, at most *limit*.
    """
    violations: List[Tuple[Term, BasicConcept, BasicConcept]] = []
    # B disjoint with itself comes as (B, B): any member is a violation
    for first, second in reasoner.disjoint_pairs():
        shared = concept_extension(graph, reasoner, first) & concept_extension(
            graph, reasoner, second
        )
        for member in shared:
            violations.append((member, first, second))
            if limit is not None and len(violations) >= limit:
                return violations
    return violations


def is_consistent(graph: Graph, reasoner: QLReasoner) -> bool:
    """True when no disjointness axiom is violated by the graph."""
    return not find_inconsistencies(graph, reasoner, limit=1)
