"""Pass 2 -- ontology-level checks against the mappings.

Reports entities no mapping can ever populate (computed over the whole
subconcept closure, matching :func:`repro.analysis.facts.build_factbase`),
classes made unsatisfiable by the disjointness axioms, and properties
whose implied domain or range concept is unsatisfiable -- any instance
would immediately contradict the TBox.
"""

from __future__ import annotations

from typing import AbstractSet, List, Mapping, Optional, Set, Tuple

from ..owl.model import (
    BasicConcept,
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Ontology,
    Role,
    SomeValues,
)
from ..owl.reasoner import QLReasoner
from .facts import FactBase
from .model import Finding, Severity


def _find_clash(
    superconcepts: Set[BasicConcept],
    adjacency: Mapping[BasicConcept, AbstractSet[BasicConcept]],
) -> Optional[Tuple[BasicConcept, BasicConcept]]:
    # scan superconcepts (small) against the reasoner's disjointness
    # adjacency, never the quadratic pair set; deterministic pick for
    # stable messages
    for concept in sorted(superconcepts, key=str):
        partners = adjacency.get(concept)
        if not partners:
            continue
        hits = superconcepts & partners
        if hits:
            return concept, min(hits, key=str)
    return None


def run_ontology_pass(
    ontology: Ontology,
    factbase: FactBase,
) -> List[Finding]:
    findings: List[Finding] = []
    for fact in factbase.empty_entity_facts:
        findings.append(
            Finding(
                "ONT_EMPTY_ENTITY",
                Severity.INFO,
                "ontology",
                fact.entity,
                f"no mapping (of it or any sub-entity) populates this "
                f"{fact.kind}; every query atom over it is empty",
            )
        )
    reasoner = QLReasoner.of(ontology)
    adjacency = reasoner.disjointness()
    if not adjacency:
        return findings
    for cls in sorted(ontology.classes):
        clash = _find_clash(
            set(reasoner.superconcepts_of(ClassConcept(cls))), adjacency
        )
        if clash is not None:
            findings.append(
                Finding(
                    "ONT_UNSATISFIABLE",
                    Severity.ERROR,
                    "ontology",
                    cls,
                    f"class is unsatisfiable: it is subsumed by both "
                    f"{clash[0]} and {clash[1]}, which are disjoint",
                )
            )
    for prop in sorted(ontology.object_properties):
        for concept, side in (
            (SomeValues(Role(prop)), "domain"),
            (SomeValues(Role(prop, True)), "range"),
        ):
            clash = _find_clash(set(reasoner.superconcepts_of(concept)), adjacency)
            if clash is not None:
                findings.append(
                    Finding(
                        "ONT_RANGE_CLASH",
                        Severity.ERROR,
                        "ontology",
                        prop,
                        f"{side} of the property is unsatisfiable "
                        f"({clash[0]} ⊓ {clash[1]} ⊑ ⊥); any triple would "
                        "contradict the TBox",
                    )
                )
    for prop in sorted(ontology.data_properties):
        clash = _find_clash(
            set(reasoner.superconcepts_of(DataSomeValues(DataPropertyRef(prop)))),
            adjacency,
        )
        if clash is not None:
            findings.append(
                Finding(
                    "ONT_RANGE_CLASH",
                    Severity.ERROR,
                    "ontology",
                    prop,
                    f"domain of the data property is unsatisfiable "
                    f"({clash[0]} ⊓ {clash[1]} ⊑ ⊥)",
                )
            )
    return findings
