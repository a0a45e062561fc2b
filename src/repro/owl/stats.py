"""Ontology statistics, as reported in Tables 3 and 5 of the paper."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Ontology
from .reasoner import QLReasoner


@dataclass(frozen=True)
class OntologyStats:
    """Headline counts for a benchmark ontology."""

    classes: int
    object_properties: int
    data_properties: int
    inclusion_axioms: int
    axioms_total: int
    existential_axioms: int
    disjointness_axioms: int
    max_hierarchy_depth: int

    @property
    def obj_data_properties(self) -> int:
        """The combined #obj/data_prop column of Table 3."""
        return self.object_properties + self.data_properties

    def as_row(self) -> dict:
        return {
            "#classes": self.classes,
            "#obj/data_prop": self.obj_data_properties,
            "#i-axioms": self.inclusion_axioms,
            "#existential": self.existential_axioms,
            "#disjoint": self.disjointness_axioms,
            "depth": self.max_hierarchy_depth,
        }


def compute_stats(ontology: Ontology) -> OntologyStats:
    """Compute the statistics row for one ontology."""
    reasoner = QLReasoner.of(ontology)
    return OntologyStats(
        classes=len(ontology.classes),
        object_properties=len(ontology.object_properties),
        data_properties=len(ontology.data_properties),
        inclusion_axioms=ontology.inclusion_axiom_count(),
        axioms_total=len(ontology.axioms),
        existential_axioms=sum(1 for _ in ontology.existential_axioms()),
        disjointness_axioms=sum(1 for _ in ontology.disjointness_axioms()),
        max_hierarchy_depth=reasoner.class_hierarchy_depth(),
    )
