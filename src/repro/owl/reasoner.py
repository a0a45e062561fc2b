"""OWL 2 QL reasoning: hierarchy saturation and classification.

The reasoner precomputes, from an :class:`~repro.owl.model.Ontology`:

* the reflexive-transitive role hierarchy (closed under inverses),
* the reflexive-transitive basic-concept hierarchy, where the edges are
  the stated inclusions plus the edges induced by the role hierarchy
  (``R ⊑ S`` gives ``∃R ⊑ ∃S`` and ``∃R⁻ ⊑ ∃S⁻``) and by qualified
  existentials (``∃R.A ⊑ ∃R``),
* the qualified-existential axioms indexed by their LHS closure (these
  drive tree-witness detection in the rewriter),
* the disjointness relation, saturated downwards (if ``B ⊓ B' ⊑ ⊥`` then
  all subconcepts of ``B`` are disjoint from all subconcepts of ``B'``),
  held as one adjacency map from each concept to its disjoint partners.

All query-rewriting and T-mapping machinery in :mod:`repro.obda` is built
on the ``subconcepts_of`` / ``subroles_of`` closures computed here.
Consumers get their reasoner from :meth:`QLReasoner.of`, which classifies
an ontology once per revision and hands every later caller the same
object.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Dict, Iterator, List, Mapping, Set, Tuple

from .model import (
    BasicConcept,
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Ontology,
    QualifiedSome,
    Role,
    SomeValues,
)


def _transitive_closure_down(
    edges: Dict[object, Set[object]]
) -> Dict[object, Dict[object, None]]:
    """For an 'is-subsumed-by' edge map sup->subs, compute all descendants.

    Nodes and their descendants come out as dicts sorted by ``repr``, so
    every consumer iterates them in the same order whatever the hash seed
    (T-mapping ids, and from them the unfolded SQL, follow this order).
    """
    closure: Dict[object, Set[object]] = {}
    for node in list(edges):
        _descend(node, edges, closure, set())
    return {
        node: dict.fromkeys(sorted(closure[node], key=repr))
        for node in sorted(closure, key=repr)
    }


def _descend(
    node: object,
    edges: Dict[object, Set[object]],
    closure: Dict[object, Set[object]],
    stack: Set[object],
) -> Set[object]:
    # module-level, not a self-recursive closure, so classification
    # leaves no reference cycle for the collector
    if node in closure:
        return closure[node]
    result: Set[object] = set()
    stack.add(node)
    for child in edges.get(node, ()):
        result.add(child)
        if child in stack:
            continue  # cycle (equivalent concepts)
        result |= _descend(child, edges, closure, stack)
    stack.discard(node)
    closure[node] = result
    return result


def _invert_descendants(
    closure: Dict[object, Dict[object, None]]
) -> Dict[object, List[object]]:
    """Invert a descendants closure into an ancestors index.

    Ancestor lists preserve the closure's iteration order so the
    ``super*_of`` methods return exactly what their previous linear scans
    produced.
    """
    ancestors: Dict[object, List[object]] = {}
    for candidate, descendants in closure.items():
        for descendant in descendants:
            if descendant != candidate:
                ancestors.setdefault(descendant, []).append(candidate)
    return ancestors


class QLReasoner:
    """Precomputed closures for one ontology."""

    @classmethod
    def of(cls, ontology: Ontology) -> "QLReasoner":
        """The reasoner for *ontology*'s current revision.

        Classifies at most once per :attr:`Ontology.revision`: the
        analyzer, the engine and every other consumer of one unchanged
        ontology share the first classification, and any ``declare_*`` or
        ``add_*`` call makes the next caller classify afresh.  Reasoners
        are read-only after construction, so sharing one is safe.
        """
        cached = ontology.classification
        if cached is not None and cached[0] == ontology.revision:
            return cached[1]  # type: ignore[return-value]
        reasoner = cls(ontology)
        ontology.classification = (ontology.revision, reasoner)
        return reasoner

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self._build_role_hierarchy()
        self._build_data_property_hierarchy()
        self._build_concept_hierarchy()
        self._index_existentials()
        self._saturate_disjointness()

    # ------------------------------------------------------------------
    # role hierarchy
    # ------------------------------------------------------------------

    def _build_role_hierarchy(self) -> None:
        # edges: sup -> set of subs (both closed under inverse)
        sub_edges: Dict[object, Set[object]] = defaultdict(set)
        for axiom in self.ontology.subproperty_axioms():
            sub_edges[axiom.sup].add(axiom.sub)
            sub_edges[axiom.sup.inv()].add(axiom.sub.inv())
        self._role_descendants = _transitive_closure_down(sub_edges)
        self._role_ancestors = _invert_descendants(self._role_descendants)

    def subroles_of(self, role: Role, reflexive: bool = True) -> List[Role]:
        """All roles ``S`` with ``S ⊑ R`` (including R itself by default)."""
        result: List[Role] = [role] if reflexive else []
        for descendant in self._role_descendants.get(role, ()):
            assert isinstance(descendant, Role)
            if descendant != role:
                result.append(descendant)
        return result

    def superroles_of(self, role: Role, reflexive: bool = True) -> List[Role]:
        result: List[Role] = [role] if reflexive else []
        result.extend(self._role_ancestors.get(role, ()))  # type: ignore[arg-type]
        return result

    def is_subrole(self, sub: Role, sup: Role) -> bool:
        if sub == sup:
            return True
        return sub in self._role_descendants.get(sup, ())

    # ------------------------------------------------------------------
    # data property hierarchy
    # ------------------------------------------------------------------

    def _build_data_property_hierarchy(self) -> None:
        sub_edges: Dict[object, Set[object]] = defaultdict(set)
        for axiom in self.ontology.data_subproperty_axioms():
            sub_edges[axiom.sup].add(axiom.sub)
        self._data_descendants = _transitive_closure_down(sub_edges)
        self._data_ancestors = _invert_descendants(self._data_descendants)

    def sub_data_properties_of(
        self, prop: DataPropertyRef, reflexive: bool = True
    ) -> List[DataPropertyRef]:
        result: List[DataPropertyRef] = [prop] if reflexive else []
        for descendant in self._data_descendants.get(prop, ()):
            assert isinstance(descendant, DataPropertyRef)
            if descendant != prop:
                result.append(descendant)
        return result

    def super_data_properties_of(
        self, prop: DataPropertyRef, reflexive: bool = True
    ) -> List[DataPropertyRef]:
        result: List[DataPropertyRef] = [prop] if reflexive else []
        result.extend(self._data_ancestors.get(prop, ()))  # type: ignore[arg-type]
        return result

    # ------------------------------------------------------------------
    # concept hierarchy
    # ------------------------------------------------------------------

    def _build_concept_hierarchy(self) -> None:
        sub_edges: Dict[object, Set[object]] = defaultdict(set)
        for axiom in self.ontology.subclass_axioms():
            sup = axiom.sup
            if isinstance(sup, QualifiedSome):
                # B ⊑ ∃R.A implies B ⊑ ∃R
                sub_edges[SomeValues(sup.role)].add(axiom.sub)
            else:
                sub_edges[sup].add(axiom.sub)
        # the role hierarchy induces existential subsumptions
        for sup_role, descendants in self._role_descendants.items():
            assert isinstance(sup_role, Role)
            for sub_role in descendants:
                assert isinstance(sub_role, Role)
                sub_edges[SomeValues(sup_role)].add(SomeValues(sub_role))
        for sup_prop, descendants in self._data_descendants.items():
            assert isinstance(sup_prop, DataPropertyRef)
            for sub_prop in descendants:
                assert isinstance(sub_prop, DataPropertyRef)
                sub_edges[DataSomeValues(sup_prop)].add(DataSomeValues(sub_prop))
        self._concept_descendants = _transitive_closure_down(sub_edges)
        self._concept_ancestors = _invert_descendants(self._concept_descendants)

    def subconcepts_of(
        self, concept: BasicConcept, reflexive: bool = True
    ) -> List[BasicConcept]:
        """All basic concepts subsumed by *concept* (most general first)."""
        result: List[BasicConcept] = [concept] if reflexive else []
        for descendant in self._concept_descendants.get(concept, ()):
            if descendant != concept:
                result.append(descendant)  # type: ignore[arg-type]
        return result

    def superconcepts_of(
        self, concept: BasicConcept, reflexive: bool = True
    ) -> List[BasicConcept]:
        result: List[BasicConcept] = [concept] if reflexive else []
        result.extend(self._concept_ancestors.get(concept, ()))  # type: ignore[arg-type]
        return result

    def is_subconcept(self, sub: BasicConcept, sup: BasicConcept) -> bool:
        if sub == sup:
            return True
        return sub in self._concept_descendants.get(sup, ())

    def named_subclasses_of(self, iri: str, reflexive: bool = True) -> List[str]:
        """Named-class subsumees only (the max(#subcls) statistic)."""
        return [
            concept.iri
            for concept in self.subconcepts_of(ClassConcept(iri), reflexive)
            if isinstance(concept, ClassConcept)
        ]

    def class_hierarchy_depth(self) -> int:
        """Longest chain of strict named-class subsumptions."""
        # depth(A) = 1 + max over named classes B strictly below A
        memo: Dict[str, int] = {}
        children: Dict[str, Set[str]] = defaultdict(set)
        for axiom in self.ontology.subclass_axioms():
            if isinstance(axiom.sub, ClassConcept) and isinstance(
                axiom.sup, ClassConcept
            ):
                children[axiom.sup.iri].add(axiom.sub.iri)

        def depth(iri: str, stack: Set[str]) -> int:
            if iri in memo:
                return memo[iri]
            if iri in stack:
                return 0
            stack.add(iri)
            best = 0
            for child in children.get(iri, ()):
                best = max(best, depth(child, stack))
            stack.discard(iri)
            memo[iri] = best + 1
            return best + 1

        return max((depth(iri, set()) for iri in self.ontology.classes), default=0)

    # ------------------------------------------------------------------
    # existential axioms (tree-witness fuel)
    # ------------------------------------------------------------------

    def _index_existentials(self) -> None:
        self._existentials: List[Tuple[BasicConcept, Role, ClassConcept]] = []
        for axiom in self.ontology.existential_axioms():
            sup = axiom.sup
            assert isinstance(sup, QualifiedSome)
            self._existentials.append((axiom.sub, sup.role, sup.filler))

    def existential_axioms(self) -> List[Tuple[BasicConcept, Role, ClassConcept]]:
        """(B, R, A) triples standing for ``B ⊑ ∃R.A``."""
        return list(self._existentials)

    def existentials_into(self, role: Role) -> List[Tuple[BasicConcept, ClassConcept]]:
        """Generators whose role is subsumed by *role*: B ⊑ ∃S.A, S ⊑ R."""
        matches = []
        for sub, axiom_role, filler in self._existentials:
            if self.is_subrole(axiom_role, role):
                matches.append((sub, filler))
        return matches

    # ------------------------------------------------------------------
    # disjointness
    # ------------------------------------------------------------------

    def _saturate_disjointness(self) -> None:
        # concept -> every concept disjoint with it; disj(A, A) puts A in
        # its own partner set, which is how unsatisfiable classes show
        adjacency: Dict[BasicConcept, Set[BasicConcept]] = {}
        for axiom in self.ontology.disjointness_axioms():
            firsts = self.subconcepts_of(axiom.first)
            seconds = self.subconcepts_of(axiom.second)
            for first in firsts:
                adjacency.setdefault(first, set()).update(seconds)
            for second in seconds:
                adjacency.setdefault(second, set()).update(firsts)
        self._disjoint = adjacency

    def disjointness(self) -> Mapping[BasicConcept, AbstractSet[BasicConcept]]:
        """Concept -> concepts disjoint with it (itself for disj(A, A)).

        The reasoner's own structure, not a copy: callers must not mutate
        it.
        """
        return self._disjoint

    def disjoint_pairs(self) -> Iterator[Tuple[BasicConcept, BasicConcept]]:
        """Every unordered disjoint pair once, ``(A, A)`` for disj(A, A)."""
        position = {concept: index for index, concept in enumerate(self._disjoint)}
        for first, partners in self._disjoint.items():
            for second in partners:
                if position[first] <= position[second]:
                    yield first, second

    def are_disjoint(self, first: BasicConcept, second: BasicConcept) -> bool:
        return second in self._disjoint.get(first, ())
