"""Tree-witness query rewriting for OWL 2 QL.

The rewriter turns a conjunctive query over the ontology vocabulary into a
union of conjunctive queries (UCQ) whose certain answers over the *asserted*
data coincide with the certain answers of the original query over data plus
ontology.  It follows the PerfectRef scheme of DL-Lite (Calvanese et al.),
presented in the paper as the "query rewriting phase", with the
tree-witness flavour of [15] (Kikot/Kontchakov/Zakharyaschev) for
existential axioms:

* **hierarchy steps** replace an atom by an atom of a subsumed entity
  (optional -- in the full OBDA engine those are compiled into T-mappings
  instead, exactly like Ontop does);
* **existential absorption** replaces ``R(x, y)`` (with ``y`` unbound) by
  ``B(x)`` for every basic concept ``B ⊑ ∃R``;
* **tree witnesses** generalize absorption to sets of atoms: a role atom
  plus class atoms over its existential end, ``{R(x,y), A₁(y), ... Aₙ(y)}``,
  is folded into ``B(x)`` whenever some axiom ``B ⊑ ∃S.F`` has ``S ⊑ R``
  and ``F ⊑ Aᵢ`` for all *i*;
* **reduction** unifies atoms with the same predicate so that absorption
  becomes applicable (PerfectRef's ``reduce`` step).

The number of distinct tree witnesses detected on the *input* query is
reported as ``#tw`` -- the statistic of Table 7 -- and the size of the
produced UCQ is the "number of intermediate queries" the paper quotes
(q6 rewrites into a union of 73 CQs on the real NPD ontology).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..owl.model import (
    BasicConcept,
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Role,
    SomeValues,
)
from ..owl.reasoner import QLReasoner
from ..sparql.ast import Var
from .cq import (
    Atom,
    ClassAtom,
    ConjunctiveQuery,
    CqTerm,
    DataAtom,
    RoleAtom,
    atoms_of_basic_concept,
)


@dataclass
class RewritingResult:
    """The UCQ plus the metrics the benchmark reports."""

    cqs: List[ConjunctiveQuery]
    tree_witnesses: int
    elapsed_seconds: float
    #: the max_ucq safety valve fired: the UCQ is a sound but possibly
    #: incomplete prefix of the full rewriting
    truncated: bool = False
    #: disjuncts dropped because a FactBase proves one of their atoms can
    #: never produce an answer (empty-entity facts)
    empty_disjuncts_skipped: int = 0
    #: the empty entities that licensed those skips (deduped, sorted)
    skipped_entities: Tuple[str, ...] = ()
    #: labels of exact-mapping constraints that suppressed hierarchy
    #: expansion of an atom's entity (deduped, sorted)
    exact_pruned: Tuple[str, ...] = ()

    @property
    def ucq_size(self) -> int:
        return len(self.cqs)


def merge_rewritings(
    rewritings: Sequence[RewritingResult],
) -> Optional[RewritingResult]:
    """The rewriting of a whole query from the rewritings of its BGPs.

    CQs, tree witnesses, skipped disjuncts and seconds are summed over
    every BGP, and the result is truncated if any BGP's rewriting was.
    None when the query rewrote no BGP.
    """
    if not rewritings:
        return None
    if len(rewritings) == 1:
        return rewritings[0]
    return RewritingResult(
        [cq for r in rewritings for cq in r.cqs],
        sum(r.tree_witnesses for r in rewritings),
        sum(r.elapsed_seconds for r in rewritings),
        truncated=any(r.truncated for r in rewritings),
        empty_disjuncts_skipped=sum(r.empty_disjuncts_skipped for r in rewritings),
        skipped_entities=tuple(sorted({e for r in rewritings for e in r.skipped_entities})),
        exact_pruned=tuple(sorted({c for r in rewritings for c in r.exact_pruned})),
    )


class TreeWitnessRewriter:
    """Rewrites CQs under an OWL 2 QL TBox.

    Parameters
    ----------
    reasoner:
        the saturated ontology closures.
    expand_hierarchy:
        when True the rewriting also expands class/property hierarchies
        (needed when answering over a plain triple store); when False only
        existential reasoning is performed and hierarchy reasoning is
        assumed to be compiled into T-mappings.
    enable_existential:
        the paper's "existential reasoning on/off" switch; off makes the
        rewriter skip absorption and tree witnesses entirely.
    max_ucq:
        safety valve against exponential blow-ups (the paper discusses
        q6-like queries exploding); rewriting stops growing beyond this.
    factbase:
        optional :class:`repro.analysis.facts.FactBase`.  A produced CQ
        containing an atom over a provably-empty entity is excluded from
        the result UCQ (it can contribute no answers over the asserted
        data) but *stays on the frontier*: tree-witness folding may
        replace the empty atom with a non-empty generator, so successors
        of a skipped CQ can still be answerable.
    constraints:
        optional :class:`repro.analysis.constraints.ConstraintSet`.  An
        atom over an entity with a verified exact-mapping constraint
        needs no hierarchy expansion: its own mapping provably covers
        every subsumed entity's extension, so the subsumee disjuncts are
        duplicates.  Callers must only supply this under deduplicating
        unions (dropping disjuncts changes UNION ALL multiplicities).
    """

    def __init__(
        self,
        reasoner: QLReasoner,
        expand_hierarchy: bool = True,
        enable_existential: bool = True,
        max_ucq: int = 2048,
        factbase=None,
        constraints=None,
    ):
        self.reasoner = reasoner
        self.expand_hierarchy = expand_hierarchy
        self.enable_existential = enable_existential
        self.max_ucq = max_ucq
        self.factbase = factbase
        self.constraints = constraints
        self._fresh_counter = itertools.count()

    # ------------------------------------------------------------------

    def rewrite(self, query: ConjunctiveQuery) -> RewritingResult:
        started = time.perf_counter()
        tree_witnesses = (
            self._count_tree_witnesses(query) if self.enable_existential else 0
        )
        seen: Dict[ConjunctiveQuery, None] = {}
        frontier = [query]
        seen[query.canonical()] = None
        results: List[ConjunctiveQuery] = []
        skipped = 0
        skipped_entities: Set[str] = set()
        exact_pruned: Set[str] = set()
        if self._admit(query, skipped_entities):
            results.append(query)
        else:
            skipped += 1
        # truncated only when the cap drops an unseen disjunct: reaching
        # max_ucq with nothing left to explore is a complete rewriting
        truncated = False
        while frontier and not truncated:
            current = frontier.pop()
            for successor in self._successors(current, exact_pruned):
                canonical = successor.canonical()
                if canonical in seen:
                    continue
                if len(results) >= self.max_ucq:
                    truncated = True
                    break
                seen[canonical] = None
                frontier.append(successor)
                if self._admit(successor, skipped_entities):
                    results.append(successor)
                else:
                    # an empty-entity disjunct contributes no answers, but
                    # its successors (after folding the empty atom away)
                    # still can -- keep it on the frontier only
                    skipped += 1
        elapsed = time.perf_counter() - started
        return RewritingResult(
            results,
            tree_witnesses,
            elapsed,
            truncated=truncated,
            empty_disjuncts_skipped=skipped,
            skipped_entities=tuple(sorted(skipped_entities)),
            exact_pruned=tuple(sorted(exact_pruned)),
        )

    def _admit(self, cq: ConjunctiveQuery, skipped_entities: Set[str]) -> bool:
        """False when a FactBase proves some atom of *cq* is always empty."""
        if self.factbase is None:
            return True
        empty = False
        for atom in cq.atoms:
            entity = _atom_entity_iri(atom)
            if entity is not None and self.factbase.empty_entity(entity):
                skipped_entities.add(entity)
                empty = True
        return not empty

    # ------------------------------------------------------------------
    # successor generation
    # ------------------------------------------------------------------

    def _fresh(self) -> Iterator[Var]:
        while True:
            yield Var(f"_f{next(self._fresh_counter)}")

    def _successors(
        self, cq: ConjunctiveQuery, exact_pruned: Optional[Set[str]] = None
    ) -> Iterator[ConjunctiveQuery]:
        if self.expand_hierarchy:
            yield from self._hierarchy_steps(cq, exact_pruned)
        if self.enable_existential:
            yield from self._absorption_steps(cq)
            yield from self._tree_witness_steps(cq)
            yield from self._reduce_steps(cq)

    def _exact_skip(self, entity: str, exact_pruned: Optional[Set[str]]) -> bool:
        """True when exact-mapping makes hierarchy expansion redundant.

        Exactness was verified over *every* mapped generator of the
        entity (subclasses, existential generators, sub-properties), so
        the subsumee disjuncts the skipped expansion would have produced
        are covered by the entity's own disjunct; unmapped subsumees
        unfold to nothing either way.
        """
        if self.constraints is None:
            return False
        constraint = self.constraints.exact(entity)
        if constraint is None:
            return False
        if exact_pruned is not None:
            exact_pruned.add(constraint.label())
        return True

    def _hierarchy_steps(
        self, cq: ConjunctiveQuery, exact_pruned: Optional[Set[str]] = None
    ) -> Iterator[ConjunctiveQuery]:
        fresh = self._fresh()
        for atom in cq.atoms:
            if isinstance(atom, ClassAtom):
                subs = self.reasoner.subconcepts_of(
                    ClassConcept(atom.cls), reflexive=False
                )
                if subs and self._exact_skip(atom.cls, exact_pruned):
                    continue
                for sub in subs:
                    replacement = atoms_of_basic_concept(sub, atom.term, fresh)
                    yield cq.replace_atoms([atom], [replacement])
            elif isinstance(atom, RoleAtom):
                subs = self.reasoner.subroles_of(Role(atom.role), reflexive=False)
                if subs and self._exact_skip(atom.role, exact_pruned):
                    continue
                for sub in subs:
                    yield cq.replace_atoms(
                        [atom], [RoleAtom.of(sub, atom.subject, atom.object)]
                    )
            elif isinstance(atom, DataAtom):
                subs = self.reasoner.sub_data_properties_of(
                    DataPropertyRef(atom.prop), reflexive=False
                )
                if subs and self._exact_skip(atom.prop, exact_pruned):
                    continue
                for sub in subs:
                    yield cq.replace_atoms(
                        [atom], [DataAtom(sub.iri, atom.subject, atom.value)]
                    )

    def _absorbable_role_ends(
        self, cq: ConjunctiveQuery, atom: RoleAtom
    ) -> List[Role]:
        """Orientations of *atom* whose end variable is unbound."""
        orientations: List[Role] = []
        if isinstance(atom.object, Var) and cq.is_unbound(atom.object):
            orientations.append(Role(atom.role))
        if isinstance(atom.subject, Var) and cq.is_unbound(atom.subject):
            orientations.append(Role(atom.role, inverse=True))
        return orientations

    def _absorption_steps(self, cq: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
        fresh = self._fresh()
        for atom in cq.atoms:
            if isinstance(atom, RoleAtom):
                for role in self._absorbable_role_ends(cq, atom):
                    anchor = atom.argument_for(role)
                    for sub in self.reasoner.subconcepts_of(
                        SomeValues(role), reflexive=False
                    ):
                        # avoid the no-op ∃R -> R(x, _) round trip
                        if sub == SomeValues(role):
                            continue
                        replacement = atoms_of_basic_concept(sub, anchor, fresh)
                        yield cq.replace_atoms([atom], [replacement])
            elif isinstance(atom, DataAtom):
                if isinstance(atom.value, Var) and cq.is_unbound(atom.value):
                    prop = DataPropertyRef(atom.prop)
                    for sub in self.reasoner.subconcepts_of(
                        DataSomeValues(prop), reflexive=False
                    ):
                        if sub == DataSomeValues(prop):
                            continue
                        replacement = atoms_of_basic_concept(sub, atom.subject, fresh)
                        yield cq.replace_atoms([atom], [replacement])

    # -- tree witnesses -------------------------------------------------------

    def _witness_configurations(
        self, cq: ConjunctiveQuery
    ) -> List[Tuple[RoleAtom, Role, Var, List[ClassAtom], List[BasicConcept]]]:
        """Foldable configurations: (role atom, orientation, end var,
        class atoms on the end var, generating concepts)."""
        configurations = []
        for atom in cq.atoms:
            if not isinstance(atom, RoleAtom):
                continue
            for orientation, end in (
                (Role(atom.role), atom.object),
                (Role(atom.role, inverse=True), atom.subject),
            ):
                if not isinstance(end, Var) or end in cq.answer_vars:
                    continue
                co_atoms = [a for a in cq.atoms_with(end) if a != atom]
                if not co_atoms:
                    continue  # plain absorption handles this
                if not all(isinstance(a, ClassAtom) for a in co_atoms):
                    continue
                class_atoms = [a for a in co_atoms if isinstance(a, ClassAtom)]
                generators: List[BasicConcept] = []
                for sub, filler in self.reasoner.existentials_into(orientation):
                    if all(
                        self.reasoner.is_subconcept(
                            ClassConcept(filler.iri), ClassConcept(c.cls)
                        )
                        or self.reasoner.is_subconcept(
                            filler, ClassConcept(c.cls)
                        )
                        for c in class_atoms
                    ):
                        generators.append(sub)
                if generators:
                    configurations.append(
                        (atom, orientation, end, class_atoms, generators)
                    )
        return configurations

    def _tree_witness_steps(self, cq: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
        fresh = self._fresh()
        for atom, orientation, end, class_atoms, generators in (
            self._witness_configurations(cq)
        ):
            anchor = atom.argument_for(orientation)
            for generator in generators:
                replacement = atoms_of_basic_concept(generator, anchor, fresh)
                yield cq.replace_atoms([atom, *class_atoms], [replacement])

    def _count_tree_witnesses(self, cq: ConjunctiveQuery) -> int:
        """Tree witnesses *identified* in the input query (Table 7 #tw).

        Phase 2 detects a candidate witness for every role-atom end that
        is an existentially-quantified (non-answer) variable generated by
        some axiom ``B ⊑ ∃S.F`` with ``S ⊑ R`` -- whether or not the
        witness ultimately folds (data atoms on the witness variable make
        it partial, but it was still found and checked, which is what the
        paper's statistic reports).
        """
        witnesses: Set[Tuple[str, str]] = set()
        for atom in cq.atoms:
            if not isinstance(atom, RoleAtom):
                continue
            for orientation, end in (
                (Role(atom.role), atom.object),
                (Role(atom.role, inverse=True), atom.subject),
            ):
                if not isinstance(end, Var) or end in cq.answer_vars:
                    continue
                if self.reasoner.existentials_into(orientation):
                    witnesses.add((str(atom), orientation.n3()))
        return len(witnesses)

    # -- reduction ---------------------------------------------------------------

    def _reduce_steps(self, cq: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
        """Unify pairs of atoms with the same predicate (PerfectRef reduce)."""
        atoms = cq.atoms
        for first, second in itertools.combinations(atoms, 2):
            unifier = _unify(first, second, cq.answer_vars)
            if unifier is None:
                continue
            reduced = cq.substitute(unifier)
            if len(reduced.atoms) < len(cq.atoms):
                yield reduced


def _atom_entity_iri(atom: Atom) -> Optional[str]:
    if isinstance(atom, ClassAtom):
        return atom.cls
    if isinstance(atom, RoleAtom):
        return atom.role
    if isinstance(atom, DataAtom):
        return atom.prop
    return None


def _unify(
    first: Atom, second: Atom, answer_vars: Tuple[Var, ...]
) -> Optional[Dict[Var, CqTerm]]:
    """Most general unifier of two atoms, or None.

    Answer variables may only be unified with equal terms or other answer
    variables are kept (we never substitute an answer variable away by a
    non-answer variable -- we substitute the non-answer one instead).
    """
    if type(first) is not type(second):
        return None
    if isinstance(first, ClassAtom):
        if first.cls != second.cls:  # type: ignore[union-attr]
            return None
    elif isinstance(first, RoleAtom):
        if first.role != second.role:  # type: ignore[union-attr]
            return None
    elif isinstance(first, DataAtom):
        if first.prop != second.prop:  # type: ignore[union-attr]
            return None
    mapping: Dict[Var, CqTerm] = {}

    def resolve(term: CqTerm) -> CqTerm:
        while isinstance(term, Var) and term in mapping:
            term = mapping[term]
        return term

    for left, right in zip(first.terms(), second.terms()):
        left = resolve(left)
        right = resolve(right)
        if left == right:
            continue
        if isinstance(left, Var) and left not in answer_vars:
            mapping[left] = right
        elif isinstance(right, Var) and right not in answer_vars:
            mapping[right] = left
        elif isinstance(left, Var) and isinstance(right, Var):
            # both answer variables: unifying them changes the head; skip
            return None
        else:
            return None
    return mapping if mapping else None
