"""A rewriting triple store: the paper's Stardog-like baseline.

Triples are stored materialized (no mapping layer, no virtual/physical
distinction) and OWL 2 QL reasoning happens at query time by rewriting
each BGP into a union of BGPs -- the same architecture class as Stardog,
which the paper picks because "it allows for OWL 2 QL reasoning through
query rewriting".

Reasoning is split in two layers, mirroring how the virtual engine splits
it between T-mappings and the rewriter:

* **existential reasoning** (absorption, tree witnesses) is performed by
  the :class:`TreeWitnessRewriter` as branch enumeration -- existential
  steps genuinely multiply CQs;
* **hierarchy reasoning** (sub-classes/-properties, domain/range
  existentials) is performed *per atom at match time* by
  :class:`_RewritingEvaluator`.  Enumerating hierarchy expansions as UCQ
  branches instead is a product over the BGP's atoms and explodes past
  any UCQ cap on queries like the NPD q4 (two ``npdv:name`` atoms alone
  contribute a quadratic factor), silently losing answers once the
  rewriter's ``max_ucq`` safety valve fires.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..owl.model import (
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Ontology,
    Role,
    SomeValues,
)
from ..owl.reasoner import QLReasoner
from ..rdf.graph import Graph
from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import IRI, Term
from ..sparql.algebra import AlgBGP, AlgebraNode
from ..sparql.ast import SelectQuery, TriplePattern, Var
from ..sparql.evaluator import (
    Solution,
    SparqlEvaluator,
    SparqlResult,
    _match_triple,
    _selectivity,
)
from ..sparql.parser import parse_query
from .cq import ClassAtom, ConjunctiveQuery, DataAtom, RoleAtom, Vocabulary, bgp_to_cq
from .rewriter import RewritingResult, TreeWitnessRewriter, merge_rewritings


def cq_to_triples(cq: ConjunctiveQuery) -> List[TriplePattern]:
    """Render a CQ back into triple patterns for graph evaluation."""
    triples: List[TriplePattern] = []
    for atom in cq.atoms:
        if isinstance(atom, ClassAtom):
            triples.append(TriplePattern(atom.term, RDF_TYPE, IRI(atom.cls)))
        elif isinstance(atom, RoleAtom):
            triples.append(TriplePattern(atom.subject, IRI(atom.role), atom.object))
        else:
            assert isinstance(atom, DataAtom)
            triples.append(TriplePattern(atom.subject, IRI(atom.prop), atom.value))
    return triples


class _RewritingEvaluator(SparqlEvaluator):
    """SPARQL evaluator whose BGP evaluation goes through QL rewriting.

    ``needed_vars`` are the variables visible outside each BGP (projected
    by the query, used in filters/order/grouping, or shared with sibling
    patterns); only those block existential absorption -- a variable used
    once inside a single BGP is existentially quantified and its atoms may
    be folded away by tree witnesses.

    The rewriter enumerates existential steps only; class/property
    hierarchies are folded in per atom by :meth:`_match_expanded`, which
    matches a triple pattern against the union of its sub-entity
    extensions (the graph-side analogue of T-mappings).
    """

    def __init__(
        self,
        graph: Graph,
        vocabulary: Vocabulary,
        rewriter: Optional[TreeWitnessRewriter],
        reasoner: Optional[QLReasoner] = None,
        needed_vars: Optional[set] = None,
    ):
        super().__init__(graph)
        self._vocabulary = vocabulary
        self._rewriter = rewriter
        self._reasoner = reasoner
        self._needed_vars = needed_vars
        #: one rewriting per evaluated BGP
        self.rewritings: List[RewritingResult] = []

    def evaluate_algebra(self, node: AlgebraNode) -> List[Solution]:
        if isinstance(node, AlgBGP) and node.triples and self._rewriter is not None:
            answer_vars = []
            seen = set()
            for triple in node.triples:
                for var in triple.variables():
                    if var not in seen and (
                        self._needed_vars is None or var in self._needed_vars
                    ):
                        seen.add(var)
                        answer_vars.append(var)
            cq = bgp_to_cq(node.triples, answer_vars, self._vocabulary)
            rewriting = self._rewriter.rewrite(cq)
            self.rewritings.append(rewriting)
            solutions: List[Solution] = []
            seen_keys = set()
            for candidate in rewriting.cqs:
                for solution in self._evaluate_expanded_bgp(
                    cq_to_triples(candidate)
                ):
                    # keep only bindings of the original BGP's variables and
                    # deduplicate across union branches
                    projected = {
                        var: term
                        for var, term in solution.items()
                        if var in seen
                    }
                    key = tuple(sorted(
                        (var.name, term) for var, term in projected.items()
                    ))
                    if key not in seen_keys:
                        seen_keys.add(key)
                        solutions.append(projected)
            return solutions
        return super().evaluate_algebra(node)

    # -- hierarchy-aware matching -------------------------------------------

    def _evaluate_expanded_bgp(
        self, triples: List[TriplePattern]
    ) -> List[Solution]:
        """`_evaluate_bgp` with per-pattern hierarchy expansion."""
        solutions: List[Solution] = [{}]
        remaining = list(triples)
        bound: set = set()
        while remaining:
            remaining.sort(key=lambda t: _selectivity(t, bound))
            pattern = remaining.pop(0)
            next_solutions: List[Solution] = []
            for solution in solutions:
                next_solutions.extend(self._match_expanded(pattern, solution))
            solutions = next_solutions
            if not solutions:
                return []
            for var in pattern.variables():
                bound.add(var)
        return solutions

    def _match_expanded(
        self, pattern: TriplePattern, solution: Solution
    ) -> List[Solution]:
        """Match one pattern against the union of its sub-entities.

        A single individual may satisfy the pattern through several
        sub-entities at once (asserted type plus an implying role, two
        sub-properties carrying the same value, ...); those duplicates are
        collapsed here so the union behaves like one virtual extension.
        """
        reasoner = self._reasoner
        predicate = pattern.predicate
        if reasoner is None or isinstance(predicate, Var):
            return _match_triple(self.graph, pattern, solution)
        if predicate == RDF_TYPE and isinstance(pattern.obj, IRI):
            matches = self._match_class(pattern, solution)
        elif predicate.value in self._vocabulary.data_properties:
            matches = []
            for sub in reasoner.sub_data_properties_of(
                DataPropertyRef(predicate.value)
            ):
                matches.extend(_match_triple(
                    self.graph,
                    TriplePattern(pattern.subject, IRI(sub.iri), pattern.obj),
                    solution,
                ))
        else:
            # object property, or unknown predicate treated as one (the
            # reflexive closure makes this a plain match for the latter)
            matches = []
            for role in reasoner.subroles_of(Role(predicate.value)):
                if role.inverse:
                    expanded = TriplePattern(
                        pattern.obj, IRI(role.iri), pattern.subject
                    )
                else:
                    expanded = TriplePattern(
                        pattern.subject, IRI(role.iri), pattern.obj
                    )
                matches.extend(_match_triple(self.graph, expanded, solution))
        return _dedup_solutions(matches)

    def _match_class(
        self, pattern: TriplePattern, solution: Solution
    ) -> List[Solution]:
        """``?x rdf:type C`` via every basic concept subsumed by C."""
        assert isinstance(pattern.obj, IRI)
        reasoner = self._reasoner
        assert reasoner is not None
        subject = pattern.subject
        if isinstance(subject, Var):
            resolved: Optional[Term] = solution.get(subject)
        else:
            resolved = subject
        matches: List[Solution] = []

        def emit(value: Term) -> None:
            if isinstance(subject, Var) and subject not in solution:
                extended = dict(solution)
                extended[subject] = value
                matches.append(extended)
            else:
                matches.append(dict(solution))

        for sub in reasoner.subconcepts_of(ClassConcept(pattern.obj.value)):
            if isinstance(sub, ClassConcept):
                for s, _, _ in self.graph.triples(
                    resolved, RDF_TYPE, IRI(sub.iri)
                ):
                    emit(s)
            elif isinstance(sub, SomeValues):
                prop = IRI(sub.role.iri)
                if sub.role.inverse:
                    for _, _, o in self.graph.triples(None, prop, resolved):
                        emit(o)
                else:
                    for s, _, _ in self.graph.triples(resolved, prop, None):
                        emit(s)
            elif isinstance(sub, DataSomeValues):
                for s, _, _ in self.graph.triples(
                    resolved, IRI(sub.prop.iri), None
                ):
                    emit(s)
        return _dedup_solutions(matches)


def _dedup_solutions(matches: List[Solution]) -> List[Solution]:
    if len(matches) < 2:
        return matches
    deduped: Dict[Tuple, Solution] = {}
    for match in matches:
        key = tuple(sorted(
            (var.name, term) for var, term in match.items()
        ))
        deduped.setdefault(key, match)
    return list(deduped.values())


def _needed_variables(query: SelectQuery) -> set:
    """Variables visible outside a single BGP.

    Projections, grouping/having/ordering expressions, filter and bind
    expressions, and any variable occurring in more than one place across
    the query's triple patterns (a conservative over-approximation of
    "shared with a sibling pattern").
    """
    from collections import Counter

    from ..sparql.ast import (
        BindPattern,
        GroupPattern,
        OptionalPattern,
        Pattern,
        UnionPattern,
        expression_variables,
    )

    needed: set = set()
    if query.select_star:
        from ..sparql.ast import pattern_variables

        needed.update(pattern_variables(query.where))
    if query.has_aggregates():
        # multiplicity feeds SUM/COUNT/AVG: dedup full assignments only
        from ..sparql.ast import pattern_variables

        needed.update(pattern_variables(query.where))
    for projection in query.projections:
        needed.add(projection.var)
        if projection.expression is not None:
            needed.update(expression_variables(projection.expression))
    for group in query.group_by:
        needed.update(expression_variables(group))
    for having in query.having:
        needed.update(expression_variables(having))
    for condition in query.order_by:
        needed.update(expression_variables(condition.expression))

    counts: Counter = Counter()

    def walk(pattern: Pattern) -> None:
        if isinstance(pattern, GroupPattern):
            for element in pattern.elements:
                walk(element)
            for condition in pattern.filters:
                needed.update(expression_variables(condition))
        elif isinstance(pattern, OptionalPattern):
            walk(pattern.pattern)
        elif isinstance(pattern, UnionPattern):
            walk(pattern.left)
            walk(pattern.right)
        elif isinstance(pattern, BindPattern):
            needed.update(expression_variables(pattern.expression))
            needed.add(pattern.var)
        else:  # BGP
            for triple in pattern.triples:  # type: ignore[union-attr]
                for var in triple.variables():
                    counts[var] += 1

    walk(query.where)
    needed.update(var for var, count in counts.items() if count > 1)
    return needed


@dataclass
class TripleStoreAnswer:
    result: SparqlResult
    #: the rewritings of every BGP the query evaluated, merged
    rewriting: Optional[RewritingResult]
    rewriting_seconds: float
    execution_seconds: float

    @property
    def overall_seconds(self) -> float:
        return self.rewriting_seconds + self.execution_seconds

    @property
    def tree_witness_count(self) -> int:
        """Tree witnesses across every BGP the query evaluated."""
        return self.rewriting.tree_witnesses if self.rewriting else 0

    @property
    def truncated(self) -> bool:
        """Some BGP's rewriting hit the UCQ cap (answers may be missing)."""
        return self.rewriting.truncated if self.rewriting else False


class RewritingTripleStore:
    """Materialized triples + query-time OWL 2 QL rewriting."""

    def __init__(self, ontology: Ontology, reasoning: bool = True):
        self.ontology = ontology
        self.reasoner = QLReasoner.of(ontology)
        self.graph = Graph()
        self.reasoning = reasoning
        self.load_seconds = 0.0
        self._vocabulary = Vocabulary.from_ontology(ontology)

    # -- loading ------------------------------------------------------------

    def load(self, triples) -> int:
        """Bulk-load triples; accumulates loading time."""
        started = time.perf_counter()
        added = self.graph.update(triples)
        self.load_seconds += time.perf_counter() - started
        return added

    def load_graph(self, graph: Graph) -> int:
        return self.load(iter(graph))

    def __len__(self) -> int:
        return len(self.graph)

    # -- querying -------------------------------------------------------------

    def execute(
        self, sparql: str | SelectQuery, enable_existential: bool = True
    ) -> TripleStoreAnswer:
        query = parse_query(sparql) if isinstance(sparql, str) else sparql
        # hierarchies are handled per atom at match time, so the rewriter
        # only enumerates existential steps and stays far from max_ucq
        rewriter = (
            TreeWitnessRewriter(
                self.reasoner,
                expand_hierarchy=False,
                enable_existential=enable_existential,
            )
            if self.reasoning
            else None
        )
        evaluator = _RewritingEvaluator(
            self.graph,
            self._vocabulary,
            rewriter,
            reasoner=self.reasoner if self.reasoning else None,
            needed_vars=_needed_variables(query),
        )
        started = time.perf_counter()
        result = evaluator.execute(query)
        elapsed = time.perf_counter() - started
        rewriting = merge_rewritings(evaluator.rewritings)
        rewriting_seconds = rewriting.elapsed_seconds if rewriting else 0.0
        return TripleStoreAnswer(
            result=result,
            rewriting=rewriting,
            rewriting_seconds=rewriting_seconds,
            execution_seconds=max(0.0, elapsed - rewriting_seconds),
        )
