"""Pass 3 -- query-level checks over the catalogue (and fuzzed) queries.

Each query's basic graph patterns are lowered to conjunctive queries and
analyzed against the TBox and the verified :class:`FactBase`:

* **guaranteed-empty patterns** -- every disjunct of the tree-witness
  rewriting touches a provably-empty entity, so the pattern (and, when it
  is required, the whole query) can never return an answer;
* **dead atoms** -- atoms whose removal leaves an equivalent CQ (a
  homomorphism maps the full CQ into the reduced one);
* **containment-redundant disjuncts** -- rewriting disjuncts subsumed by
  another disjunct of the same UCQ;
* **unknown entities** -- IRIs used in a query that the ontology never
  declares.

Required vs. optional context matters for severities: a guaranteed-empty
required BGP is an ERROR (the query is dead), while the same pattern under
OPTIONAL or inside a UNION branch only degrades the answers (WARNING).
Advisory mode (used for fuzzed queries) caps everything at INFO so a
randomly-generated dead-end never fails a strict run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..obda.cq import CQError, ConjunctiveQuery, Vocabulary, bgp_to_cq
from ..obda.mapping import MappingCollection
from ..obda.rewriter import TreeWitnessRewriter
from ..obda.unfolder import cq_homomorphism, prune_redundant_cqs
from ..owl.model import Ontology
from ..owl.reasoner import QLReasoner
from ..rdf.terms import IRI
from ..sparql.ast import (
    BGP,
    BindPattern,
    GroupPattern,
    OptionalPattern,
    Pattern,
    SelectQuery,
    UnionPattern,
)
from ..sparql.errors import SparqlError
from ..sparql.parser import parse_query
from .facts import FactBase
from .model import Finding, Severity

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def _collect_bgps(pattern: Pattern) -> List[Tuple[BGP, bool]]:
    """All BGPs of a pattern tree, flagged required/optional.

    A BGP is *required* when an empty evaluation forces the whole query
    empty: OPTIONAL right sides and UNION branches break that chain.
    """
    found: List[Tuple[BGP, bool]] = []

    def walk(node: Pattern, required: bool) -> None:
        if isinstance(node, BGP):
            if node.triples:
                found.append((node, required))
        elif isinstance(node, GroupPattern):
            for element in node.elements:
                walk(element, required)
        elif isinstance(node, OptionalPattern):
            walk(node.pattern, False)
        elif isinstance(node, UnionPattern):
            walk(node.left, False)
            walk(node.right, False)
        elif isinstance(node, BindPattern):
            pass

    walk(pattern, True)
    return found


def _unknown_entities(bgp: BGP, ontology: Ontology) -> List[str]:
    known = (
        set(ontology.classes)
        | set(ontology.object_properties)
        | set(ontology.data_properties)
    )
    unknown: Dict[str, None] = {}
    for triple in bgp.triples:
        predicate = triple.predicate
        if not isinstance(predicate, IRI):
            continue
        if predicate.value == RDF_TYPE:
            if isinstance(triple.obj, IRI) and triple.obj.value not in known:
                unknown.setdefault(triple.obj.value)
        elif predicate.value not in known:
            unknown.setdefault(predicate.value)
    return list(unknown)


def _dead_atoms(cq: ConjunctiveQuery) -> List[str]:
    """Atoms whose removal leaves an equivalent CQ."""
    if len(cq.atoms) < 2:
        return []
    dead: List[str] = []
    for index, atom in enumerate(cq.atoms):
        reduced = ConjunctiveQuery(
            cq.answer_vars,
            cq.atoms[:index] + cq.atoms[index + 1 :],
        )
        # removing an atom relaxes the CQ; the atom is dead iff the full
        # CQ still maps homomorphically into the reduced one
        if cq_homomorphism(cq, reduced):
            dead.append(str(atom))
    return dead


class QueryAnalyzer:
    """Shared state for checking many queries against one benchmark."""

    def __init__(
        self,
        ontology: Ontology,
        mappings: MappingCollection,
        factbase: FactBase,
    ):
        self.ontology = ontology
        self.factbase = factbase
        self.reasoner = QLReasoner.of(ontology)
        self.vocabulary = Vocabulary.from_ontology(ontology)
        # hierarchy expansion off: emptiness facts are already computed
        # over the whole subconcept closure, and the smaller UCQ keeps the
        # pass fast over hundreds of fuzzed queries
        self.rewriter = TreeWitnessRewriter(
            self.reasoner,
            expand_hierarchy=False,
            enable_existential=True,
            factbase=factbase,
        )

    def check(
        self,
        name: str,
        sparql: Union[str, SelectQuery],
        advisory: bool = False,
    ) -> List[Finding]:
        """All pass-3 findings for one query."""

        def cap(severity: Severity) -> Severity:
            return min(severity, Severity.INFO) if advisory else severity

        try:
            query = parse_query(sparql) if isinstance(sparql, str) else sparql
        except SparqlError as exc:
            return [
                Finding(
                    "QRY_PARSE",
                    cap(Severity.ERROR),
                    "query",
                    name,
                    f"query does not parse: {exc}",
                )
            ]
        findings: List[Finding] = []
        for position, (bgp, required) in enumerate(_collect_bgps(query.where)):
            subject = f"{name}#bgp{position}"
            for entity in _unknown_entities(bgp, self.ontology):
                findings.append(
                    Finding(
                        "QRY_UNKNOWN_ENTITY",
                        cap(Severity.WARNING),
                        "query",
                        subject,
                        f"entity {entity} is not declared in the ontology",
                    )
                )
            try:
                cq = bgp_to_cq(bgp.triples, bgp.variables(), self.vocabulary)
            except CQError as exc:
                findings.append(
                    Finding(
                        "QRY_UNSUPPORTED",
                        cap(Severity.INFO),
                        "query",
                        subject,
                        f"pattern not analyzable as a CQ: {exc}",
                    )
                )
                continue
            findings.extend(self._check_cq(subject, cq, required, cap))
        return findings

    def _check_cq(self, subject, cq, required, cap) -> List[Finding]:
        findings: List[Finding] = []
        rewriting = self.rewriter.rewrite(cq)
        if not rewriting.cqs:
            causes = ", ".join(rewriting.skipped_entities) or "no disjunct survives"
            severity = Severity.ERROR if required else Severity.WARNING
            clause = (
                "the query can never return answers"
                if required
                else "this optional/union branch never contributes"
            )
            findings.append(
                Finding(
                    "QRY_EMPTY",
                    cap(severity),
                    "query",
                    subject,
                    f"pattern is guaranteed empty ({causes}); {clause}",
                )
            )
            return findings
        if rewriting.empty_disjuncts_skipped:
            findings.append(
                Finding(
                    "QRY_EMPTY_DISJUNCT",
                    cap(Severity.INFO),
                    "query",
                    subject,
                    f"{rewriting.empty_disjuncts_skipped} rewriting "
                    f"disjunct(s) guaranteed empty "
                    f"({', '.join(rewriting.skipped_entities)})",
                )
            )
        kept = prune_redundant_cqs(list(rewriting.cqs))
        redundant = len(rewriting.cqs) - len(kept)
        if redundant > 0:
            findings.append(
                Finding(
                    "QRY_REDUNDANT_DISJUNCT",
                    cap(Severity.INFO),
                    "query",
                    subject,
                    f"{redundant} of {len(rewriting.cqs)} rewriting "
                    "disjunct(s) subsumed by another disjunct",
                )
            )
        for atom in _dead_atoms(cq):
            findings.append(
                Finding(
                    "QRY_DEAD_ATOM",
                    cap(Severity.INFO),
                    "query",
                    subject,
                    f"atom {atom} is redundant: dropping it leaves an "
                    "equivalent pattern",
                )
            )
        return findings


def run_query_pass(
    ontology: Ontology,
    mappings: MappingCollection,
    factbase: FactBase,
    queries: Dict[str, Union[str, SelectQuery]],
    advisory_queries: Optional[Dict[str, Union[str, SelectQuery]]] = None,
) -> List[Finding]:
    analyzer = QueryAnalyzer(ontology, mappings, factbase)
    findings: List[Finding] = []
    for name, sparql in queries.items():
        findings.extend(analyzer.check(name, sparql, advisory=False))
    for name, sparql in (advisory_queries or {}).items():
        findings.extend(analyzer.check(name, sparql, advisory=True))
    return findings
