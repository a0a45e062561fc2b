"""OBDA-level consistency checking.

The paper's requirement O2 demands an ontology whose axioms "could lead
to inconsistency, in order to test the reasoner capabilities".  In an
OBDA setting consistency cannot be checked on a materialized graph alone
-- the virtual instance may be huge -- so real systems (Mastro, Ontop)
compile each disjointness axiom into a SQL query that looks for a shared
individual and is empty iff the axiom holds.

This module does exactly that: for every saturated disjoint pair whose
mapping assertions use *compatible* IRI templates (incompatible templates
can never produce the same individual, so the pair is trivially
satisfied), it emits a SQL intersection query over the two assertions'
sources and executes it against the database.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..owl.model import BasicConcept, ClassConcept
from ..owl.reasoner import QLReasoner
from ..sql import ast as sql
from ..sql.engine import Database
from .mapping import IriTermMap, MappingAssertion, MappingCollection


@dataclass
class InconsistencyWitness:
    """One individual violating a disjointness axiom."""

    iri: str
    first_concept: str
    second_concept: str
    first_assertion: str
    second_assertion: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.iri} is both {_local(self.first_concept)} "
            f"(via {self.first_assertion}) and {_local(self.second_concept)} "
            f"(via {self.second_assertion})"
        )


def _local(iri: str) -> str:
    for sep in ("#", "/"):
        if sep in iri:
            return iri.rsplit(sep, 1)[1]
    return iri


@dataclass
class ConsistencyReport:
    checked_pairs: int
    executed_queries: int
    skipped_incompatible: int
    witnesses: List[InconsistencyWitness]

    @property
    def consistent(self) -> bool:
        return not self.witnesses


class OBDAConsistencyChecker:
    """Checks disjointness axioms against the virtual instance via SQL."""

    def __init__(
        self,
        database: Database,
        reasoner: QLReasoner,
        mappings: MappingCollection,
    ):
        self.database = database
        self.reasoner = reasoner
        self.mappings = mappings

    def _class_assertions(self, concept: BasicConcept) -> List[MappingAssertion]:
        """Assertions whose subjects populate a basic concept.

        The mapping collection is assumed to be T-mapping-compiled, so the
        named-class entry already covers all subsumees; for robustness we
        also fall back to the saturation here.
        """
        assertions: List[MappingAssertion] = []
        if isinstance(concept, ClassConcept):
            assertions.extend(
                a
                for a in self.mappings.for_entity(concept.iri)
                if a.is_class_assertion
            )
            if not assertions:
                for sub in self.reasoner.subconcepts_of(concept):
                    if isinstance(sub, ClassConcept):
                        assertions.extend(
                            a
                            for a in self.mappings.for_entity(sub.iri)
                            if a.is_class_assertion
                        )
        return assertions

    def _violation_query(
        self, first: MappingAssertion, second: MappingAssertion
    ) -> Optional[sql.SelectStatement]:
        """SQL returning IRI-template arguments of shared individuals."""
        if not isinstance(first.subject, IriTermMap) or not isinstance(
            second.subject, IriTermMap
        ):
            return None
        first_template = first.subject.template
        second_template = second.subject.template
        if not first_template.compatible_with(second_template):
            return None
        left = sql.SubquerySource(first.parsed_source(), "ca")
        right = sql.SubquerySource(second.parsed_source(), "cb")
        condition = sql.conjunction(
            [
                sql.BinaryOp(
                    "=",
                    sql.ColumnRef(first_col, "ca"),
                    sql.ColumnRef(second_col, "cb"),
                )
                for first_col, second_col in zip(
                    first_template.columns, second_template.columns
                )
            ]
        ) or sql.LiteralValue(True)
        items = tuple(
            sql.SelectItem(sql.ColumnRef(column, "ca"), f"k{index}")
            for index, column in enumerate(first_template.columns)
        )
        return sql.SelectStatement(
            items=items,
            source=sql.Join("INNER", left, right, condition),
            distinct=True,
            limit=10,
        )

    def check_pair(
        self, first: BasicConcept, second: BasicConcept
    ) -> Tuple[List[InconsistencyWitness], int, int]:
        """Witnesses for one disjoint pair; returns (witnesses, run, skipped)."""
        witnesses: List[InconsistencyWitness] = []
        executed = 0
        skipped = 0
        for a, b in itertools.product(
            self._class_assertions(first), self._class_assertions(second)
        ):
            statement = self._violation_query(a, b)
            if statement is None:
                skipped += 1
                continue
            executed += 1
            result = self.database.execute(statement)
            assert isinstance(a.subject, IriTermMap)
            for row in result.rows:
                iri = a.subject.template.render(list(row))
                if iri is None:
                    continue
                witnesses.append(
                    InconsistencyWitness(
                        iri=iri,
                        first_concept=str(first),
                        second_concept=str(second),
                        first_assertion=a.id,
                        second_assertion=b.id,
                    )
                )
        return witnesses, executed, skipped

    def check(self, max_witnesses: Optional[int] = None) -> ConsistencyReport:
        """Check every saturated disjointness pair."""
        witnesses: List[InconsistencyWitness] = []
        executed = 0
        skipped = 0
        pairs = 0
        for first, second in sorted(
            self.reasoner.disjoint_pairs(), key=lambda p: sorted(str(c) for c in p)
        ):
            pairs += 1
            pair_witnesses, pair_executed, pair_skipped = self.check_pair(
                first, second
            )
            witnesses.extend(pair_witnesses)
            executed += pair_executed
            skipped += pair_skipped
            if max_witnesses is not None and len(witnesses) >= max_witnesses:
                break
        return ConsistencyReport(
            checked_pairs=pairs,
            executed_queries=executed,
            skipped_incompatible=skipped,
            witnesses=witnesses,
        )


def check_consistency(
    database: Database,
    reasoner: QLReasoner,
    mappings: MappingCollection,
    max_witnesses: Optional[int] = None,
) -> ConsistencyReport:
    """Convenience wrapper."""
    checker = OBDAConsistencyChecker(database, reasoner, mappings)
    return checker.check(max_witnesses)
