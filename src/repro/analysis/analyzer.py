"""obdalint orchestration: run all three passes over one OBDA setup.

The analyzer first builds the verified :class:`FactBase` (catalog scans,
key verification, entity emptiness), then runs:

1. the **mapping pass** -- every R2RML source validated against the
   relational catalog;
2. the **ontology pass** -- empty entities and TBox unsatisfiability;
3. the **query pass** -- the benchmark catalogue (required) plus any
   fuzzed queries (advisory).

The same FactBase that licenses the findings is handed to the caller so
it can drive the engine's constraint-aware unfolding.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from ..obda.mapping import MappingCollection
from ..owl.model import Ontology
from ..sparql.ast import SelectQuery
from ..sql.engine import Database
from .constraints import build_constraints
from .facts import build_factbase
from .mapping_pass import run_mapping_pass
from .model import AnalysisReport
from .ontology_pass import run_ontology_pass
from .perf_pass import DEFAULT_CARDINALITY_THRESHOLD, run_perf_pass
from .query_pass import run_query_pass

QueryMap = Dict[str, Union[str, SelectQuery]]


def analyze(
    database: Database,
    ontology: Ontology,
    mappings: MappingCollection,
    queries: Optional[QueryMap] = None,
    advisory_queries: Optional[QueryMap] = None,
    verify_data: bool = True,
    perf: bool = True,
    perf_threshold: float = DEFAULT_CARDINALITY_THRESHOLD,
    constraints: bool = True,
    constraint_declarations: str = "",
) -> AnalysisReport:
    """Run obdalint end to end and return the report (with FactBase)."""
    started = time.perf_counter()
    factbase = build_factbase(
        database=database,
        ontology=ontology,
        mappings=mappings,
        verify_data=verify_data,
    )
    report = AnalysisReport(factbase=factbase)
    passes = ["mapping"]
    report.extend(run_mapping_pass(database.catalog, mappings))
    passes.append("ontology")
    report.extend(run_ontology_pass(ontology, factbase))
    if constraints:
        passes.append("constraints")
        report.constraints = build_constraints(
            database=database,
            ontology=ontology,
            mappings=mappings,
            declarations=constraint_declarations,
            verify_data=verify_data,
        )
        report.extend(report.constraints.findings)
    if queries or advisory_queries:
        passes.append("query")
        report.extend(
            run_query_pass(
                ontology,
                mappings,
                factbase,
                queries or {},
                advisory_queries,
            )
        )
    if perf and queries:
        passes.append("perf")
        report.extend(
            run_perf_pass(
                database,
                ontology,
                mappings,
                factbase,
                queries,
                threshold=perf_threshold,
            )
        )
    report.passes = tuple(passes)
    report.elapsed_seconds = time.perf_counter() - started
    return report
