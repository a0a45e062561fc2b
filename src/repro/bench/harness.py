"""Bench harness: scale ladders, shared engines and report output.

Builds the ``NPD1 .. NPDn`` instance ladder once per process and shares it
across benchmark files; every bench prints its paper-style table and also
writes it under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..mixer import Mixer, MixReport, OBDASystemAdapter
from ..npd import Benchmark, build_benchmark
from ..obda import OBDAEngine, materialize
from ..sql import Database, EngineProfile
from ..sql.ast import Join, SelectStatement, SubquerySource, TableRef
from ..vig import VIG


@dataclass
class ScaledInstance:
    """One rung of the NPD scale ladder."""

    label: str
    growth: float
    database: Database
    triples: Optional[int] = None  # filled lazily (materialization is slow)


@dataclass
class BenchContext:
    benchmark: Benchmark
    instances: Dict[float, ScaledInstance] = field(default_factory=dict)
    _databases: Dict[tuple, Database] = field(default_factory=dict)
    _engines: Dict[tuple, OBDAEngine] = field(default_factory=dict)

    def instance(self, growth: float) -> ScaledInstance:
        if growth not in self.instances:
            if growth == 1:
                database = self.benchmark.database
            else:
                database = self.benchmark.database.clone_with_data()
                VIG(database, seed=13).grow(growth)
            self.instances[growth] = ScaledInstance(
                label=f"NPD{int(growth)}", growth=growth, database=database
            )
        return self.instances[growth]

    def database(self, growth: float, profile: EngineProfile) -> Database:
        """The rung's data under *profile*, cloned once per profile."""
        key = (growth, profile.name)
        if key not in self._databases:
            instance = self.instance(growth)
            self._databases[key] = (
                instance.database
                if instance.database.profile.name == profile.name
                else instance.database.clone_with_data(profile)
            )
        return self._databases[key]

    def engine(self, growth: float, profile: EngineProfile) -> OBDAEngine:
        """One engine per rung and profile, shared by every caller."""
        key = (growth, profile.name)
        if key not in self._engines:
            self._engines[key] = OBDAEngine(
                self.database(growth, profile),
                self.benchmark.ontology,
                self.benchmark.mappings,
            )
        return self._engines[key]

    def run_mix(
        self, growth: float, profile: EngineProfile, queries: Mapping[str, str]
    ) -> MixReport:
        """One Mixer run of *queries*, without warm-up, on a fresh engine
        over the shared data: every query compiles cold, whatever ran in
        this process before."""
        engine = OBDAEngine(
            self.database(growth, profile),
            self.benchmark.ontology,
            self.benchmark.mappings,
        )
        return Mixer(OBDASystemAdapter(engine), queries, warmup_runs=0).run(runs=1)

    def triples(self, growth: float) -> int:
        instance = self.instance(growth)
        if instance.triples is None:
            result = materialize(instance.database, self.benchmark.mappings)
            instance.triples = result.triples
        return instance.triples


_CONTEXT: Optional[BenchContext] = None


def build_context(seed: int = 1) -> BenchContext:
    """Process-wide singleton context (instances are expensive)."""
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = BenchContext(benchmark=build_benchmark(seed=seed))
    return _CONTEXT


# ---------------------------------------------------------------------------
# SQL shape statistics (Table 7's #join column and the ablation benches)
# ---------------------------------------------------------------------------


def query_sql_stats(engine: OBDAEngine, sparql: str) -> Dict[str, int]:
    """Joins/unions/characters of the unfolded SQL for one query."""
    unfolded = engine.unfold(sparql)
    if unfolded.statement is None:
        return {"joins": 0, "unions": 0, "characters": 0}
    return {
        "joins": _count_joins_deep(unfolded.statement),
        "unions": unfolded.union_blocks,
        "characters": len(unfolded.sql_text),
    }


def _count_joins_deep(statement: SelectStatement) -> int:
    def in_source(source: Optional[TableRef]) -> int:
        if source is None:
            return 0
        if isinstance(source, Join):
            return 1 + in_source(source.left) + in_source(source.right)
        if isinstance(source, SubquerySource):
            return in_statement(source.query)
        return 0

    def in_statement(stmt: SelectStatement) -> int:
        total = in_source(stmt.source)
        if stmt.union is not None:
            total += in_statement(stmt.union.query)
        return total

    return in_statement(statement)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def save_report(name: str, text: str) -> str:
    """Print a bench report and persist it under benchmarks/results/."""
    directory = os.environ.get("REPRO_BENCH_RESULTS", "benchmarks/results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    print()
    print(text)
    return path
