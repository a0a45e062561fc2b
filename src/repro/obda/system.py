"""The OBDA engine: the Ontop-like system under benchmark.

Implements the four-phase workflow of Section 3:

1. **starting phase** -- load ontology + mappings, classify the TBox and
   compile T-mappings;
2. **query rewriting** -- tree-witness rewriting of each BGP (existential
   reasoning; hierarchies are already inside the T-mappings);
3. **query translation (unfolding)** -- SPARQL algebra to SQL over the
   compiled mappings, with semantic query optimization;
4. **query execution** -- run the SQL on the relational engine and
   translate each answer column back into RDF terms, dictionary-encoded
   (:mod:`repro.rdf.answers`).

Every phase reports its own wall-clock time so the Mixer can fill the
measure table (Table 1) of the paper.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..owl.model import Ontology
from ..owl.reasoner import QLReasoner
from ..rdf.answers import (
    LITERAL,
    URI,
    Answer,
    Column,
    Entry,
    check_iris,
    term_of,
)
from ..rdf.terms import (
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from ..sparql.ast import SelectQuery
from ..sparql.parser import parse_query
from ..sql.engine import Database
from ..sql.plan import CompiledPlan
from .mapping import MappingCollection
from .rewriter import TreeWitnessRewriter
from .tmappings import TMappingResult, compile_tmappings
from .unfolder import UnfoldResult, Unfolder, VarMeta


@dataclass
class PhaseTimings:
    """Wall-clock seconds per workflow phase (Table 1 measures)."""

    loading: float = 0.0
    rewriting: float = 0.0
    unfolding: float = 0.0
    execution: float = 0.0
    translation: float = 0.0
    #: logical SQL planning (cache lookup on the warm path); kept separate
    #: from ``execution`` so warm/cold compile costs are observable
    planning: float = 0.0

    @property
    def overall_response(self) -> float:
        """Phases 2+3+4 -- the paper's 'overall response time'."""
        return (
            self.rewriting
            + self.unfolding
            + self.planning
            + self.execution
            + self.translation
        )

    @property
    def weight_of_r_u(self) -> float:
        """'Weight of R+U': SQL construction cost over the overall cost."""
        overall = self.overall_response
        if overall == 0:
            return 0.0
        return (self.rewriting + self.unfolding + self.planning) / overall


@dataclass
class QualityMetrics:
    """The paper's quality measures for one query."""

    tree_witnesses: int = 0
    ucq_size: int = 0
    sql_union_blocks: int = 0
    #: union blocks left out because an earlier block repeats them
    sql_duplicate_blocks: int = 0
    sql_characters: int = 0
    pruned_combinations: int = 0
    #: the rewriter's max_ucq safety valve fired (answers may be missing)
    rewriting_truncated: bool = False
    merged_self_joins: int = 0
    #: the whole SPARQL->SQL artifact came from the engine's query cache
    compile_cache_hit: bool = False
    #: fact-licensed optimizations (zero unless a FactBase is attached)
    elided_null_guards: int = 0
    eliminated_joins: int = 0
    empty_disjuncts_skipped: int = 0
    facts_fired: Tuple[str, ...] = ()
    #: constraint-licensed optimizations (zero unless a ConstraintSet is
    #: attached): VFD-merged self-joins and exact-pruned union disjuncts
    merged_vfd_joins: int = 0
    constraint_pruned_disjuncts: int = 0
    constraints_fired: Tuple[str, ...] = ()


@dataclass
class OBDAResult:
    """The answer, dictionary-encoded per column, plus per-phase metrics."""

    variables: List[str]
    answer: Answer
    timings: PhaseTimings
    metrics: QualityMetrics
    sql_text: str

    @cached_property
    def rows(self) -> List[Tuple[Optional[Term], ...]]:
        """The answer as rows of RDF terms, built on first access."""
        return self.answer.rows()

    def __len__(self) -> int:
        return len(self.answer)

    def __iter__(self):
        return iter(self.rows)

    def to_python_rows(self) -> List[Tuple[Any, ...]]:
        converted = []
        for row in self.rows:
            values: List[Any] = []
            for term in row:
                if term is None:
                    values.append(None)
                elif isinstance(term, Literal):
                    values.append(term.to_python())
                else:
                    values.append(str(term))
            converted.append(tuple(values))
        return converted


@dataclass
class CompiledQuery:
    """The end-to-end SPARQL->SQL artifact the engine caches.

    Holds the unfold result (SQL text, column metadata, quality metrics)
    plus the database-compiled logical plan.  Data mutations never make
    the artifact wrong: the SPARQL->SQL translation depends only on the
    engine's ontology, mappings and verified artifacts (demotion rebuilds
    the pipeline and empties the cache), and the attached plan self-heals
    against the database's generation counter inside
    :meth:`Database.execute_plan`.
    """

    unfolded: UnfoldResult
    plan: Optional[CompiledPlan]
    rewriting_seconds: float
    unfolding_seconds: float
    planning_seconds: float


class OBDAEngine:
    """An OBDA system instance over one database + ontology + mappings."""

    #: bound on the compiled-artifact cache (a mix is 21 queries)
    QUERY_CACHE_LIMIT = 256

    def __init__(
        self,
        database: Database,
        ontology: Ontology,
        mappings: MappingCollection,
        enable_tmappings: bool = True,
        enable_existential: bool = True,
        enable_sqo: bool = True,
        max_ucq: int = 2048,
        factbase=None,
        constraints=None,
        executor: Optional[str] = None,
    ):
        started = time.perf_counter()
        self.database = database
        #: execution path override for unfolded SQL ("row"/"vectorized");
        #: None runs the row executor
        self.executor = executor
        self.ontology = ontology
        self.raw_mappings = mappings
        self.enable_tmappings = enable_tmappings
        self.enable_existential = enable_existential
        self.enable_sqo = enable_sqo
        self.max_ucq = max_ucq
        #: optional :class:`repro.analysis.facts.FactBase` licensing the
        #: constraint-driven unfolding optimizations (duck-typed; the obda
        #: package never imports repro.analysis at runtime)
        self.factbase = factbase
        #: optional :class:`repro.analysis.constraints.ConstraintSet` of
        #: verified exact-mapping/VFD constraints; sound because UCQ unions
        #: deduplicate (dropping a duplicate disjunct changes no answer set)
        self.constraints = constraints
        #: FACT_STALE findings recorded when DML outran verified artifacts
        self.stale_findings: List[Any] = []
        self.reasoner = QLReasoner.of(ontology)
        self.tmapping_result: Optional[TMappingResult] = None
        if enable_tmappings:
            # the containment pass is part of the semantic optimizations
            self.tmapping_result = compile_tmappings(
                self.reasoner, mappings, optimize=enable_sqo
            )
            active_mappings = self.tmapping_result.mappings
        else:
            active_mappings = mappings
        self.mappings = active_mappings
        self._build_pipeline()
        # verified-against generation of the attached artifacts: facts and
        # constraints remember the data generation they were verified at;
        # artifacts without one are pinned to the generation seen now
        self._artifact_generation = self._verified_generation()
        self._compiled: "OrderedDict[Hashable, CompiledQuery]" = OrderedDict()
        # compilation is serialized for two reasons: demotion rebuilds the
        # pipeline and empties the cache, and a compile beside it could
        # cache an artifact shaped by the demoted facts; and the rewriter
        # is shared mutable state -- it draws fresh variable names from
        # one ``_fresh_counter``.  (The unfolder keeps its per-query state
        # in a per-call object.)  Executing cached artifacts stays
        # concurrent
        self._compile_lock = threading.Lock()
        # guards the cache dict + hit/miss counters only, so cache hits
        # never wait behind a slow compile holding _compile_lock
        self._cache_lock = threading.Lock()
        self.query_cache_hits = 0
        self.query_cache_misses = 0
        self.loading_seconds = time.perf_counter() - started

    def _build_pipeline(self) -> None:
        """(Re)build rewriter + unfolder from the current artifacts."""
        self.rewriter = TreeWitnessRewriter(
            self.reasoner,
            expand_hierarchy=not self.enable_tmappings,
            enable_existential=self.enable_existential,
            max_ucq=self.max_ucq,
            factbase=self.factbase,
            constraints=self.constraints,
        )
        self.unfolder = Unfolder(
            self.mappings,
            self.ontology,
            rewriter=self.rewriter,
            catalog=self.database.catalog,
            enable_sqo=self.enable_sqo,
            facts=self.factbase,
            constraints=self.constraints,
            raw_mappings=self.raw_mappings,
        )

    def _verified_generation(self) -> Optional[int]:
        """The data generation the attached artifacts were verified at.

        FactBase and ConstraintSet are stamped by their builders; an
        artifact without a stamp is pinned to the generation current now.
        None when no artifact is attached (nothing can go stale).
        """
        stamps = [
            getattr(artifact, "generation", None)
            for artifact in (self.factbase, self.constraints)
            if artifact is not None
        ]
        if not stamps:
            return None
        known = [stamp for stamp in stamps if stamp is not None]
        if len(known) < len(stamps):
            known.append(self.database.plan_generation)
        return min(known)

    # -- artifact staleness -----------------------------------------------------

    def check_freshness(self) -> None:
        """Demote verified artifacts the data has outrun.

        Facts and constraints are verified against a snapshot of the data;
        any DML since (tracked by the database's plan generation counter)
        silently invalidates them.  Runs on *every* execute -- including
        the compile-cache-hit path, since cached SQL artifacts were shaped
        by the stale facts too.  Demotion drops the artifacts, rebuilds
        the pipeline without them, empties the query cache and records
        a ``FACT_STALE`` warning finding; answers stay correct, only the
        fact/constraint-licensed optimizations are lost.
        """
        expected = self._artifact_generation
        if expected is None or self.database.plan_generation == expected:
            return
        with self._compile_lock:
            expected = self._artifact_generation
            if expected is None or self.database.plan_generation == expected:
                return
            self._demote_stale_artifacts(expected)

    def _demote_stale_artifacts(self, expected: int) -> None:
        """Caller holds ``_compile_lock``."""
        from ..analysis.model import Finding, Severity

        stale = []
        if self.factbase is not None:
            stale.append(f"factbase[{len(self.factbase)} facts]")
        if self.constraints is not None:
            counts = self.constraints.counts()
            stale.append(
                f"constraints[{counts['exact']} exact, {counts['vfd']} vfd]"
            )
        current = self.database.plan_generation
        self.stale_findings.append(
            Finding(
                code="FACT_STALE",
                severity=Severity.WARNING,
                layer="facts",
                subject=", ".join(stale),
                message=(
                    f"data generation moved {expected} -> {current} since "
                    f"verification; demoting {' and '.join(stale)} and "
                    f"recompiling without them (re-run the analysis passes "
                    f"to restore the optimizations)"
                ),
            )
        )
        self.factbase = None
        self.constraints = None
        self._artifact_generation = None
        self._build_pipeline()
        with self._cache_lock:
            self._compiled.clear()

    # ------------------------------------------------------------------

    def unfold(self, sparql: str | SelectQuery) -> UnfoldResult:
        """Phases 2+3 only: produce the SQL without executing it."""
        self.check_freshness()
        query = parse_query(sparql) if isinstance(sparql, str) else sparql
        with self._compile_lock:
            return self.unfolder.unfold_query(query)

    def ask(self, sparql: str | SelectQuery) -> bool:
        """Answer an ASK query (or any query, testing answer existence)."""
        query = parse_query(sparql) if isinstance(sparql, str) else sparql
        result = self.execute(query)
        return len(result) > 0

    # -- compilation cache ------------------------------------------------------

    def _cache_key(self, sparql: str | SelectQuery) -> Optional[Hashable]:
        if isinstance(sparql, str):
            return ("text", sparql)
        try:
            hash(sparql)
        except TypeError:
            return None
        return ("ast", sparql)

    def _compile_query(
        self, sparql: str | SelectQuery
    ) -> Tuple[CompiledQuery, bool]:
        """Compile (or fetch) the end-to-end artifact for one query."""
        key = self._cache_key(sparql)
        if key is not None:
            artifact = self._cache_lookup(key)
            if artifact is not None:
                return artifact, True
        with self._compile_lock:
            if key is not None:
                artifact = self._cache_lookup(key)
                if artifact is not None:
                    return artifact, True
            query = parse_query(sparql) if isinstance(sparql, str) else sparql
            unfold_started = time.perf_counter()
            unfolded = self.unfolder.unfold_query(query)
            unfold_elapsed = time.perf_counter() - unfold_started
            rewriting_seconds = (
                unfolded.rewriting.elapsed_seconds if unfolded.rewriting else 0.0
            )
            planning_started = time.perf_counter()
            plan = (
                self.database.compile(unfolded.statement)
                if unfolded.statement is not None
                else None
            )
            planning_seconds = time.perf_counter() - planning_started
            artifact = CompiledQuery(
                unfolded=unfolded,
                plan=plan,
                rewriting_seconds=rewriting_seconds,
                unfolding_seconds=max(0.0, unfold_elapsed - rewriting_seconds),
                planning_seconds=planning_seconds,
            )
            with self._cache_lock:
                self.query_cache_misses += 1
                if key is not None:
                    self._compiled[key] = artifact
                    while len(self._compiled) > self.QUERY_CACHE_LIMIT:
                        self._compiled.popitem(last=False)
            return artifact, False

    def _cache_lookup(self, key: Hashable) -> Optional[CompiledQuery]:
        """Fetch + LRU-touch one artifact under the cache lock."""
        with self._cache_lock:
            artifact = self._compiled.get(key)
            if artifact is None:
                return None
            self.query_cache_hits += 1
            self._compiled.move_to_end(key)
            return artifact

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the query cache, for reports."""
        with self._cache_lock:
            return {
                "query_cache_hits": self.query_cache_hits,
                "query_cache_misses": self.query_cache_misses,
                "query_cache_entries": len(self._compiled),
                # there is no rewrite cache; the e2e benchmark harness
                # still reads these two keys over its control API
                "rewrite_cache_hits": 0,
                "rewrite_cache_misses": 0,
            }

    # ------------------------------------------------------------------

    def execute(self, sparql: str | SelectQuery, token=None) -> OBDAResult:
        """Run a SPARQL query end-to-end.

        ``token`` (a :class:`repro.concurrency.CancellationToken`) makes the
        call abortable: the SQL executor polls it at operator and row-batch
        boundaries and the answer encoder polls it per column, raising
        :class:`repro.concurrency.QueryCancelled` out of this method.
        """
        if token is not None:
            token.check()
        self.check_freshness()
        compile_started = time.perf_counter()
        artifact, cache_hit = self._compile_query(sparql)
        compile_elapsed = time.perf_counter() - compile_started
        unfolded = artifact.unfolded
        if cache_hit:
            # the whole compile pipeline collapsed into one cache lookup
            timings = PhaseTimings(
                loading=self.loading_seconds,
                rewriting=0.0,
                unfolding=0.0,
                planning=compile_elapsed,
            )
        else:
            timings = PhaseTimings(
                loading=self.loading_seconds,
                rewriting=artifact.rewriting_seconds,
                unfolding=artifact.unfolding_seconds,
                planning=artifact.planning_seconds,
            )
        metrics = QualityMetrics(
            tree_witnesses=(
                unfolded.rewriting.tree_witnesses if unfolded.rewriting else 0
            ),
            ucq_size=unfolded.rewriting.ucq_size if unfolded.rewriting else 1,
            sql_union_blocks=unfolded.union_blocks,
            sql_duplicate_blocks=unfolded.duplicate_blocks,
            sql_characters=len(unfolded.sql_text),
            pruned_combinations=unfolded.pruned_combinations,
            rewriting_truncated=unfolded.rewriting_truncated,
            merged_self_joins=unfolded.merged_self_joins,
            compile_cache_hit=cache_hit,
            elided_null_guards=unfolded.elided_null_guards,
            eliminated_joins=unfolded.eliminated_joins,
            empty_disjuncts_skipped=unfolded.empty_disjuncts_skipped,
            facts_fired=unfolded.fired_facts,
            merged_vfd_joins=unfolded.merged_vfd_joins,
            constraint_pruned_disjuncts=unfolded.constraint_pruned_disjuncts,
            constraints_fired=unfolded.fired_constraints,
        )
        if artifact.plan is None:
            answer = _encode_answer([], unfolded.column_meta)
            return OBDAResult(unfolded.columns, answer, timings, metrics, unfolded.sql_text)
        execution_started = time.perf_counter()
        result = self.database.execute_plan(
            artifact.plan, token=token, executor=self.executor
        )
        timings.execution = time.perf_counter() - execution_started
        translation_started = time.perf_counter()
        answer = _encode_answer(result.rows, unfolded.column_meta, token)
        timings.translation = time.perf_counter() - translation_started
        return OBDAResult(unfolded.columns, answer, timings, metrics, unfolded.sql_text)

    # -- introspection ----------------------------------------------------------

    def analyze_database(self) -> Dict[str, Any]:
        """Run the SQL engine's ANALYZE pass (statistics for the cost model).

        Call after data loading: the statistics stay fresh until the next
        mutation, and the executor's cost-based join ordering uses them
        for its cardinality estimates.  Returns the ANALYZE summary.
        """
        return self.database.analyze()

    def explain(
        self, sparql: str | SelectQuery, analyze: bool = False
    ) -> List[str]:
        """Human-readable compile trace: phases, fired facts, SQL plan.

        With ``analyze=True`` the SQL plan section is an EXPLAIN ANALYZE:
        per-join actual (and, with fresh statistics, estimated) row
        counts plus per-disjunct row counts and timings.
        """
        self.check_freshness()
        artifact, cache_hit = self._compile_query(sparql)
        unfolded = artifact.unfolded
        lines = [f"compile: {'cached' if cache_hit else 'fresh'}"]
        if unfolded.rewriting is not None:
            lines.append(
                f"rewriting: ucq_size={unfolded.rewriting.ucq_size}"
                f" tree_witnesses={unfolded.rewriting.tree_witnesses}"
                f" truncated={unfolded.rewriting_truncated}"
            )
        lines.append(
            f"unfolding: union_blocks={unfolded.union_blocks}"
            f" duplicate_blocks={unfolded.duplicate_blocks}"
            f" sql_characters={len(unfolded.sql_text)}"
            f" pruned={unfolded.pruned_combinations}"
            f" merged_self_joins={unfolded.merged_self_joins}"
        )
        lines.append(
            f"facts: elided_null_guards={unfolded.elided_null_guards}"
            f" eliminated_joins={unfolded.eliminated_joins}"
            f" empty_disjuncts_skipped={unfolded.empty_disjuncts_skipped}"
        )
        for label in unfolded.fired_facts:
            lines.append(f"fact fired: {label}")
        lines.append(
            f"constraints: merged_vfd_joins={unfolded.merged_vfd_joins}"
            f" constraint_pruned_disjuncts="
            f"{unfolded.constraint_pruned_disjuncts}"
        )
        for label in unfolded.fired_constraints:
            lines.append(f"constraint fired: {label}")
        for finding in self.stale_findings:
            lines.append(f"stale: {finding.describe()}")
        if unfolded.statement is not None:
            lines.append("plan:")
            lines.extend(
                f"  {line}"
                for line in self.database.explain(
                    unfolded.statement, analyze=analyze, executor=self.executor
                )
            )
        else:
            lines.append("plan: <empty result, no SQL executed>")
        return lines

    def describe(self) -> Dict[str, Any]:
        return {
            "mappings": len(self.mappings),
            "raw_mappings": len(self.raw_mappings),
            "tmappings": self.enable_tmappings,
            "existential": self.enable_existential,
            "sqo": self.enable_sqo,
            "profile": self.database.profile.name,
            "loading_seconds": self.loading_seconds,
            "facts": len(self.factbase) if self.factbase is not None else 0,
            "constraints": (
                self.constraints.counts() if self.constraints is not None else {}
            ),
            "stale_findings": len(self.stale_findings),
        }


#: value types keyed by (type, value): equal values of one such type
#: translate to equal entries, float zeros aside
_MEMO_TYPES = frozenset({type(None), str, int, bool, float})


def _encode_answer(
    values: List[Tuple[Any, ...]], column_meta: List[Optional[VarMeta]], token=None
) -> Answer:
    """Phase 4 for a whole result: each column dictionary-encoded once,
    polling the cancellation token before every column."""
    columns = list(zip(*values)) or [()] * len(column_meta)
    encoded = []
    for column, meta in zip(columns, column_meta):
        if token is not None:
            token.check()
        encoded.append(_encode_column(column, meta))
    return Answer(encoded, len(values))


def _encode_column(column: Sequence[Any], meta: Optional[VarMeta]) -> Column:
    """One column as entries and codes, each distinct value translated once.

    Values are keyed by type and value, so ``1``, ``1.0`` and ``True``
    (equal in Python) stay apart, and so do ``0.0`` and ``-0.0``; values of
    other types are never shared.  A column of one such type without a
    float zero is keyed by its values alone.  A NaN key matches only the
    very same object, and every NaN translates alike.
    """
    kinds = set(map(type, column))
    keys = column
    if len(kinds - {type(None)}) > 1 or not kinds <= _MEMO_TYPES or (
        float in kinds and 0.0 in column
    ):
        keys = list(map(_value_key, column))
    index = dict.fromkeys(keys)
    distinct = index if keys is column else map(dict(zip(keys, column)).get, index)
    rule = _entry_rule(meta)
    entries = [None if value is None else rule(value) for value in distinct]
    if meta is not None and meta.kind == "iri":
        check_iris([entry[3] for entry in entries if entry is not None])
    index = dict(zip(index, range(len(index))))
    return Column(entries, list(map(index.__getitem__, keys)))


def _value_key(value: Any) -> Hashable:
    kind = type(value)
    if kind not in _MEMO_TYPES:
        return object()
    if kind is float and value == 0.0:
        return (kind, str(value))
    return (kind, value)


def _entry_rule(meta: Optional[VarMeta]) -> Callable[[Any], Entry]:
    """Phase 4 for a non-NULL SQL value of a column with *meta*: the one
    rule behind both :func:`_encode_column` and :func:`_make_term`."""
    if meta is not None and meta.kind == "iri":
        return _iri_entry
    datatype = meta.datatype if meta is not None else XSD_STRING
    if datatype == XSD_STRING:
        return _refined_entry
    if datatype in (XSD_INTEGER, XSD_DECIMAL):
        return lambda value: _integral_entry(value, datatype)
    return lambda value: _typed_entry(value, datatype)


def _iri_entry(value: Any) -> Entry:
    return (URI, None, None, str(value))


def _refined_entry(value: Any) -> Entry:
    # untyped columns (aggregates come back numeric) take the runtime type
    if isinstance(value, bool):
        return (LITERAL, XSD_BOOLEAN, None, "true" if value else "false")
    if isinstance(value, int):
        return (LITERAL, XSD_INTEGER, None, str(value))
    if isinstance(value, float):
        return (LITERAL, XSD_DOUBLE, None, str(value))
    return (LITERAL, XSD_STRING, None, str(value))


def _integral_entry(value: Any, datatype: str) -> Entry:
    # integer-valued floats collapse to the integer lexical form for the
    # integer-like datatypes; xsd:decimal must behave like xsd:integer here
    # or virtual answers render "7.0" where materialized ones say "7"
    if isinstance(value, float) and value.is_integer():
        return (LITERAL, datatype, None, str(int(value)))
    return _typed_entry(value, datatype)


def _typed_entry(value: Any, datatype: str) -> Entry:
    if isinstance(value, bool):
        return (LITERAL, datatype, None, "true" if value else "false")
    return (LITERAL, datatype, None, str(value))


def _make_term(value: Any, meta: Optional[VarMeta]) -> Optional[Term]:
    """Phase 4 for one SQL value, as a term: the per-value reference the
    column encoder is tested against."""
    return None if value is None else term_of(_entry_rule(meta)(value))
