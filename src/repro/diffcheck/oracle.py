"""Three-way differential correctness oracle for the OBDA engine.

Every query is answered through three independent pipelines:

1. **obda** -- the virtual :class:`~repro.obda.system.OBDAEngine`
   (rewrite, unfold to SQL, execute, translate);
2. **store** -- the materialized
   :class:`~repro.obda.triplestore.RewritingTripleStore` (same certain
   answers through a completely different evaluation path: graph matching
   over the materialized triples with query-time QL rewriting);
3. **plain** -- a vanilla :class:`~repro.sparql.evaluator.SparqlEvaluator`
   over the hierarchy-saturated materialized graph (no rewriting at all).

Answers are compared under bag semantics after term normalization
(:mod:`repro.diffcheck.normalize`).  Disagreements fall into *explained*
categories before anything is reported as a bug:

``set-match``
    bags differ but sets agree -- the pipelines are faithful on certain
    answers and differ only in duplicate multiplicity (the OBDA unfolder
    deduplicates union blocks, graph matching deduplicates per BGP);
``limit-ambiguous``
    the query carries LIMIT/OFFSET and the bags agree once the cut is
    removed -- any row subset of the right size is a correct answer;
``existential-skip``
    the plain pipeline is skipped because the query exercises existential
    (tree-witness) reasoning, which saturation cannot replicate;
``rewrite-capped``
    a pipeline whose rewriting hit the ``max_ucq`` safety valve is
    missing answers (and only missing -- extra answers from a capped
    pipeline are still a mismatch); the no-tmappings ablation expands
    hierarchies as UCQ branches and routinely saturates the cap;
``error``/``mismatch``
    everything else: a genuine counterexample, minimized by the shrinker.

The oracle also exposes :meth:`DifferentialOracle.quality_probe`, a hook
for the Mixer's :class:`~repro.mixer.systems.ProbedSystemAdapter` that
stamps each :class:`ExecutionRecord` with the oracle verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obda.mapping import MappingCollection
from ..obda.materializer import materialize
from ..obda.system import OBDAEngine
from ..obda.triplestore import RewritingTripleStore
from ..owl.abox import saturate_graph
from ..owl.model import Ontology
from ..owl.reasoner import QLReasoner
from ..rdf.graph import Graph
from ..sparql.evaluator import SparqlEvaluator, SparqlResult
from ..sparql.parser import parse_query
from ..sql.engine import Database
from .normalize import canonical_bag, compare_bags
from .serialize import query_to_sparql
from .shrinker import shrink_query

# verdict statuses, ordered from best to worst
MATCH = "match"
SET_MATCH = "set-match"
LIMIT_AMBIGUOUS = "limit-ambiguous"
EXISTENTIAL_SKIP = "existential-skip"
REWRITE_CAPPED = "rewrite-capped"
ERROR = "error"
MISMATCH = "mismatch"

_SEVERITY = {
    MATCH: 0,
    SET_MATCH: 1,
    LIMIT_AMBIGUOUS: 2,
    EXISTENTIAL_SKIP: 3,
    REWRITE_CAPPED: 4,
    ERROR: 5,
    MISMATCH: 6,
}

EXPLAINED = frozenset(
    {MATCH, SET_MATCH, LIMIT_AMBIGUOUS, EXISTENTIAL_SKIP, REWRITE_CAPPED}
)


@dataclass(frozen=True)
class EngineConfig:
    """One cell of the engine-configuration matrix."""

    name: str
    tmappings: bool = True
    existential: bool = True
    sqo: bool = True
    #: attach an obdalint FactBase so fact-licensed unfolding fires
    facts: bool = False
    #: additionally attach a verified ConstraintSet (exact mappings +
    #: VFDs) so constraint-licensed pruning and merging fire
    constraints: bool = False
    #: SQL execution path override ("row"/"vectorized"); None = default
    executor: Optional[str] = None

    def build(
        self,
        database: Database,
        ontology: Ontology,
        mappings: MappingCollection,
    ) -> OBDAEngine:
        factbase = None
        constraints = None
        if self.facts or self.constraints:
            # lazy: the oracle must stay importable without the analyzer
            from ..analysis.facts import build_factbase

            factbase = build_factbase(
                database=database, ontology=ontology, mappings=mappings
            )
        if self.constraints:
            from ..analysis.constraints import build_constraints

            constraints = build_constraints(
                database=database, ontology=ontology, mappings=mappings
            ).constraints
        return OBDAEngine(
            database,
            ontology,
            mappings,
            enable_tmappings=self.tmappings,
            enable_existential=self.existential,
            enable_sqo=self.sqo,
            factbase=factbase,
            constraints=constraints,
            executor=self.executor,
        )


DEFAULT_CONFIG = EngineConfig("default")

DEFAULT_MATRIX: Tuple[EngineConfig, ...] = (
    DEFAULT_CONFIG,
    EngineConfig("no-tmappings", tmappings=False),
    EngineConfig("no-existential", existential=False),
    EngineConfig("no-sqo", sqo=False),
    EngineConfig("facts", facts=True),
    EngineConfig("vectorized", executor="vectorized"),
    EngineConfig("constraints", facts=True, constraints=True),
    # the configuration the benchmark publishes numbers for (best-g4)
    EngineConfig("best", facts=True, constraints=True, executor="vectorized"),
)

CONFIGS_BY_NAME: Dict[str, EngineConfig] = {
    config.name: config for config in DEFAULT_MATRIX
}


@dataclass
class PairOutcome:
    """Comparison of one pipeline pair on one query."""

    left: str
    right: str
    status: str
    detail: str = ""


@dataclass
class QueryVerdict:
    """The oracle's verdict for one query under one engine config."""

    query_id: str
    config: str
    status: str
    pairs: List[PairOutcome] = field(default_factory=list)
    obda_rows: Optional[int] = None
    store_rows: Optional[int] = None
    plain_rows: Optional[int] = None
    tree_witnesses: int = 0
    error: Optional[str] = None
    shrunk_sparql: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True unless the disagreement is unexplained."""
        return self.status in EXPLAINED

    def describe(self) -> str:
        parts = [f"{self.query_id}[{self.config}]: {self.status}"]
        if self.obda_rows is not None:
            counts = f"obda={self.obda_rows} store={self.store_rows}"
            if self.plain_rows is not None:
                counts += f" plain={self.plain_rows}"
            parts.append(counts)
        for pair in self.pairs:
            if pair.status != MATCH and pair.detail:
                parts.append(f"{pair.left}~{pair.right}: {pair.detail}")
        if self.error:
            parts.append(self.error)
        return " | ".join(parts)


@dataclass
class OracleReport:
    """All verdicts of one oracle run plus aggregate counts."""

    verdicts: List[QueryVerdict] = field(default_factory=list)

    @property
    def unexplained(self) -> List[QueryVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.unexplained

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for verdict in self.verdicts:
            tally[verdict.status] = tally.get(verdict.status, 0) + 1
        return dict(sorted(tally.items(), key=lambda kv: _SEVERITY[kv[0]]))

    def describe(self) -> str:
        lines = [
            f"{verdict.describe()}" for verdict in self.verdicts
        ]
        lines.append("")
        summary = " ".join(
            f"{status}={count}" for status, count in self.counts().items()
        )
        lines.append(f"total={len(self.verdicts)} {summary}")
        lines.append(
            "VERDICT: "
            + ("agree" if self.ok else f"{len(self.unexplained)} UNEXPLAINED")
        )
        for verdict in self.unexplained:
            if verdict.shrunk_sparql:
                lines.append("")
                lines.append(
                    f"shrunk counterexample for {verdict.query_id}"
                    f"[{verdict.config}]:"
                )
                lines.append(verdict.shrunk_sparql.rstrip())
        return "\n".join(lines) + "\n"


class DifferentialOracle:
    """Lazily materializes the instance and cross-checks the pipelines.

    All derived artifacts (materialized graph, saturated graph, triple
    store, per-config engines) are built on first use and reused; store
    and plain answers are cached per query text because they do not
    depend on the tmappings/SQO axes of the engine matrix.
    """

    def __init__(
        self,
        database: Database,
        ontology: Ontology,
        mappings: MappingCollection,
    ):
        self.database = database
        self.ontology = ontology
        self.mappings = mappings
        self._engines: Dict[str, OBDAEngine] = {}
        self._materialized: Optional[Graph] = None
        self._store: Optional[RewritingTripleStore] = None
        self._plain: Optional[SparqlEvaluator] = None
        self._store_cache: Dict[Tuple[str, bool], object] = {}
        self._plain_cache: Dict[str, SparqlResult] = {}

    # -- pipeline construction ---------------------------------------------

    @property
    def materialized(self) -> Graph:
        if self._materialized is None:
            self._materialized = materialize(self.database, self.mappings).graph
        return self._materialized

    @property
    def store(self) -> RewritingTripleStore:
        if self._store is None:
            store = RewritingTripleStore(self.ontology)
            store.load_graph(self.materialized)
            self._store = store
        return self._store

    @property
    def plain(self) -> SparqlEvaluator:
        if self._plain is None:
            saturated = Graph()
            saturated.update(iter(self.materialized))
            saturate_graph(saturated, QLReasoner.of(self.ontology))
            self._plain = SparqlEvaluator(saturated)
        return self._plain

    def engine(self, config: EngineConfig = DEFAULT_CONFIG) -> OBDAEngine:
        engine = self._engines.get(config.name)
        if engine is None:
            engine = config.build(self.database, self.ontology, self.mappings)
            self._engines[config.name] = engine
        return engine

    def set_engine(self, config: EngineConfig, engine: OBDAEngine) -> None:
        """Inject a pre-built engine (e.g. a shared test fixture)."""
        self._engines[config.name] = engine

    # -- answer caches ------------------------------------------------------

    def _store_answer(self, sparql: str, existential: bool):
        key = (sparql, existential)
        answer = self._store_cache.get(key)
        if answer is None:
            answer = self.store.execute(sparql, enable_existential=existential)
            self._store_cache[key] = answer
        return answer

    def _plain_answer(self, sparql: str) -> SparqlResult:
        result = self._plain_cache.get(sparql)
        if result is None:
            result = self.plain.execute(sparql)
            self._plain_cache[sparql] = result
        return result

    # -- checking -----------------------------------------------------------

    def check(
        self,
        query_id: str,
        sparql: str,
        config: EngineConfig = DEFAULT_CONFIG,
        shrink: bool = True,
    ) -> QueryVerdict:
        """Run *sparql* through all three pipelines and compare."""
        verdict = self._check_once(query_id, sparql, config)
        if shrink and not verdict.ok:
            verdict.shrunk_sparql = shrink_query(
                sparql, self._still_failing(query_id, config)
            )
        return verdict

    def check_matrix(
        self,
        query_id: str,
        sparql: str,
        configs: Sequence[EngineConfig] = DEFAULT_MATRIX,
        shrink: bool = True,
    ) -> List[QueryVerdict]:
        return [
            self.check(query_id, sparql, config, shrink=shrink)
            for config in configs
        ]

    def _still_failing(
        self, query_id: str, config: EngineConfig
    ) -> Callable[[str], bool]:
        def predicate(candidate: str) -> bool:
            verdict = self._check_once(query_id, candidate, config)
            return not verdict.ok

        return predicate

    def _check_once(
        self, query_id: str, sparql: str, config: EngineConfig
    ) -> QueryVerdict:
        try:
            query = parse_query(sparql)
        except Exception as exc:  # noqa: BLE001 - malformed input is a verdict
            return QueryVerdict(
                query_id, config.name, ERROR, error=f"parse: {exc}"
            )
        is_ask = query.is_ask

        # pipeline 1: virtual OBDA (executed by text so the engine's
        # compiled-artifact cache is on the differential path)
        try:
            engine = self.engine(config)
            obda = engine.execute(sparql)
        except Exception as exc:  # noqa: BLE001
            return QueryVerdict(
                query_id, config.name, ERROR, error=f"obda: {exc}"
            )
        # pipeline 2: materialized store + query-time rewriting
        try:
            store = self._store_answer(sparql, config.existential)
        except Exception as exc:  # noqa: BLE001
            return QueryVerdict(
                query_id, config.name, ERROR, error=f"store: {exc}"
            )
        tree_witnesses = max(
            store.tree_witness_count,
            obda.metrics.tree_witnesses,
        )
        # pipeline 3: plain evaluation over the saturated graph -- only
        # comparable when no existential reasoning fired (saturation
        # covers hierarchies but cannot invent anonymous individuals)
        plain: Optional[SparqlResult] = None
        if not config.existential or tree_witnesses == 0:
            try:
                plain = self._plain_answer(sparql)
            except Exception as exc:  # noqa: BLE001
                return QueryVerdict(
                    query_id, config.name, ERROR, error=f"plain: {exc}"
                )

        verdict = QueryVerdict(
            query_id,
            config.name,
            MATCH,
            tree_witnesses=tree_witnesses,
        )

        # a pipeline whose rewriting hit the UCQ cap answers a sound but
        # incomplete UCQ prefix: its missing answers are explained, its
        # extra answers are not
        capped = set()
        if getattr(obda.metrics, "rewriting_truncated", False):
            capped.add("obda")
        if getattr(store, "truncated", False):
            capped.add("store")

        if is_ask:
            obda_answer = len(obda.rows) > 0
            store_answer = bool(store.result.boolean)
            verdict.pairs.append(
                _boolean_pair("obda", "store", obda_answer, store_answer, capped)
            )
            if plain is not None:
                verdict.pairs.append(
                    _boolean_pair(
                        "obda", "plain", obda_answer, bool(plain.boolean), capped
                    )
                )
            else:
                verdict.pairs.append(
                    PairOutcome("obda", "plain", EXISTENTIAL_SKIP)
                )
        else:
            obda_bag = canonical_bag(obda.variables, obda.rows)
            store_bag = canonical_bag(
                store.result.variables, store.result.rows
            )
            verdict.obda_rows = len(obda.rows)
            verdict.store_rows = len(store.result.rows)
            verdict.pairs.append(
                self._row_pair(
                    "obda", "store", obda_bag, store_bag, query, config, capped
                )
            )
            if plain is not None:
                plain_bag = canonical_bag(plain.variables, plain.rows)
                verdict.plain_rows = len(plain.rows)
                verdict.pairs.append(
                    self._row_pair(
                        "obda", "plain", obda_bag, plain_bag, query, config, capped
                    )
                )
            else:
                verdict.pairs.append(
                    PairOutcome("obda", "plain", EXISTENTIAL_SKIP)
                )

        verdict.status = max(
            (pair.status for pair in verdict.pairs),
            key=lambda status: _SEVERITY[status],
        )
        return verdict

    def _row_pair(
        self,
        left_name: str,
        right_name: str,
        left_bag,
        right_bag,
        query,
        config: EngineConfig,
        capped: frozenset = frozenset(),
    ) -> PairOutcome:
        comparison = compare_bags(left_bag, right_bag)
        if comparison.equal:
            return PairOutcome(left_name, right_name, MATCH)
        if comparison.set_equal:
            return PairOutcome(
                left_name,
                right_name,
                SET_MATCH,
                "set-equal, multiplicities differ",
            )
        if query.limit is not None or query.offset:
            # any size-LIMIT subset is correct; re-compare without the cut
            uncut = replace(query, limit=None, offset=None)
            try:
                uncut_sparql = query_to_sparql(uncut)
                engine = self.engine(config)
                obda = engine.execute(uncut_sparql)
                left_full = canonical_bag(obda.variables, obda.rows)
                if right_name == "store":
                    answer = self._store_answer(
                        uncut_sparql, config.existential
                    )
                    right_full = canonical_bag(
                        answer.result.variables, answer.result.rows
                    )
                else:
                    result = self._plain_answer(uncut_sparql)
                    right_full = canonical_bag(result.variables, result.rows)
            except Exception:  # noqa: BLE001 - fall through to mismatch
                pass
            else:
                uncut_comparison = compare_bags(left_full, right_full)
                if uncut_comparison.equal or uncut_comparison.set_equal:
                    return PairOutcome(
                        left_name,
                        right_name,
                        LIMIT_AMBIGUOUS,
                        "bags agree once LIMIT/OFFSET is removed",
                    )
        capped_explains = (
            # a capped side may only be MISSING rows relative to the other
            (left_name in capped and not comparison.only_left)
            or (right_name in capped and not comparison.only_right)
            or (left_name in capped and right_name in capped)
        )
        if capped_explains:
            return PairOutcome(
                left_name,
                right_name,
                REWRITE_CAPPED,
                "rewriting hit the UCQ cap; missing answers expected",
            )
        return PairOutcome(
            left_name,
            right_name,
            MISMATCH,
            comparison.describe(left_name, right_name),
        )

    # -- mixer integration --------------------------------------------------

    def quality_probe(
        self, config: EngineConfig = DEFAULT_CONFIG
    ) -> Callable[[str, str, object], None]:
        """A Mixer probe stamping oracle agreement into record.quality."""

        def probe(query_id: str, sparql: str, record) -> None:
            verdict = self.check(query_id, sparql, config, shrink=False)
            record.quality["oracle_verdict"] = verdict.status
            record.quality["oracle_agreement"] = verdict.ok

        return probe


def _boolean_pair(
    left_name: str,
    right_name: str,
    left: bool,
    right: bool,
    capped: frozenset = frozenset(),
) -> PairOutcome:
    if left == right:
        return PairOutcome(left_name, right_name, MATCH)
    # a capped pipeline can miss the witness and answer False, never the
    # other way around
    false_side = left_name if not left else right_name
    if false_side in capped:
        return PairOutcome(
            left_name,
            right_name,
            REWRITE_CAPPED,
            "rewriting hit the UCQ cap; missing witness expected",
        )
    return PairOutcome(
        left_name,
        right_name,
        MISMATCH,
        f"{left_name}={left} {right_name}={right}",
    )
