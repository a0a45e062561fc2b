"""Tests for the cost-based physical optimizer.

Covers the ANALYZE statistics lifecycle, the cost model, join-order
correctness of both executors after ANALYZE (checked against the
differential oracle's independent pipelines over the full catalogue and
seeded fuzzer queries), cross-disjunct scan sharing and its teardown,
EXPLAIN ANALYZE output and the PERF_NO_ACCESS_PATH lint.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.perf_pass import estimate_disjunct
from repro.diffcheck import (
    CONFIGS_BY_NAME,
    DEFAULT_CONFIG,
    DifferentialOracle,
    QueryFuzzer,
)
from repro.npd import build_benchmark
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.sql.engine import Database
from repro.sql.executor import Relation
from repro.sql.expressions import RowSchema
from repro.sql.optimizer import CostModel, canonical_predicate, scan_key
from repro.sql.parser import parse_statement


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_bench():
    return build_benchmark(seed=1, profile=SeedProfile().scaled(0.1))


@pytest.fixture(scope="module")
def small_engine(small_bench):
    return OBDAEngine(
        small_bench.database, small_bench.ontology, small_bench.mappings
    )


@pytest.fixture()
def two_table_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, kind TEXT, v INTEGER)")
    db.execute(
        "CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, w INTEGER)"
    )
    db.insert_rows(
        "a", [(i, "x" if i % 3 else "y", i % 10) for i in range(300)]
    )
    db.insert_rows("b", [(i, i % 300, i % 7) for i in range(900)])
    return db


UNION_SQL = (
    "SELECT a.id, b.w FROM a, b WHERE a.id = b.a_id AND a.kind = 'x' "
    "UNION ALL "
    "SELECT a.id, b.w FROM a, b WHERE a.id = b.a_id AND a.kind = 'x' "
    "UNION ALL "
    "SELECT a.id, b.w FROM b, a WHERE a.id = b.a_id AND a.kind = 'y'"
)


# ---------------------------------------------------------------------------
# ANALYZE statistics
# ---------------------------------------------------------------------------


class TestStatistics:
    def test_collect_matches_live_counts(self, two_table_db):
        summary = two_table_db.analyze()
        assert summary["tables"] == 2
        assert summary["rows"] == 1200
        assert not summary["stale"]
        stats = two_table_db.statistics
        a = stats.table("a")
        assert a.row_count == 300
        assert a.column("id").n_distinct == 300
        assert a.column("kind").n_distinct == 2
        assert a.column("kind").null_count == 0

    def test_null_fraction(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
        db.insert_rows("t", [(i, i if i % 2 else None) for i in range(10)])
        db.analyze()
        column = db.statistics.table("t").column("x")
        assert column.null_fraction == 0.5

    def test_dml_invalidates_statistics(self, two_table_db):
        two_table_db.analyze()
        assert two_table_db.statistics_fresh
        two_table_db.execute(
            "INSERT INTO a (id, kind, v) VALUES (1000, 'z', 1)"
        )
        assert not two_table_db.statistics_fresh
        two_table_db.analyze()
        assert two_table_db.statistics_fresh
        two_table_db.execute("DELETE FROM a WHERE id = 1000")
        assert not two_table_db.statistics_fresh
        two_table_db.analyze()
        two_table_db.execute("UPDATE b SET w = 0 WHERE id = 0")
        assert not two_table_db.statistics_fresh
        two_table_db.analyze()
        two_table_db.insert_rows("a", [(2000, "q", 5)])
        assert not two_table_db.statistics_fresh

    def test_stale_statistics_ignored_by_cost_model(self, two_table_db):
        two_table_db.analyze()
        two_table_db.execute("INSERT INTO a (id, kind, v) VALUES (999, 'z', 1)")
        model = CostModel(two_table_db.statistics)
        assert not model.has_statistics

    def test_unhashable_and_mixed_values_survive(self):
        # the SQL surface coerces values to the declared type, so drive
        # _analyze_table directly with a pathological table
        from repro.sql.stats import _analyze_table

        class _Column:
            lname = "x"

        class _Table:
            name = "t"
            columns = [_Column()]

            def iter_rows(self):
                return iter([("a",), (2,), ([1, 2],)])

        stats = _analyze_table(_Table())
        column = stats.column("x")
        assert column.n_distinct == 3  # unhashable list folded via repr
        assert column.min_value is None and column.max_value is None


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def _relation(db: Database, table_name: str) -> Relation:
    table = db.catalog.table(table_name)
    schema = RowSchema([(table_name, c) for c in table.column_names])
    return Relation(schema, list(table.iter_rows()), table_name, table)


class TestCostModel:
    def test_join_estimate_formula(self, two_table_db):
        two_table_db.analyze()
        model = CostModel(two_table_db.statistics)
        a = _relation(two_table_db, "a")
        b = _relation(two_table_db, "b")
        # a.id (ndv 300) = b.a_id (ndv 300): 300*900/300 = 900
        estimate = model.join_estimate(a, b, [0], [1])
        assert estimate == pytest.approx(900.0)

    def test_equality_selectivity_uses_ndv(self, two_table_db):
        two_table_db.analyze()
        model = CostModel(two_table_db.statistics)
        a = _relation(two_table_db, "a")
        statement = parse_statement("SELECT * FROM a WHERE a.kind = 'x'")
        conjunct = statement.where
        assert model.predicate_selectivity(a, conjunct) == pytest.approx(0.5)

    def test_fallback_without_statistics(self, two_table_db):
        model = CostModel(None)
        assert not model.has_statistics
        a = _relation(two_table_db, "a")
        b = _relation(two_table_db, "b")
        # live-cardinality fallback treats every column as key-like, so
        # the divisor is max(|a|, |b|) = 900: 300*900/900 = 300
        assert model.join_estimate(a, b, [0], [1]) == pytest.approx(300.0)

    def test_canonical_predicate_alias_independent(self):
        first = parse_statement("SELECT * FROM t t0 WHERE t0.kind = 'x'").where
        second = parse_statement("SELECT * FROM t t9 WHERE t9.kind = 'x'").where
        assert canonical_predicate(first) == canonical_predicate(second)
        assert scan_key("T", [first]) == scan_key("t", [second])

    def test_subquery_predicates_not_shared(self):
        conjunct = parse_statement(
            "SELECT * FROM t WHERE t.id IN (SELECT id FROM u)"
        ).where
        assert canonical_predicate(conjunct) is None
        assert scan_key("t", [conjunct]) is None


# ---------------------------------------------------------------------------
# join-order correctness: both executors agree with the oracle
# ---------------------------------------------------------------------------

#: the two SQL execution paths; everything else at its default
EXECUTOR_CONFIGS = (DEFAULT_CONFIG, CONFIGS_BY_NAME["vectorized"])


@pytest.fixture(scope="module")
def analyzed_oracle(small_bench, small_engine):
    """The diffcheck oracle over the small instance after ANALYZE.

    Its materialized-store and plain-SPARQL pipelines share no planner
    with the SQL executors, so agreement checks the statistics-driven
    join orders rather than comparing one plan with another.
    """
    small_bench.database.analyze()
    oracle = DifferentialOracle(
        small_bench.database, small_bench.ontology, small_bench.mappings
    )
    oracle.set_engine(DEFAULT_CONFIG, small_engine)
    return oracle


def _disagreements(oracle: DifferentialOracle, queries) -> list:
    failures = []
    for config in EXECUTOR_CONFIGS:
        for query_id, sparql in queries:
            verdict = oracle.check(query_id, sparql, config, shrink=False)
            if not verdict.ok:
                failures.append(verdict.describe())
    return failures


class TestJoinOrderCorrectness:
    def test_catalogue_queries_identical_bags(self, small_bench, analyzed_oracle):
        queries = [(name, q.sparql) for name, q in small_bench.queries.items()]
        failures = _disagreements(analyzed_oracle, queries)
        assert not failures, "\n".join(failures)

    def test_fuzzer_queries_identical_bags(self, small_bench, analyzed_oracle):
        fuzzer = QueryFuzzer(
            small_bench.ontology, small_bench.mappings, seed=7
        )
        queries = [(fuzzed.id, fuzzed.sparql) for fuzzed in fuzzer.generate(10)]
        failures = _disagreements(analyzed_oracle, queries)
        assert not failures, "\n".join(failures)

    def test_sql_union_identical_bags(self, two_table_db):
        # b row i joins a row i % 300; kind 'x' rows (id % 3 != 0) match
        # the first two disjuncts, kind 'y' rows the third
        expected = Counter()
        for i in range(900):
            a_id = i % 300
            expected[(a_id, i % 7)] += 1 if a_id % 3 == 0 else 2
        two_table_db.analyze()
        plan = two_table_db.compile(UNION_SQL)
        for executor in Database.EXECUTORS:
            result = two_table_db.execute_plan(plan, executor=executor)
            assert Counter(result.rows) == expected, executor


# ---------------------------------------------------------------------------
# scan sharing
# ---------------------------------------------------------------------------


class TestScanSharing:
    def test_reuse_counters(self, two_table_db):
        two_table_db.execute(UNION_SQL)
        stats = two_table_db.stats
        # disjunct 2 reuses disjunct 1's filtered scan of a and both raw
        # scans; disjunct 3 reuses the raw scans again
        assert stats.shared_scan_hits >= 3
        assert stats.shared_scan_misses >= 2
        assert stats.shared_build_hits >= 1

    def test_single_block_queries_never_share(self, two_table_db):
        before = two_table_db.stats.shared_scan_misses
        two_table_db.execute("SELECT a.id FROM a WHERE a.kind = 'x'")
        assert two_table_db.stats.shared_scan_misses == before

    def test_catalogue_scan_sharing_fires(self, small_bench, small_engine):
        """Scan sharing must fire on at least 5 of the 21 queries."""
        database = small_bench.database
        fired = 0
        for name, bench_query in small_bench.queries.items():
            before = database.stats.shared_scan_hits
            small_engine.execute(bench_query.sparql)
            if database.stats.shared_scan_hits > before:
                fired += 1
        assert fired >= 5, f"scan sharing fired on only {fired} queries"

    def test_cancelled_union_leaves_no_context_behind(self, two_table_db):
        """A UNION aborted in a later disjunct tears its context down.

        The context is thread-local and owned by one ``_execute_union``:
        if it survived the abort, the next UNION on this thread would
        adopt it and report the dead query's hits as its own.
        """
        from repro.concurrency import QueryCancelled

        executor = two_table_db._executor
        two_table_db.execute(UNION_SQL)
        clean_run_hits = two_table_db.stats.shared_scan_hits

        class TripsAfterFirstReuse:
            """Cancels at the first poll after a shared scan was reused,
            which can only happen from the second disjunct on."""

            def check(self):
                context = executor._shared
                if context is not None and context.hits:
                    raise QueryCancelled("cancelled mid-union")

        plan = two_table_db.compile(UNION_SQL)
        with pytest.raises(QueryCancelled):
            two_table_db.execute_plan(plan, token=TripsAfterFirstReuse())
        assert executor._shared is None
        assert executor.cancel_token is None
        before = two_table_db.stats.shared_scan_hits
        assert clean_run_hits < before < 2 * clean_run_hits  # partial run folded in
        two_table_db.execute(UNION_SQL)
        assert two_table_db.stats.shared_scan_hits - before == clean_run_hits


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_headers_and_disjunct_timings(self, two_table_db):
        two_table_db.analyze()
        lines = two_table_db.explain(UNION_SQL, analyze=True)
        assert any(line.startswith("statistics: fresh") for line in lines)
        assert sum(1 for line in lines if line.startswith("Disjunct ")) == 3
        join_lines = [line for line in lines if "HashJoin" in line]
        assert join_lines and all(
            "est=" in line and "actual=" in line for line in join_lines
        )
        assert lines[-1].startswith("Result: ")

    def test_plain_explain_unchanged(self, two_table_db):
        lines = two_table_db.explain(UNION_SQL)
        assert not any("est=" in line for line in lines)
        assert not any(line.startswith("statistics:") for line in lines)
        assert lines[-1].startswith("Result: ")

    def test_engine_explain_analyze(self, small_engine, small_bench):
        lines = small_engine.explain(
            small_bench.queries["q6"].sparql, analyze=True
        )
        assert any("Disjunct " in line for line in lines)
        assert any("statistics:" in line for line in lines)


# ---------------------------------------------------------------------------
# PERF_NO_ACCESS_PATH lint
# ---------------------------------------------------------------------------


class TestPerfLint:
    def _unindexed_db(self) -> Database:
        db = Database()
        # no PRIMARY KEY anywhere: no auto-indexes, no access path
        db.execute("CREATE TABLE big1 (k INTEGER, payload TEXT)")
        db.execute("CREATE TABLE big2 (k INTEGER, payload TEXT)")
        db.insert_rows("big1", [(i % 500, "p") for i in range(2000)])
        db.insert_rows("big2", [(i % 500, "q") for i in range(2000)])
        return db

    def test_flags_unindexed_join(self):
        db = self._unindexed_db()
        statement = parse_statement(
            "SELECT b1.payload FROM big1 b1, big2 b2 WHERE b1.k = b2.k"
        )
        from repro.sql.ast import split_conjuncts

        analyzed = estimate_disjunct(
            db, statement.source, split_conjuncts(statement.where)
        )
        assert analyzed is not None
        estimate, has_access, tables = analyzed
        # key-like fallback: 2000*2000/2000 = 2000 estimated rows
        assert estimate == pytest.approx(2000.0)
        assert not has_access
        assert tables == ["big1", "big2"]

    def test_indexed_join_has_access_path(self, two_table_db):
        statement = parse_statement(
            "SELECT a.v FROM a, b WHERE a.id = b.a_id"
        )
        from repro.sql.ast import split_conjuncts

        analyzed = estimate_disjunct(
            two_table_db, statement.source, split_conjuncts(statement.where)
        )
        assert analyzed is not None
        _, has_access, _ = analyzed
        assert has_access  # a.id is the PK index

    def test_statistics_sharpen_estimates(self):
        db = self._unindexed_db()
        statement = parse_statement(
            "SELECT b1.payload FROM big1 b1, big2 b2 WHERE b1.k = b2.k"
        )
        from repro.sql.ast import split_conjuncts

        conjuncts = split_conjuncts(statement.where)
        without = estimate_disjunct(db, statement.source, conjuncts)[0]
        db.analyze()
        with_stats = estimate_disjunct(db, statement.source, conjuncts)[0]
        # ndv(k)=500 < row_count=2000: statistics give the larger, truer
        # estimate (2000*2000/500) vs the key-like fallback (2000*2000/2000)
        assert with_stats > without

    def test_perf_pass_in_report(
        self, example_db, example_ontology, example_mappings
    ):
        from repro.analysis import analyze

        report = analyze(
            example_db,
            example_ontology,
            example_mappings,
            queries={"probe": "SELECT ?x WHERE { ?x a <http://ex.org/Employee> }"},
        )
        assert "perf" in report.passes
