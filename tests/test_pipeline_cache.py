"""The compile cache and the plan lifecycle: hits, fresh rows, correctness.

Covers the one compile cache (the OBDA engine's query cache) and the
one lifecycle of a compiled SQL plan: compiled once, never re-planned.
DML, ``CREATE INDEX`` and ``set_profile`` after ``compile()`` leave the
held plan untouched, and executing it returns fresh, correct rows on
both executors.  (Some test names keep the older "stales" wording: a
mutation outdates the rows a plan returned before, never the plan.)
"""

from __future__ import annotations

import pytest

from repro.mixer import Mixer, OBDASystemAdapter
from repro.sql import Database, mysql_profile


SELECT_EMP = "SELECT id, name FROM temployee ORDER BY id"


def rows(result):
    return list(result.rows)


def run_held(db, plan):
    """Execute a held plan after a mutation on both executors: equal
    rows from each, and the plan object itself unchanged."""
    blocks = plan.blocks
    row_path = rows(db.execute_plan(plan))
    assert rows(db.execute_plan(plan, executor="vectorized")) == row_path
    assert plan.blocks is blocks
    assert db.stats.plan_recompiles == 0
    return row_path


class TestPlanLifecycle:
    """Compile once, execute many: data changes bump ``plan_generation``,
    index and profile changes do not, and the held plan always serves
    the current rows."""

    def test_fresh_plan_is_not_recompiled(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        first = rows(example_db.execute_plan(plan))
        second = rows(example_db.execute_plan(plan))
        assert first == second
        assert run_held(example_db, plan) == first

    def test_insert_stales_plan_and_serves_fresh_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        before = rows(example_db.execute_plan(plan))
        generation = example_db.plan_generation
        example_db.execute("INSERT INTO temployee VALUES (3, 'Mia', 'B2')")
        assert example_db.plan_generation == generation + 1
        after = run_held(example_db, plan)
        assert len(after) == len(before) + 1
        assert after[-1][:2] == (3, "Mia")

    def test_delete_stales_plan_and_serves_fresh_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        example_db.execute_plan(plan)
        example_db.execute("DELETE FROM tsellsproduct WHERE id = 2")
        example_db.execute("DELETE FROM temployee WHERE id = 2")
        assert run_held(example_db, plan) == [(1, "John")]

    def test_update_stales_plan_and_serves_fresh_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        example_db.execute_plan(plan)
        example_db.execute("UPDATE temployee SET name = 'Johnny' WHERE id = 1")
        assert run_held(example_db, plan)[0] == (1, "Johnny")

    def test_insert_rows_stales_plan(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        generation = example_db.plan_generation
        example_db.insert_rows("temployee", [(7, "Zoe", "B2")])
        assert example_db.plan_generation > generation
        after = run_held(example_db, plan)
        assert (7, "Zoe") in [row[:2] for row in after]

    def test_create_index_stales_plan(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        before = rows(example_db.execute_plan(plan))
        generation = example_db.plan_generation
        example_db.execute("CREATE INDEX idx_branch ON temployee (branch)")
        assert example_db.plan_generation == generation  # no row changed
        assert run_held(example_db, plan) == before

    def test_set_profile_keeps_plan_and_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        before = rows(example_db.execute_plan(plan))
        generation = example_db.plan_generation
        example_db.set_profile(mysql_profile())
        assert example_db.plan_generation == generation  # no row changed
        assert run_held(example_db, plan) == before


class TestExplainPlanLines:
    def test_plan_key_header(self, example_db):
        first = example_db.explain(SELECT_EMP)
        assert first[0].startswith("plan-key: sha1=")
        assert first[-1].startswith("Result: ")
        assert example_db.explain(SELECT_EMP) == first

    def test_plan_key_survives_mutation(self, example_db):
        before = example_db.explain(SELECT_EMP)
        example_db.execute("INSERT INTO temployee VALUES (5, 'Kim', 'B2')")
        again = example_db.explain(SELECT_EMP)
        # the key names the plan (text digest, blocks), not the data
        assert again[0] == before[0]
        assert again[0].endswith(" blocks=1")
        assert again[-1] != before[-1]


class TestGenerationCountsDataChanges:
    """Only a data change moves ``plan_generation``: an index or a profile
    swap keeps verified facts/constraints and ANALYZE statistics."""

    QUERY = "PREFIX : <http://ex.org/> SELECT ?e WHERE { ?e :assignedTo ?t }"

    def test_index_and_profile_keep_evidence_and_statistics(
        self, example_db, example_ontology, example_mappings
    ):
        from collections import Counter

        from repro.analysis import analyze
        from repro.obda import OBDAEngine

        report = analyze(example_db, example_ontology, example_mappings, perf=False)
        engine = OBDAEngine(
            example_db,
            example_ontology,
            example_mappings,
            factbase=report.factbase,
            constraints=report.constraints.constraints,
        )
        engine.analyze_database()
        before = Counter(engine.execute(self.QUERY).rows)
        example_db.execute("CREATE INDEX idx_branch ON temployee (branch)")
        example_db.set_profile(mysql_profile())
        assert Counter(engine.execute(self.QUERY).rows) == before
        assert engine.factbase is report.factbase
        assert engine.constraints is report.constraints.constraints
        assert engine.stale_findings == []
        assert example_db.statistics_fresh
        # a data change still demotes both
        example_db.execute("INSERT INTO temployee VALUES (3, 'Ann', 'B1')")
        engine.execute(self.QUERY)
        assert engine.factbase is None and engine.constraints is None
        assert not example_db.statistics_fresh


def _compile_spy(monkeypatch):
    """Count every ``compile_select`` call, whichever module makes it."""
    import repro.sql.engine as engine_module
    import repro.sql.executor as executor_module
    import repro.sql.plan as plan_module
    import repro.sql.vectorized as vectorized_module

    calls = []
    for module in (plan_module, engine_module, executor_module, vectorized_module):
        original = module.compile_select

        def spy(*args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "compile_select", spy)
    return calls


def _footprint(executor):
    """Each instance attribute, with the length of the sized ones."""
    return {
        name: len(value) if hasattr(value, "__len__") else type(value).__name__
        for name, value in vars(executor).items()
    }


class TestCompileOnce:
    """Derived tables and subqueries are compiled with their plan, once;
    the executors keep no compile state between executions."""

    def test_warm_q6_on_the_row_executor_compiles_nothing(
        self, npd_benchmark, npd_engine, monkeypatch
    ):
        from collections import Counter

        sparql = npd_benchmark.queries["q6"].sparql
        plan = npd_benchmark.database.compile(npd_engine.unfold(sparql).sql_text)
        assert any(block.subplans for block in plan.blocks)  # derived tables
        cold = npd_engine.execute(sparql)
        calls = _compile_spy(monkeypatch)
        warm = npd_engine.execute(sparql)
        assert calls == []
        assert Counter(warm.rows) == Counter(cold.rows)

    def test_never_repeated_queries_leave_executors_unchanged(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp VARCHAR(5), v INTEGER)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
        db.insert_rows("t", [(i, "abc"[i % 3], i * 7 % 50) for i in range(60)])
        db.insert_rows("u", [(i, i * 3 % 60) for i in range(40)])

        def query(i):
            return (
                f"SELECT a.id, d.n FROM t a JOIN (SELECT grp, COUNT(*) AS n "
                f"FROM t WHERE v > {i % 40} GROUP BY grp) d ON a.grp = d.grp "
                f"WHERE a.v <> {i} AND a.id IN (SELECT t_id FROM u WHERE id > {i % 7}) "
                f"UNION SELECT id, v + {i} FROM t "
                f"WHERE CONCAT(grp, '{i}') <> 'a1' AND v < {i}"
            )

        executors = {"row": db._executor, "vectorized": db._vectorized}
        for name in executors:
            db.execute_plan(db.compile(query(-1)), executor=name)
        before = {name: _footprint(e) for name, e in executors.items()}
        for i in range(200):
            plan = db.compile(query(i))
            assert db.execute_plan(plan, executor="vectorized").rows == (
                db.execute_plan(plan).rows
            )
        assert {name: _footprint(e) for name, e in executors.items()} == before


class TestSortedIndexBatching:
    def test_bulk_insert_single_batch_sort(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE INDEX idx_v ON t (v)")
        index = db.catalog.table("t").sorted_index_for("v")
        db.insert_rows("t", [(i, 1000 - i) for i in range(500)])
        assert index.batch_sorts == 0  # lazily deferred until a lookup
        assert list(index.range(995, 1000)) != []
        assert index.batch_sorts == 1
        # lookups without new inserts must not re-sort
        list(index.range(0, 10))
        assert index.batch_sorts == 1

    def test_insert_lookup_churn_merges_batches(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE INDEX idx_v ON t (v)")
        index = db.catalog.table("t").sorted_index_for("v")
        db.insert_rows("t", [(i, i) for i in range(100)])
        list(index.range(0, 50))
        db.insert_rows("t", [(i, i) for i in range(100, 200)])
        assert list(index.range(150, 160)) != []
        assert index.batch_sorts == 2
        assert index.merges == 1  # second batch merged, not re-sorted
        assert db.stats.index_batch_sorts == 2
        assert db.stats.index_merges == 1

    def test_ordering_correct_after_merges(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE INDEX idx_v ON t (v)")
        index = db.catalog.table("t").sorted_index_for("v")
        import random

        rng = random.Random(7)
        values = rng.sample(range(10000), 300)
        for position, value in enumerate(values):
            db.insert_rows("t", [(position, value)])
            if position % 37 == 0:
                index.min_value()  # force periodic batch merges
        assert index.min_value() == min(values)
        assert index.max_value() == max(values)
        got = [db.catalog.table("t").get_row(r)[1] for r in index.range()]
        assert got == sorted(values)

    def test_concurrent_readers_flush_pending_once(self):
        """Regression: two readers racing through the lazy flush must not
        merge the pending batch twice (duplicate row ids from range())."""
        import threading

        from repro.sql.indexes import SortedIndex

        index = SortedIndex("v")
        inserted = 0
        for round_number in range(30):
            batch = [(inserted + offset) for offset in range(50)]
            for value in batch:
                index.insert(value, value)
            inserted += len(batch)
            barrier = threading.Barrier(4)
            scans: list = [None] * 4
            errors: list = []

            def scan(slot: int) -> None:
                try:
                    barrier.wait()
                    scans[slot] = list(index.range())
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=scan, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            for result in scans:
                assert len(result) == len(set(result)) == inserted, (
                    f"round {round_number}: duplicate/missing row ids"
                )
        assert len(index) == inserted


class TestSingleCompileCache:
    def test_repeat_rewrites_each_bgp_once(self, example_engine, monkeypatch):
        """The query cache is the only compile cache: a repeated text is
        served from it without reaching the rewriter again."""
        from repro.obda.rewriter import TreeWitnessRewriter

        calls = []
        rewrite = TreeWitnessRewriter.rewrite

        def spy(rewriter, cq):
            calls.append(cq)
            return rewrite(rewriter, cq)

        monkeypatch.setattr(TreeWitnessRewriter, "rewrite", spy)
        # two BGPs: the OPTIONAL part is rewritten on its own
        sparql = (
            "PREFIX : <http://ex.org/> SELECT ?x ?n WHERE "
            "{ ?x a :Person OPTIONAL { ?x :name ?n } }"
        )
        example_engine.execute(sparql)
        assert len(calls) == 2
        example_engine.execute(sparql)
        assert len(calls) == 2
        # the e2e benchmark harness reads exactly these keys
        assert sorted(example_engine.cache_stats()) == [
            "query_cache_entries",
            "query_cache_hits",
            "query_cache_misses",
            "rewrite_cache_hits",
            "rewrite_cache_misses",
        ]


class TestEngineArtifactCache:
    SPARQL = "PREFIX : <http://ex.org/> SELECT ?x WHERE { ?x a :Employee }"

    def test_second_execution_is_cache_hit(self, example_engine):
        first = example_engine.execute(self.SPARQL)
        second = example_engine.execute(self.SPARQL)
        assert first.metrics.compile_cache_hit is False
        assert second.metrics.compile_cache_hit is True
        assert sorted(map(str, first.rows)) == sorted(map(str, second.rows))
        stats = example_engine.cache_stats()
        assert stats["query_cache_hits"] == 1
        assert stats["query_cache_entries"] >= 1

    def test_cached_artifact_sees_fresh_data(self, example_db, example_engine):
        before = example_engine.execute(self.SPARQL)
        example_db.execute("INSERT INTO temployee VALUES (9, 'New', 'B9')")
        after = example_engine.execute(self.SPARQL)
        assert after.metrics.compile_cache_hit is True
        assert len(after) == len(before) + 1

    def test_set_profile_keeps_results_correct(self, example_db, example_engine):
        before = example_engine.execute(self.SPARQL)
        assert example_engine.execute(self.SPARQL).metrics.compile_cache_hit
        example_db.set_profile(mysql_profile())
        after = example_engine.execute(self.SPARQL)
        assert sorted(map(str, before.rows)) == sorted(map(str, after.rows))

    def test_warm_timings_collapse(self, example_engine):
        cold = example_engine.execute(self.SPARQL)
        warm = example_engine.execute(self.SPARQL)
        cold_compile = (
            cold.timings.rewriting + cold.timings.unfolding + cold.timings.planning
        )
        warm_compile = (
            warm.timings.rewriting + warm.timings.unfolding + warm.timings.planning
        )
        assert warm_compile < cold_compile

    def test_mixer_reports_cache_counters(self, example_engine):
        queries = {"e": self.SPARQL}
        report = Mixer(OBDASystemAdapter(example_engine), queries).run(runs=2)
        assert report.cache["query_cache_hits"] >= 2
        assert report.per_query["e"].quality["compile_cache_hit"] == 1.0


class TestDiffcheckWithCaching:
    """The oracle smoke the ISSUE asks for: the engine matrix must still
    agree everywhere with the artifact cache on the differential path."""

    @pytest.fixture(scope="class")
    def oracle(self):
        from repro.diffcheck.oracle import DifferentialOracle
        from repro.npd import build_benchmark
        from repro.npd.seed import SeedProfile

        benchmark = build_benchmark(seed=3, profile=SeedProfile().scaled(0.1))
        return DifferentialOracle(
            benchmark.database, benchmark.ontology, benchmark.mappings
        )

    @pytest.mark.parametrize("query_id", ["q1", "q5", "q12"])
    def test_catalogue_subset_matrix_agrees(self, oracle, query_id, npd_benchmark):
        sparql = npd_benchmark.queries[query_id].sparql
        verdicts = oracle.check_matrix(query_id, sparql)
        for verdict in verdicts:
            assert verdict.ok, (
                f"{query_id}/{verdict.config}: {verdict.error or verdict.status}"
            )

    def test_repeat_run_hits_engine_caches(self, oracle, npd_benchmark):
        sparql = npd_benchmark.queries["q1"].sparql
        oracle.check("q1", sparql)
        oracle.check("q1", sparql)
        engine = oracle.engine()
        assert engine.query_cache_hits >= 1
