"""The compilation caches and the plan lifecycle: hits, staleness, correctness.

Covers the two cache layers (rewrite cache, OBDA artifact cache) and the
one lifecycle of a compiled SQL plan: DML, ``CREATE INDEX`` and
``set_profile`` after ``compile()`` must make the held plan re-plan itself
inside ``execute_plan`` and produce fresh, correct results.
"""

from __future__ import annotations

import pytest

from repro.mixer import Mixer, OBDASystemAdapter
from repro.obda import OBDAEngine
from repro.sql import Database, mysql_profile


SELECT_EMP = "SELECT id, name FROM temployee ORDER BY id"


def rows(result):
    return list(result.rows)


def run_stale(db, plan):
    """Execute a plan that a mutation event outdated: it must re-plan
    itself exactly once and carry the new generation afterwards."""
    assert plan.generation != db.plan_generation or plan.profile_name != db.profile.name
    recompiles = db.stats.plan_recompiles
    result = db.execute_plan(plan)
    assert db.stats.plan_recompiles == recompiles + 1
    assert plan.generation == db.plan_generation
    assert plan.profile_name == db.profile.name
    return rows(result)


class TestPlanLifecycle:
    """Compile once, execute many: every mutation event bumps
    ``plan_generation`` and the held plan heals inside ``execute_plan``."""

    def test_fresh_plan_is_not_recompiled(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        first = rows(example_db.execute_plan(plan))
        second = rows(example_db.execute_plan(plan))
        assert first == second
        assert example_db.stats.plan_recompiles == 0

    def test_insert_stales_plan_and_serves_fresh_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        before = rows(example_db.execute_plan(plan))
        generation = example_db.plan_generation
        example_db.execute("INSERT INTO temployee VALUES (3, 'Mia', 'B2')")
        assert example_db.plan_generation == generation + 1
        after = run_stale(example_db, plan)
        assert len(after) == len(before) + 1
        assert after[-1][:2] == (3, "Mia")

    def test_delete_stales_plan_and_serves_fresh_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        example_db.execute_plan(plan)
        example_db.execute("DELETE FROM tsellsproduct WHERE id = 2")
        example_db.execute("DELETE FROM temployee WHERE id = 2")
        assert run_stale(example_db, plan) == [(1, "John")]

    def test_update_stales_plan_and_serves_fresh_rows(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        example_db.execute_plan(plan)
        example_db.execute("UPDATE temployee SET name = 'Johnny' WHERE id = 1")
        assert run_stale(example_db, plan)[0] == (1, "Johnny")

    def test_insert_rows_stales_plan(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        generation = example_db.plan_generation
        example_db.insert_rows("temployee", [(7, "Zoe", "B2")])
        assert example_db.plan_generation > generation
        after = run_stale(example_db, plan)
        assert (7, "Zoe") in [row[:2] for row in after]

    def test_create_index_stales_plan(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        before = rows(example_db.execute_plan(plan))
        generation = example_db.plan_generation
        example_db.execute("CREATE INDEX idx_branch ON temployee (branch)")
        assert example_db.plan_generation > generation
        assert run_stale(example_db, plan) == before

    def test_set_profile_stales_plan_and_recompiles(self, example_db):
        plan = example_db.compile(SELECT_EMP)
        before = rows(example_db.execute_plan(plan))
        example_db.set_profile(mysql_profile())
        assert run_stale(example_db, plan) == before
        assert plan.profile_name == "mysql"


class TestExplainPlanLines:
    def test_plan_key_header(self, example_db):
        first = example_db.explain(SELECT_EMP)
        assert first[0].startswith("plan-key: sha1=")
        assert first[-1].startswith("Result: ")
        assert example_db.explain(SELECT_EMP) == first

    def test_mutation_shows_in_plan_key(self, example_db):
        before = example_db.explain(SELECT_EMP)
        example_db.execute("INSERT INTO temployee VALUES (5, 'Kim', 'B2')")
        again = example_db.explain(SELECT_EMP)
        assert again[0] != before[0]
        assert again[0].endswith(f"generation={example_db.plan_generation}")


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


class TestRewriteCache:
    def test_rewrite_cache_hit_on_repeat(self, example_engine):
        sparql = (
            "PREFIX : <http://ex.org/> SELECT ?x WHERE { ?x a :Person }"
        )
        example_engine.execute(sparql)
        misses = example_engine.rewriter.cache_misses
        assert misses >= 1
        # bypass the artifact cache to hit the rewriter layer directly
        example_engine.unfold(sparql)
        assert example_engine.rewriter.cache_hits >= 1
        assert example_engine.rewriter.cache_misses == misses

    def test_cached_rewriting_flagged(self, example_engine):
        sparql = (
            "PREFIX : <http://ex.org/> SELECT ?x WHERE { ?x a :Person }"
        )
        example_engine.unfold(sparql)
        again = example_engine.unfold(sparql)
        assert again.rewriting is not None
        assert again.rewriting.cached is True

    def test_fingerprint_separates_configs(self, example_db, example_ontology, example_mappings):
        default = OBDAEngine(example_db, example_ontology, example_mappings)
        ablated = OBDAEngine(
            example_db,
            example_ontology,
            example_mappings,
            enable_existential=False,
        )
        assert default.fingerprint != ablated.fingerprint

    def test_fingerprint_covers_assertion_bodies(
        self, example_db, example_ontology, example_mappings
    ):
        """Same assertion ids/entities but a different source SQL must not
        collide (the rewriter cache is shared per fingerprint)."""
        import dataclasses

        from repro.obda.mapping import MappingCollection

        assertions = list(example_mappings)
        changed = [
            dataclasses.replace(
                assertions[0],
                source_sql=assertions[0].source_sql + " WHERE 1 = 1",
            )
        ] + assertions[1:]
        baseline = OBDAEngine(
            example_db, example_ontology, example_mappings, enable_tmappings=False
        )
        variant = OBDAEngine(
            example_db,
            example_ontology,
            MappingCollection(changed),
            enable_tmappings=False,
        )
        assert baseline.fingerprint != variant.fingerprint


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

    def test_cache_disabled(self, example_db, example_ontology, example_mappings):
        engine = OBDAEngine(
            example_db,
            example_ontology,
            example_mappings,
            enable_query_cache=False,
        )
        engine.execute(self.SPARQL)
        second = engine.execute(self.SPARQL)
        assert second.metrics.compile_cache_hit is False
        assert engine.cache_stats()["query_cache_hits"] == 0

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
