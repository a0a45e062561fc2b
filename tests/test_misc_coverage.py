"""Additional coverage: hash indexes, mixer timeouts, prior benchmarks,
bench harness helpers, namespace manager, seed profile scaling."""

import pytest

from repro.mixer import Mixer, OBDASystemAdapter
from repro.npd import all_prior_benchmarks
from repro.rdf import IRI, NamespaceManager, Namespace, default_namespace_manager
from repro.sql.indexes import HashIndex


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex(["a"])
        index.insert((1,), 0)
        index.insert((1,), 1)
        index.insert((2,), 2)
        assert index.lookup((1,)) == {0, 1}
        assert index.lookup((3,)) == set()
        assert index.distinct_keys() == 2
        assert len(index) == 3

    def test_delete_removes_empty_bucket(self):
        index = HashIndex(["a"])
        index.insert((1,), 0)
        index.delete((1,), 0)
        assert not index.contains_key((1,))
        index.delete((1,), 99)  # no-op, no error

    def test_composite_keys(self):
        index = HashIndex(["a", "b"])
        index.insert((1, "x"), 0)
        assert index.lookup((1, "x")) == {0}
        assert index.lookup((1, "y")) == set()


class TestNamespaces:
    def test_namespace_attr_and_getitem(self):
        ns = Namespace("http://ex.org/")
        assert ns.Thing == IRI("http://ex.org/Thing")
        assert ns["Other"] == IRI("http://ex.org/Other")
        assert ns.Thing in ns

    def test_manager_expand_shrink(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://ex.org/")
        assert manager.expand("ex:A") == IRI("http://ex.org/A")
        assert manager.shrink(IRI("http://ex.org/A")) == "ex:A"
        assert manager.shrink(IRI("http://other.org/A")) is None

    def test_longest_prefix_wins(self):
        manager = NamespaceManager()
        manager.bind("a", "http://ex.org/")
        manager.bind("b", "http://ex.org/sub/")
        assert manager.shrink(IRI("http://ex.org/sub/X")) == "b:X"

    def test_unknown_prefix(self):
        with pytest.raises(KeyError):
            NamespaceManager().expand("zzz:A")

    def test_default_manager_has_npd_prefixes(self):
        manager = default_namespace_manager()
        assert manager.shrink(
            IRI("http://sws.ifi.uio.no/vocab/npd-v2#Wellbore")
        ) == "npdv:Wellbore"


class TestMixerTimeout:
    def test_slow_query_marked_timeout(self, example_engine):
        queries = {
            "fast": "PREFIX : <http://ex.org/>\nSELECT ?e WHERE { ?e a :Employee }",
        }
        mixer = Mixer(
            OBDASystemAdapter(example_engine),
            queries,
            warmup_runs=1,
            query_timeout=0.0,  # everything exceeds a zero timeout
        )
        report = mixer.run(runs=1)
        assert "fast" in report.errors
        assert "timeout" in report.errors["fast"]

    def test_no_timeout_by_default(self, example_engine):
        queries = {
            "fast": "PREFIX : <http://ex.org/>\nSELECT ?e WHERE { ?e a :Employee }",
        }
        report = Mixer(
            OBDASystemAdapter(example_engine), queries, warmup_runs=1
        ).run(runs=1)
        assert report.errors == {}


class TestPriorBenchmarks:
    def test_five_benchmarks(self):
        benches = all_prior_benchmarks()
        assert set(benches) == {"adolena", "lubm", "dbpedia", "bsbm", "fishmark"}

    def test_queries_parse(self):
        from repro.sparql import parse_query

        for bench in all_prior_benchmarks().values():
            for query in bench.queries:
                parse_query(query.sparql)

    def test_reasoners_build(self):
        from repro.owl import compute_stats

        for bench in all_prior_benchmarks().values():
            stats = compute_stats(bench.ontology)
            assert stats.classes > 0

    def test_bsbm_is_tiny_dbpedia_is_big(self):
        from repro.owl import compute_stats

        benches = all_prior_benchmarks()
        assert compute_stats(benches["bsbm"].ontology).classes <= 10
        assert compute_stats(benches["dbpedia"].ontology).classes >= 200


class TestBenchHarness:
    def test_query_sql_stats(self, example_engine):
        from repro.bench import query_sql_stats

        stats = query_sql_stats(
            example_engine,
            "PREFIX : <http://ex.org/>\n"
            "SELECT ?n ?p WHERE { ?e :name ?n ; :sellsProduct ?p }",
        )
        assert stats["characters"] > 0
        assert stats["joins"] >= 1

    def test_ladder_runs_compile_cold(self, npd_benchmark):
        """Figure 1 and Tables 9/10 run the same mix in one process; each
        run must compile every query itself, whatever ran before it."""
        from repro.bench import BenchContext

        ctx = BenchContext(benchmark=npd_benchmark)
        profile = npd_benchmark.database.profile
        queries = {
            qid: npd_benchmark.queries[qid].sparql for qid in ("q1", "q2", "q3")
        }
        for _ in range(2):
            report = ctx.run_mix(1, profile, queries)
            assert report.errors == {}
            assert report.cache["query_cache_hits"] == 0
            assert report.cache["query_cache_misses"] == len(queries)
        assert ctx.database(1, profile) is npd_benchmark.database

    def test_save_report(self, tmp_path, monkeypatch, capsys):
        from repro.bench import save_report

        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        path = save_report("unit", "hello table")
        assert open(path).read() == "hello table\n"
        assert "hello table" in capsys.readouterr().out


class TestSeedProfileScaling:
    def test_scaled_profile(self):
        from repro.npd import SeedProfile

        base = SeedProfile()
        scaled = base.scaled(2.0)
        assert scaled.companies == base.companies * 2
        assert scaled.production_years == base.production_years  # unscaled

    def test_scale_one_is_identity(self):
        from repro.npd import SeedProfile

        base = SeedProfile()
        assert base.scaled(1) is base
