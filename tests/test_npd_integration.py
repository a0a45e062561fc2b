"""Full-stack integration tests on the NPD benchmark.

These are the most expensive tests in the suite: they drive the complete
pipeline (seed data -> mappings -> T-mappings -> rewriting -> unfolding ->
SQL execution -> result translation) on all 21 queries, and cross-check a
subset against the materialize-then-rewrite triple store.
"""

from collections import Counter

import pytest

from repro.mixer import Mixer, OBDASystemAdapter
from repro.obda import OBDAEngine, RewritingTripleStore, materialize
from repro.obda.rewriter import TreeWitnessRewriter
from repro.sql import mysql_profile
from repro.vig import VIG


class TestAllQueriesAnswer:
    def test_every_query_runs_and_answers(self, npd_benchmark, npd_engine):
        empty_allowed = set()  # every query should return rows on the seed
        for qid, query in npd_benchmark.queries.items():
            result = npd_engine.execute(query.sparql)
            if qid not in empty_allowed:
                assert len(result) > 0, f"{qid} returned no rows"

    def test_q6_semantics(self, npd_benchmark, npd_engine):
        """q6: cored wellbores, length > 50, completed >= 2008."""
        result = npd_engine.execute(npd_benchmark.queries["q6"].sparql)
        rows = result.to_python_rows()
        assert rows
        for _, length, _, year in rows:
            assert length > 50
            assert year >= 2008

    def test_q16_counts_match_sql(self, npd_benchmark, npd_engine):
        """q16's count must equal a hand-written SQL count."""
        result = npd_engine.execute(npd_benchmark.queries["q16"].sparql)
        (count,) = result.to_python_rows()[0]
        expected = npd_benchmark.database.query(
            "SELECT COUNT(*) FROM licence "
            "WHERE prldategranted > '2000-01-01' AND prlname IS NOT NULL"
        ).rows[0][0]
        assert count == expected

    def test_q15_is_aggregated_q1(self, npd_benchmark, npd_engine):
        """q15 groups q1's wellbores by year: totals must agree."""
        q15 = npd_engine.execute(npd_benchmark.queries["q15"].sparql)
        total = sum(row[1] for row in q15.to_python_rows())
        q1 = npd_engine.execute(npd_benchmark.queries["q1"].sparql)
        # q1 is DISTINCT over (wellbore, name, year); q15 counts wellbore
        # memberships per year -- every q1 row is one wellbore-year
        assert total >= len(q1)

    def test_tree_witness_stats(self, npd_benchmark, npd_engine):
        """Table 7's #tw column: q6 must detect multiple witnesses."""
        result = npd_engine.unfold(npd_benchmark.queries["q6"].sparql)
        assert result.rewriting is not None
        assert result.rewriting.tree_witnesses >= 2


class TestTruncationLabel:
    """``rewriting_truncated`` means the ``max_ucq`` cap dropped a disjunct,
    not that the rewriting reached the cap."""

    @pytest.fixture(scope="class")
    def capped(self, npd_benchmark):
        return OBDAEngine(
            npd_benchmark.database,
            npd_benchmark.ontology,
            npd_benchmark.mappings,
            max_ucq=1,
        )

    @pytest.mark.parametrize("qid", ["q1", "q3", "q14"])
    def test_complete_ucq_at_the_cap_is_not_truncated(
        self, qid, capped, npd_benchmark, npd_engine
    ):
        sparql = npd_benchmark.queries[qid].sparql
        result = capped.execute(sparql)
        assert not result.metrics.rewriting_truncated
        assert Counter(result.rows) == Counter(npd_engine.execute(sparql).rows)

    def test_ucq_beyond_the_cap_is_truncated_and_labelled(
        self, capped, npd_benchmark
    ):
        from repro.server import ServerConfig
        from repro.server.app import SparqlEndpoint

        sparql = npd_benchmark.queries["q12"].sparql
        assert capped.execute(sparql).metrics.rewriting_truncated
        endpoint = SparqlEndpoint(capped, ServerConfig(workers=1))
        try:
            response = endpoint.handle_query(sparql)
        finally:
            endpoint.shutdown()
        assert response.status == 200
        assert dict(response.headers)["X-Rewriting-Truncated"] == "1"


class TestHierarchyCompleteness:
    def test_wildcats_are_wellbores(self, npd_benchmark, npd_engine):
        pre = "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"
        wildcats = npd_engine.execute(
            pre + "SELECT ?w WHERE { ?w a npdv:WildcatWellbore }"
        )
        wellbores = npd_engine.execute(pre + "SELECT ?w WHERE { ?w a npdv:Wellbore }")
        wildcat_set = {row[0] for row in wildcats.rows}
        wellbore_set = {row[0] for row in wellbores.rows}
        assert wildcat_set
        assert wildcat_set <= wellbore_set

    def test_role_hierarchy(self, npd_benchmark, npd_engine):
        pre = "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"
        # operatorForLicence ⊑ operatorFor
        specific = npd_engine.execute(
            pre + "SELECT ?c ?l WHERE { ?c npdv:operatorForLicence ?l }"
        )
        general = npd_engine.execute(
            pre + "SELECT ?c ?l WHERE { ?c npdv:operatorFor ?l }"
        )
        assert set(map(tuple, specific.rows)) <= set(map(tuple, general.rows))


class TestAgainstTripleStore:
    """OBDA answers == materialize+rewrite answers (certain answers agree)."""

    CHECK = ["q2", "q7", "q9", "q11", "q16", "q19"]

    @pytest.fixture(scope="class")
    def store(self, npd_benchmark):
        store = RewritingTripleStore(npd_benchmark.ontology)
        result = materialize(npd_benchmark.database, npd_benchmark.mappings)
        store.load_graph(result.graph)
        return store

    @pytest.mark.parametrize("qid", CHECK)
    def test_answers_agree(self, qid, npd_benchmark, npd_engine, store):
        query = npd_benchmark.queries[qid].sparql
        obda_rows = sorted(set(npd_engine.execute(query).to_python_rows()))
        store_rows = sorted(set(store.execute(query).result.to_python_rows()))
        assert obda_rows == store_rows


class TestMultiBgpRewritingMetrics:
    """q5 has three BGPs (the main pattern and two OPTIONALs): its
    rewriting metrics are totals over all three, not the last one's."""

    @pytest.fixture()
    def rewrites(self, monkeypatch):
        calls = []
        rewrite = TreeWitnessRewriter.rewrite

        def spy(rewriter, cq):
            result = rewrite(rewriter, cq)
            calls.append(result)
            return result

        monkeypatch.setattr(TreeWitnessRewriter, "rewrite", spy)
        return calls

    def test_engine_totals_every_bgp(self, npd_benchmark, rewrites):
        engine = OBDAEngine(
            npd_benchmark.database, npd_benchmark.ontology, npd_benchmark.mappings
        )
        result = engine.execute(npd_benchmark.queries["q5"].sparql)
        assert len(rewrites) == 3
        # the witness is in the first OPTIONAL, not in the last BGP
        assert [r.tree_witnesses for r in rewrites] == [0, 1, 0]
        assert result.metrics.tree_witnesses == 1
        assert result.metrics.ucq_size == sum(r.ucq_size for r in rewrites)
        assert result.timings.rewriting == sum(r.elapsed_seconds for r in rewrites)
        lines = engine.explain(npd_benchmark.queries["q5"].sparql)
        assert lines[1] == "rewriting: ucq_size=3 tree_witnesses=1 truncated=False"

    def test_store_totals_every_bgp(self, npd_benchmark, rewrites):
        store = RewritingTripleStore(npd_benchmark.ontology)
        store.load_graph(
            materialize(npd_benchmark.database, npd_benchmark.mappings).graph
        )
        answer = store.execute(npd_benchmark.queries["q5"].sparql)
        assert len(rewrites) == 3
        assert answer.rewriting.ucq_size == sum(r.ucq_size for r in rewrites)
        assert answer.tree_witness_count == sum(r.tree_witnesses for r in rewrites)
        assert answer.rewriting_seconds == sum(r.elapsed_seconds for r in rewrites)


class TestProfilesOnNpd:
    def test_profiles_agree_on_answers(self, npd_benchmark):
        mysql_db = npd_benchmark.database.clone_with_data(mysql_profile())
        engine = OBDAEngine(
            mysql_db, npd_benchmark.ontology, npd_benchmark.mappings
        )
        pg_engine = OBDAEngine(
            npd_benchmark.database, npd_benchmark.ontology, npd_benchmark.mappings
        )
        for qid in ("q2", "q7", "q16"):
            query = npd_benchmark.queries[qid].sparql
            assert sorted(engine.execute(query).to_python_rows()) == sorted(
                pg_engine.execute(query).to_python_rows()
            ), qid


class TestScaledInstance:
    def test_queries_still_answer_after_vig_growth(self, npd_benchmark):
        grown = npd_benchmark.database.clone_with_data()
        VIG(grown, seed=5).grow(2.0)
        engine = OBDAEngine(grown, npd_benchmark.ontology, npd_benchmark.mappings)
        for qid in ("q1", "q7", "q16"):
            result = engine.execute(npd_benchmark.queries[qid].sparql)
            assert len(result) > 0, qid

    def test_results_grow_with_data(self, npd_benchmark, npd_engine):
        grown = npd_benchmark.database.clone_with_data()
        VIG(grown, seed=5).grow(2.0)
        engine = OBDAEngine(grown, npd_benchmark.ontology, npd_benchmark.mappings)
        q1 = npd_benchmark.queries["q1"].sparql
        assert len(engine.execute(q1)) > len(npd_engine.execute(q1))


class TestMixerOnNpd:
    def test_small_mix(self, npd_benchmark, npd_engine):
        queries = {
            qid: npd_benchmark.queries[qid].sparql for qid in ("q2", "q7", "q16")
        }
        report = Mixer(OBDASystemAdapter(npd_engine), queries, warmup_runs=0).run(
            runs=1
        )
        assert report.errors == {}
        assert report.qmph > 0
