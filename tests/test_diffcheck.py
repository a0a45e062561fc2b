"""Tests for the differential correctness oracle (repro.diffcheck)."""

from __future__ import annotations

import pytest

from repro.diffcheck import (
    DEFAULT_CONFIG,
    DEFAULT_MATRIX,
    DifferentialOracle,
    EngineConfig,
    MATCH,
    MISMATCH,
    OracleReport,
    QueryFuzzer,
    canonical_iri,
    canonical_term,
    compare_bags,
    canonical_bag,
    query_to_sparql,
    shrink_query,
)
from repro.mixer import Mixer, OBDASystemAdapter, ProbedSystemAdapter
from repro.npd.queries import build_query_set
from repro.obda import OBDAEngine
from repro.rdf import IRI, Literal
from repro.rdf.terms import (
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql.parser import parse_query

EX = "http://ex.org/"


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


class TestNormalization:
    def test_numeric_widening(self):
        assert (
            canonical_term(Literal("7", XSD_INTEGER))
            == canonical_term(Literal("7.0", XSD_DECIMAL))
            == canonical_term(Literal("7.0", XSD_DOUBLE))
        )

    def test_numeric_distinct_values(self):
        assert canonical_term(Literal("7", XSD_INTEGER)) != canonical_term(
            Literal("8", XSD_INTEGER)
        )

    def test_float_noise_absorbed(self):
        a = canonical_term(Literal("0.30000000000000004", XSD_DOUBLE))
        b = canonical_term(Literal("0.3", XSD_DOUBLE))
        assert a == b

    def test_string_not_widened(self):
        assert canonical_term(Literal("7", XSD_STRING)) != canonical_term(
            Literal("7", XSD_INTEGER)
        )

    def test_iri_percent_canonicalization(self):
        assert canonical_iri("http://ex.org/a%2fb") == "http://ex.org/a%2Fb"
        # escaped unreserved characters are decoded
        assert canonical_iri("http://ex.org/%41b") == "http://ex.org/Ab"
        assert canonical_term(IRI("http://ex.org/x%2fy")) == canonical_term(
            IRI("http://ex.org/x%2Fy")
        )

    def test_language_tag_case_insensitive(self):
        assert canonical_term(
            Literal("hei", language="NO")
        ) == canonical_term(Literal("hei", language="no"))

    def test_bag_comparison_categories(self):
        left = canonical_bag(["x"], [(Literal("a"),), (Literal("a"),)])
        right = canonical_bag(["x"], [(Literal("a"),)])
        comparison = compare_bags(left, right)
        assert not comparison.equal
        assert comparison.set_equal
        different = canonical_bag(["x"], [(Literal("b"),)])
        comparison = compare_bags(left, different)
        assert not comparison.set_equal
        assert comparison.only_left and comparison.only_right

    def test_variable_order_irrelevant(self):
        a = canonical_bag(["x", "y"], [(Literal("1"), Literal("2"))])
        b = canonical_bag(["y", "x"], [(Literal("2"), Literal("1"))])
        assert a == b


# ---------------------------------------------------------------------------
# AST -> SPARQL serialization
# ---------------------------------------------------------------------------


class TestSerializer:
    @pytest.mark.parametrize("query_id", sorted(build_query_set()))
    def test_catalogue_round_trip(self, query_id):
        sparql = build_query_set()[query_id].sparql
        once = query_to_sparql(parse_query(sparql))
        twice = query_to_sparql(parse_query(once))
        assert once == twice  # serialization is a fixpoint under reparse

    def test_ask_round_trip(self):
        text = query_to_sparql(
            parse_query("ASK WHERE { ?s a <http://ex.org/C> }")
        )
        assert text.startswith("ASK")
        assert "LIMIT" not in text  # the parser's synthetic LIMIT 1
        assert parse_query(text).is_ask


# ---------------------------------------------------------------------------
# fuzzer determinism
# ---------------------------------------------------------------------------


class TestFuzzer:
    def _fuzzer(self, example_ontology, example_mappings, seed=0):
        return QueryFuzzer(example_ontology, example_mappings, seed=seed)

    def test_same_seed_byte_identical(self, example_ontology, example_mappings):
        first = self._fuzzer(example_ontology, example_mappings).generate(30)
        second = self._fuzzer(example_ontology, example_mappings).generate(30)
        assert [q.sparql for q in first] == [q.sparql for q in second]
        assert [q.features for q in first] == [q.features for q in second]

    def test_prefix_stability(self, example_ontology, example_mappings):
        short = self._fuzzer(example_ontology, example_mappings).generate(10)
        long = self._fuzzer(example_ontology, example_mappings).generate(40)
        assert [q.sparql for q in short] == [q.sparql for q in long[:10]]

    def test_different_seeds_differ(self, example_ontology, example_mappings):
        a = self._fuzzer(example_ontology, example_mappings, seed=1).generate(20)
        b = self._fuzzer(example_ontology, example_mappings, seed=2).generate(20)
        assert [q.sparql for q in a] != [q.sparql for q in b]

    def test_all_queries_parse(self, example_ontology, example_mappings):
        for fuzzed in self._fuzzer(
            example_ontology, example_mappings
        ).generate(50):
            query = parse_query(fuzzed.sparql)  # must not raise
            assert query.is_ask or query.projections or query.select_star


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    BIG = """
    SELECT DISTINCT ?x ?n ?p WHERE {
      ?x a <http://ex.org/Employee> .
      ?x <http://ex.org/name> ?n .
      ?x <http://ex.org/sellsProduct> ?p .
      OPTIONAL { ?p a <http://ex.org/Product> . }
      FILTER(?n = "John")
    }
    ORDER BY ?n
    LIMIT 5
    """

    def test_greedy_minimization(self):
        small = shrink_query(self.BIG, lambda s: "sellsProduct" in s)
        query = parse_query(small)
        assert "sellsProduct" in small
        assert "OPTIONAL" not in small
        assert "FILTER" not in small
        assert not query.distinct and query.limit is None
        # minimal witness: the single triple the predicate needs
        assert small.count("?x") >= 1 and small.count(" .") == 1

    def test_shrunk_query_still_fails_predicate(self):
        predicate = lambda s: "name" in s and "Employee" in s  # noqa: E731
        small = shrink_query(self.BIG, predicate)
        assert predicate(small)
        assert len(small) < len(self.BIG)

    def test_unshrinkable_input_passes_through(self):
        assert shrink_query("NOT SPARQL", lambda s: True) == "NOT SPARQL"

    def test_predicate_never_true_returns_original(self):
        assert shrink_query(self.BIG, lambda s: False) == self.BIG

    def test_terminates_on_constant_predicate(self):
        small = shrink_query(self.BIG, lambda s: True)
        parse_query(small)  # still well-formed
        assert len(small.splitlines()) <= 4


# ---------------------------------------------------------------------------
# oracle on the cheap example instance
# ---------------------------------------------------------------------------


@pytest.fixture()
def example_oracle(example_db, example_ontology, example_mappings):
    return DifferentialOracle(example_db, example_ontology, example_mappings)


class TestOracleExample:
    def test_simple_query_matches_everywhere(self, example_oracle):
        verdicts = example_oracle.check_matrix(
            "t1", f"SELECT ?x WHERE {{ ?x a <{EX}Person> }}", shrink=False
        )
        assert [v.status for v in verdicts] == [MATCH] * len(DEFAULT_MATRIX)
        assert all(v.obda_rows == 2 for v in verdicts)

    def test_ask_query(self, example_oracle):
        verdict = example_oracle.check(
            "t2", f"ASK WHERE {{ ?x <{EX}sellsProduct> ?p }}", shrink=False
        )
        assert verdict.status == MATCH

    def test_existential_query_skips_plain(self, example_oracle):
        # assignedTo is entailed existentially for every Employee: the
        # saturated-graph pipeline cannot see tree-witness answers
        sparql = f"SELECT ?x WHERE {{ ?x a <{EX}Employee> . ?x <{EX}assignedTo> ?t }}"
        verdict = example_oracle.check("t3", sparql, shrink=False)
        assert verdict.ok
        no_exist = example_oracle.check(
            "t3", sparql, EngineConfig("no-existential", existential=False)
        )
        # with existential reasoning off, plain evaluation is comparable
        assert no_exist.plain_rows is not None
        assert no_exist.ok

    def test_matrix_explained_everywhere(self, example_oracle):
        queries = {
            "m1": f"SELECT ?x ?p WHERE {{ ?x <{EX}sellsProduct> ?p }}",
            "m2": f"SELECT DISTINCT ?n WHERE {{ ?e <{EX}name> ?n }} ORDER BY ?n LIMIT 1",
            "m3": f"ASK WHERE {{ ?x a <{EX}Branch> }}",
        }
        report = OracleReport()
        for query_id, sparql in queries.items():
            report.verdicts.extend(
                example_oracle.check_matrix(query_id, sparql, shrink=False)
            )
        assert report.ok, report.describe()
        assert len(report.verdicts) == len(queries) * len(DEFAULT_MATRIX)

    def test_report_text_is_deterministic(self, example_oracle):
        sparql = f"SELECT ?x WHERE {{ ?x a <{EX}Product> }}"
        texts = set()
        for _ in range(2):
            report = OracleReport()
            report.verdicts.extend(
                example_oracle.check_matrix("d1", sparql, shrink=False)
            )
            texts.add(report.describe())
        assert len(texts) == 1


def _pass_names(unfolder):
    return {run.__name__ for run in unfolder.passes}


class TestPassCoverage:
    def test_every_optional_pass_is_on_and_off_in_the_matrix(
        self, example_db, example_ontology, example_mappings
    ):
        """diffcheck compares each unfolder pass against its absence.

        A pass is optional unless both an unfolder with nothing attached
        (no ``enable_sqo``, FactBase or ConstraintSet) and one with
        everything attached run it; every optional pass must be present
        in at least one ``DEFAULT_MATRIX`` config and absent from at least
        one, so a new pass cannot land unchecked.
        """
        from repro.analysis.constraints import ConstraintSet
        from repro.analysis.facts import FactBase
        from repro.obda.unfolder import Unfolder

        per_config = {
            config.name: _pass_names(
                config.build(example_db, example_ontology, example_mappings).unfolder
            )
            for config in DEFAULT_MATRIX
        }
        bare = _pass_names(
            Unfolder(example_mappings, example_ontology, enable_sqo=False)
        )
        full = _pass_names(
            Unfolder(
                example_mappings,
                example_ontology,
                facts=FactBase(),
                constraints=ConstraintSet(),
                raw_mappings=example_mappings,
            )
        )
        mandatory = bare & full
        assert mandatory == {"_bind_terms", "_join_equalities", "_null_guards"}
        assert set.union(*per_config.values()) <= bare | full
        for name in sorted((bare | full) - mandatory):
            on = sorted(c for c, names in per_config.items() if name in names)
            off = sorted(c for c, names in per_config.items() if name not in names)
            assert on and off, (name, on, off)
        for names in per_config.values():
            assert mandatory <= names


class _AnswerDroppingEngine:
    """A deliberately buggy engine: loses the last row of every answer."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, sparql):
        result = self._inner.execute(sparql)
        if result.rows:
            result.rows.pop()
        return result


class TestOracleCatchesBugs:
    def test_seeded_bug_detected_and_shrunk(
        self, example_db, example_ontology, example_mappings
    ):
        oracle = DifferentialOracle(
            example_db, example_ontology, example_mappings
        )
        buggy = _AnswerDroppingEngine(
            OBDAEngine(example_db, example_ontology, example_mappings)
        )
        oracle.set_engine(DEFAULT_CONFIG, buggy)
        sparql = f"""
        SELECT ?x ?n ?p WHERE {{
          ?x a <{EX}Employee> .
          ?x <{EX}name> ?n .
          ?x <{EX}sellsProduct> ?p .
        }}
        """
        verdict = oracle.check("bug1", sparql)
        assert verdict.status == MISMATCH
        assert not verdict.ok
        # the shrinker must deliver a smaller, still-failing witness
        assert verdict.shrunk_sparql is not None
        parse_query(verdict.shrunk_sparql)  # still parseable
        assert len(verdict.shrunk_sparql) < len(sparql)
        still = oracle.check("bug1", verdict.shrunk_sparql, shrink=False)
        assert not still.ok

    def test_probe_stamps_mixer_records(
        self, example_db, example_ontology, example_mappings, example_engine
    ):
        oracle = DifferentialOracle(
            example_db, example_ontology, example_mappings
        )
        oracle.set_engine(DEFAULT_CONFIG, example_engine)
        probed = ProbedSystemAdapter(
            OBDASystemAdapter(example_engine),
            oracle.quality_probe(),
        )
        queries = {"pa": f"SELECT ?x WHERE {{ ?x a <{EX}Person> }}"}
        report = Mixer(probed, queries, warmup_runs=0).run(runs=1)
        assert report.errors == {}
        assert report.per_query["pa"].quality["oracle_agreement"] == 1.0


# ---------------------------------------------------------------------------
# the NPD benchmark: catalogue + fixed-seed fuzz batch (default config)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def npd_oracle(npd_benchmark, npd_engine):
    oracle = DifferentialOracle(
        npd_benchmark.database, npd_benchmark.ontology, npd_benchmark.mappings
    )
    # reuse the session engine for the default config instead of paying
    # a second multi-second T-mapping compilation
    oracle.set_engine(DEFAULT_CONFIG, npd_engine)
    return oracle


class TestOracleNPD:
    @pytest.mark.parametrize("query_id", sorted(
        build_query_set(), key=lambda q: int(q[1:])
    ))
    def test_catalogue_agreement(self, npd_oracle, npd_benchmark, query_id):
        verdict = npd_oracle.check(
            query_id, npd_benchmark.queries[query_id].sparql, shrink=False
        )
        assert verdict.ok, verdict.describe()

    def test_fuzz_batch_agreement(self, npd_oracle, npd_benchmark):
        fuzzer = QueryFuzzer(
            npd_benchmark.ontology,
            npd_benchmark.mappings,
            seed=0,
            graph=npd_oracle.materialized,
        )
        report = OracleReport()
        for fuzzed in fuzzer.generate(20):
            report.verdicts.append(
                npd_oracle.check(fuzzed.id, fuzzed.sparql, shrink=False)
            )
        assert report.ok, report.describe()

    def test_npd_fuzzer_deterministic(self, npd_benchmark):
        batches = [
            [
                q.sparql
                for q in QueryFuzzer(
                    npd_benchmark.ontology, npd_benchmark.mappings, seed=7
                ).generate(10)
            ]
            for _ in range(2)
        ]
        assert batches[0] == batches[1]


class TestCliGrowth:
    def test_grown_instance_checked(self, capsys):
        from repro.diffcheck.cli import run

        argv = ["--fuzz", "2", "--scale", "0.1", "--configs", "default"]
        assert run(argv + ["--growth", "2"]) == 0
        grown = capsys.readouterr()
        assert "scale=0.1 growth=2 fuzz-seed=0" in grown.out
        assert "VERDICT: agree" in grown.out
        # VIG's dangling foreign keys are reported, not fatal
        assert "SCH_FK_VIOLATED" in grown.err
        # without --growth the header reads as before
        assert run(argv + ["--no-lint"]) == 0
        assert "scale=0.1 fuzz-seed=0" in capsys.readouterr().out

    def test_grown_pre_flight_aborts_on_other_errors(self, monkeypatch, capsys):
        import repro.analysis
        from repro.analysis.model import AnalysisReport, Finding, Severity
        from repro.diffcheck.cli import run

        def finding(code):
            return Finding(code, Severity.ERROR, "schema", "t", "injected")

        report = AnalysisReport([finding("SCH_FK_VIOLATED"), finding("MAP_UNKNOWN_TABLE")])
        monkeypatch.setattr(repro.analysis, "analyze", lambda *a, **k: report)
        argv = ["--fuzz", "1", "--scale", "0.1", "--configs", "default", "--growth", "2"]
        assert run(argv) == 2
        assert "failed with 1 error(s)" in capsys.readouterr().err

    def test_growth_below_one_rejected(self):
        from repro.diffcheck.cli import run

        with pytest.raises(SystemExit) as raised:
            run(["--fuzz", "1", "--growth", "0.5"])
        assert raised.value.code == 2
