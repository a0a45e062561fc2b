"""Tests for optimization-grade OBDA constraints (repro.analysis.constraints).

Covers the acceptance criteria of the constraints PR: declaration
parsing, inference + data verification on the pristine benchmark,
declared-constraint violations, the constraint-enforcing unfolder
(exact-mapping pruning and VFD self-join merging) producing strictly
smaller SQL with identical bags on both executors, staleness demotion
after DML, the seeded constraint mutants, and the 7th diffcheck
matrix configuration.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis import (
    MUTANTS,
    ConstraintSyntaxError,
    Severity,
    analyze,
    apply_mutant,
    build_constraints,
    build_factbase,
    parse_declarations,
)
from repro.diffcheck.fuzzer import QueryFuzzer
from repro.diffcheck.oracle import (
    CONFIGS_BY_NAME,
    DEFAULT_MATRIX,
    DifferentialOracle,
)
from repro.npd import build_benchmark
from repro.npd.queries import build_query_set
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.owl import QLReasoner

SCALE = 0.1
SEED = 1

NPDV = "http://sws.ifi.uio.no/vocab/npd-v2#"


def _fresh_benchmark():
    """A small, mutable benchmark instance (mutants/DML rewrite assets)."""
    return build_benchmark(seed=SEED, profile=SeedProfile().scaled(SCALE))


@pytest.fixture(scope="module")
def bench():
    """Read-only pristine benchmark shared by the module."""
    return _fresh_benchmark()


@pytest.fixture(scope="module")
def queries():
    return {name: q.sparql for name, q in build_query_set().items()}


@pytest.fixture(scope="module")
def reasoner(bench):
    return QLReasoner(bench.ontology)


@pytest.fixture(scope="module")
def factbase(bench, reasoner):
    return build_factbase(
        database=bench.database,
        ontology=bench.ontology,
        mappings=bench.mappings,
        reasoner=reasoner,
    )


@pytest.fixture(scope="module")
def constraint_report(bench, reasoner):
    return build_constraints(
        database=bench.database,
        ontology=bench.ontology,
        mappings=bench.mappings,
        reasoner=reasoner,
    )


@pytest.fixture(scope="module")
def constraints(constraint_report):
    return constraint_report.constraints


def _engine_pair(bench, factbase, constraints, executor=None):
    """(facts-only baseline, facts+constraints) engines on one executor."""
    off = OBDAEngine(
        bench.database,
        bench.ontology,
        bench.mappings,
        factbase=factbase,
        executor=executor,
    )
    on = OBDAEngine(
        bench.database,
        bench.ontology,
        bench.mappings,
        factbase=factbase,
        constraints=constraints,
        executor=executor,
    )
    return off, on


@pytest.fixture(scope="module")
def engines(bench, factbase, constraints):
    return _engine_pair(bench, factbase, constraints)


@pytest.fixture(scope="module")
def vectorized_engines(bench, factbase, constraints):
    return _engine_pair(bench, factbase, constraints, executor="vectorized")


def _bag(rows):
    return Counter(map(str, rows))


class TestDeclarationSyntax:
    def test_round_trip(self):
        parsed = parse_declarations(
            "exact <http://example.org/vocab#Quadrant>\n"
            "vfd licence: prlnpdidlicence -> prlname\n"
        )
        assert [d.kind for d in parsed] == ["exact", "vfd"]
        assert parsed[0].entity == "http://example.org/vocab#Quadrant"
        assert parsed[1].table == "licence"
        assert parsed[1].determinants == ("prlnpdidlicence",)
        assert parsed[1].dependent == "prlname"

    def test_comments_and_blank_lines(self):
        parsed = parse_declarations(
            "# a full-line comment\n"
            "\n"
            "vfd licence: prlnpdidlicence -> prlname  # trailing\n"
        )
        assert len(parsed) == 1
        assert parsed[0].line == 3

    def test_hash_inside_iri_is_not_a_comment(self):
        # IRIs carry fragments; the '#' must survive comment stripping
        parsed = parse_declarations(f"exact <{NPDV}Field>")
        assert parsed[0].entity == f"{NPDV}Field"

    def test_multi_column_determinants_sorted(self):
        (decl,) = parse_declarations("vfd t: b, a -> c")
        assert decl.determinants == ("a", "b")

    @pytest.mark.parametrize(
        "text",
        [
            "exact",  # missing IRI
            "exact <a> <b>",  # embedded space after unwrapping
            "vfd licence prlnpdidlicence -> prlname",  # missing colon
            "vfd licence: prlnpdidlicence prlname",  # missing arrow
            "vfd licence: -> prlname",  # no determinants
            "frobnicate licence",  # unknown keyword
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ConstraintSyntaxError):
            parse_declarations(text)


class TestInferenceAndVerification:
    def test_pristine_yields_constraints(self, constraint_report):
        counts = constraint_report.constraints.counts()
        assert counts.get("exact", 0) > 0
        assert counts.get("vfd", 0) > 0

    def test_pristine_has_no_errors(self, constraint_report):
        worst = max(
            (f.severity for f in constraint_report.findings),
            default=Severity.INFO,
        )
        assert worst <= Severity.INFO, [
            f.describe() for f in constraint_report.findings
        ]

    def test_verified_subset_of_inferred(self, constraint_report):
        assert constraint_report.verified
        assert set(constraint_report.verified) <= set(
            constraint_report.inferred
        )
        # rejected candidates never make it into the set
        kept = {
            c.label()
            for c in constraint_report.constraints.all_constraints()
        }
        assert not kept & set(constraint_report.rejected)

    def test_generation_stamped(self, bench, constraints):
        assert constraints.generation == bench.database.plan_generation

    def test_fingerprint_deterministic(self, bench, constraints):
        other = build_constraints(
            database=bench.database,
            ontology=bench.ontology,
            mappings=bench.mappings,
        ).constraints
        assert other.fingerprint() == constraints.fingerprint()

    def test_to_dict_shape(self, constraint_report):
        payload = constraint_report.to_dict()
        assert set(payload) >= {
            "constraints",
            "inferred",
            "verified",
            "rejected",
            "findings",
        }


class TestDeclaredViolations:
    def test_false_exact_declaration_rejected(self, bench):
        # ProductionLicence has subclass generators with their own
        # mappings, so declaring it exact must fail data verification
        report = build_constraints(
            database=bench.database,
            ontology=bench.ontology,
            mappings=bench.mappings,
            declarations=f"exact <{NPDV}ProductionLicence>",
        )
        codes = {f.code for f in report.findings if f.is_error}
        assert "CON_EXACT_VIOLATED" in codes

    def test_unknown_entity_unverifiable(self, bench):
        report = build_constraints(
            database=bench.database,
            ontology=bench.ontology,
            mappings=bench.mappings,
            declarations="exact <http://example.org/NoSuchThing>",
        )
        codes = {f.code for f in report.findings}
        assert "CON_UNVERIFIABLE" in codes

    def test_unknown_table_unverifiable(self, bench):
        report = build_constraints(
            database=bench.database,
            ontology=bench.ontology,
            mappings=bench.mappings,
            declarations="vfd no_such_table: a -> b",
        )
        codes = {f.code for f in report.findings}
        assert "CON_UNVERIFIABLE" in codes


class TestConstraintEnforcement:
    def test_identical_bags_never_larger_sql(self, engines, queries):
        off, on = engines
        smaller = []
        for name in sorted(queries):
            r_off = off.execute(queries[name])
            r_on = on.execute(queries[name])
            assert _bag(r_off.rows) == _bag(r_on.rows), name
            assert (
                r_on.metrics.sql_characters <= r_off.metrics.sql_characters
            ), name
            if r_on.metrics.sql_characters < r_off.metrics.sql_characters:
                smaller.append(name)
        assert len(smaller) >= 5, (
            f"only {smaller} shrank; expected at least 5 of the 21 "
            "catalogue queries to lose a disjunct or self-join"
        )

    def test_counters_and_fired_labels(self, engines, queries):
        _, on = engines
        result = on.execute(queries["q6"])
        assert result.metrics.constraint_pruned_disjuncts > 0
        assert result.metrics.merged_vfd_joins > 0
        assert result.metrics.constraints_fired
        assert any(
            label.startswith(("exact:", "vfd:"))
            for label in result.metrics.constraints_fired
        )

    def test_explain_reports_constraints(self, engines, queries):
        _, on = engines
        lines = on.explain(queries["q6"])
        assert any(line.startswith("constraints:") for line in lines)
        assert any(line.startswith("constraint fired:") for line in lines)

    def test_vectorized_identical_bags(self, vectorized_engines, queries):
        off, on = vectorized_engines
        for name in sorted(queries):
            r_off = off.execute(queries[name])
            r_on = on.execute(queries[name])
            assert _bag(r_off.rows) == _bag(r_on.rows), name
            assert (
                r_on.metrics.sql_characters <= r_off.metrics.sql_characters
            ), name


class TestFuzzedEquivalence:
    FUZZ_COUNT = 20

    @pytest.fixture(scope="class")
    def fuzzed(self, bench):
        fuzzer = QueryFuzzer(bench.ontology, bench.mappings, seed=SEED)
        return fuzzer.generate(self.FUZZ_COUNT)

    def _compare(self, off, on, fuzzed):
        for fq in fuzzed:
            try:
                r_off = off.execute(fq.sparql)
            except Exception as exc:  # both engines must fail alike
                with pytest.raises(type(exc)):
                    on.execute(fq.sparql)
                continue
            r_on = on.execute(fq.sparql)
            assert _bag(r_off.rows) == _bag(r_on.rows), fq.id

    def test_row_executor(self, engines, fuzzed):
        assert len(fuzzed) >= self.FUZZ_COUNT
        self._compare(*engines, fuzzed)

    def test_vectorized_executor(self, vectorized_engines, fuzzed):
        self._compare(*vectorized_engines, fuzzed)


class TestStalenessDemotion:
    def test_dml_demotes_and_preserves_answers(self, queries):
        fresh = _fresh_benchmark()
        reasoner = QLReasoner(fresh.ontology)
        fb = build_factbase(
            database=fresh.database,
            ontology=fresh.ontology,
            mappings=fresh.mappings,
            reasoner=reasoner,
        )
        cons = build_constraints(
            database=fresh.database,
            ontology=fresh.ontology,
            mappings=fresh.mappings,
            reasoner=reasoner,
        ).constraints
        engine = OBDAEngine(
            fresh.database,
            fresh.ontology,
            fresh.mappings,
            factbase=fb,
            constraints=cons,
        )
        before = engine.execute(queries["q6"])
        assert before.metrics.constraints_fired
        # a no-op DELETE still bumps the plan generation: the engine can
        # only see that DML ran, not that it changed nothing
        fresh.database.execute(
            "DELETE FROM company WHERE cmpnpdidcompany = -1"
        )
        after = engine.execute(queries["q6"])
        stale = [f for f in engine.stale_findings if f.code == "FACT_STALE"]
        assert stale, "expected a FACT_STALE finding after DML"
        assert stale[0].severity == Severity.WARNING
        # artifacts demoted: optimizations off, answers unchanged
        assert engine.factbase is None
        assert engine.constraints is None
        plain = OBDAEngine(fresh.database, fresh.ontology, fresh.mappings)
        assert after.sql_text == plain.unfold(queries["q6"]).sql_text
        assert after.metrics.constraint_pruned_disjuncts == 0
        assert after.metrics.merged_vfd_joins == 0
        assert _bag(after.rows) == _bag(before.rows)

    def test_explain_triggers_freshness_check(self, queries):
        fresh = _fresh_benchmark()
        fb = build_factbase(
            database=fresh.database,
            ontology=fresh.ontology,
            mappings=fresh.mappings,
        )
        engine = OBDAEngine(
            fresh.database, fresh.ontology, fresh.mappings, factbase=fb
        )
        fresh.database.execute(
            "DELETE FROM company WHERE cmpnpdidcompany = -1"
        )
        engine.explain(queries["q1"])
        assert any(f.code == "FACT_STALE" for f in engine.stale_findings)


class TestConstraintMutants:
    def test_registry_contains_constraint_mutants(self):
        for name in ("false-exact", "vfd-dup-row", "vfd-scale-trap"):
            assert name in MUTANTS
            assert MUTANTS[name].declarations

    @pytest.mark.parametrize("name", ["false-exact", "vfd-dup-row"])
    def test_mutant_caught_at_small_scale(self, name, queries):
        fresh = _fresh_benchmark()
        db, onto, mappings = apply_mutant(
            name, fresh.database, fresh.ontology, fresh.mappings, seed=0
        )
        report = analyze(
            db,
            onto,
            mappings,
            queries=queries,
            constraint_declarations="\n".join(MUTANTS[name].declarations),
        )
        expected = set(MUTANTS[name].expect_codes)
        flagged = {f.code for f in report.errors}
        assert flagged & expected, (
            f"mutant {name}: expected one of {sorted(expected)} as ERROR, "
            f"got {sorted(flagged)}"
        )

    def test_scale_trap_holds_at_small_scale(self):
        # the trap: the declared VFD genuinely holds on the 0.1-scale
        # sample, so small-scale verification accepts it -- only the CI
        # run at scale 0.25 exposes the violation (see test_analysis's
        # mutant sweep, which verifies the catch at 0.25)
        fresh = _fresh_benchmark()
        db, onto, mappings = apply_mutant(
            "vfd-scale-trap", fresh.database, fresh.ontology, fresh.mappings
        )
        report = build_constraints(
            database=db,
            ontology=onto,
            mappings=mappings,
            declarations="\n".join(MUTANTS["vfd-scale-trap"].declarations),
        )
        codes = {f.code for f in report.findings if f.is_error}
        assert "CON_VFD_VIOLATED" not in codes


class TestDiffcheckMatrix:
    def test_matrix_has_constraints_config(self):
        assert len(DEFAULT_MATRIX) == 7
        config = CONFIGS_BY_NAME["constraints"]
        assert config.facts and config.constraints

    def test_oracle_agrees_under_constraints(self, bench, queries):
        oracle = DifferentialOracle(
            bench.database, bench.ontology, bench.mappings
        )
        config = CONFIGS_BY_NAME["constraints"]
        for name in ("q1", "q6"):
            verdict = oracle.check(name, queries[name], config, shrink=False)
            assert verdict.ok, verdict
