"""Tests for the obdalint static analyzer (repro.analysis).

Covers the acceptance criteria of the analyzer PR: the pristine
benchmark is clean (nothing above INFO), every seeded mutant is caught
with its expected finding code, the verified FactBase answers lookups
correctly, and the fact-gated unfolder optimizations shrink SQL without
changing answers.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    MUTANTS,
    FactBase,
    Severity,
    analyze,
    apply_mutant,
    build_factbase,
    run_ontology_pass,
)
from repro.mixer import Mixer, OBDASystemAdapter
from repro.npd import build_benchmark
from repro.npd.queries import build_query_set
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.owl import Ontology

SCALE = 0.1
SEED = 1


def _fresh_benchmark():
    """A small, mutable benchmark instance (mutants rewrite its assets)."""
    return build_benchmark(seed=SEED, profile=SeedProfile().scaled(SCALE))


@pytest.fixture(scope="module")
def bench():
    """Read-only pristine benchmark shared by the module."""
    return _fresh_benchmark()


@pytest.fixture(scope="module")
def queries():
    return {name: q.sparql for name, q in build_query_set().items()}


@pytest.fixture(scope="module")
def pristine_report(bench, queries):
    return analyze(
        bench.database, bench.ontology, bench.mappings, queries=queries
    )


@pytest.fixture(scope="module")
def factbase(bench):
    return build_factbase(
        database=bench.database,
        ontology=bench.ontology,
        mappings=bench.mappings,
    )


class TestPristine:
    def test_no_errors_or_warnings(self, pristine_report):
        worst = max(
            (f.severity for f in pristine_report.findings),
            default=Severity.INFO,
        )
        assert worst <= Severity.INFO, pristine_report.describe()

    def test_all_passes_ran(self, pristine_report):
        assert pristine_report.passes == (
            "mapping",
            "ontology",
            "constraints",
            "query",
            "perf",
        )

    def test_factbase_attached(self, pristine_report):
        assert pristine_report.factbase is not None
        assert len(pristine_report.factbase) > 0


class TestOntologyPass:
    def test_self_disjoint_class_unsatisfiable(self):
        ex = "http://ex.org/"
        ontology = Ontology()
        ontology.add_subclass(ex + "B", ex + "A").add_disjoint(ex + "A", ex + "A")
        ontology.declare_class(ex + "C")
        findings = run_ontology_pass(ontology, FactBase())
        unsatisfiable = {
            f.subject for f in findings if f.code == "ONT_UNSATISFIABLE"
        }
        # A is disjoint with itself, and so is its subclass B
        assert unsatisfiable == {ex + "A", ex + "B"}


class TestMutants:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_caught(self, name, queries):
        # vfd-scale-trap's declared VFD genuinely holds on the 0.1-scale
        # sample; only the larger scan exposes the violation
        scale = 0.25 if name == "vfd-scale-trap" else SCALE
        fresh = build_benchmark(seed=SEED, profile=SeedProfile().scaled(scale))
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

    def test_unknown_mutant_rejected(self):
        fresh = _fresh_benchmark()
        with pytest.raises(KeyError):
            apply_mutant(
                "no-such-mutant", fresh.database, fresh.ontology, fresh.mappings
            )

    def test_mutants_deterministic(self):
        a, b = _fresh_benchmark(), _fresh_benchmark()
        ra = analyze(*apply_mutant("break-fk", a.database, a.ontology, a.mappings))
        rb = analyze(*apply_mutant("break-fk", b.database, b.ontology, b.mappings))
        assert ra.codes() == rb.codes()


class TestFactBase:
    def test_not_null_lookup(self, factbase):
        # the field table keys rows by a NOT NULL primary key
        assert factbase.not_null("field", "fldnpdidfield") is not None
        assert factbase.not_null("FIELD", "FLDNPDIDFIELD") is not None  # case
        assert factbase.not_null("field", "no_such_column") is None

    def test_unique_key_within(self, factbase):
        fact = factbase.unique_key_within("field", ["fldnpdidfield", "fldname"])
        assert fact is not None
        assert set(fact.columns) <= {"fldnpdidfield", "fldname"}
        assert factbase.unique_key_within("field", ["fldhctype"]) is None

    def test_fingerprint_deterministic(self, bench, factbase):
        other = build_factbase(
            database=bench.database,
            ontology=bench.ontology,
            mappings=bench.mappings,
        )
        assert other.fingerprint() == factbase.fingerprint()

    def test_counts_cover_all_facts(self, factbase):
        counts = factbase.counts()
        # fk_verified is a subset of foreign_key, not a separate category
        primary = sum(v for k, v in counts.items() if k != "fk_verified")
        assert primary == len(factbase)


class TestFactGatedUnfolding:
    @pytest.fixture(scope="class")
    def engines(self, bench, factbase):
        off = OBDAEngine(bench.database, bench.ontology, bench.mappings)
        on = OBDAEngine(
            bench.database, bench.ontology, bench.mappings, factbase=factbase
        )
        return off, on

    def test_same_answers_smaller_sql(self, engines, queries):
        off, on = engines
        smaller = 0
        for name in sorted(queries, key=lambda q: int(q[1:])):
            r_off = off.execute(queries[name])
            r_on = on.execute(queries[name])
            assert sorted(map(str, r_off.rows)) == sorted(map(str, r_on.rows)), name
            assert r_on.metrics.sql_characters <= r_off.metrics.sql_characters, name
            if r_on.metrics.sql_characters < r_off.metrics.sql_characters:
                smaller += 1
        assert smaller >= 1, "no query produced a strictly smaller unfolding"

    def test_facts_fired_recorded(self, engines, queries):
        _, on = engines
        result = on.execute(queries["q4"])
        assert result.metrics.facts_fired
        assert (
            result.metrics.elided_null_guards
            + result.metrics.eliminated_joins
            + result.metrics.empty_disjuncts_skipped
        ) > 0

    def test_explain_reports_fired_facts(self, engines, queries):
        _, on = engines
        lines = on.explain(queries["q4"])
        assert any(line.startswith("facts:") for line in lines)
        assert any(line.startswith("fact fired:") for line in lines)



class TestMixerPreflight:
    def test_preflight_abort(self, bench, queries):
        fresh = _fresh_benchmark()
        db, onto, mappings = apply_mutant(
            "drop-column", fresh.database, fresh.ontology, fresh.mappings
        )

        def preflight():
            return analyze(db, onto, mappings, verify_data=False).findings

        engine = OBDAEngine(bench.database, bench.ontology, bench.mappings)
        mixer = Mixer(
            OBDASystemAdapter(engine),
            {"q1": queries["q1"]},
            preflight=preflight,
        )
        report = mixer.run(runs=1)
        assert report.aborted_by_preflight
        assert report.preflight_findings
        assert "__preflight__" in report.errors
        assert not report.per_query

    def test_clean_preflight_runs(self, bench, queries):
        engine = OBDAEngine(bench.database, bench.ontology, bench.mappings)
        mixer = Mixer(
            OBDASystemAdapter(engine),
            {"q1": queries["q1"]},
            preflight=lambda: [],
        )
        report = mixer.run(runs=1)
        assert not report.aborted_by_preflight
        assert report.per_query
