"""Tests for the OBDA Mixer testing platform."""

import pytest

from repro.mixer import (
    ExecutionRecord,
    MIX_HEADERS,
    Mixer,
    OBDASystemAdapter,
    PER_QUERY_HEADERS,
    PhaseBreakdown,
    TripleStoreAdapter,
    format_table,
    mix_report_rows,
    per_query_rows,
    run_mix,
)
from repro.obda import RewritingTripleStore, materialize

EX = "http://ex.org/"
PRE = f"PREFIX : <{EX}>\n"

QUERIES = {
    "qa": PRE + "SELECT ?p WHERE { ?p a :Person }",
    "qb": PRE + "SELECT ?n WHERE { ?e :name ?n }",
    "qc": PRE + "SELECT (COUNT(?p) AS ?n) WHERE { ?e :sellsProduct ?p }",
}


class TestPhaseBreakdown:
    def test_overall_and_output(self):
        phases = PhaseBreakdown(0.1, 0.2, 0.3, 0.4)
        assert phases.overall == pytest.approx(1.0)
        assert phases.output_time == pytest.approx(0.7)


class TestMixerWithObda:
    def test_run_produces_stats(self, example_engine):
        report = Mixer(OBDASystemAdapter(example_engine), QUERIES).run(runs=2)
        assert report.runs == 2
        assert len(report.mix_seconds) == 2
        assert set(report.per_query) == set(QUERIES)
        assert report.errors == {}
        qa = report.per_query["qa"]
        assert qa.runs == 2
        assert qa.avg_result_size == 2
        assert qa.avg_overall >= qa.avg_execution

    def test_qmph_positive(self, example_engine):
        report = run_mix(OBDASystemAdapter(example_engine), QUERIES, runs=1)
        assert report.qmph > 0
        assert report.avg_mix_seconds > 0

    def test_failing_query_recorded_not_fatal(self, example_engine):
        queries = dict(QUERIES)
        queries["bad"] = "THIS IS NOT SPARQL"
        report = Mixer(OBDASystemAdapter(example_engine), queries).run(runs=1)
        assert "bad" in report.errors
        assert set(report.per_query) == set(QUERIES)

    def test_quality_metrics_propagated(self, example_engine):
        report = Mixer(OBDASystemAdapter(example_engine), QUERIES).run(runs=1)
        assert "ucq_size" in report.per_query["qa"].quality

    def test_loading_time_reported(self, example_engine):
        report = Mixer(OBDASystemAdapter(example_engine), QUERIES).run(runs=1)
        assert report.loading_seconds == example_engine.loading_seconds


class TestMixerWithTripleStore:
    def test_adapter(self, example_db, example_ontology, example_mappings):
        store = RewritingTripleStore(example_ontology)
        store.load_graph(materialize(example_db, example_mappings).graph)
        report = Mixer(TripleStoreAdapter(store), QUERIES).run(runs=1)
        assert report.errors == {}
        assert report.per_query["qa"].avg_result_size == 2


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 10000.0]], "title")
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "a" in lines[1] and "b" in lines[1]
        assert "10,000" in text

    def test_mix_report_rows(self, example_engine):
        report = Mixer(OBDASystemAdapter(example_engine), QUERIES).run(runs=1)
        rows = mix_report_rows(report, "NPD1", 123)
        assert rows[0][0] == "NPD1"
        assert rows[0][-1] == 123
        assert len(rows[0]) == len(MIX_HEADERS)

    def test_per_query_rows_sorted(self, example_engine):
        report = Mixer(OBDASystemAdapter(example_engine), QUERIES).run(runs=1)
        rows = per_query_rows(report)
        assert len(rows) == 3
        assert len(rows[0]) == len(PER_QUERY_HEADERS)


class TestMultiClient:
    def test_clients_multiply_records(self, example_engine):
        mixer = Mixer(
            OBDASystemAdapter(example_engine), QUERIES, warmup_runs=0, clients=3
        )
        report = mixer.run(runs=1)
        assert report.clients == 3
        assert report.per_query["qa"].runs == 3

    def test_qmph_accounts_for_clients(self, example_engine):
        # both measured warm: a cold single-client mix pays the compile
        # pipeline and can outlast four warm ones
        single = Mixer(
            OBDASystemAdapter(example_engine), QUERIES, warmup_runs=1, clients=1
        ).run(runs=1)
        multi = Mixer(
            OBDASystemAdapter(example_engine), QUERIES, warmup_runs=1, clients=4
        ).run(runs=1)
        # on a single-core engine, 4 interleaved clients take ~4x the wall
        # time per mix period, so aggregate QMpH stays in the same ballpark
        assert multi.avg_mix_seconds > single.avg_mix_seconds
        assert multi.qmph == pytest.approx(
            4 * 3600 / multi.avg_mix_seconds
        )

    def test_zero_clients_rejected(self, example_engine):
        with pytest.raises(ValueError):
            Mixer(OBDASystemAdapter(example_engine), QUERIES, clients=0)


class _ScriptedSystem:
    """Fake system: fails a chosen query after N successful calls."""

    name = "scripted"

    def __init__(self, fail_query=None, fail_after=0, delay_query=None, delay=0.0):
        self.fail_query = fail_query
        self.fail_after = fail_after
        self.delay_query = delay_query
        self.delay = delay
        self.calls = {}

    def loading_time(self):
        return 0.0

    def run_query(self, query_id, sparql):
        import time as _time

        count = self.calls.get(query_id, 0) + 1
        self.calls[query_id] = count
        if query_id == self.fail_query and count > self.fail_after:
            raise RuntimeError("scripted failure")
        if query_id == self.delay_query:
            _time.sleep(self.delay)
        return ExecutionRecord(
            query_id=query_id, result_size=1, phases=PhaseBreakdown()
        )


_SCRIPT_QUERIES = {"q1": "SELECT...", "q2": "SELECT...", "q3": "SELECT..."}


class TestMixerErrorPaths:
    def test_warmup_failure_excluded_without_abort(self):
        # fails from the very first (warm-up) call: the query is excluded
        # before measurement and no measured mix is aborted
        system = _ScriptedSystem(fail_query="q2", fail_after=0)
        report = Mixer(system, _SCRIPT_QUERIES, warmup_runs=1).run(runs=2)
        assert "q2" in report.errors
        assert report.aborted_mixes == 0
        assert len(report.mix_seconds) == 2
        assert set(report.per_query) == {"q1", "q3"}

    def test_midmix_failure_aborts_the_mix(self):
        # survives the warm-up call, dies on the first measured call:
        # that mix period is aborted and must not count towards QMpH
        system = _ScriptedSystem(fail_query="q2", fail_after=1)
        report = Mixer(system, _SCRIPT_QUERIES, warmup_runs=1).run(runs=3)
        assert "q2" in report.errors
        assert report.aborted_mixes == 1
        assert len(report.aborted_mix_seconds) == 1
        assert len(report.mix_seconds) == 2  # later mixes skip q2 and complete
        assert "q2" not in report.per_query
        assert report.qmph == pytest.approx(3600.0 / report.avg_mix_seconds)

    def test_zero_measured_mixes_means_zero_qmph(self):
        system = _ScriptedSystem(fail_query="q2", fail_after=1)
        report = Mixer(system, _SCRIPT_QUERIES, warmup_runs=1).run(runs=1)
        assert report.mix_seconds == []
        assert report.aborted_mixes == 1
        assert report.qmph == 0.0
        assert report.avg_mix_seconds == 0.0

    def test_timeout_excludes_query_from_mixes(self):
        system = _ScriptedSystem(delay_query="q3", delay=0.05)
        report = Mixer(
            system, _SCRIPT_QUERIES, warmup_runs=1, query_timeout=0.01
        ).run(runs=2)
        assert "q3" in report.errors
        assert report.errors["q3"].startswith("timeout")
        assert report.aborted_mixes == 0
        assert set(report.per_query) == {"q1", "q2"}
        # after warm-up the slow query is never run again
        assert system.calls["q3"] == 1

    def test_midmix_failure_with_clients(self):
        # client 1 succeeds, client 2 trips the failure inside run 1
        system = _ScriptedSystem(fail_query="q1", fail_after=2)
        report = Mixer(
            system, _SCRIPT_QUERIES, warmup_runs=0, clients=2
        ).run(runs=3)
        assert report.aborted_mixes == 1
        assert len(report.mix_seconds) == 2
        assert report.qmph == pytest.approx(
            2 * 3600.0 / report.avg_mix_seconds
        )


class TestProbedSystemAdapter:
    def test_probe_stamps_quality(self, example_engine):
        from repro.mixer import ProbedSystemAdapter

        seen = []

        def probe(query_id, sparql, record):
            seen.append(query_id)
            record.quality["oracle_agreement"] = True

        probed = ProbedSystemAdapter(OBDASystemAdapter(example_engine), probe)
        report = Mixer(probed, QUERIES, warmup_runs=0).run(runs=1)
        assert report.errors == {}
        assert seen.count("qa") == 1
        assert report.per_query["qa"].quality["oracle_agreement"] == 1.0

    def test_probe_adapter_name(self, example_engine):
        from repro.mixer import ProbedSystemAdapter

        inner = OBDASystemAdapter(example_engine)
        assert ProbedSystemAdapter(inner, lambda *a: None).name == (
            f"probed-{inner.name}"
        )
