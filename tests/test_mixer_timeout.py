"""Mixer timeout semantics: cancelled mid-flight vs detected post-hoc."""

from __future__ import annotations

import time

import pytest

from repro.concurrency import QueryCancelled
from repro.mixer import Mixer, OBDASystemAdapter, ProbedSystemAdapter
from repro.mixer.systems import ExecutionRecord, PhaseBreakdown

from test_cancellation import FAST_QUERY, SLOW_QUERY


class SleepySystem:
    """A non-cancellable system: queries always run to completion."""

    name = "sleepy"

    def __init__(self, slow_seconds: float = 0.1):
        self.slow_seconds = slow_seconds
        self.calls = []

    def loading_time(self) -> float:
        return 0.0

    def run_query(self, query_id: str, sparql: str) -> ExecutionRecord:
        self.calls.append(query_id)
        if query_id == "slow":
            time.sleep(self.slow_seconds)
        return ExecutionRecord(
            query_id=query_id, result_size=1, phases=PhaseBreakdown(execution=0.001)
        )


class TestCancellableTimeout:
    def test_slow_query_aborted_and_recorded_as_timeout(self, npd_engine):
        adapter = OBDASystemAdapter(npd_engine)
        assert adapter.supports_cancellation
        mixer = Mixer(
            adapter,
            {"fast": FAST_QUERY, "slow": SLOW_QUERY},
            warmup_runs=1,
            query_timeout=0.3,
        )
        started = time.perf_counter()
        report = mixer.run(runs=2)
        elapsed = time.perf_counter() - started
        # the slow query was aborted (not run to completion): without
        # cancellation the cross join alone runs for minutes
        assert elapsed < 30
        assert report.errors["slow"] == "timeout: aborted at 0.3s"
        # the fast query still produced full measurements
        assert report.per_query["fast"].runs == 2
        assert "slow" not in report.per_query
        assert report.qmph > 0

    def test_threads_mode_aborts_slow_query(self, npd_engine):
        mixer = Mixer(
            OBDASystemAdapter(npd_engine),
            {"fast": FAST_QUERY, "slow": SLOW_QUERY},
            warmup_runs=1,
            query_timeout=0.3,
            clients=2,
            mode="threads",
        )
        started = time.perf_counter()
        report = mixer.run(runs=1)
        assert time.perf_counter() - started < 30
        assert report.errors["slow"].startswith("timeout: aborted")

    def test_probed_adapter_forwards_cancellation(self, npd_engine):
        probed = ProbedSystemAdapter(
            OBDASystemAdapter(npd_engine), probe=lambda qid, sparql, record: None
        )
        assert probed.supports_cancellation
        mixer = Mixer(
            probed, {"slow": SLOW_QUERY}, warmup_runs=1, query_timeout=0.3
        )
        report = mixer.run(runs=1)
        assert report.errors["slow"] == "timeout: aborted at 0.3s"


class TestPostHocTimeout:
    def test_non_cancellable_system_keeps_posthoc_path(self):
        system = SleepySystem(slow_seconds=0.1)
        mixer = Mixer(
            system,
            {"fast": "q", "slow": "q"},
            warmup_runs=1,
            query_timeout=0.02,
        )
        report = mixer.run(runs=1)
        # post-hoc wording: the query finished, then the overrun was noticed
        assert "slow" in report.errors
        assert ">" in report.errors["slow"]
        assert "aborted" not in report.errors["slow"]
        assert report.per_query["fast"].runs == 1

    def test_no_timeout_configured_never_cancels(self):
        system = SleepySystem(slow_seconds=0.01)
        report = Mixer(
            system, {"fast": "q", "slow": "q"}, warmup_runs=0
        ).run(runs=1)
        assert report.errors == {}
        assert set(report.per_query) == {"fast", "slow"}


class SelfCancellingSystem:
    """Cancels on its own, like an endpoint answering 408."""

    name = "self-cancelling"
    supports_cancellation = True

    def loading_time(self) -> float:
        return 0.0

    def run_query(self, query_id, sparql, token=None) -> ExecutionRecord:
        if query_id == "q1":
            raise QueryCancelled("deadline")
        return ExecutionRecord(
            query_id=query_id, result_size=1, phases=PhaseBreakdown(execution=0.001)
        )


class TestSystemSideCancellation:
    @pytest.mark.parametrize("warmup_runs", [0, 1])
    @pytest.mark.parametrize("mode", ["simulated", "threads"])
    def test_recorded_without_mixer_timeout(self, mode, warmup_runs):
        mixer = Mixer(
            SelfCancellingSystem(),
            {"q1": "q", "q2": "q"},
            warmup_runs=warmup_runs,
            mode=mode,
        )
        report = mixer.run(runs=2)
        assert report.errors["q1"].startswith("timeout")
        assert "q1" not in report.per_query
        assert report.per_query["q2"].runs >= 1
