"""Cooperative cancellation: token semantics and executor deadlines."""

from __future__ import annotations

import threading
import time

import pytest

from repro.concurrency import CancellationToken, QueryCancelled

PREFIX = "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"

# a four-way cross product over a single-assertion class: compiles in
# milliseconds (1 UCQ disjunct) but produces |wellbore_exploration_all|^4
# combined rows, far too many to finish before any test deadline
SLOW_QUERY = PREFIX + (
    "SELECT ?a ?b ?c ?d WHERE { "
    "?a a npdv:ExplorationWellbore . ?b a npdv:ExplorationWellbore . "
    "?c a npdv:ExplorationWellbore . ?d a npdv:ExplorationWellbore }"
)

FAST_QUERY = PREFIX + "SELECT ?f WHERE { ?f a npdv:Field }"


class TestCancellationToken:
    def test_no_deadline_never_expires(self):
        token = CancellationToken.with_timeout(None)
        assert not token.expired
        assert token.remaining() is None
        token.check()  # must not raise

    def test_deadline_expiry(self):
        token = CancellationToken.with_timeout(0.01)
        assert token.remaining() <= 0.01
        time.sleep(0.02)
        assert token.expired
        with pytest.raises(QueryCancelled) as excinfo:
            token.check()
        assert excinfo.value.reason == "deadline"

    def test_explicit_cancel(self):
        token = CancellationToken.with_timeout(60)
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        with pytest.raises(QueryCancelled) as excinfo:
            token.check()
        assert excinfo.value.reason == "cancelled"

    def test_remaining_clamps_at_zero(self):
        token = CancellationToken.with_timeout(0.0)
        assert token.remaining() == 0.0


class TestEngineCancellation:
    def test_deadline_aborts_slow_query(self, npd_engine):
        token = CancellationToken.with_timeout(0.2)
        started = time.perf_counter()
        with pytest.raises(QueryCancelled) as excinfo:
            npd_engine.execute(SLOW_QUERY, token=token)
        elapsed = time.perf_counter() - started
        assert excinfo.value.reason == "deadline"
        # cooperative polling fires within one row batch of the deadline
        assert elapsed < 0.2 + 1.5

    def test_explicit_cancel_from_other_thread(self, npd_engine):
        token = CancellationToken()
        timer = threading.Timer(0.15, token.cancel)
        timer.start()
        started = time.perf_counter()
        try:
            with pytest.raises(QueryCancelled) as excinfo:
                npd_engine.execute(SLOW_QUERY, token=token)
        finally:
            timer.cancel()
        assert excinfo.value.reason == "cancelled"
        assert time.perf_counter() - started < 0.15 + 1.5

    def test_token_does_not_change_results(self, npd_engine):
        plain = npd_engine.execute(FAST_QUERY)
        relaxed = npd_engine.execute(
            FAST_QUERY, token=CancellationToken.with_timeout(60)
        )
        assert plain.variables == relaxed.variables
        assert sorted(map(repr, plain.rows)) == sorted(map(repr, relaxed.rows))
        assert len(plain.rows) > 0

    def test_engine_usable_after_cancellation(self, npd_engine):
        with pytest.raises(QueryCancelled):
            npd_engine.execute(
                SLOW_QUERY, token=CancellationToken.with_timeout(0.2)
            )
        # the thread-local token was cleared; new queries run unbounded
        result = npd_engine.execute(FAST_QUERY)
        assert len(result.rows) > 0

    def test_pre_expired_token_rejected_before_execution(self, npd_engine):
        token = CancellationToken.with_timeout(0.0)
        started = time.perf_counter()
        with pytest.raises(QueryCancelled):
            npd_engine.execute(SLOW_QUERY, token=token)
        assert time.perf_counter() - started < 0.5

    def test_concurrent_queries_with_independent_tokens(self, npd_engine):
        """One thread's deadline must not leak into another's query."""
        outcomes = {}

        def cancelled_client():
            try:
                npd_engine.execute(
                    SLOW_QUERY, token=CancellationToken.with_timeout(0.2)
                )
                outcomes["slow"] = "finished"
            except QueryCancelled:
                outcomes["slow"] = "cancelled"

        def unbounded_client():
            result = npd_engine.execute(FAST_QUERY)
            outcomes["fast"] = len(result.rows)

        threads = [
            threading.Thread(target=cancelled_client),
            threading.Thread(target=unbounded_client),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes["slow"] == "cancelled"
        assert outcomes["fast"] > 0


class TestTranslationCancellation:
    def test_cancel_after_sql_aborts_term_translation(self, npd_engine, monkeypatch):
        """A token tripped once the SQL has run is still honoured."""
        token = CancellationToken()
        database = npd_engine.database
        execute_plan = database.execute_plan
        executed = []

        def execute_then_cancel(*args, **kwargs):
            result = execute_plan(*args, **kwargs)
            executed.append(len(result.rows))
            token.cancel()
            return result

        monkeypatch.setattr(database, "execute_plan", execute_then_cancel)
        with pytest.raises(QueryCancelled) as excinfo:
            npd_engine.execute(FAST_QUERY, token=token)
        assert excinfo.value.reason == "cancelled"
        assert executed and executed[0] > 0
