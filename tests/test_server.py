"""SPARQL endpoint server: admission, protocol behaviour, HTTP integration."""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro
from repro.concurrency import CancellationToken, QueryCancelled
from repro.diffcheck.normalize import canonical_bag, compare_bags
from repro.mixer import Mixer, SparqlEndpointAdapter
from repro.server import (
    RejectedError,
    ServerConfig,
    SparqlEndpoint,
    SparqlServer,
    WorkerPool,
    parse_json_results,
)
from repro.server.http import YOUNG_THRESHOLD

from test_cancellation import FAST_QUERY, SLOW_QUERY
from test_unfolder_residue import BULK_QUERIES


def http_get(url: str, headers: dict = None, timeout: float = 60.0):
    """GET; returns (status, headers, body) without raising on 4xx/5xx."""
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def http_post(url: str, body: bytes, content_type: str, headers: dict = None,
              timeout: float = 60.0):
    all_headers = {"Content-Type": content_type}
    all_headers.update(headers or {})
    request = urllib.request.Request(url, data=body, headers=all_headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def query_url(base: str, sparql: str, **params) -> str:
    params["query"] = sparql
    return base + "/sparql?" + urllib.parse.urlencode(params)


class TestWorkerPool:
    def test_submit_and_wait(self):
        pool = WorkerPool(workers=2, queue_depth=8)
        try:
            jobs = [pool.submit(lambda n=n: n * n) for n in range(8)]
            assert [job.wait(5.0) for job in jobs] == [n * n for n in range(8)]
        finally:
            assert pool.shutdown(2.0)

    def test_full_queue_rejects_immediately(self):
        release = threading.Event()
        pool = WorkerPool(workers=1, queue_depth=1)
        try:
            blocker = pool.submit(release.wait)
            time.sleep(0.05)  # let the worker pick it up
            queued = pool.submit(lambda: "queued")
            with pytest.raises(RejectedError) as excinfo:
                pool.submit(lambda: "rejected")
            assert "full" in str(excinfo.value)
            release.set()
            assert blocker.wait(5.0)
            assert queued.wait(5.0) == "queued"
        finally:
            release.set()
            pool.shutdown(2.0)

    def test_expired_while_queued_never_starts(self):
        release = threading.Event()
        executed = []
        pool = WorkerPool(workers=1, queue_depth=2)
        try:
            pool.submit(release.wait)
            time.sleep(0.05)
            token = CancellationToken.with_timeout(0.01)
            doomed = pool.submit(lambda: executed.append(True), token)
            time.sleep(0.05)  # token expires while the job sits queued
            release.set()
            with pytest.raises(QueryCancelled):
                doomed.wait(5.0)
            assert executed == []
        finally:
            release.set()
            pool.shutdown(2.0)

    def test_errors_propagate_to_waiter(self):
        pool = WorkerPool(workers=1, queue_depth=2)
        try:
            job = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                job.wait(5.0)
        finally:
            pool.shutdown(2.0)

    def test_shutdown_cancels_executing_job(self):
        token = CancellationToken()

        def stubborn():
            while True:
                token.check()
                time.sleep(0.01)

        pool = WorkerPool(workers=1, queue_depth=1)
        job = pool.submit(stubborn, token)
        time.sleep(0.05)
        clean = pool.shutdown(drain_seconds=0.1)
        assert clean is False
        assert token.cancelled
        with pytest.raises(QueryCancelled):
            job.wait(5.0)

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(workers=1, queue_depth=1)
        assert pool.shutdown(1.0)
        with pytest.raises(RejectedError):
            pool.submit(lambda: None)


class TestEndpointProtocol:
    """Transport-free protocol behaviour via SparqlEndpoint directly."""

    @pytest.fixture(scope="class")
    def endpoint(self, npd_engine):
        endpoint = SparqlEndpoint(npd_engine, ServerConfig(workers=2, queue_depth=4))
        yield endpoint
        endpoint.shutdown()

    def test_success_returns_streamed_rows(self, endpoint, npd_engine):
        response = endpoint.handle_query(FAST_QUERY)
        assert response.status == 200
        headers = dict(response.headers)
        assert headers["Content-Type"].startswith("application/sparql-results+json")
        variables, rows = parse_json_results(b"".join(response.chunks))
        assert headers["X-Row-Count"] == str(len(rows))
        expected = npd_engine.execute(FAST_QUERY)
        assert compare_bags(
            canonical_bag(variables, rows),
            canonical_bag(expected.variables, expected.rows),
        ).equal

    def test_parse_error_maps_to_400_with_position(self, endpoint):
        response = endpoint.handle_query("SELECT ?x WHERE { ?x a }")
        assert response.status == 400
        body = json.loads(b"".join(response.chunks))
        assert body["error"] == "parse_error"
        assert isinstance(body["position"], int)

    def test_empty_query_is_400(self, endpoint):
        assert endpoint.handle_query("   ").status == 400

    def test_bad_timeout_param_is_400(self, endpoint):
        assert endpoint.handle_query(FAST_QUERY, timeout_param="soon").status == 400
        assert endpoint.handle_query(FAST_QUERY, timeout_param="-1").status == 400

    def test_timeout_clamped_to_max(self, endpoint):
        assert endpoint.resolve_timeout("9999") == endpoint.config.max_timeout
        assert endpoint.resolve_timeout(None) == endpoint.config.default_timeout

    def test_unacceptable_accept_is_406(self, endpoint):
        assert endpoint.handle_query(FAST_QUERY, accept="application/pdf").status == 406

    def test_ntriples_needs_three_columns(self, endpoint):
        response = endpoint.handle_query(FAST_QUERY, format_param="ntriples")
        assert response.status == 406

    def test_deadline_maps_to_408(self, endpoint):
        started = time.perf_counter()
        response = endpoint.handle_query(SLOW_QUERY, timeout_param="0.2")
        elapsed = time.perf_counter() - started
        assert response.status == 408
        assert elapsed < 0.2 + 1.5
        body = json.loads(b"".join(response.chunks))
        assert body["error"] == "timeout"
        assert body["timeout_seconds"] == 0.2

    def test_metrics_track_outcomes(self, endpoint):
        snapshot = json.loads(b"".join(endpoint.metrics_snapshot().chunks))
        counters = snapshot["counters"]
        assert counters["requests_total"] >= counters.get("responses_200", 0)
        assert counters["parse_errors"] >= 1
        assert counters["timeouts"] >= 1
        assert snapshot["queue"]["workers"] == 2


@pytest.fixture(scope="module")
def server(npd_engine):
    config = ServerConfig(
        port=0,
        workers=4,
        queue_depth=8,
        default_timeout=60.0,
        max_body_bytes=50_000,
    )
    instance = SparqlServer(npd_engine, config)
    instance.start()
    yield instance
    instance.stop()


class TestHttpIntegration:
    def test_all_catalogue_queries_match_in_process(
        self, server, npd_benchmark, npd_engine
    ):
        """Acceptance: identical result bags over HTTP vs in-process."""
        for query_id in sorted(npd_benchmark.queries):
            sparql = npd_benchmark.queries[query_id].sparql
            status, headers, body = http_get(query_url(server.address, sparql))
            assert status == 200, f"{query_id}: {body[:200]!r}"
            variables, rows = parse_json_results(body)
            expected = npd_engine.execute(sparql)
            outcome = compare_bags(
                canonical_bag(variables, rows),
                canonical_bag(expected.variables, expected.rows),
            )
            assert outcome.equal, f"{query_id}: HTTP result differs from in-process"
            assert headers["X-Row-Count"] == str(len(expected.rows)), query_id

    @pytest.mark.parametrize(
        "accept,expected_mime",
        [
            ("application/sparql-results+json", "application/sparql-results+json"),
            ("application/sparql-results+xml", "application/sparql-results+xml"),
            ("text/csv", "text/csv"),
            ("text/tab-separated-values", "text/tab-separated-values"),
        ],
    )
    def test_content_negotiation_matrix(self, server, accept, expected_mime):
        status, headers, body = http_get(
            query_url(server.address, FAST_QUERY), headers={"Accept": accept}
        )
        assert status == 200
        assert headers["Content-Type"].startswith(expected_mime)
        assert len(body) > 0

    def test_post_sparql_query_body(self, server):
        status, headers, body = http_post(
            server.address + "/sparql",
            FAST_QUERY.encode(),
            "application/sparql-query",
            headers={"Accept": "application/sparql-results+json"},
        )
        assert status == 200
        variables, rows = parse_json_results(body)
        assert len(rows) > 0

    def test_post_form_encoded(self, server):
        form = urllib.parse.urlencode({"query": FAST_QUERY, "format": "tsv"}).encode()
        status, headers, body = http_post(
            server.address + "/sparql", form, "application/x-www-form-urlencoded"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/tab-separated-values")

    def test_phase_headers_present(self, server):
        status, headers, _ = http_get(query_url(server.address, FAST_QUERY))
        assert status == 200
        for phase in ("Rewriting", "Unfolding", "Planning", "Execution", "Translation"):
            assert float(headers[f"X-Phase-{phase}"]) >= 0.0
        assert headers["X-Cache-Hit"] in {"0", "1"}

    def test_malformed_query_gives_structured_400(self, server):
        status, _, body = http_get(
            query_url(server.address, "SELECT ?x WHERE { ?x a }")
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "parse_error"
        assert "position" in payload

    def test_missing_query_param_is_400(self, server):
        status, _, body = http_get(server.address + "/sparql")
        assert status == 400
        assert json.loads(body)["error"] == "bad_request"

    def test_unknown_path_is_404(self, server):
        status, _, body = http_get(server.address + "/nope")
        assert status == 404
        assert json.loads(body)["error"] == "not_found"

    def test_bad_content_type_is_415(self, server):
        status, _, body = http_post(
            server.address + "/sparql", FAST_QUERY.encode(), "text/turtle"
        )
        assert status == 415
        assert json.loads(body)["error"] == "unsupported_media_type"

    def test_oversized_body_is_413(self, server):
        padding = FAST_QUERY + " #" + "x" * 60_000
        status, _, body = http_post(
            server.address + "/sparql", padding.encode(), "application/sparql-query"
        )
        assert status == 413
        assert json.loads(body)["error"] == "payload_too_large"

    def test_forced_timeout_is_408_within_deadline(self, server):
        started = time.perf_counter()
        status, _, body = http_get(
            query_url(server.address, SLOW_QUERY, timeout="0.3")
        )
        elapsed = time.perf_counter() - started
        assert status == 408
        assert elapsed < 0.3 + 1.5
        assert json.loads(body)["error"] == "timeout"

    def test_health_endpoint(self, server):
        status, _, body = http_get(server.address + "/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["loading_seconds"] >= 0

    def test_metrics_endpoint(self, server):
        status, _, body = http_get(server.address + "/metrics")
        assert status == 200
        payload = json.loads(body)
        assert payload["counters"]["requests_total"] > 0
        assert "engine_caches" in payload
        assert "total" in payload["latency"]
        # the serving collector policy is visible on a live server
        assert payload["gc"]["frozen"] == gc.get_freeze_count() > 0
        collections = payload["gc"]["collections"]
        assert len(collections) == len(gc.get_stats())
        assert all(isinstance(count, int) and count >= 0 for count in collections)


class TestCollectorPolicy:
    def test_start_freezes_and_stop_restores(self, npd_engine):
        before = gc.get_threshold()
        server = SparqlServer(npd_engine, ServerConfig(port=0, workers=1))
        server.start()
        try:
            assert gc.get_freeze_count() > 0
            assert gc.get_threshold() == (YOUNG_THRESHOLD, *before[1:])
        finally:
            server.stop()
        assert gc.get_freeze_count() == 0
        assert gc.get_threshold() == before

    def test_serving_leaves_no_cyclic_garbage(self, server, npd_benchmark):
        """What makes a large young threshold safe: every object a
        request allocates is freed by reference counting alone."""
        urls = [
            query_url(server.address, text, format=fmt)
            for text in BULK_QUERIES.values()
            for fmt in ("json", "csv")
        ] + [
            query_url(server.address, npd_benchmark.queries[query_id].sparql)
            for query_id in ("q1", "q6", "q11")
        ]
        for url in urls:  # compile and fill the caches first
            assert http_get(url)[0] == 200
        gc.collect()
        gc.disable()
        try:
            for url in urls:
                assert http_get(url)[0] == 200
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEncodedServing:
    """The server writes responses from the dictionary-encoded answer."""

    def test_bulk_response_builds_no_terms(self, server, monkeypatch):
        import repro.server.app as app
        from repro.rdf.terms import IRI, Literal

        urls = [
            query_url(server.address, text, format=fmt)
            for text in BULK_QUERIES.values()
            for fmt in ("json", "xml", "csv", "tsv")
        ]
        for url in urls:  # compile and fill the caches first
            assert http_get(url)[0] == 200
        built = []
        spying = threading.Event()
        for cls in (IRI, Literal):
            original = cls.__post_init__

            def spy(term, original=original):
                if spying.is_set():
                    built.append(term)
                original(term)

            monkeypatch.setattr(cls, "__post_init__", spy)
        parse_query = app.parse_query

        def unspied_parse(text):
            # the pre-parse builds the query's own IRIs, not the answer's
            spying.clear()
            try:
                return parse_query(text)
            finally:
                spying.set()

        monkeypatch.setattr(app, "parse_query", unspied_parse)
        spying.set()
        try:
            for url in urls:
                status, headers, body = http_get(url)
                assert status == 200 and int(headers["X-Row-Count"]) > 1000
        finally:
            spying.clear()
        assert built == []

    def test_encoded_path_leaves_no_cyclic_garbage(self, npd_engine):
        from repro.server.results import serialize

        def serve_all():
            for text in BULK_QUERIES.values():
                result = npd_engine.execute(text)
                for fmt in ("json", "xml", "csv", "tsv"):
                    assert b"".join(serialize(fmt, result.variables, result.answer))

        serve_all()
        gc.collect()
        gc.disable()
        try:
            serve_all()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invalid_iri_is_a_500_with_no_partial_body(
        self, example_db, example_ontology, example_mappings
    ):
        from repro.obda import OBDAEngine

        example_db.execute("INSERT INTO temployee VALUES (3, 'Ann', 'B 1')")
        endpoint = SparqlEndpoint(
            OBDAEngine(example_db, example_ontology, example_mappings),
            ServerConfig(workers=1),
        )
        try:
            for fmt in ("json", "xml", "csv", "tsv"):
                response = endpoint.handle_query(
                    "PREFIX : <http://ex.org/> SELECT ?b WHERE { ?b a :Branch }",
                    format_param=fmt,
                )
                assert response.status == 500
                assert dict(response.headers)["Content-Type"] == "application/json"
                assert json.loads(b"".join(response.chunks)) == {
                    "error": "internal_error",
                    "message": "IRI contains forbidden characters: "
                    "'http://ex.org/branch/B 1'",
                }
        finally:
            endpoint.shutdown()


class TestDegradedAnswers:
    QUERY = "PREFIX : <http://ex.org/> SELECT ?e WHERE { ?e :assignedTo ?t }"

    def test_truncated_rewriting_is_labelled(
        self, example_db, example_ontology, example_mappings
    ):
        from repro.obda import OBDAEngine

        def serve(engine):
            server = SparqlServer(engine, ServerConfig(port=0, workers=1))
            server.start()
            try:
                status, headers, _ = http_get(query_url(server.address, self.QUERY))
                _, _, body = http_get(server.address + "/metrics")
            finally:
                server.stop()
            assert status == 200
            return headers, json.loads(body)["counters"]

        headers, counters = serve(
            OBDAEngine(example_db, example_ontology, example_mappings, max_ucq=1)
        )
        assert headers["X-Rewriting-Truncated"] == "1"
        assert counters["truncated_answers"] == 1
        assert counters["stale_demotions"] == 0

        headers, counters = serve(
            OBDAEngine(example_db, example_ontology, example_mappings)
        )
        assert "X-Rewriting-Truncated" not in headers
        assert counters["truncated_answers"] == 0

    def test_stale_demotions_counted(
        self, example_db, example_ontology, example_mappings
    ):
        from repro.analysis.facts import build_factbase
        from repro.obda import OBDAEngine

        factbase = build_factbase(
            database=example_db, ontology=example_ontology, mappings=example_mappings
        )
        engine = OBDAEngine(
            example_db, example_ontology, example_mappings, factbase=factbase
        )
        endpoint = SparqlEndpoint(engine, ServerConfig(workers=1))
        def counters():
            return json.loads(b"".join(endpoint.metrics_snapshot().chunks))["counters"]

        try:
            assert endpoint.handle_query(self.QUERY).status == 200
            assert counters()["stale_demotions"] == 0
            example_db.execute("INSERT INTO temployee VALUES (3, 'Ann', 'B1')")
            assert endpoint.handle_query(self.QUERY).status == 200
            assert counters()["stale_demotions"] == 1
        finally:
            endpoint.shutdown()


class TestOverloadAndDrain:
    def test_burst_gets_503_then_recovers(self, npd_engine):
        """Concurrent slow queries: bounded queue sheds load, deadlines hold."""
        config = ServerConfig(port=0, workers=1, queue_depth=1, retry_after=2)
        server = SparqlServer(npd_engine, config)
        server.start()
        try:
            outcomes = []
            lock = threading.Lock()

            def fire():
                started = time.perf_counter()
                status, headers, _ = http_get(
                    query_url(server.address, SLOW_QUERY, timeout="0.2")
                )
                with lock:
                    outcomes.append(
                        (status, headers.get("Retry-After"),
                         time.perf_counter() - started)
                    )

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            statuses = [status for status, _, _ in outcomes]
            assert len(statuses) == 6
            assert set(statuses) <= {408, 503}
            assert statuses.count(503) >= 1, statuses
            assert statuses.count(408) >= 1, statuses
            for status, retry_after, elapsed in outcomes:
                if status == 503:
                    assert retry_after == "2"
                else:
                    # admitted queries abort within one batch of the deadline
                    # (plus queue wait bounded by the preceding execution)
                    assert elapsed < 5.0
            # the pool recovered: a normal query succeeds afterwards
            status, _, body = http_get(query_url(server.address, FAST_QUERY))
            assert status == 200
            _, rows = parse_json_results(body)
            assert len(rows) > 0
        finally:
            server.stop()

    def test_graceful_drain(self, npd_engine):
        server = SparqlServer(npd_engine, ServerConfig(port=0, workers=2))
        server.start()
        address = server.address
        status, _, _ = http_get(query_url(address, FAST_QUERY))
        assert status == 200
        assert server.stop() is True  # idle drain is clean
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(address + "/health", timeout=2.0)


class TestServerCli:
    """``python -m repro.server`` as a real process, driven by the Mixer."""

    def test_serves_mixer_and_drains_on_sigterm(self, npd_benchmark, npd_engine):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        # seed 1 at the default scale is the npd_benchmark instance
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0", "--seed", "1",
             "--workers", "2", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            # the first stdout line is printed once the socket is bound
            line = process.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            assert match, f"server never announced its address: {line!r}"
            base = match.group(1)
            status, _, body = http_get(base + "/health")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            queries = {
                query_id: npd_benchmark.queries[query_id].sparql
                for query_id in ("q1", "q2", "q3")
            }
            report = Mixer(
                SparqlEndpointAdapter(base), queries, mode="threads", clients=2
            ).run(runs=1)
            assert report.errors == {}
            for query_id, sparql in queries.items():
                expected = len(npd_engine.execute(sparql))
                assert report.per_query[query_id].avg_result_size == expected

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()
