"""Protocol-level request handling, independent of the HTTP transport.

:class:`SparqlEndpoint` owns the engine, the admission pool and the
metrics registry; the HTTP layer translates sockets into calls to
:meth:`handle_query` / :meth:`health` / :meth:`metrics_snapshot` and
writes back whatever :class:`Response` it gets.  Keeping this class
transport-free makes the protocol behaviour (status mapping, deadline
arithmetic, admission) unit-testable without opening sockets.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..concurrency import CancellationToken, QueryCancelled
from ..obda.system import OBDAEngine
from ..sparql import parse_query
from ..sparql.errors import SparqlParseError
from .admission import RejectedError, WorkerPool
from .metrics import ServerMetrics
from .results import FORMATS, NotAcceptable, negotiate, serialize


@dataclass
class ServerConfig:
    """Tunables for the serving layer; defaults favour small deployments."""

    host: str = "127.0.0.1"
    port: int = 8890
    workers: int = 4
    queue_depth: int = 16
    #: applied when the client sends no ``timeout`` parameter
    default_timeout: float = 30.0
    #: hard ceiling a client-supplied ``timeout`` cannot exceed
    max_timeout: float = 120.0
    max_body_bytes: int = 1_000_000
    drain_seconds: float = 5.0
    #: seconds advertised in Retry-After on 503
    retry_after: int = 1


class ProtocolError(Exception):
    """An HTTP-visible protocol failure with a structured body."""

    def __init__(self, status: int, error: str, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.error = error
        self.message = message
        self.extra = extra

    def body(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"error": self.error, "message": self.message}
        payload.update(self.extra)
        return payload


@dataclass
class Response:
    """A computed response: status, headers and a body chunk iterator."""

    status: int
    headers: List[Tuple[str, str]]
    chunks: Iterable[bytes]
    #: set for error responses so the log line can carry the category
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _json_chunks(payload: Dict[str, Any]) -> Iterator[bytes]:
    yield json.dumps(payload, sort_keys=True).encode()


def _error_response(exc: ProtocolError, retry_after: Optional[int] = None) -> Response:
    headers = [("Content-Type", "application/json")]
    if retry_after is not None:
        headers.append(("Retry-After", str(retry_after)))
    return Response(exc.status, headers, _json_chunks(exc.body()), error=exc.error)


class SparqlEndpoint:
    """The SPARQL protocol service: engine + admission pool + metrics."""

    def __init__(self, engine: OBDAEngine, config: Optional[ServerConfig] = None):
        self.engine = engine
        self.config = config or ServerConfig()
        self.pool = WorkerPool(self.config.workers, self.config.queue_depth)
        self.metrics = ServerMetrics()
        self.started_at = time.time()

    # -- request handling ----------------------------------------------

    def resolve_timeout(self, timeout_param: Optional[str]) -> float:
        """Client-requested timeout, clamped to (0, max_timeout]."""
        if timeout_param is None or timeout_param.strip() == "":
            return min(self.config.default_timeout, self.config.max_timeout)
        try:
            requested = float(timeout_param)
        except ValueError:
            raise ProtocolError(
                400, "bad_request", f"timeout must be a number, got {timeout_param!r}"
            ) from None
        if requested <= 0:
            raise ProtocolError(400, "bad_request", "timeout must be positive")
        return min(requested, self.config.max_timeout)

    def handle_query(
        self,
        query_text: str,
        *,
        accept: Optional[str] = None,
        format_param: Optional[str] = None,
        timeout_param: Optional[str] = None,
    ) -> Response:
        """Run one protocol query; never raises, always returns a Response."""
        started = time.perf_counter()
        self.metrics.increment("requests_total")
        try:
            response = self._handle_query_inner(
                query_text,
                accept=accept,
                format_param=format_param,
                timeout_param=timeout_param,
            )
        except ProtocolError as exc:
            self.metrics.increment(f"responses_{exc.status}")
            if exc.status == 503:
                self.metrics.increment("admission_rejections")
                response = _error_response(exc, retry_after=self.config.retry_after)
            else:
                if exc.status == 400 and exc.error == "parse_error":
                    self.metrics.increment("parse_errors")
                if exc.status == 408:
                    self.metrics.increment("timeouts")
                response = _error_response(exc)
        else:
            self.metrics.increment("responses_200")
        self.metrics.latency["total"].record(time.perf_counter() - started)
        return response

    def _handle_query_inner(
        self,
        query_text: str,
        *,
        accept: Optional[str],
        format_param: Optional[str],
        timeout_param: Optional[str],
    ) -> Response:
        if not query_text or not query_text.strip():
            raise ProtocolError(400, "bad_request", "empty query")
        try:
            format_key = negotiate(accept, format_param)
        except NotAcceptable as exc:
            raise ProtocolError(406, "not_acceptable", str(exc)) from None
        timeout = self.resolve_timeout(timeout_param)
        # parse up front: a syntax error must never consume a worker,
        # and the position lands in the structured 400 body
        try:
            parse_query(query_text)
        except SparqlParseError as exc:
            extra: Dict[str, Any] = {}
            if getattr(exc, "position", None) is not None:
                extra["position"] = exc.position
            raise ProtocolError(400, "parse_error", str(exc), **extra) from None

        token = CancellationToken.with_timeout(timeout)
        try:
            job = self.pool.submit(
                lambda: self.engine.execute(query_text, token=token), token
            )
        except RejectedError as exc:
            raise ProtocolError(503, "overloaded", str(exc)) from None
        try:
            # generous waiter timeout: the token aborts the engine at
            # ``timeout``; the margin only covers scheduling slop
            result = job.wait(timeout + 30.0)
        except QueryCancelled as exc:
            self.metrics.latency["queue_wait"].record(job.queue_seconds)
            raise ProtocolError(
                408,
                "timeout",
                f"query aborted after {timeout:.1f}s ({exc.reason})",
                timeout_seconds=timeout,
            ) from None
        except SparqlParseError as exc:  # unreachable after pre-parse; belt+braces
            raise ProtocolError(400, "parse_error", str(exc)) from None
        except Exception as exc:
            self.metrics.increment("execution_errors")
            raise ProtocolError(500, "internal_error", str(exc)) from None

        self.metrics.latency["queue_wait"].record(job.queue_seconds)
        self.metrics.latency["execute"].record(result.timings.execution)
        for phase in ("rewriting", "unfolding", "planning", "execution", "translation"):
            self.metrics.engine_phase[phase].record(getattr(result.timings, phase))

        if format_key == "ntriples" and len(result.variables) != 3:
            raise ProtocolError(
                406,
                "not_acceptable",
                "application/n-triples requires a 3-column result, got "
                f"{len(result.variables)}",
            )

        rows = len(result.answer)
        headers = [
            ("Content-Type", f"{FORMATS[format_key]}; charset=utf-8"),
            ("X-Row-Count", str(rows)),
            ("X-Phase-Rewriting", f"{result.timings.rewriting:.6f}"),
            ("X-Phase-Unfolding", f"{result.timings.unfolding:.6f}"),
            ("X-Phase-Planning", f"{result.timings.planning:.6f}"),
            ("X-Phase-Execution", f"{result.timings.execution:.6f}"),
            ("X-Phase-Translation", f"{result.timings.translation:.6f}"),
            ("X-Cache-Hit", "1" if result.metrics.compile_cache_hit else "0"),
        ]
        if result.metrics.rewriting_truncated:
            # answers may be missing: the rewriter's max_ucq valve fired
            headers.append(("X-Rewriting-Truncated", "1"))
            self.metrics.increment("truncated_answers")
        serialize_started = time.perf_counter()
        # the encoded answer, never result.rows: serving builds no terms
        chunks = serialize(format_key, result.variables, result.answer)

        def timed() -> Iterator[bytes]:
            try:
                yield from chunks
            finally:
                self.metrics.latency["serialize"].record(
                    time.perf_counter() - serialize_started
                )

        return Response(200, headers, timed(), extra={"rows": rows})

    # -- operability ----------------------------------------------------

    def health(self) -> Response:
        payload = {
            "status": "draining" if not self.pool.accepting else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "loading_seconds": self.engine.loading_seconds,
            "workers": self.pool.workers,
            "queue_depth_limit": self.pool.queue_depth,
            "engine": self.engine.describe(),
        }
        return Response(
            200 if self.pool.accepting else 503,
            [("Content-Type", "application/json")],
            _json_chunks(payload),
        )

    def metrics_snapshot(self) -> Response:
        payload = self.metrics.snapshot()
        # degraded answers: truncated rewritings served, and verified
        # artifacts the engine demoted (one FACT_STALE finding each)
        payload["counters"].setdefault("truncated_answers", 0)
        payload["counters"]["stale_demotions"] = len(self.engine.stale_findings)
        payload["queue"] = {
            "depth": self.pool.queued,
            "inflight": self.pool.inflight,
            "limit": self.pool.queue_depth,
            "workers": self.pool.workers,
        }
        payload["engine_caches"] = self.engine.cache_stats()
        # the collector policy SparqlServer.start() sets: a live server
        # shows a non-zero frozen count and rarely a collection
        payload["gc"] = {
            "frozen": gc.get_freeze_count(),
            "collections": [stats["collections"] for stats in gc.get_stats()],
        }
        return Response(200, [("Content-Type", "application/json")], _json_chunks(payload))

    def shutdown(self) -> bool:
        """Drain the pool; True when no in-flight work had to be cancelled."""
        return self.pool.shutdown(self.config.drain_seconds)
