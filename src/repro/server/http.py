"""Threaded HTTP front end for the SPARQL 1.1 Protocol endpoint.

One accept thread per connection (``ThreadingHTTPServer``) parses the
request and hands it to the transport-free :class:`SparqlEndpoint`;
actual query execution happens on the endpoint's bounded worker pool,
so the number of HTTP threads never translates into engine pressure.

Responses are streamed: the handler writes each serializer chunk as it
is produced and uses HTTP/1.0 close-delimited framing, which every
stdlib client understands and which needs no chunked-encoding state.
"""

from __future__ import annotations

import gc
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from ..obda.system import OBDAEngine
from .app import ProtocolError, Response, ServerConfig, SparqlEndpoint, _error_response

logger = logging.getLogger("repro.server")

# Young-generation collection threshold while serving.  One bulk
# response on best-g4 keeps up to about 21 k container objects alive:
# the 5 760 SQL row tuples while its answer is encoded, plus one entry
# tuple per distinct value of each column (up to 15 k).  At the default
# of 700, /metrics ``gc.collections`` counts about 37 young and 3
# generation-1 collections per bulk request; at 50 000, none.  The
# serving path leaves no cyclic garbage
# (tests/test_server.py::TestCollectorPolicy), so collecting less often
# frees nothing later than reference counting already does.
YOUNG_THRESHOLD = 50_000


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0: bodies are delimited by connection close, so the
    # streaming writers need no Content-Length or chunked framing
    protocol_version = "HTTP/1.0"
    server_version = "repro-sparql/1.0"

    endpoint: SparqlEndpoint  # injected via the server class attribute

    # -- routing --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        params = parse_qs(url.query, keep_blank_values=True)
        if url.path == "/health":
            self._send(self.endpoint.health())
        elif url.path == "/metrics":
            self._send(self.endpoint.metrics_snapshot())
        elif url.path == "/sparql":
            query = params.get("query", [None])[0]
            if query is None:
                self._send_error(
                    ProtocolError(400, "bad_request", "missing query parameter")
                )
                return
            self._run_query(query, params)
        else:
            self._send_error(
                ProtocolError(404, "not_found", f"unknown path {url.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        if url.path != "/sparql":
            self._send_error(
                ProtocolError(404, "not_found", f"unknown path {url.path!r}")
            )
            return
        params = parse_qs(url.query, keep_blank_values=True)
        try:
            body = self._read_body()
            query = self._extract_query(body, params)
        except ProtocolError as exc:
            self._send_error(exc)
            return
        self._run_query(query, params)

    # -- request plumbing ----------------------------------------------

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError:
            raise ProtocolError(400, "bad_request", "invalid Content-Length") from None
        limit = self.endpoint.config.max_body_bytes
        if length > limit:
            raise ProtocolError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the {limit} byte limit",
            )
        return self.rfile.read(length)

    def _extract_query(self, body: bytes, params: Dict[str, list]) -> str:
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if content_type == "application/sparql-query":
            try:
                return body.decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError(
                    400, "bad_request", "query body is not valid UTF-8"
                ) from None
        if content_type == "application/x-www-form-urlencoded":
            try:
                form = parse_qs(body.decode("utf-8"), keep_blank_values=True)
            except UnicodeDecodeError:
                raise ProtocolError(
                    400, "bad_request", "form body is not valid UTF-8"
                ) from None
            query = form.get("query", [None])[0]
            if query is None:
                raise ProtocolError(400, "bad_request", "missing query form field")
            # form-level parameters may also carry timeout/format
            for key in ("timeout", "format"):
                if key in form and key not in params:
                    params[key] = form[key]
            return query
        raise ProtocolError(
            415,
            "unsupported_media_type",
            f"unsupported Content-Type {content_type!r}; use "
            "application/sparql-query or application/x-www-form-urlencoded",
        )

    def _run_query(self, query: str, params: Dict[str, list]) -> None:
        response = self.endpoint.handle_query(
            query,
            accept=self.headers.get("Accept"),
            format_param=params.get("format", [None])[0],
            timeout_param=params.get("timeout", [None])[0],
        )
        self._send(response)

    # -- response plumbing ---------------------------------------------

    def _send_error(self, exc: ProtocolError) -> None:
        self.endpoint.metrics.increment("requests_total")
        self.endpoint.metrics.increment(f"responses_{exc.status}")
        self._send(_error_response(exc))

    def _send(self, response: Response) -> None:
        started = time.perf_counter()
        bytes_sent = 0
        try:
            self.send_response(response.status)
            for name, value in response.headers:
                self.send_header(name, value)
            self.end_headers()
            for chunk in response.chunks:
                self.wfile.write(chunk)
                bytes_sent += len(chunk)
        except (BrokenPipeError, ConnectionResetError):
            self.endpoint.metrics.increment("client_disconnects")
        finally:
            self.endpoint.metrics.increment("bytes_sent", bytes_sent)
            self._log_request(response, bytes_sent, time.perf_counter() - started)

    def _log_request(
        self, response: Response, bytes_sent: int, write_seconds: float
    ) -> None:
        record: Dict[str, Any] = {
            "method": self.command,
            "path": self.path.split("?")[0],
            "status": response.status,
            "bytes": bytes_sent,
            "write_seconds": round(write_seconds, 6),
            "client": self.client_address[0],
        }
        if response.error:
            record["error"] = response.error
        record.update(response.extra)
        logger.info("%s", json.dumps(record, sort_keys=True))

    # silence the default stderr access log; we emit structured lines
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


class SparqlServer:
    """The assembled server: engine + endpoint + threaded HTTP listener."""

    def __init__(self, engine: OBDAEngine, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.endpoint = SparqlEndpoint(engine, self.config)
        handler = type("BoundHandler", (_Handler,), {"endpoint": self.endpoint})
        self.httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self.httpd.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def start(self) -> None:
        """Set the serving collector policy, then serve in a background thread.

        Everything alive now (database, ontology, T-mappings, compiled
        caches) is loaded state: ``gc.freeze()`` moves it out of the
        collector's reach, so no later collection walks it.  There is
        no ``gc.collect()`` first: the loaded heap holds no cyclic
        garbage, and collecting would only lengthen start-up.
        """
        self._saved_threshold = gc.get_threshold()
        gc.freeze()
        gc.set_threshold(YOUNG_THRESHOLD, *self._saved_threshold[1:])
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="sparql-accept", daemon=True
        )
        self._serve_thread.start()

    def stop(self) -> bool:
        """Graceful drain: stop accepting, finish in-flight, then close.

        Restores the collector policy :meth:`start` found.  Returns True
        when the drain completed without cancelling work.
        """
        self.httpd.shutdown()
        clean = self.endpoint.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            gc.unfreeze()
            gc.set_threshold(*self._saved_threshold)
        return clean
