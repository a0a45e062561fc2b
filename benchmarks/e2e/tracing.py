"""Span recorder for the traced pass, living entirely in the benchmark.

The program under test has no tracing of its own yet (ROADMAP: trace
spine), so the traced pass wraps the public entry point of each layer
from here.  A span is ``(id, parent, request, name, start, seconds,
attrs)``; spans of one HTTP request share its ``request`` number, the
worker-pool hop is bridged by carrying the submitting span into the
worker thread, and everything stays in memory until the control port
asks for the dump.  Self time is computed by the reader
(:func:`layer_totals`), never on the hot path.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """Collects spans; cheap no-op while ``recording`` is false."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    # -- span context ---------------------------------------------------

    def current(self) -> Optional[Dict[str, Any]]:
        return getattr(self._local, "span", None)

    @contextmanager
    def span(self, name: str, new_request: bool = False) -> Iterator[Dict[str, Any]]:
        parent = self.current()
        record: Dict[str, Any] = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "request": (
                next(self._requests)
                if new_request or parent is None
                else parent["request"]
            ),
            "name": name,
            "start": time.perf_counter(),
        }
        self._local.span = record
        try:
            yield record
        finally:
            record["seconds"] = time.perf_counter() - record["start"]
            self._local.span = parent
            self.spans.append(record)

    @contextmanager
    def adopt(self, span: Optional[Dict[str, Any]]) -> Iterator[None]:
        """Continue ``span``'s request on this thread (worker-pool hop)."""
        previous = self.current()
        self._local.span = span
        try:
            yield
        finally:
            self._local.span = previous

    def record(
        self, name: str, parent: Optional[Dict[str, Any]], start: float, seconds: float, **attrs: Any
    ) -> None:
        """A span whose busy time was measured by the caller."""
        self.spans.append(
            {
                "id": next(self._ids),
                "parent": parent["id"] if parent else None,
                "request": parent["request"] if parent else next(self._requests),
                "name": name,
                "start": start,
                "seconds": seconds,
                **attrs,
            }
        )

    def drain(self) -> Dict[str, Any]:
        spans, self.spans = self.spans, []
        return {"spans": spans}

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        attrs: Optional[Callable[[Any], Dict[str, Any]]] = None,
        new_request: bool = False,
    ) -> Callable[[], None]:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``attrs`` maps the call's return value to span attributes (sizes
        and counts measured where the work happens).  Returns the undo.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return original(*args, **kwargs)
            with tracer.span(name, new_request) as record:
                result = original(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(result))
                return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attribute, traced)
        return lambda: setattr(owner, attribute, original)


def install_request_wrappers(tracer: Tracer) -> List[Callable[[], None]]:
    """Wrap the public entry point of every layer a request passes through."""
    import repro.obda.system as system
    import repro.server.app as app
    import repro.sql.engine as engine
    import repro.sql.executor as executor
    import repro.sql.vectorized as vectorized
    from repro.obda.rewriter import TreeWitnessRewriter
    from repro.obda.unfolder import Unfolder
    from repro.server.admission import WorkerPool
    from repro.server.http import _Handler

    undo = [
        tracer.wrap(_Handler, "do_GET", "server.http", new_request=True),
        tracer.wrap(app.SparqlEndpoint, "handle_query", "server.app"),
        # parse_query is imported by name into both callers
        tracer.wrap(app, "parse_query", "sparql.parser"),
        tracer.wrap(system, "parse_query", "sparql.parser"),
        tracer.wrap(system.OBDAEngine, "execute", "obda.system"),
        tracer.wrap(
            TreeWitnessRewriter,
            "rewrite",
            "obda.rewriter",
            lambda result: {"ucq_size": result.ucq_size},
        ),
        tracer.wrap(
            Unfolder,
            "unfold_query",
            "obda.unfolder",
            lambda result: {
                "sql_chars": len(result.sql_text),
                "union_blocks": result.union_blocks,
            },
        ),
        tracer.wrap(
            engine.Database,
            "execute_plan",
            "sql.exec",
            lambda result: {"rows_out": len(result.rows)},
        ),
        # stale plans are re-planned inside execute_plan
        tracer.wrap(engine, "refresh_plan", "sql.plan"),
    ]
    # the engine compiles the statement it is handed; both executors compile
    # the derived tables of a plan the first time they run it
    undo += [
        tracer.wrap(module, "compile_select", "sql.plan")
        for module in (engine, executor, vectorized)
    ]

    original_submit = WorkerPool.submit

    def submit(pool: Any, fn: Callable[[], Any], token: Any = None) -> Any:
        if not tracer.recording:
            return original_submit(pool, fn, token)
        caller = tracer.current()
        submitted = time.perf_counter()

        def run() -> Any:
            started = time.perf_counter()
            tracer.record("server.admission", caller, submitted, started - submitted)
            with tracer.adopt(caller):
                return fn()

        return original_submit(pool, run, token)

    WorkerPool.submit = submit  # type: ignore[method-assign]
    undo.append(lambda: setattr(WorkerPool, "submit", original_submit))

    original_serialize = app.serialize

    def serialize(format_key: str, variables: Any, rows: Any) -> Iterator[bytes]:
        chunks = iter(original_serialize(format_key, variables, rows))
        if not tracer.recording:
            return chunks

        def timed() -> Iterator[bytes]:
            # consumed by the HTTP handler after handle_query returned, so
            # the busy time is a child of the request span, not of the app
            parent = tracer.current()
            first = time.perf_counter()
            busy = 0.0
            size = 0
            while True:
                started = time.perf_counter()
                try:
                    chunk = next(chunks)
                except StopIteration:
                    busy += time.perf_counter() - started
                    break
                busy += time.perf_counter() - started
                size += len(chunk)
                yield chunk
            tracer.record("server.results", parent, first, busy, bytes_out=size)

        return timed()

    app.serialize = serialize  # type: ignore[assignment]
    undo.append(lambda: setattr(app, "serialize", original_serialize))
    return undo


def layer_totals(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: total seconds, self seconds, call count, attribute sums."""
    children: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["seconds"]
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        layer = totals.setdefault(span["name"], {"seconds": 0.0, "self": 0.0, "calls": 0})
        layer["seconds"] += span["seconds"]
        layer["self"] += span["seconds"] - children.get(span["id"], 0.0)
        layer["calls"] += 1
        for key, value in span.items():
            if key not in ("id", "parent", "request", "name", "start", "seconds"):
                layer[key] = layer.get(key, 0) + value
    return totals
