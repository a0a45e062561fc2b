#!/usr/bin/env python3
"""Launcher: one OBDA server process in one benchmark configuration.

Builds the engine through the public constructors only, timing each
loader call, then serves SPARQL on one port and a small control API on
another (set-up report, counters, trace on/off + dump, write batches).
Announces both ports as one JSON line on stdout and runs until stdin
reaches EOF, so the server dies with the benchmark that spawned it.

    python benchmarks/e2e/serve.py --config best-g4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), HERE]

from tracing import Tracer, install_request_wrappers, layer_totals  # noqa: E402
from workloads import CONFIGS, DATA_SEED, SMOKE_SCALE, VIG_SEED  # noqa: E402


def build(config_name: str, smoke: bool, tracer: Tracer) -> Dict[str, Any]:
    """Build the configured server; returns it with the set-up report."""
    config = CONFIGS[config_name]
    scale = SMOKE_SCALE if smoke else config.scale
    with tracer.span("process.import"):
        import repro.obda.system as system
        from repro.analysis import analyze
        from repro.npd import build_benchmark
        from repro.npd.seed import SeedProfile
        from repro.owl.reasoner import QLReasoner
        from repro.server import ServerConfig, SparqlServer
        from repro.vig import VIG

    # the two loaders that run inside other constructors
    undo = [
        tracer.wrap(QLReasoner, "__init__", "owl.reasoner.classify"),
        tracer.wrap(system, "compile_tmappings", "obda.tmappings.compile"),
    ]
    with tracer.span("npd.build"):
        benchmark = build_benchmark(seed=DATA_SEED, profile=SeedProfile().scaled(scale))
    database = benchmark.database
    if config.growth > 1:
        with tracer.span("vig.grow"):
            VIG(database, seed=VIG_SEED).grow(config.growth)
    options: Dict[str, Any] = {}
    facts = constraints = 0
    if config.best:
        with tracer.span("analysis.analyze"):
            report = analyze(database, benchmark.ontology, benchmark.mappings, perf=False)
        verified = report.constraints.constraints
        options = {
            "factbase": report.factbase,
            "constraints": verified,
            "executor": "vectorized",
        }
        facts = len(report.factbase)
        counts = verified.counts()
        constraints = counts["exact"] + counts["vfd"]
    with tracer.span("obda.system.init"):
        engine = system.OBDAEngine(database, benchmark.ontology, benchmark.mappings, **options)
    with tracer.span("sql.stats.analyze"):
        engine.analyze_database()
    with tracer.span("server.start"):
        # what ``python -m repro.server`` serves with, on an ephemeral port
        server = SparqlServer(engine, ServerConfig(port=0))
        server.start()
    for restore in undo:
        restore()

    layers = layer_totals(tracer.drain()["spans"])
    setup = {f"{name}_s": layer["self"] for name, layer in layers.items()}
    setup.setdefault("vig.grow_s", 0.0)
    setup.setdefault("analysis.analyze_s", 0.0)
    setup["obda.system.init_self_s"] = setup.pop("obda.system.init_s")
    setup["analysis.facts"] = facts
    setup["analysis.constraints"] = constraints
    setup["obda.tmappings.assertions"] = len(engine.mappings)
    setup["rows"] = database.total_rows()
    return {"engine": engine, "server": server, "setup": setup}


class Control:
    """The control API behind the second port."""

    def __init__(self, engine: Any, server: Any, setup: Dict[str, Any], tracer: Tracer):
        self.engine = engine
        self.server = server
        self.setup = setup
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def stats(self) -> Dict[str, Any]:
        database = self.engine.database
        executor = database.stats
        counters = dict(self.engine.cache_stats())
        counters.update(
            batch_blocks=executor.batch_blocks,
            batch_fallbacks=executor.batch_fallbacks,
            shared_scan_hits=executor.shared_scan_hits,
            plan_recompiles=executor.plan_recompiles,
            plan_generation=database.plan_generation,
            stale_demotions=len(self.engine.stale_findings),
            admission_rejections=self.server.endpoint.metrics.count("admission_rejections"),
        )
        return counters

    def trace_start(self) -> Dict[str, Any]:
        if not self._undo:
            self._undo = install_request_wrappers(self.tracer)
        self.tracer.recording = True
        return {}

    def trace_stop(self) -> Dict[str, Any]:
        self.tracer.recording = False
        for restore in self._undo:
            restore()
        self._undo = []
        return self.tracer.drain()

    def dml(self, statements: List[str]) -> Dict[str, Any]:
        """One write batch followed by ANALYZE, timed as a whole."""
        database = self.engine.database
        generation = database.plan_generation
        started = time.perf_counter()
        affected = 0
        for statement in statements:
            affected += database.execute(statement).rows[0][0]
        database.analyze()
        return {
            "seconds": time.perf_counter() - started,
            "affected": affected,
            "invalidations": database.plan_generation - generation,
        }


def control_server(control: Control) -> ThreadingHTTPServer:
    routes = {
        ("GET", "/setup"): lambda body: control.setup,
        ("GET", "/stats"): lambda body: control.stats(),
        ("POST", "/trace/start"): lambda body: control.trace_start(),
        ("POST", "/trace/stop"): lambda body: control.trace_stop(),
        ("POST", "/dml"): lambda body: control.dml(json.loads(body)["statements"]),
    }

    class Handler(BaseHTTPRequestHandler):
        def _dispatch(self) -> None:
            route = routes.get((self.command, self.path))
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            if route is None:
                self.send_error(404)
                return
            try:
                payload = json.dumps(route(body)).encode()
            except Exception as exc:  # boundary: report to the benchmark, keep serving
                self.send_error(500, explain=repr(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = do_POST = _dispatch

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.daemon_threads = True
    threading.Thread(target=httpd.serve_forever, name="control", daemon=True).start()
    return httpd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tag", default="", help="marker the spawner finds this process by")
    args = parser.parse_args(argv)

    tracer = Tracer()
    tracer.recording = True
    built = build(args.config, args.smoke, tracer)
    tracer.recording = False
    server = built["server"]
    control = control_server(Control(built["engine"], server, built["setup"], tracer))
    print(
        json.dumps({"port": server.port, "control_port": control.server_address[1]}),
        flush=True,
    )
    sys.stdin.read()  # EOF = the benchmark is done with us, or died
    server.stop()
    control.shutdown()
    control.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
