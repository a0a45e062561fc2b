#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the OBDA endpoint.

One run starts the system as a separate server process in the workload's
configuration, drives the workload over the SPARQL HTTP endpoint from
closed-loop client threads, checks every answer against the committed
reference bags, and reports the end-to-end metrics (tracing off) and the
per-layer metrics (a short traced pass).  See README.md beside this file.

    python3 benchmarks/e2e/run.py --seed 1                 # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload adhoc_cold --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --repeat 3 --out A.json  # calibration set
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke                  # < 60 s sanity run
    python3 benchmarks/e2e/run.py --write-expected         # regenerate expected/
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from client import Client, PhaseResult, ServerProcess, run_phase  # noqa: E402
from tracing import layer_totals  # noqa: E402

from repro.diffcheck.normalize import canonical_bag  # noqa: E402
from repro.rdf.terms import IRI, Literal  # noqa: E402
from repro.server import (  # noqa: E402
    parse_csv_results,
    parse_json_results,
    parse_tsv_results,
    parse_xml_results,
)

PARSERS = {
    "json": parse_json_results,
    "xml": parse_xml_results,
    "csv": parse_csv_results,
    "tsv": parse_tsv_results,
}
SMOKE_ROUNDS = 3
#: server memory is read when a window has completed this many rounds, which
#: every workload does in the 10 s of ``run_seconds`` today
RSS_ROUND = 8


def spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- answers -------------------------------------------------------------------


def bag_digest(variables: Sequence[str], rows: Iterable[Sequence[Any]], plain: bool = False) -> str:
    """Digest of the canonical answer bag; ``plain`` first drops what CSV drops."""
    if plain:
        rows = [
            tuple(
                None
                if term is None
                else Literal(term.value if isinstance(term, IRI) else term.lexical)
                for term in row
            )
            for row in rows
        ]
    bag = canonical_bag(variables, rows)
    lines = sorted(f"{row!r} x{count}" for row, count in bag.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def expected_path(tag: str) -> str:
    return os.path.join(HERE, "expected", f"{tag}.json")


def load_expected(tag: str) -> Dict[str, Dict[str, Any]]:
    with open(expected_path(tag)) as handle:
        return json.load(handle)["answers"]


def reference_answers(config: workloads.Config, smoke: bool, pool: workloads.AdhocPool) -> Dict[str, Any]:
    """One expected-answers document, from the out-of-the-box row-executor engine."""
    from repro.npd import build_benchmark
    from repro.npd.seed import SeedProfile
    from repro.obda import OBDAEngine
    from repro.vig import VIG

    scale = workloads.SMOKE_SCALE if smoke else config.scale
    benchmark = build_benchmark(seed=workloads.DATA_SEED, profile=SeedProfile().scaled(scale))
    if config.growth > 1:
        VIG(benchmark.database, seed=workloads.VIG_SEED).grow(config.growth)
    engine = OBDAEngine(benchmark.database, benchmark.ontology, benchmark.mappings)
    queries = dict(workloads.catalogue())
    if config.growth > 1:
        queries.update(workloads.BULK_QUERIES)
    else:
        size = workloads.ADHOC_POOL_SMOKE if smoke else workloads.ADHOC_POOL
        queries.update(
            (f"{slot}#{index}", pool.variant(slot, index))
            for slot in workloads.ADHOC_ANCHORS
            for index in range(size)
        )
    answers = {}
    for position, (key, sparql) in enumerate(queries.items()):
        result = engine.execute(sparql)
        answers[key] = {
            "rows": len(result.rows),
            "digest": bag_digest(result.variables, result.rows),
        }
        if key in workloads.BULK_QUERIES:
            answers[key]["plain"] = bag_digest(result.variables, result.rows, plain=True)
        if position % 500 == 499:
            print(f"{config.tag(smoke)}: {position + 1}/{len(queries)}", file=sys.stderr)
    return {
        "meta": {
            "data_seed": workloads.DATA_SEED,
            "scale": scale,
            "growth": config.growth,
            "table_rows": benchmark.database.total_rows(),
            "engine": "OBDAEngine(database, ontology, mappings), row executor",
        },
        "answers": answers,
    }


def write_expected() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # VIG growth iterates over sets: same data only under the same hashing
        os.execve(
            sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0")
        )
    pool = workloads.AdhocPool()
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for smoke in (True, False):
        for tag, config in {c.tag(smoke): c for c in workloads.CONFIGS.values()}.items():
            document = reference_answers(config, smoke, pool)
            with open(expected_path(tag), "w") as handle:
                json.dump(document, handle, separators=(",", ":"), sort_keys=True)
                handle.write("\n")
            print(f"wrote {expected_path(tag)}: {len(document['answers'])} answers")
    return 0


class Checker:
    """Cheap checks inside the window, bag comparison after it."""

    def __init__(self, expected: Dict[str, Dict[str, Any]], rows_fixed: bool):
        self.expected = expected
        #: false while write batches change the data under the readers
        self.rows_fixed = rows_fixed
        self.bodies: Dict[Tuple[str, str], bytes] = {}
        self.problems: List[str] = []

    def in_window(self, request: workloads.Request, status: int, headers: Any, body: bytes) -> bool:
        if status != 200:
            self.problems.append(f"{request.key}: HTTP {status}: {body[:200]!r}")
            return False
        if not self.rows_fixed:
            return True
        self.bodies.setdefault((request.key, request.format), body)
        rows = int(headers.get("X-Row-Count", -1))
        if rows != self.expected[request.key]["rows"]:
            self.problems.append(
                f"{request.key}: {rows} rows, expected {self.expected[request.key]['rows']}"
            )
            return False
        return True

    def wrong_bags(self) -> int:
        """Parse the first body of each distinct (query, format) and compare."""
        wrong = 0
        for (key, fmt), body in self.bodies.items():
            variables, rows = PARSERS[fmt](body)
            want = self.expected[key]["plain" if fmt == "csv" else "digest"]
            if bag_digest(variables, rows) != want or len(rows) != self.expected[key]["rows"]:
                self.problems.append(f"{key} ({fmt}): answer bag differs from the reference")
                wrong += 1
        self.bodies.clear()
        return wrong


# -- one workload on one server ------------------------------------------------


def class_latencies_ms(phase: PhaseResult) -> Dict[str, float]:
    """Interquartile mean (mean of the middle half) of the verified latencies of
    each class, a class being a slot of the round.

    A class has a dozen samples in a window and two modes (the server's
    collector runs inside about every other large request; beside a second
    client a short query is fast or slow with its partner), so its median
    flips between the modes from run to run; the interquartile mean moves
    smoothly with the share of either.
    """
    by_slot: Dict[str, List[float]] = {}
    for sample in phase.samples:
        if sample.ok:
            by_slot.setdefault(sample.slot, []).append(sample.seconds)
    means = {}
    for slot, values in by_slot.items():
        values.sort()
        trim = len(values) // 4
        means[slot] = statistics.mean(values[trim : len(values) - trim]) * 1000.0
    return means


def end_to_end_metrics(
    workload: workloads.Workload, server: ServerProcess, window: PhaseResult
) -> Dict[str, float]:
    return {
        "setup_s": server.setup_seconds,
        "qmph": workload.clients * 3600.0 / statistics.median(window.rounds),
        "latency_mean_ms": statistics.fmean(
            sample.seconds for sample in window.samples if sample.ok
        )
        * 1000.0,
        "slowest_class_iqm_ms": max(class_latencies_ms(window).values()),
        "cpu_s_per_mix": window.cpu_seconds / len(window.rounds),
        "peak_rss_mb": window.peak_rss_mb,
    }


def per_layer_metrics(
    setup: Dict[str, float],
    reference: PhaseResult,
    traced: PhaseResult,
    dump: Dict[str, Any],
    before: Dict[str, int],
    after: Dict[str, int],
) -> Dict[str, float]:
    """Mean per traced request, from span self times and counter deltas."""
    requests = len(traced.samples)
    layers = layer_totals(dump["spans"])
    delta = {key: after[key] - before[key] for key in after}

    def ms(name: str, kind: str = "seconds") -> float:
        return layers.get(name, {}).get(kind, 0.0) * 1000.0 / requests

    def per_request(name: str, attribute: str) -> float:
        return layers.get(name, {}).get(attribute, 0) / requests

    def share(part: str, rest: str) -> float:
        """part / (part + rest); -1 when both are 0: nothing asked is not nothing found."""
        whole = delta[part] + delta[rest]
        return delta[part] / whole if whole else -1.0

    mean_latency_ms = statistics.fmean(sample.seconds for sample in traced.samples) * 1000.0
    handled_ms = ms("server.app") + ms("server.results")
    batches = traced.batches
    untraced = sorted(sample.seconds for sample in reference.samples if sample.ok)
    plain, wrapped = class_latencies_ms(reference), class_latencies_ms(traced)
    metrics = {name: setup[name] for name in setup if name != "rows"}
    metrics.update(
        {
            "sparql.parser.busy_ms": ms("sparql.parser"),
            "obda.rewriter.busy_ms": ms("obda.rewriter"),
            "obda.rewriter.ucq_size": per_request("obda.rewriter", "ucq_size"),
            "obda.rewriter.cache_hit_ratio": share("rewrite_cache_hits", "rewrite_cache_misses"),
            "obda.unfolder.self_ms": ms("obda.unfolder", "self"),
            "obda.unfolder.sql_chars": per_request("obda.unfolder", "sql_chars"),
            "obda.unfolder.union_blocks": per_request("obda.unfolder", "union_blocks"),
            "sql.plan.compile_ms": ms("sql.plan"),
            "sql.plan.recompiles": delta["plan_recompiles"] / requests,
            "sql.exec.busy_ms": ms("sql.exec", "self"),
            "sql.exec.rows_out": per_request("sql.exec", "rows_out"),
            "sql.exec.fallback_ratio": share("batch_fallbacks", "batch_blocks"),
            "sql.exec.shared_scan_hits": delta["shared_scan_hits"] / requests,
            "sql.engine.dml_batch_ms": (
                statistics.mean(b["seconds"] for b in batches) * 1000.0 if batches else 0.0
            ),
            "sql.engine.plan_invalidations": float(
                sum(1 for b in batches if b["invalidations"])
            ),
            "obda.system.self_ms": ms("obda.system", "self"),
            "obda.system.query_cache_hit_ratio": share("query_cache_hits", "query_cache_misses"),
            "obda.system.stale_demotions": float(delta["stale_demotions"]),
            "server.app.self_ms": ms("server.app", "self"),
            "server.admission.queue_wait_ms": ms("server.admission"),
            "server.admission.rejected": float(delta["admission_rejections"]),
            "server.results.serialize_ms": ms("server.results"),
            "server.results.bytes_out": per_request("server.results", "bytes_out"),
            # everything between the client's clock and the protocol layer:
            # connect, request parsing, socket writes, the client's read
            "server.http.transport_ms": mean_latency_ms - handled_ms,
            "client.latency_p50_ms": statistics.median(untraced) * 1000.0,
            "client.latency_geomean_ms": statistics.geometric_mean(untraced) * 1000.0,
            "client.latency_p95_ms": untraced[int(0.95 * (len(untraced) - 1))] * 1000.0,
            "host.steal_share": reference.steal_share,
            "trace.coverage_ratio": ms("server.http") / mean_latency_ms,
            "trace.overhead_ratio": statistics.median(
                wrapped[slot] / plain[slot] for slot in wrapped if slot in plain
            ),
        }
    )
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, passes: Sequence[str], smoke: bool = False
) -> Dict[str, Any]:
    """Set up, warm up, then the untraced window and/or the traced pass; verify; stop."""
    workload = workloads.WORKLOADS[name]
    writes = name == "mix_rw_default"
    checker = Checker(
        load_expected(workloads.CONFIGS[workload.config].tag(smoke)), rows_fixed=not writes
    )
    window_cap, traced_cap = (
        (SMOKE_ROUNDS, SMOKE_ROUNDS) if smoke else workloads.round_caps(name)
    )
    # built first: beside the server, the ad-hoc pool's second of work slows its set-up
    streams = [workloads.rounds(name, seed, client, smoke) for client in range(workload.clients)]
    server = ServerProcess(workload.config, smoke, f"e2e-{os.getpid()}")
    try:
        server.wait_ready()
        control = server.control
        setup = control.json("GET", "/setup")
        sent_batches = 0

        def send_batch() -> Dict[str, Any]:
            nonlocal sent_batches
            batch = workloads.write_batch(seed, sent_batches)
            sent_batches += 1
            return control.json("POST", "/dml", {"statements": batch})

        clients = [
            Client(
                server,
                stream,
                checker.in_window,
                send_batch if writes and index == 0 else None,
            )
            for index, stream in enumerate(streams)
        ]
        run_phase(server, clients, rounds=1)  # untimed: fills caches, finishes lazy set-up
        # with no full window to compare against, the traced pass is
        # preceded by an untraced half
        length, rss_round = (seconds, RSS_ROUND) if "end_to_end" in passes else (seconds / 2, 0)
        if window_cap:
            rss_round = min(rss_round, window_cap)
        window = run_phase(server, clients, seconds=length, rounds=window_cap, rss_round=rss_round)
        if not smoke and window.wall_seconds < length:
            print(
                f"{name}: the window ended after {window_cap} rounds and "
                f"{window.wall_seconds:.1f} of {length} s: the stream is used up",
                file=sys.stderr,
            )
        result: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "table_rows": setup["rows"],
            "ports": [server.port, server.control_port],
        }
        attempted = len(window.samples)
        failed = sum(1 for sample in window.samples if not sample.ok)
        if "end_to_end" in passes:
            result["end_to_end"] = end_to_end_metrics(workload, server, window)
            result["class_iqm_ms"] = class_latencies_ms(window)
            result["steal_share"] = window.steal_share
            result["rounds"] = len(window.rounds)
        if "per_layer" in passes:
            before = control.json("GET", "/stats")
            control.json("POST", "/trace/start")
            traced = run_phase(server, clients, seconds=seconds / 2, rounds=traced_cap)
            dump = control.json("POST", "/trace/stop")
            after = control.json("GET", "/stats")
            attempted += len(traced.samples)
            failed += sum(1 for sample in traced.samples if not sample.ok)
            result["per_layer"] = per_layer_metrics(setup, window, traced, dump, before, after)
            if name == "adhoc_cold":
                # the workload's defining property: nothing it sends was seen before
                compiled = after["query_cache_misses"] - before["query_cache_misses"]
                rewrite_hits = result["per_layer"]["obda.rewriter.cache_hit_ratio"]
                if (
                    after["query_cache_hits"] > before["query_cache_hits"]
                    or compiled != len(traced.samples)
                    or rewrite_hits > 0.1
                ):
                    checker.problems.append(
                        f"adhoc_cold was not cold: {compiled} of {len(traced.samples)} requests "
                        f"compiled from scratch, rewrite-cache hit ratio {rewrite_hits:.2f}"
                    )
                    failed += 1
        if writes:
            # base rows back, then one untimed mix checked in full
            control.json("POST", "/dml", {"statements": workloads.restore_batch(seed, sent_batches)})
            checker.rows_fixed = True
            final = PhaseResult()
            clients[0].after_round = None
            clients[0].run_round(final)
            failed += sum(1 for sample in final.samples if not sample.ok)
        failed += checker.wrong_bags()
        for client in clients:
            client.connection.close()
    finally:
        server.stop()
    result.update(
        attempted=attempted, failed=failed, correct=failed == 0, problems=checker.problems[:10]
    )
    return result


# -- whole benchmark -----------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def summarize(runs: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {}
    for name in runs[0]:
        results = [run[name] for run in runs]
        entry: Dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        for kind in ("end_to_end", "per_layer"):
            entry[kind] = {}
            for metric in results[0].get(kind, {}):
                values = [r[kind][metric] for r in results]
                first, median, third = quartiles(values)
                entry[kind][metric] = {
                    "median": median,
                    "q1": first,
                    "q3": third,
                    "values": values,
                }
        summary[name] = entry
    return summary


def print_report(summary: Dict[str, Any], metrics: List[Dict[str, Any]]) -> None:
    """Every declared metric by name, with its unit, in the declared order."""
    for name, entry in summary.items():
        print(f"\n== {name}: {entry['attempted']} requests, {entry['failed']} failed")
        for metric in metrics:
            stats = entry["end_to_end" if "bound" in metric else "per_layer"][metric["name"]]
            spread = (
                f"  (q1 {stats['q1']:.4g}, q3 {stats['q3']:.4g})"
                if len(stats["values"]) > 1
                else ""
            )
            print(f"  {metric['name']:36} {stats['median']:14.4f} {metric['unit']}{spread}")


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_all(args: argparse.Namespace) -> int:
    document = spec()
    seconds = args.seconds
    names = [w["name"] for w in document["workloads"]]
    runs: List[Dict[str, Dict[str, Any]]] = []
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    for repeat in range(args.repeat):
        run: Dict[str, Dict[str, Any]] = {}
        for name in names:
            print(f"[{repeat + 1}/{args.repeat}] {name} ...", file=sys.stderr, flush=True)
            run[name] = run_workload(
                name, args.seed, seconds, ("end_to_end", "per_layer"), args.smoke
            )
        runs.append(run)
    summary = summarize(runs)
    print_report(summary, document["end_to_end"] + document["per_layer"])
    failed = sum(entry["failed"] for entry in summary.values())
    problems = [p for run in runs for result in run.values() for p in result["problems"]]
    report = {
        "meta": {
            "commit": commit_id(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": seconds,
            "smoke": args.smoke,
            "repeat": args.repeat,
            "started": started,
        },
        "runs": runs,
        "summary": summary,
        "problems": problems,
        "correct": failed == 0,
        "claim": None,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "workloads": {
                    name: {
                        "attempted": entry["attempted"],
                        "failed": entry["failed"],
                        **{m: s["median"] for m, s in entry["end_to_end"].items()},
                    }
                    for name, entry in summary.items()
                },
                "claim": None,
            }
        )
    )
    return 0 if failed == 0 else 1


def run_one(args: argparse.Namespace) -> int:
    """The contract's form: one workload, one pass, one JSON line."""
    document = spec()
    kind = "per_layer" if args.trace else "end_to_end"
    result = run_workload(args.workload, args.seed, args.seconds, (kind,), args.smoke)
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric["name"]: {
                        "value": result[kind][metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in document[kind]
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def compare(path_a: str, path_b: str) -> int:
    """Row per (workload, end-to-end metric): both medians, ratio, bound, verdict."""
    with open(path_a) as handle:
        first = json.load(handle)["summary"]
    with open(path_b) as handle:
        second = json.load(handle)["summary"]
    worse = 0
    metrics = spec()["end_to_end"]
    print(
        f"{'workload':16} {'metric':22} {'A':>12} {'B':>12} {'B/A':>7} "
        f"{'spread':>7} {'bound':>6}  verdict"
    )
    for name in first:
        for metric in metrics:
            a = first[name]["end_to_end"][metric["name"]]
            b = second[name]["end_to_end"][metric["name"]]
            change = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                change = -change
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{name:16} {metric['name']:22} {a['median']:12.4f} {b['median']:12.4f} "
                f"{b['median'] / a['median']:7.3f} {spread:7.3f} {metric['bound']:6.2f}  {verdict}"
            )
        share_a = first[name]["failed"] / first[name]["attempted"]
        share_b = second[name]["failed"] / second[name]["attempted"]
        if share_b > share_a:
            print(f"{name:16} failed share rose {share_a:.4f} -> {share_b:.4f}  worse")
            worse += 1
    print("ratios are B/A with A (the first file) as the base")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a terminated benchmark still stops its servers on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, help="window length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="whole-benchmark repetitions")
    parser.add_argument("--smoke", action="store_true", help=f"scale {workloads.SMOKE_SCALE} data, {SMOKE_ROUNDS}-round windows")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
