#!/usr/bin/env python
"""Pipeline-cache perf harness: cold vs. warm compiles and wall-clock QMpH.

Measures what the layered compilation cache buys on the NPD mix:

* **cold vs warm**: every catalogue query is executed twice against a
  fresh engine; the first run pays rewriting + unfolding + planning, the
  second collapses them into one artifact-cache lookup.  The compile
  speedup (cold compile total / warm compile total) is the headline.
* **client scaling**: the tractable mix is run in the Mixer's ``threads``
  mode with 1/2/4 concurrent clients and a fixed per-query think time
  (real benchmark platforms pace their clients; one client's compute
  overlaps the others' think time), reporting wall-clock QMpH.

Writes ``BENCH_pipeline.json`` and ``BENCH_pipeline.txt`` (paths
configurable) so the repo's perf trajectory is machine-readable.  Exits
non-zero when the warm compile path is not faster than the cold one --
the CI bench-smoke job uses that as its regression gate.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_pipeline_cache.py --scale 0.1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict

from repro.mixer import Mixer, OBDASystemAdapter
from repro.npd import build_benchmark, tractable_queries
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="seed-profile scale factor (0.1 = tiny CI instance)",
    )
    parser.add_argument("--seed", type=int, default=1, help="database seed")
    parser.add_argument(
        "--runs", type=int, default=2, help="measured mixes per client"
    )
    parser.add_argument(
        "--clients",
        default="1,2,4",
        help="comma-separated client counts for the QMpH series",
    )
    parser.add_argument(
        "--think-time",
        type=float,
        default=0.1,
        help="per-query client pacing in seconds (threads mode); concurrent "
        "clients overlap compute with each other's think time",
    )
    parser.add_argument("--json", default="BENCH_pipeline.json")
    parser.add_argument("--txt", default="BENCH_pipeline.txt")
    return parser.parse_args(argv)


def phase_seconds(result) -> Dict[str, float]:
    timings = result.timings
    return {
        "rewriting": timings.rewriting,
        "unfolding": timings.unfolding,
        "planning": timings.planning,
        "compile": timings.rewriting + timings.unfolding + timings.planning,
        "execution": timings.execution,
        "translation": timings.translation,
        "cache_hit": result.metrics.compile_cache_hit,
    }


def measure_cold_warm(engine: OBDAEngine, queries: Dict[str, str]) -> Dict[str, Any]:
    per_query: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    for query_id, sparql in queries.items():
        try:
            cold = phase_seconds(engine.execute(sparql))
            warm = phase_seconds(engine.execute(sparql))
        except Exception as exc:  # noqa: BLE001 - report and keep measuring
            errors[query_id] = f"{type(exc).__name__}: {exc}"
            continue
        per_query[query_id] = {
            "cold": cold,
            "warm": warm,
            "compile_speedup": (
                cold["compile"] / warm["compile"] if warm["compile"] > 0 else None
            ),
        }
    cold_total = sum(q["cold"]["compile"] for q in per_query.values())
    warm_total = sum(q["warm"]["compile"] for q in per_query.values())
    return {
        "per_query": per_query,
        "errors": errors,
        "cold_compile_seconds": cold_total,
        "warm_compile_seconds": warm_total,
        "compile_speedup": cold_total / warm_total if warm_total > 0 else None,
        "warm_hits": sum(
            1 for q in per_query.values() if q["warm"]["cache_hit"]
        ),
        "queries": len(per_query),
    }


def _counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def _hit_rate(hits: int, misses: int):
    total = hits + misses
    return hits / total if total else None


def measure_cache_layers(engine: OBDAEngine, queries: Dict[str, str]) -> Dict[str, Any]:
    """Per-layer hit rates, exercising each cache layer explicitly.

    The layers nest: a query-cache (artifact) hit short-circuits the
    rewrite cache entirely, so each layer gets its own pass:

    * **query layer** -- re-run the warm mix; every query should collapse
      into one artifact-cache lookup;
    * **rewrite layer** -- drop the artifact cache and re-run; the whole
      compile pipeline runs again but the rewriter memo still holds every
      rewriting.
    """
    before = engine.cache_stats()
    for sparql in queries.values():
        engine.execute(sparql)
    query_delta = _counter_delta(before, engine.cache_stats())

    engine.clear_query_cache()
    before = engine.cache_stats()
    for sparql in queries.values():
        engine.execute(sparql)
    rewrite_delta = _counter_delta(before, engine.cache_stats())

    return {
        "query_layer": {
            "hits": query_delta["query_cache_hits"],
            "misses": query_delta["query_cache_misses"],
            "hit_rate": _hit_rate(
                query_delta["query_cache_hits"], query_delta["query_cache_misses"]
            ),
        },
        "rewrite_layer": {
            "hits": rewrite_delta["rewrite_cache_hits"],
            "misses": rewrite_delta["rewrite_cache_misses"],
            "hit_rate": _hit_rate(
                rewrite_delta["rewrite_cache_hits"],
                rewrite_delta["rewrite_cache_misses"],
            ),
            "query_layer_misses": rewrite_delta["query_cache_misses"],
        },
    }


def measure_qmph(
    engine: OBDAEngine,
    queries: Dict[str, str],
    client_counts,
    runs: int,
    think_time: float,
) -> Dict[str, Any]:
    series: Dict[str, Any] = {}
    for clients in client_counts:
        report = Mixer(
            OBDASystemAdapter(engine),
            queries,
            warmup_runs=1,
            clients=clients,
            mode="threads",
            think_time=think_time,
        ).run(runs=runs)
        series[str(clients)] = {
            "qmph": report.qmph,
            "wall_seconds": report.wall_seconds,
            "completed_mixes": len(report.mix_seconds),
            "aborted_mixes": report.aborted_mixes,
            "errors": report.errors,
            "cache": report.cache,
        }
    return series


def render_txt(report: Dict[str, Any]) -> str:
    lines = []
    meta = report["meta"]
    lines.append(
        f"Pipeline cache bench  scale={meta['scale']} seed={meta['seed']} "
        f"profile={meta['profile']}"
    )
    lines.append("")
    lines.append("cold vs warm compile (rewrite + unfold + plan, seconds)")
    lines.append(f"{'query':8} {'cold':>10} {'warm':>10} {'speedup':>9}")
    cold_warm = report["cold_warm"]
    for query_id, data in sorted(cold_warm["per_query"].items()):
        speedup = data["compile_speedup"]
        speedup_text = f"{speedup:>8.1f}x" if speedup is not None else f"{'-':>9}"
        lines.append(
            f"{query_id:8} {data['cold']['compile']:>10.6f} "
            f"{data['warm']['compile']:>10.6f} {speedup_text}"
        )
    lines.append(
        f"{'TOTAL':8} {cold_warm['cold_compile_seconds']:>10.6f} "
        f"{cold_warm['warm_compile_seconds']:>10.6f} "
        f"{cold_warm['compile_speedup']:>8.1f}x"
    )
    for query_id, error in cold_warm["errors"].items():
        lines.append(f"  ! {query_id}: {error}")
    lines.append("")
    lines.append(
        f"wall-clock QMpH, threads mode, think_time={meta['think_time']}s/query"
    )
    lines.append(f"{'clients':8} {'QMpH':>10} {'wall s':>10} {'mixes':>6}")
    for clients, data in report["qmph"].items():
        lines.append(
            f"{clients:8} {data['qmph']:>10.1f} {data['wall_seconds']:>10.2f} "
            f"{data['completed_mixes']:>6}"
        )
    scaling = report.get("qmph_scaling")
    if scaling is not None:
        lines.append(f"scaling QMpH({meta['max_clients']})/QMpH(1) = {scaling:.2f}x")
    lines.append("")
    lines.append("per-layer cache hit rates (each layer exercised explicitly)")
    lines.append(f"{'layer':10} {'hits':>6} {'misses':>7} {'rate':>7}")
    for layer in ("query_layer", "rewrite_layer"):
        data = report["cache_layers"][layer]
        rate = data["hit_rate"]
        rate_text = f"{rate:>6.0%}" if rate is not None else f"{'-':>7}"
        lines.append(
            f"{layer.split('_')[0]:10} {data['hits']:>6} {data['misses']:>7} "
            f"{rate_text}"
        )
    lines.append("")
    lines.append("cache counters: " + json.dumps(report["cache"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    client_counts = [int(part) for part in args.clients.split(",") if part.strip()]
    build_started = time.perf_counter()
    benchmark = build_benchmark(
        seed=args.seed, profile=SeedProfile().scaled(args.scale)
    )
    engine = OBDAEngine(benchmark.database, benchmark.ontology, benchmark.mappings)
    build_seconds = time.perf_counter() - build_started

    all_queries = {qid: q.sparql for qid, q in benchmark.queries.items()}
    cold_warm = measure_cold_warm(engine, all_queries)
    cache_layers = measure_cache_layers(engine, all_queries)

    mix_queries = {
        qid: benchmark.queries[qid].sparql for qid in tractable_queries()
    }
    qmph = measure_qmph(
        engine, mix_queries, client_counts, args.runs, args.think_time
    )

    scaling = None
    if len(client_counts) >= 2:
        base = qmph[str(client_counts[0])]["qmph"]
        peak = qmph[str(client_counts[-1])]["qmph"]
        scaling = peak / base if base > 0 else None

    report: Dict[str, Any] = {
        "meta": {
            "scale": args.scale,
            "seed": args.seed,
            "runs": args.runs,
            "think_time": args.think_time,
            "profile": benchmark.database.profile.name,
            "build_seconds": build_seconds,
            "loading_seconds": engine.loading_seconds,
            "total_rows": benchmark.database.total_rows(),
            "max_clients": client_counts[-1] if client_counts else 1,
        },
        "cold_warm": cold_warm,
        "cache_layers": cache_layers,
        "qmph": qmph,
        "qmph_scaling": scaling,
        "cache": engine.cache_stats(),
    }

    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    text = render_txt(report)
    with open(args.txt, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text)
    print(f"\nwrote {args.json} and {args.txt}")

    if cold_warm["errors"]:
        print("FAIL: some queries errored", file=sys.stderr)
        return 1
    if (
        cold_warm["warm_compile_seconds"] >= cold_warm["cold_compile_seconds"]
        and cold_warm["queries"] > 0
    ):
        print("FAIL: warm compile path not faster than cold", file=sys.stderr)
        return 1
    for layer in ("query_layer", "rewrite_layer"):
        data = cache_layers[layer]
        if data["hits"] == 0 and (data["hits"] + data["misses"]) > 0:
            print(f"FAIL: {layer} never hit when exercised", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
