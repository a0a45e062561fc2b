#!/usr/bin/env python
"""Executor perf harness: cost-based optimizer vs. the naive executor.

Measures what the PR 4 physical-optimization layer buys on the NPD
catalogue, execution time only (the compile pipeline is warmed first so
PR 2's caches take it out of the picture):

* **naive vs optimized**: every catalogue query runs under
  ``naive_settings()`` (the pre-optimizer executor: left-to-right join
  order, no scan sharing) and under the default cost-based settings
  after ``ANALYZE``; identical answer bags are asserted query by query.
* **scan sharing**: per-query shared-scan reuse counters; the gate
  requires the cross-disjunct cache to fire on >= 5 of the 21 queries.
* **row vs vectorized**: every catalogue query runs under the row
  executor and the vectorized batch executor (optimizer ON for both);
  identical bags are asserted query by query and the gate requires the
  vectorized total to be >= ``--min-vectorized-speedup`` x the row total.
* **scale sweep** (``--sweep``): total catalogue time for both executors
  at scales 0.1/0.25/0.5/1.0, for the committed report.
* **differential oracle** (``--oracle``): the whole catalogue is
  cross-checked across the 7-config engine matrix (including the
  ``vectorized`` config) with the optimizer ON, so the speedup numbers
  are backed by three-way answer agreement.

Writes ``BENCH_executor.json`` and ``BENCH_executor.txt``.  Exits
non-zero when optimized execution is slower than naive, bags differ,
a coverage gate fails, or the oracle reports a mismatch -- the CI
bench-executor job uses that as its regression gate.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_executor.py --scale 0.25 --oracle
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from typing import Any, Dict

from repro.npd import build_benchmark
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.sql.optimizer import OptimizerSettings, naive_settings


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="seed-profile scale factor (default 0.25, the acceptance scale)",
    )
    parser.add_argument("--seed", type=int, default=1, help="database seed")
    parser.add_argument(
        "--runs",
        type=int,
        default=3,
        help="timed repetitions per query per mode (min is reported)",
    )
    parser.add_argument(
        "--min-reduction",
        type=float,
        default=0.0,
        help="required fractional reduction of total execution time "
        "(0.25 = optimized must be >= 25%% faster; default 0 = never slower)",
    )
    parser.add_argument(
        "--min-sharing-queries",
        type=int,
        default=5,
        help="queries on which scan sharing must fire (default 5)",
    )
    parser.add_argument(
        "--min-vectorized-speedup",
        type=float,
        default=1.0,
        help="required vectorized-over-row total-time speedup at the "
        "bench scale (default 1.0 = never slower)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="also run the row-vs-vectorized scale sweep "
        "(slow; used for the committed report)",
    )
    parser.add_argument(
        "--sweep-scales",
        default="0.1,0.25,0.5,1.0",
        help="comma-separated scales for --sweep",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also cross-check the catalogue across the 7-config "
        "differential-oracle matrix (slow; used for the committed report)",
    )
    parser.add_argument("--json", default="BENCH_executor.json")
    parser.add_argument("--txt", default="BENCH_executor.txt")
    return parser.parse_args(argv)


def _timed_runs(engine: OBDAEngine, sparql: str, runs: int):
    """(best execution seconds, bag of answer rows) over *runs* repeats."""
    best = None
    bag: Counter = Counter()
    for attempt in range(runs):
        result = engine.execute(sparql)
        elapsed = result.timings.execution
        if best is None or elapsed < best:
            best = elapsed
        if attempt == 0:
            bag = Counter(result.to_python_rows())
    return best, bag


def measure_modes(
    engine: OBDAEngine, queries: Dict[str, str], runs: int
) -> Dict[str, Any]:
    database = engine.database
    # warm the compile pipeline so only execution is on the clock
    for sparql in queries.values():
        engine.execute(sparql)

    per_query: Dict[str, Any] = {}
    database.set_optimizer(naive_settings())
    naive_bags: Dict[str, Counter] = {}
    for query_id, sparql in queries.items():
        seconds, bag = _timed_runs(engine, sparql, runs)
        naive_bags[query_id] = bag
        per_query[query_id] = {"naive_seconds": seconds, "rows": sum(bag.values())}

    database.analyze()
    database.set_optimizer(OptimizerSettings())
    sharing_queries = 0
    bags_identical = True
    for query_id, sparql in queries.items():
        hits_before = database.stats.shared_scan_hits
        seconds, bag = _timed_runs(engine, sparql, runs)
        entry = per_query[query_id]
        entry["optimized_seconds"] = seconds
        entry["speedup"] = (
            entry["naive_seconds"] / seconds if seconds > 0 else None
        )
        entry["shared_scan_hits"] = database.stats.shared_scan_hits - hits_before
        entry["bag_identical"] = bag == naive_bags[query_id]
        if entry["shared_scan_hits"] > 0:
            sharing_queries += 1
        if not entry["bag_identical"]:
            bags_identical = False

    naive_total = sum(q["naive_seconds"] for q in per_query.values())
    optimized_total = sum(q["optimized_seconds"] for q in per_query.values())
    return {
        "per_query": per_query,
        "naive_total_seconds": naive_total,
        "optimized_total_seconds": optimized_total,
        "reduction_fraction": (
            1.0 - optimized_total / naive_total if naive_total > 0 else None
        ),
        "speedup_total": (
            naive_total / optimized_total if optimized_total > 0 else None
        ),
        "sharing_queries": sharing_queries,
        "bags_identical": bags_identical,
        "queries": len(per_query),
    }


def measure_executors(
    benchmark, queries: Dict[str, str], runs: int
) -> Dict[str, Any]:
    """Row vs vectorized batch execution, optimizer ON, identical bags."""
    database = benchmark.database
    engines = {
        name: OBDAEngine(
            database, benchmark.ontology, benchmark.mappings, executor=name
        )
        for name in ("row", "vectorized")
    }
    # warm each engine's compile pipeline so only execution is on the clock
    for engine in engines.values():
        for sparql in queries.values():
            engine.execute(sparql)
    if not database.statistics_fresh:
        database.analyze()
    per_query: Dict[str, Any] = {}
    bags_identical = True
    for query_id, sparql in queries.items():
        row_seconds, row_bag = _timed_runs(engines["row"], sparql, runs)
        vec_seconds, vec_bag = _timed_runs(engines["vectorized"], sparql, runs)
        identical = row_bag == vec_bag
        bags_identical = bags_identical and identical
        per_query[query_id] = {
            "row_seconds": row_seconds,
            "vectorized_seconds": vec_seconds,
            "speedup": row_seconds / vec_seconds if vec_seconds > 0 else None,
            "bag_identical": identical,
            "rows": sum(row_bag.values()),
        }
    row_total = sum(q["row_seconds"] for q in per_query.values())
    vec_total = sum(q["vectorized_seconds"] for q in per_query.values())
    stats = database.stats
    return {
        "per_query": per_query,
        "row_total_seconds": row_total,
        "vectorized_total_seconds": vec_total,
        "speedup_total": row_total / vec_total if vec_total > 0 else None,
        "bags_identical": bags_identical,
        "batch_blocks": stats.batch_blocks,
        "batch_fallbacks": stats.batch_fallbacks,
    }


def measure_sweep(seed: int, scales, runs: int) -> Dict[str, Any]:
    """Total catalogue time for both executors across seed scales."""
    points = []
    for scale in scales:
        benchmark = build_benchmark(
            seed=seed, profile=SeedProfile().scaled(scale)
        )
        queries = {qid: q.sparql for qid, q in benchmark.queries.items()}
        result = measure_executors(benchmark, queries, runs)
        points.append(
            {
                "scale": scale,
                "total_rows": benchmark.database.total_rows(),
                "row_total_seconds": result["row_total_seconds"],
                "vectorized_total_seconds": result["vectorized_total_seconds"],
                "speedup_total": result["speedup_total"],
                "bags_identical": result["bags_identical"],
            }
        )
    return {"points": points, "runs": runs}


def run_oracle_matrix(benchmark) -> Dict[str, Any]:
    """All 21 queries x the 7-config engine matrix, optimizer ON."""
    from repro.diffcheck import DEFAULT_MATRIX, DifferentialOracle

    oracle = DifferentialOracle(
        benchmark.database, benchmark.ontology, benchmark.mappings
    )
    statuses: Counter = Counter()
    failures = []
    for query_id in sorted(benchmark.queries, key=lambda q: int(q[1:])):
        verdicts = oracle.check_matrix(
            query_id, benchmark.queries[query_id].sparql, shrink=False
        )
        for verdict in verdicts:
            statuses[verdict.status] += 1
            if not verdict.ok:
                failures.append(f"{query_id}@{verdict.config}")
    return {
        "configs": len(DEFAULT_MATRIX),
        "verdicts": dict(statuses),
        "failures": failures,
        "ok": not failures,
    }


def render_txt(report: Dict[str, Any]) -> str:
    meta = report["meta"]
    lines = [
        f"Executor bench  scale={meta['scale']} seed={meta['seed']} "
        f"runs={meta['runs']} profile={meta['profile']}",
        "",
        "naive vs optimized execution (seconds, best of runs)",
        f"{'query':8} {'naive':>10} {'optimized':>10} {'speedup':>8} "
        f"{'shared':>7} {'bag':>5}",
    ]
    modes = report["modes"]
    for query_id, data in sorted(
        modes["per_query"].items(), key=lambda item: int(item[0][1:])
    ):
        lines.append(
            f"{query_id:8} {data['naive_seconds']:>10.6f} "
            f"{data['optimized_seconds']:>10.6f} {data['speedup']:>7.2f}x "
            f"{data['shared_scan_hits']:>7} "
            f"{'ok' if data['bag_identical'] else 'DIFF':>5}"
        )
    lines.append(
        f"{'TOTAL':8} {modes['naive_total_seconds']:>10.6f} "
        f"{modes['optimized_total_seconds']:>10.6f} "
        f"{modes['speedup_total']:>7.2f}x"
    )
    lines.append(
        f"reduction: {modes['reduction_fraction']:.1%} of total execution time; "
        f"scan sharing fired on {modes['sharing_queries']}/{modes['queries']} "
        "queries"
    )
    executors = report["executors"]
    lines.append("")
    lines.append("row vs vectorized execution (seconds, best of runs)")
    lines.append(
        f"{'query':8} {'row':>10} {'vectorized':>10} {'speedup':>8} {'bag':>5}"
    )
    for query_id, data in sorted(
        executors["per_query"].items(), key=lambda item: int(item[0][1:])
    ):
        lines.append(
            f"{query_id:8} {data['row_seconds']:>10.6f} "
            f"{data['vectorized_seconds']:>10.6f} {data['speedup']:>7.2f}x "
            f"{'ok' if data['bag_identical'] else 'DIFF':>5}"
        )
    lines.append(
        f"{'TOTAL':8} {executors['row_total_seconds']:>10.6f} "
        f"{executors['vectorized_total_seconds']:>10.6f} "
        f"{executors['speedup_total']:>7.2f}x"
    )
    lines.append(
        f"batch coverage: {executors['batch_blocks']} blocks vectorized, "
        f"{executors['batch_fallbacks']} row-path fallbacks"
    )
    sweep = report.get("sweep")
    if sweep is not None:
        lines.append("")
        lines.append("scale sweep (total catalogue seconds)")
        lines.append(
            f"{'scale':>6} {'rows':>8} {'row':>10} {'vectorized':>10} "
            f"{'speedup':>8} {'bag':>5}"
        )
        for point in sweep["points"]:
            lines.append(
                f"{point['scale']:>6} {point['total_rows']:>8} "
                f"{point['row_total_seconds']:>10.6f} "
                f"{point['vectorized_total_seconds']:>10.6f} "
                f"{point['speedup_total']:>7.2f}x "
                f"{'ok' if point['bags_identical'] else 'DIFF':>5}"
            )
    oracle = report.get("oracle")
    lines.append("")
    if oracle is None:
        lines.append("oracle matrix: skipped (run with --oracle)")
    else:
        lines.append(
            f"oracle matrix: {oracle['configs']} configs, verdicts "
            + json.dumps(oracle["verdicts"], sort_keys=True)
            + (" -- ALL MATCH" if oracle["ok"] else " -- FAILURES: "
               + ", ".join(oracle["failures"]))
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    build_started = time.perf_counter()
    benchmark = build_benchmark(
        seed=args.seed, profile=SeedProfile().scaled(args.scale)
    )
    engine = OBDAEngine(benchmark.database, benchmark.ontology, benchmark.mappings)
    build_seconds = time.perf_counter() - build_started

    queries = {qid: q.sparql for qid, q in benchmark.queries.items()}
    modes = measure_modes(engine, queries, args.runs)
    executors = measure_executors(benchmark, queries, args.runs)
    sweep = None
    if args.sweep:
        scales = [float(s) for s in args.sweep_scales.split(",") if s]
        sweep = measure_sweep(args.seed, scales, max(1, args.runs - 1))
    oracle = run_oracle_matrix(benchmark) if args.oracle else None

    report: Dict[str, Any] = {
        "meta": {
            "scale": args.scale,
            "seed": args.seed,
            "runs": args.runs,
            "profile": benchmark.database.profile.name,
            "build_seconds": build_seconds,
            "total_rows": benchmark.database.total_rows(),
            "statistics": benchmark.database.statistics.summary(),
        },
        "modes": modes,
        "executors": executors,
        "sweep": sweep,
        "oracle": oracle,
    }

    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    text = render_txt(report)
    with open(args.txt, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text)
    print(f"\nwrote {args.json} and {args.txt}")

    failed = False
    if not modes["bags_identical"]:
        print("FAIL: optimized/naive answer bags differ", file=sys.stderr)
        failed = True
    reduction = modes["reduction_fraction"] or 0.0
    if reduction < args.min_reduction:
        print(
            f"FAIL: reduction {reduction:.1%} < required "
            f"{args.min_reduction:.1%}",
            file=sys.stderr,
        )
        failed = True
    if modes["sharing_queries"] < args.min_sharing_queries:
        print(
            f"FAIL: scan sharing fired on {modes['sharing_queries']} queries "
            f"< required {args.min_sharing_queries}",
            file=sys.stderr,
        )
        failed = True
    if not executors["bags_identical"]:
        print("FAIL: row/vectorized answer bags differ", file=sys.stderr)
        failed = True
    if (executors["speedup_total"] or 0.0) < args.min_vectorized_speedup:
        print(
            f"FAIL: vectorized speedup {executors['speedup_total']:.2f}x "
            f"< required {args.min_vectorized_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if sweep is not None and not all(
        point["bags_identical"] for point in sweep["points"]
    ):
        print("FAIL: sweep answer bags differ", file=sys.stderr)
        failed = True
    if oracle is not None and not oracle["ok"]:
        print("FAIL: differential-oracle mismatches", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
