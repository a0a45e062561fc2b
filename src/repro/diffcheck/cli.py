"""Command-line entry point: ``python -m repro.diffcheck``.

Runs the differential oracle over the Table 7 catalogue and/or a batch
of fuzzed queries, across the engine-configuration matrix, and prints a
deterministic report (no wall-clock timings: the same seed and scale
produce byte-identical output).  Exits non-zero when any disagreement
is unexplained.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from ..npd import build_benchmark
from ..npd.seed import SeedProfile
from ..vig import VIG
from .fuzzer import QueryFuzzer
from .oracle import (
    CONFIGS_BY_NAME,
    DEFAULT_MATRIX,
    DifferentialOracle,
    EngineConfig,
    OracleReport,
)


#: the VIG seed the benchmark harness grows its NPD<n> instances with
VIG_SEED = 13
#: lint errors the pre-flight reports but does not abort on for grown
#: data: VIG growth leaves rows whose foreign key has no parent row
GROWTH_TOLERATED = frozenset({"SCH_FK_VIOLATED"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diffcheck",
        description="three-way differential check of the OBDA pipelines",
    )
    parser.add_argument(
        "--catalogue",
        action="store_true",
        help="check the 21 Table 7 benchmark queries",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="additionally check N fuzzed queries",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fuzzer seed (default 0)"
    )
    parser.add_argument(
        "--db-seed",
        type=int,
        default=1,
        help="seed for the generated NPD database (default 1)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="data scale factor for the generated database (default 0.25)",
    )
    parser.add_argument(
        "--growth",
        type=float,
        default=1.0,
        metavar="N",
        help="grow the generated database N-fold with VIG (seed 13, as the "
        "benchmark harness does) before checking (default 1: no growth); "
        "the lint pre-flight then reports VIG's dangling foreign keys "
        "(SCH_FK_VIOLATED) without aborting",
    )
    parser.add_argument(
        "--configs",
        default=",".join(config.name for config in DEFAULT_MATRIX),
        help="comma-separated engine configs (default: full matrix)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report mismatches without minimizing them",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report to PATH",
    )
    parser.add_argument(
        "--lint",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="obdalint pre-flight: abort (exit 2) on ERROR findings "
        "before any differential run (default on)",
    )
    return parser


def resolve_configs(names: str) -> List[EngineConfig]:
    configs: List[EngineConfig] = []
    for name in names.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            configs.append(CONFIGS_BY_NAME[name])
        except KeyError:
            known = ", ".join(sorted(CONFIGS_BY_NAME))
            raise SystemExit(f"unknown config {name!r} (known: {known})")
    if not configs:
        raise SystemExit("no engine configs selected")
    return configs


def gather_queries(
    args: argparse.Namespace, oracle: DifferentialOracle, queries
) -> List[Tuple[str, str]]:
    selected: List[Tuple[str, str]] = []
    if args.catalogue:
        for query_id in sorted(queries, key=_catalogue_order):
            selected.append((query_id, queries[query_id].sparql))
    if args.fuzz > 0:
        fuzzer = QueryFuzzer(
            oracle.ontology,
            oracle.mappings,
            seed=args.seed,
            graph=oracle.materialized,
        )
        for fuzzed in fuzzer.generate(args.fuzz):
            selected.append((fuzzed.id, fuzzed.sparql))
    return selected


def _catalogue_order(query_id: str) -> Tuple[int, str]:
    digits = "".join(ch for ch in query_id if ch.isdigit())
    return (int(digits) if digits else 0, query_id)


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.catalogue and args.fuzz <= 0:
        build_parser().error("nothing to do: pass --catalogue and/or --fuzz N")
    if args.growth < 1:
        build_parser().error("--growth must be at least 1")
    configs = resolve_configs(args.configs)

    benchmark = build_benchmark(
        seed=args.db_seed, profile=SeedProfile().scaled(args.scale)
    )
    if args.growth != 1:
        VIG(benchmark.database, seed=VIG_SEED).grow(args.growth)
    if args.lint:
        from ..analysis import analyze

        lint = analyze(
            benchmark.database,
            benchmark.ontology,
            benchmark.mappings,
            queries={name: bq.sparql for name, bq in benchmark.queries.items()}
            if args.catalogue
            else None,
        )
        tolerated = GROWTH_TOLERATED if args.growth != 1 else frozenset()
        for finding in lint.errors:
            print(f"lint: {finding.describe()}", file=sys.stderr)
        errors = [f for f in lint.errors if f.code not in tolerated]
        if errors:
            print(
                f"obdalint pre-flight failed with {len(errors)} error(s); "
                "not running the oracle (use --no-lint to override)",
                file=sys.stderr,
            )
            return 2
    oracle = DifferentialOracle(
        benchmark.database, benchmark.ontology, benchmark.mappings
    )
    selected = gather_queries(args, oracle, benchmark.queries)

    report = OracleReport()
    for query_id, sparql in selected:
        report.verdicts.extend(
            oracle.check_matrix(
                query_id, sparql, configs, shrink=not args.no_shrink
            )
        )

    header = (
        f"differential oracle: {len(selected)} queries x "
        f"{len(configs)} configs ({', '.join(c.name for c in configs)}) "
        f"db-seed={args.db_seed} scale={args.scale:g}"
        + (f" growth={args.growth:g}" if args.growth != 1 else "")
        + f" fuzz-seed={args.seed}\n\n"
    )
    text = header + report.describe()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if report.ok else 1


def main() -> None:
    raise SystemExit(run())
