"""The unfolder emits no per-row work that answers no question.

Atoms merged onto one alias (self-join and VFD merging) bind the same
column twice, and a variable bound three times repeats its first join
equality.  Every block of the unfolded SQL must be free of both residues:
no ``A.c = A.c`` (true exactly when ``A.c IS NOT NULL``, which the null
guards already settle) and no conjunct twice.  The optimization counters
and fired-fact labels are pinned to what they were before the residue was
removed.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterator, List

import pytest

from repro.analysis import analyze
from repro.npd import build_benchmark
from repro.npd.queries import build_query_set
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.sql import ast as sql

SCALE = 0.1
SEED = 1

_PREFIX = "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"
#: the two large-result queries of the benchmark's ``bulk_output`` workload
BULK_QUERIES = {
    "b1": _PREFIX
    + "SELECT ?year ?month ?oil ?gas WHERE { ?volume npdv:productionMonth ?month ; "
    "npdv:productionYear ?year ; npdv:producedOil ?oil ; npdv:producedGas ?gas }",
    "b2": _PREFIX
    + "SELECT ?volume ?month ?oe ?water WHERE { ?volume npdv:productionMonth ?month ; "
    "npdv:producedOe ?oe ; npdv:producedWater ?water }",
}

#: (merged_self_joins, elided_null_guards, merged_vfd_joins) per query,
#: where not all zero
COUNTERS = {
    "best": {
        "q1": (0, 30, 0), "q2": (0, 45, 0), "q3": (0, 84, 0),
        "q4": (0, 264, 1026), "q5": (0, 11, 1), "q6": (0, 162, 722),
        "q7": (0, 12, 380), "q8": (0, 38, 305), "q9": (0, 6, 0),
        "q10": (0, 30, 19), "q11": (0, 9, 361), "q12": (0, 2, 19),
        "q13": (0, 9, 19), "q14": (0, 3, 0), "q15": (0, 6, 0),
        "q16": (0, 26, 27), "q17": (0, 16, 0), "q18": (0, 24, 0),
        "q19": (0, 4, 19), "q20": (19, 4, 19), "q21": (0, 9, 19),
        "b1": (1, 2, 2), "b2": (0, 2, 2),
    },
    "default": {"q20": (19, 0, 0), "b1": (1, 0, 0)},
}
#: SHA-1 over ``"{query}:{fired_facts}:{fired_constraints}\n"`` in query order
FIRED_LABELS_SHA1 = {
    "best": "9cc39827cc721bb0a12f752cfb0231cdbedf6ce2",
    "default": "421c181efd9d95ec531b45e8129246e251e43f39",
}


@pytest.fixture(scope="module")
def queries():
    texts = {name: query.sparql for name, query in build_query_set().items()}
    texts.update(BULK_QUERIES)
    return texts


@pytest.fixture(scope="module")
def engines():
    bench = build_benchmark(seed=SEED, profile=SeedProfile().scaled(SCALE))
    report = analyze(bench.database, bench.ontology, bench.mappings, perf=False)
    return {
        "best": OBDAEngine(
            bench.database,
            bench.ontology,
            bench.mappings,
            factbase=report.factbase,
            constraints=report.constraints.constraints,
        ),
        "default": OBDAEngine(bench.database, bench.ontology, bench.mappings),
    }


def _blocks(statement: sql.SelectStatement) -> Iterator[sql.SelectStatement]:
    """Every SELECT block: union branches and derived tables, recursively."""
    for block in statement.union_branches():
        yield block
        yield from _source_blocks(block.source)


def _source_blocks(source) -> Iterator[sql.SelectStatement]:
    if isinstance(source, sql.SubquerySource):
        yield from _blocks(source.query)
    elif isinstance(source, sql.Join):
        yield from _source_blocks(source.left)
        yield from _source_blocks(source.right)


def _residue(statement: sql.SelectStatement) -> List[str]:
    found = []
    for block in _blocks(statement):
        conjuncts = sql.split_conjuncts(block.where)
        for conjunct, count in Counter(conjuncts).items():
            if count > 1:
                found.append(f"{count}x {conjunct.to_sql()}")
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, sql.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, sql.ColumnRef)
                and isinstance(conjunct.right, sql.ColumnRef)
                and conjunct.left.key == conjunct.right.key
            ):
                found.append(f"reflexive {conjunct.to_sql()}")
    return found


@pytest.mark.parametrize("config", ["best", "default"])
class TestUnfolderResidue:
    def test_no_reflexive_or_duplicate_conjuncts(self, engines, queries, config):
        residue = {}
        for name, text in queries.items():
            unfolded = engines[config].unfold(text)
            if unfolded.statement is not None:
                found = _residue(unfolded.statement)
                if found:
                    residue[name] = found[:3] + [f"... {len(found)} in all"]
        assert residue == {}

    def test_counters_and_fired_labels_unchanged(self, engines, queries, config):
        counters = {}
        digest = hashlib.sha1()
        for name, text in queries.items():
            unfolded = engines[config].unfold(text)
            triple = (
                unfolded.merged_self_joins,
                unfolded.elided_null_guards,
                unfolded.merged_vfd_joins,
            )
            if triple != (0, 0, 0):
                counters[name] = triple
            digest.update(
                f"{name}:{unfolded.fired_facts}:{unfolded.fired_constraints}\n".encode()
            )
        assert counters == COUNTERS[config]
        assert digest.hexdigest() == FIRED_LABELS_SHA1[config]
