"""The unfolder emits no per-row work that answers no question.

Atoms merged onto one alias (self-join and VFD merging) bind the same
column twice, and a variable bound three times repeats its first join
equality.  Every block of the unfolded SQL must be free of both residues:
no ``A.c = A.c`` (true exactly when ``A.c IS NOT NULL``, which the null
guards already settle) and no conjunct twice.  The optimization counters
and fired-fact labels are pinned to what they were before the residue was
removed; the counters count only merges that reach the SQL, which an
oracle re-derives from the plain cross-product loop running every
combination through the whole pass list (``_run_passes``).
"""

from __future__ import annotations

import hashlib
import itertools
import re
import types
from collections import Counter
from typing import Iterator, List

import pytest

from repro.analysis import analyze
from repro.diffcheck.fuzzer import QueryFuzzer
from repro.npd import build_benchmark
from repro.npd.queries import build_query_set
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine, parse_obda
from repro.obda.materializer import materialize
from repro.obda.unfolder import _Block, _emit, _shape_key, _term_map_equality
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
#: where not all zero; merges are counted in emitted union blocks only
COUNTERS = {
    "best": {
        "q1": (0, 30, 0), "q2": (0, 45, 0), "q3": (0, 84, 0),
        "q4": (0, 264, 48), "q5": (0, 11, 1), "q6": (0, 162, 18),
        "q7": (0, 12, 6), "q8": (0, 38, 25), "q9": (0, 6, 0),
        "q10": (0, 30, 3), "q11": (0, 9, 3), "q12": (0, 2, 1),
        "q13": (0, 9, 3), "q14": (0, 3, 0), "q15": (0, 6, 0),
        "q16": (0, 26, 8), "q17": (0, 16, 0), "q18": (0, 24, 0),
        "q19": (0, 4, 2), "q20": (2, 4, 2), "q21": (0, 9, 3),
        "b1": (1, 2, 2), "b2": (0, 2, 2),
    },
    "default": {"q20": (2, 0, 0), "b1": (1, 0, 0)},
}
#: SHA-1 over ``"{query}:{fired_facts}:{fired_constraints}\n"`` in query order
FIRED_LABELS_SHA1 = {
    "best": "9cc39827cc721bb0a12f752cfb0231cdbedf6ce2",
    "default": "421c181efd9d95ec531b45e8129246e251e43f39",
}


#: fuzzer probes (diffcheck's generator, constants drawn from the
#: materialized graph) added to the golden inputs
FUZZ_SEED = 0
FUZZ_COUNT = 100
#: SHA-1 over ``"{query}:{sql sha1}:{pruned}:{union blocks}\n"`` in query
#: order for the catalogue, bulk and fuzzer queries, where ``sql sha1`` is
#: over the alias-normalised SQL text; captured once each FILTER was ANDed
#: into every UCQ block it filters (``_push_filter``); the enumeration and
#: the cross-product loop emit the same SQL
SQL_GOLDEN_SHA1 = {
    "best": "dcb3e1f1bb6e634377ff1e3c75fa8f730626e222",
    "default": "06ee70a38877beca7e74d2e5428cb83de4dbc577",
}


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(seed=SEED, profile=SeedProfile().scaled(SCALE))


@pytest.fixture(scope="module")
def queries():
    texts = {name: query.sparql for name, query in build_query_set().items()}
    texts.update(BULK_QUERIES)
    return texts


@pytest.fixture(scope="module")
def fuzz_queries(bench):
    graph = materialize(bench.database, bench.mappings).graph
    fuzzer = QueryFuzzer(bench.ontology, bench.mappings, seed=FUZZ_SEED, graph=graph)
    return {query.id: query.sparql for query in fuzzer.generate(FUZZ_COUNT)}


@pytest.fixture(scope="module")
def engines(bench):
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


_COUNTERS = ("merged", "vfd_merged", "eliminated_joins", "elided_guards")


def _product_unfold_cq(self, cq, answer_vars, unfolding):
    """The cross-product loop: the whole pass list on every combination.

    A block some pass drops must leave the query's counters and fired
    labels as they were, so what remains counts emitted branches only.
    """
    candidate_lists = self._candidate_lists(cq, unfolding)
    if candidate_lists is None:
        return []
    branches = []
    for combination in itertools.product(*candidate_lists):
        saved = [getattr(unfolding, name) for name in _COUNTERS]
        facts = dict(unfolding.fired_facts)
        constraints = dict(unfolding.fired_constraints)
        block = self._run_passes(_Block(cq, combination, unfolding))
        if block is None:
            unfolding.pruned += 1
            assert [getattr(unfolding, name) for name in _COUNTERS] == saved
            assert (unfolding.fired_facts, unfolding.fired_constraints) == (
                facts,
                constraints,
            )
            continue
        branches.append(_emit(block, answer_vars))
    return branches


def _unfold_by_product(engine, text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(
            engine.unfolder,
            "_unfold_cq",
            types.MethodType(_product_unfold_cq, engine.unfolder),
        )
        return engine.unfold(text)


_ALIAS = re.compile(r"\bm\d+\b")


def _normalise_aliases(sql_text: str) -> str:
    """Renumber the unfolder's ``m<n>`` table aliases by first appearance."""
    seen: dict = {}
    return _ALIAS.sub(
        lambda match: seen.setdefault(match.group(0), f"m{len(seen)}"), sql_text
    )


def _summary(unfolded):
    return (
        _normalise_aliases(unfolded.sql_text),
        unfolded.pruned_combinations,
        unfolded.union_blocks,
        unfolded.merged_self_joins,
        unfolded.elided_null_guards,
        unfolded.merged_vfd_joins,
        unfolded.eliminated_joins,
        unfolded.fired_facts,
        unfolded.fired_constraints,
    )


@pytest.mark.parametrize("config", ["best", "default"])
def test_enumeration_matches_product_oracle(engines, queries, config, monkeypatch):
    engine = engines[config]
    run_passes = engine.unfolder._run_passes
    composed = []

    def counting_run_passes(*args):
        composed.append(None)
        return run_passes(*args)

    counters = {}
    for name, text in queries.items():
        composed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engine.unfolder, "_run_passes", counting_run_passes)
            enumerated = engine.unfold(text)
        # no NPD term map is a constant: every composition is emitted
        assert len(composed) == enumerated.union_blocks, name
        product = _unfold_by_product(engine, text, monkeypatch)
        assert _summary(enumerated) == _summary(product), name
        triple = (
            product.merged_self_joins,
            product.elided_null_guards,
            product.merged_vfd_joins,
        )
        if triple != (0, 0, 0):
            counters[name] = triple
    assert counters == COUNTERS[config]


@pytest.mark.parametrize("config", ["best", "default"])
def test_sql_matches_cross_product_golden(engines, queries, fuzz_queries, config):
    digest = hashlib.sha1()
    for name, text in {**queries, **fuzz_queries}.items():
        unfolded = engines[config].unfold(text)
        sql_sha1 = hashlib.sha1(
            _normalise_aliases(unfolded.sql_text).encode()
        ).hexdigest()
        digest.update(
            f"{name}:{sql_sha1}:{unfolded.pruned_combinations}:"
            f"{unfolded.union_blocks}\n".encode()
        )
    assert digest.hexdigest() == SQL_GOLDEN_SHA1[config]


def test_shape_keys_decide_term_map_compatibility(engines):
    """Equal shape keys exactly when ``_term_map_equality`` can join."""
    term_maps = set()
    for assertion in engines["best"].mappings:
        term_maps.add(assertion.subject)
        if not assertion.is_class_assertion:
            term_maps.add(assertion.object)
    term_maps = sorted(term_maps, key=repr)
    assert all(_shape_key(term_map) is not None for term_map in term_maps)
    mismatched = [
        (first, second)
        for first in term_maps
        for second in term_maps
        if (_shape_key(first) == _shape_key(second))
        != (_term_map_equality(first, "a", second, "b") is not None)
    ]
    assert mismatched == []


CONSTANT_OBJECT_OBDA = """
[PrefixDeclaration]
:\thttp://ex.org/

[MappingDeclaration] @collection [[
mappingId\tc1
target\t\t:emp/{id} :reportsTo :emp/1 .
source\t\tSELECT id FROM temployee
]]
"""


@pytest.mark.parametrize(
    "pattern",
    [
        "?e :reportsTo ?b . ?b :name ?n",
        "?b :name ?n . ?e :reportsTo ?b",
        "?e :reportsTo ?b . ?b a :Product",
        "?e :reportsTo ?e",
        "?e :reportsTo ?b . ?b :sellsProduct ?p . ?p a :Product",
    ],
)
def test_constant_term_maps_match_product_oracle(
    example_db, example_ontology, example_mappings, pattern, monkeypatch
):
    """A variable bound through a constant term map is left to
    ``_join_equalities``' exact check; the branches equal the product loop's."""
    _, extra = parse_obda(CONSTANT_OBJECT_OBDA)
    for assertion in extra:
        example_mappings.add(assertion)
    example_ontology.declare_object_property("http://ex.org/reportsTo")
    engine = OBDAEngine(example_db, example_ontology, example_mappings)
    text = f"PREFIX : <http://ex.org/>\nSELECT * WHERE {{ {pattern} }}"
    enumerated = engine.unfold(text)
    product = _unfold_by_product(engine, text, monkeypatch)
    assert _summary(enumerated) == _summary(product)
