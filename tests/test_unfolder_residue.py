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

A BGP's union keeps the first block of each ``_block_key`` (the block up
to alias names) and drops its later twins; the oracle checks that the
kept blocks are exactly the first of each key of the full product
enumeration and answer the same rows as the union of every block, and
engine answers are checked against the SPARQL evaluator over the
saturated graph.
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
from repro.diffcheck.normalize import canonical_bag
from repro.mixer import Mixer, OBDASystemAdapter
from repro.npd import build_benchmark
from repro.npd.queries import build_query_set
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine, parse_obda
from repro.obda import unfolder as unfolder_module
from repro.obda.materializer import materialize
from repro.obda.unfolder import _Block, _block_key, _shape_key, _term_map_equality
from repro.owl.abox import saturate_graph
from repro.owl.reasoner import QLReasoner
from repro.rdf.terms import XSD_INTEGER
from repro.sparql.evaluator import query_graph
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
#: where not all zero; merges are counted in emitted union blocks only,
#: so a block dropped as a repeat of an earlier one counts none, and
#: neither does an assertion T-mapping containment dropped at load time
#: (recomputed when containment began to see through wrappers and column
#: renamings, after ``test_enumeration_matches_product_oracle``'s
#: ``_summary`` equality passed)
COUNTERS = {
    "best": {
        "q1": (0, 5, 0), "q2": (0, 10, 0), "q3": (0, 7, 0),
        "q4": (0, 88, 28), "q5": (0, 7, 1), "q6": (0, 18, 2),
        "q7": (0, 3, 2), "q8": (0, 19, 13), "q9": (0, 4, 0),
        "q10": (0, 5, 1), "q11": (0, 6, 2), "q12": (0, 2, 1),
        "q13": (0, 3, 1), "q14": (0, 2, 0), "q15": (0, 3, 0),
        "q16": (0, 13, 7), "q17": (0, 4, 0), "q18": (0, 8, 0),
        "q19": (0, 2, 1), "q20": (1, 2, 1), "q21": (0, 3, 1),
        "b1": (1, 2, 2), "b2": (0, 2, 2),
    },
    "default": {"q20": (1, 0, 0), "b1": (1, 0, 0)},
}
#: SHA-1 over ``"{query}:{fired_facts}:{fired_constraints}\n"`` in query order
FIRED_LABELS_SHA1 = {
    "best": "6e95604d3ad4ad15f9fe7a307ece1f10c0d90d96",
    "default": "421c181efd9d95ec531b45e8129246e251e43f39",
}


#: fuzzer probes (diffcheck's generator, constants drawn from the
#: materialized graph) added to the golden inputs
FUZZ_SEED = 0
FUZZ_COUNT = 100
#: SHA-1 over ``"{query}:{sql sha1}:{pruned}:{union blocks}\n"`` in query
#: order for the catalogue, bulk and fuzzer queries, where ``sql sha1`` is
#: over the alias-normalised SQL text; captured once each BGP union kept
#: only the first block of each key and mapping sources were emitted
#: without their ``SELECT * FROM (X) sub`` wrappers, and a union left
#: with one block was emitted DISTINCT, after
#: ``test_union_keeps_first_block_of_each_key`` passed; recaptured when
#: T-mapping containment began to drop wrapped unions and renamed
#: columns, after the product oracle's ``_summary`` equality passed; the
#: enumeration and the cross-product loop emit the same SQL
SQL_GOLDEN_SHA1 = {
    "best": "f1e6878730f46af253eb9fd0299a7d2c9bbb8413",
    "default": "101e288a0b06ae09d81f6eca3a1363eb3b4638c3",
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


def _product_unfold_cq(self, cq, unfolding):
    """The cross-product loop: the whole pass list on every combination.

    A block some pass drops must leave the query's counters and fired
    labels as they were, so what remains counts emitted branches only.
    """
    candidate_lists = self._candidate_lists(cq, unfolding)
    if candidate_lists is None:
        return []
    blocks = []
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
        blocks.append(block)
    return blocks


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
        unfolded.duplicate_blocks,
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
        # no NPD term map is a constant: every composition is emitted or
        # repeats an emitted one
        assert len(composed) == enumerated.union_blocks + enumerated.duplicate_blocks, name
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


def _union_chains(engine, text, monkeypatch):
    """*text* unfolded by the cross-product loop and, per BGP, every
    block emitted (the full product enumeration), the blocks its union
    kept and the statement the BGP unfolded to."""
    chains = []
    emit, chain_union = unfolder_module._emit, unfolder_module._chain_union
    unfold_bgp = engine.unfolder._unfold_bgp

    def recording_unfold_bgp(*args):
        chain = {"emitted": [], "kept": []}
        chains.append(chain)
        fragment = unfold_bgp(*args)
        chain["statement"] = fragment.statement
        return fragment

    def recording_emit(block, answer_vars):
        statement, meta = emit(block, answer_vars)
        chains[-1]["emitted"].append(statement)
        return statement, meta

    def recording_chain_union(statements, dedup):
        if dedup:  # a BGP's union; a SPARQL UNION is never deduplicated
            chains[-1]["kept"].extend(statements)
        return chain_union(statements, dedup)

    with monkeypatch.context() as patch:
        patch.setattr(unfolder_module, "_emit", recording_emit)
        patch.setattr(unfolder_module, "_chain_union", recording_chain_union)
        patch.setattr(engine.unfolder, "_unfold_bgp", recording_unfold_bgp)
        unfolded = _unfold_by_product(engine, text, patch)
    return unfolded, chains


@pytest.mark.parametrize("config", ["best", "default"])
def test_union_keeps_first_block_of_each_key(
    engines, queries, fuzz_queries, config, monkeypatch
):
    """The kept blocks' keys are pairwise distinct and are the key set of
    the full product enumeration; each kept block is the first of its key.

    The key is also checked against answers rather than against itself:
    where a BGP dropped blocks, the UNION of every emitted block and the
    statement the BGP unfolded to return the same row list.
    """
    engine = engines[config]
    for name, text in {**queries, **fuzz_queries}.items():
        unfolded, chains = _union_chains(engine, text, monkeypatch)
        emitted_total = kept_total = 0
        for chain in chains:
            emitted, kept = chain["emitted"], chain["kept"]
            first = {}
            for statement in emitted:
                first.setdefault(_block_key(statement), statement)
            kept_keys = [_block_key(statement) for statement in kept]
            assert len(set(kept_keys)) == len(kept_keys), name
            assert set(kept_keys) == set(first), name
            assert [id(s) for s in kept] == [id(s) for s in first.values()], name
            if len(kept) < len(emitted):
                every_block = unfolder_module._chain_union(emitted, dedup=True)
                assert (
                    engine.database.query(chain["statement"]).rows
                    == engine.database.query(every_block).rows
                ), name
            emitted_total += len(emitted)
            kept_total += len(kept)
        assert unfolded.union_blocks == kept_total, name
        assert unfolded.duplicate_blocks == emitted_total - kept_total, name


def test_block_key_renames_aliases_on_the_ast():
    table = sql.SelectStatement(
        items=(sql.SelectItem(sql.ColumnRef("id")),), source=sql.NamedTable("t")
    )

    def block(first, second, literal, read=None):
        return sql.SelectStatement(
            items=(
                sql.SelectItem(sql.ColumnRef("id", read or first), "v_x"),
                sql.SelectItem(sql.LiteralValue(literal), "v_y"),
            ),
            source=sql.Join(
                "INNER", sql.SubquerySource(table, first), sql.SubquerySource(table, second)
            ),
            where=sql.BinaryOp("=", sql.ColumnRef("id", first), sql.ColumnRef("id", second)),
        )

    key = _block_key(block("m3", "m7", 1))
    assert key == _block_key(block("m0", "m1", 1)) == _block_key(block("m7", "m3", 1))
    # which scan a column reads is kept
    assert key != _block_key(block("m3", "m7", 1, read="m7"))
    # a string literal is not an alias, and 1, 1.0 and TRUE differ
    assert _block_key(block("m3", "m7", "m3")) != _block_key(block("m0", "m1", "m0"))
    assert len({key, _block_key(block("m3", "m7", 1.0)), _block_key(block("m3", "m7", True))}) == 3


@pytest.fixture(scope="module")
def saturated(bench):
    graph = materialize(bench.database, bench.mappings).graph
    saturate_graph(graph, QLReasoner.of(bench.ontology))
    return graph


#: a SPARQL UNION has bag semantics: its two equal sides are both kept
DOUBLED_UNION = _PREFIX + (
    "SELECT ?x WHERE { { ?x a npdv:Field } UNION { ?x a npdv:Field } }"
)
#: probes whose BGP union still drops a block as a repeat: the
#: ``LicenseeCompany`` mapping is a join, which load-time containment
#: cannot see into, and its ``SELECT * FROM (join) sub`` twin unfolds to
#: the same block
LICENSEE_NATIONS = _PREFIX + (
    "SELECT ?n WHERE { ?c a npdv:LicenseeCompany . ?c npdv:nationCode ?n }"
)
#: multiplicity-sensitive aggregates over that union
LICENSEE_INTEREST = _PREFIX + (
    "SELECT (COUNT(*) AS ?n) (MAX(?i) AS ?top) (SUM(?i) AS ?total) "
    "(AVG(?i) AS ?mean) WHERE { ?c a npdv:LicenseeCompany ; npdv:licenseeInterest ?i }"
)
#: an aggregate per integer-typed value: SUM and MIN keep xsd:integer,
#: and COUNT is xsd:integer
LICENCE_YEARS = _PREFIX + (
    "SELECT (COUNT(*) AS ?n) (SUM(?y) AS ?total) (MIN(?y) AS ?first) "
    "WHERE { ?l a npdv:ProductionLicence ; npdv:yearLicenceGranted ?y }"
)


def _bag(result):
    """The answer bag, numerals compared by value (as diffcheck does)."""
    return canonical_bag(result.variables, result.rows)


@pytest.mark.parametrize("config", ["best", "default"])
def test_sparql_union_keeps_every_row_twice(engines, saturated, config):
    result = engines[config].execute(DOUBLED_UNION)
    assert _bag(result) == _bag(query_graph(saturated, DOUBLED_UNION))
    counts = Counter(result.rows)
    assert counts and set(counts.values()) == {2}


#: a projection whose purpose mapping, a union over two wellbore sheets,
#: has a ``SELECT * FROM (union) sub`` twin: load-time containment sees
#: through the wrapper and keeps one of the two
TWINNED_PROJECTION = _PREFIX + "SELECT ?purpose WHERE { ?w npdv:wellborePurpose ?purpose }"


@pytest.mark.parametrize("config", ["best", "default"])
def test_contained_twins_answer_the_graphs_bag(engines, saturated, config):
    """T-mapping containment leaves one assertion and so one bare block:
    the answers are the graph's bag, which repeats a purpose once per
    wellbore."""
    engine = engines[config]
    unfolded = engine.unfold(TWINNED_PROJECTION)
    assert (unfolded.union_blocks, unfolded.duplicate_blocks) == (1, 0)
    expected = _bag(query_graph(saturated, TWINNED_PROJECTION))
    assert sum(expected.values()) > len(expected)
    assert _bag(engine.execute(TWINNED_PROJECTION)) == expected


@pytest.mark.parametrize("config", ["best", "default"])
def test_collapsed_union_keeps_set_semantics(engines, saturated, config):
    """With every block but one dropped, the one left is DISTINCT: the
    answers are the set the UNION of the twins returned, not the graph's
    bag, which repeats a nation code once per company."""
    engine = engines[config]
    unfolded = engine.unfold(LICENSEE_NATIONS)
    assert (unfolded.union_blocks, unfolded.duplicate_blocks) == (1, 1)
    expected = _bag(query_graph(saturated, LICENSEE_NATIONS))
    assert sum(expected.values()) > len(expected)
    assert _bag(engine.execute(LICENSEE_NATIONS)) == Counter(set(expected))


@pytest.mark.parametrize("config", ["best", "default"])
def test_aggregates_over_deduplicated_union(engines, saturated, config):
    engine = engines[config]
    assert engine.unfold(LICENSEE_INTEREST).duplicate_blocks > 0
    expected = query_graph(saturated, LICENSEE_INTEREST)
    assert expected.rows[0][0].to_python() > 0  # some licensee matches
    # the same terms, datatypes included: COUNT is xsd:integer, and MAX,
    # SUM and AVG of xsd:double values are xsd:double
    assert engine.execute(LICENSEE_INTEREST).rows == expected.rows


@pytest.mark.parametrize("config", ["best", "default"])
def test_aggregates_keep_their_argument_type(engines, saturated, config):
    (row,) = engines[config].execute(LICENCE_YEARS).rows
    assert row == query_graph(saturated, LICENCE_YEARS).rows[0]
    assert {term.datatype for term in row} == {XSD_INTEGER}


#: (union_blocks, duplicate_blocks) of the catalogue queries that
#: repeated the most blocks before load-time containment, and of the
#: probe that still repeats one
BLOCK_COUNTS = {
    "best": {"q1": (1, 0), "q3": (1, 0), "q6": (2, 0), "licensee": (1, 1)},
    "default": {"q1": (8, 0), "q3": (8, 0), "q6": (16, 0), "licensee": (1, 1)},
}


@pytest.mark.parametrize("config", ["best", "default"])
def test_repeated_blocks_are_dropped(engines, queries, config):
    texts = {**queries, "licensee": LICENSEE_NATIONS}
    counts = {}
    for name in BLOCK_COUNTS[config]:
        unfolded = engines[config].unfold(texts[name])
        counts[name] = (unfolded.union_blocks, unfolded.duplicate_blocks)
    assert counts == BLOCK_COUNTS[config]


def test_duplicate_blocks_shown_in_explain_and_mixer(engines):
    engine = engines["default"]
    union_blocks, duplicate_blocks = BLOCK_COUNTS["default"]["licensee"]
    line = f"unfolding: union_blocks={union_blocks} duplicate_blocks={duplicate_blocks} "
    assert any(text.startswith(line) for text in engine.explain(LICENSEE_NATIONS))
    report = Mixer(
        OBDASystemAdapter(engine), {"licensee": LICENSEE_NATIONS}, warmup_runs=0
    ).run(runs=1)
    quality = report.per_query["licensee"].quality
    assert (quality["sql_union_blocks"], quality["sql_duplicate_blocks"]) == (
        union_blocks,
        duplicate_blocks,
    )


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
