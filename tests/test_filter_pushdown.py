"""A SPARQL FILTER is applied inside every UCQ block it filters.

The unfolder ANDs the translated predicate into the WHERE of each block
of the filtered fragment (``_push_filter``) instead of wrapping the union
in ``SELECT ... FROM (UCQ) fq WHERE ...``; the executors then apply it to
one relation before the joins.  The declined form -- the helper patched
to decline, as the product oracle patches ``_unfold_cq`` -- is the
wrapper, so every answer bag here is compared against it.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.obda.unfolder as unfolder_module
from repro.analysis import analyze
from repro.diffcheck.fuzzer import QueryFuzzer
from repro.npd import build_benchmark
from repro.npd.queries import build_query_set
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.obda.materializer import materialize
from repro.sparql.evaluator import SparqlEvaluator
from repro.sql import ast as sql
from repro.sql.parser import parse_select

from test_unfolder_residue import BULK_QUERIES, FUZZ_COUNT, FUZZ_SEED, SCALE, SEED

EXECUTORS = ("row", "vectorized")
#: catalogue queries with a top-level FILTER over their UCQ
FILTERED = ("q3", "q4", "q6", "q8", "q10", "q16", "q20", "q21")
#: the declined form's join_rows over the pushed form's, at most, at
#: SCALE: measured 2.97-3.33 (q3), 1.41-1.43 (q6) and 2.8 (q20) on the
#: best and default engines, identical on both executors.  Before
#: load-time containment dropped the assertions a sibling covers, the
#: default engine's q3 read 1 368/437 = 3.13 and q6 6 378/4 293 = 1.49;
#: it now reads 561/189 = 2.97 and 1 822/1 274 = 1.43, so q3's bound is
#: 2.9 and the pushed join rows themselves are pinned below
JOIN_ROWS_FACTOR = {"q3": 2.9, "q6": 1.4, "q20": 2.5}
#: the pushed form's join_rows at SCALE, on both executors
PUSHED_JOIN_ROWS = {
    "best": {"q3": 27, "q6": 162, "q20": 216},
    "default": {"q3": 189, "q6": 1274, "q20": 432},
}


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(seed=SEED, profile=SeedProfile().scaled(SCALE))


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


@pytest.fixture(scope="module")
def queries(bench):
    texts = {name: query.sparql for name, query in build_query_set().items()}
    texts.update(BULK_QUERIES)
    graph = materialize(bench.database, bench.mappings).graph
    fuzzer = QueryFuzzer(bench.ontology, bench.mappings, seed=FUZZ_SEED, graph=graph)
    texts.update((query.id, query.sparql) for query in fuzzer.generate(FUZZ_COUNT))
    return texts


def _unfold_declined(engine, text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(unfolder_module, "_push_filter", lambda *args: None)
        return engine.unfold(text)


def _run(database, unfolded, executor):
    """(answer bag, join_rows) of one unfolded query on one executor."""
    if unfolded.statement is None:
        return Counter(), 0
    database.stats.reset()
    result = database.execute_plan(
        database.compile(unfolded.statement), executor=executor
    )
    return Counter(result.rows), database.stats.join_rows


@pytest.mark.parametrize("config", ["best", "default"])
def test_bags_equal_declined_form(bench, engines, queries, config, monkeypatch):
    engine = engines[config]
    changed = []
    for name, text in queries.items():
        pushed = engine.unfold(text)
        declined = _unfold_declined(engine, text, monkeypatch)
        if pushed.sql_text == declined.sql_text:
            continue
        changed.append(name)
        assert pushed.columns == declined.columns, name
        assert pushed.column_meta == declined.column_meta, name
        for executor in EXECUTORS:
            assert (
                _run(bench.database, pushed, executor)[0]
                == _run(bench.database, declined, executor)[0]
            ), (name, executor)
    assert set(FILTERED) <= set(changed)
    assert any(name.startswith("fz") for name in changed)


@pytest.mark.parametrize("config", ["best", "default"])
def test_filtered_catalogue_sql_has_no_wrapper(engines, config):
    catalogue = build_query_set()
    for name in FILTERED:
        assert ") fq WHERE" not in engines[config].unfold(catalogue[name].sparql).sql_text


@pytest.mark.parametrize("config", ["best", "default"])
def test_join_rows_fall(bench, engines, config, monkeypatch):
    catalogue = build_query_set()
    for name, factor in JOIN_ROWS_FACTOR.items():
        text = catalogue[name].sparql
        pushed = engines[config].unfold(text)
        declined = _unfold_declined(engines[config], text, monkeypatch)
        for executor in EXECUTORS:
            pushed_bag, pushed_rows = _run(bench.database, pushed, executor)
            declined_bag, declined_rows = _run(bench.database, declined, executor)
            assert pushed_bag == declined_bag, (name, executor)
            assert pushed_rows == PUSHED_JOIN_ROWS[config][name], (name, executor)
            assert declined_rows >= factor * pushed_rows > 0, (
                name,
                executor,
                declined_rows,
                pushed_rows,
            )


# -- the helper on hand-built statements ---------------------------------------

_PREDICATE = sql.BinaryOp(">", sql.ColumnRef("v_x", "fq"), sql.LiteralValue(5))


def _block(**fields) -> sql.SelectStatement:
    """``SELECT t.a AS v_x FROM t`` with *fields* replaced."""
    base = {
        "items": (sql.SelectItem(sql.ColumnRef("a", "t"), "v_x"),),
        "source": sql.NamedTable("t"),
    }
    base.update(fields)
    return sql.SelectStatement(**base)


def test_helper_pushes_into_every_block():
    statement = parse_select(
        "SELECT t.a AS v_x FROM t WHERE t.b = 1 "
        "UNION SELECT CONCAT('w/', u.c) AS v_x FROM u "
        "UNION ALL SELECT NULL AS v_x FROM w"
    )
    pushed = unfolder_module._push_filter(statement, _PREDICATE)
    assert pushed.to_sql() == (
        "SELECT t.a AS v_x FROM t WHERE ((t.b = 1) AND (t.a > 5)) "
        "UNION SELECT CONCAT('w/', u.c) AS v_x FROM u "
        "WHERE (CONCAT('w/', u.c) > 5) "
        "UNION ALL SELECT NULL AS v_x FROM w WHERE (NULL > 5)"
    )


@pytest.mark.parametrize(
    "fields",
    [
        {"group_by": (sql.ColumnRef("a", "t"),)},
        {"limit": 3},
        {
            "items": (
                sql.SelectItem(
                    sql.FunctionCall("MAX", (sql.ColumnRef("a", "t"),)), "v_x"
                ),
            )
        },
    ],
    ids=["group_by", "limit", "aggregate"],
)
def test_helper_declines_grouped_limited_or_aggregated_blocks(fields):
    plain = _block()
    assert unfolder_module._push_filter(plain, _PREDICATE) is not None
    declining = _block(**fields)
    assert unfolder_module._push_filter(declining, _PREDICATE) is None
    # one such block anywhere in a UNION chain declines the whole chain
    chain = _block(union=sql.UnionTail(declining, all=False))
    assert unfolder_module._push_filter(chain, _PREDICATE) is None


def test_helper_declines_subquery_predicate():
    predicate = sql.BinaryOp(
        "AND",
        _PREDICATE,
        sql.InSubquery(sql.ColumnRef("v_x", "fq"), parse_select("SELECT b FROM u")),
    )
    assert unfolder_module._push_filter(_block(), predicate) is None


# -- FILTER over OPTIONAL ------------------------------------------------------

_OPTIONAL_FILTERS = [
    "FILTER(!BOUND(?n))",
    'FILTER(?n != "John")',
    'FILTER(!BOUND(?n) || ?n = "Lisa")',
]


@pytest.mark.parametrize("condition", _OPTIONAL_FILTERS)
def test_filter_over_optional_matches_plain_evaluator(
    example_db, example_ontology, example_mappings, condition
):
    """The filter tests an optional-side variable, so it must run above
    the LEFT JOIN: the block keeps its WHERE over the join's output."""
    example_db.execute("INSERT INTO temployee VALUES (3, NULL, 'B2')")
    text = (
        "PREFIX : <http://ex.org/>\n"
        "SELECT ?e ?n WHERE { ?e a :Employee . OPTIONAL { ?e :name ?n } "
        f"{condition} }}"
    )
    graph = materialize(example_db, example_mappings).graph
    expected = Counter(SparqlEvaluator(graph).execute(text).to_python_rows())
    assert expected
    for executor in EXECUTORS:
        engine = OBDAEngine(
            example_db, example_ontology, example_mappings, executor=executor
        )
        assert ") fq WHERE" not in engine.unfold(text).sql_text
        assert Counter(engine.execute(text).to_python_rows()) == expected, executor
