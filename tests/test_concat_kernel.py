"""The vectorized executor's CONCAT column kernel equals ``_fn_concat``.

IRI templates unfold to ``CONCAT`` over column references and literals;
the batch path evaluates that shape a column at a time.  Row by row the
kernel must give what the compiled per-row ``_fn_concat`` gives -- the
``str()`` of every part, NULL when any part is NULL -- on a base-table leg
and on a derived-table leg alike.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.sql import ast as sql
from repro.sql.engine import Database
from repro.sql.expressions import _fn_concat
from repro.sql.parser import parse_select

ROWS = [
    (1, 0, -0.0, True, ""),
    (2, None, 1.0, False, "Ærøskøbing ☃"),
    (3, 7, 1e16, None, "x"),
    (4, -3, None, True, None),
]
COLUMNS = ("i", "d", "b", "t")


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE vals "
        "(id INTEGER PRIMARY KEY, i INTEGER, d DOUBLE, b BOOLEAN, t TEXT)"
    )
    database.insert_rows("vals", ROWS)
    return database


def _legs(db):
    """A base-table relation and a derived-table relation over ``vals``."""
    executor = db._vectorized
    base = executor._batch_scan(sql.NamedTable("vals", "v"))
    derived = executor._batch_subquery_scan(
        sql.SubquerySource(parse_select("SELECT id, i, d, b, t FROM vals"), "v")
    )
    return executor, {"base": base, "derived": derived}


def _templates():
    parts = [sql.ColumnRef(column, "v") for column in COLUMNS]
    yield sql.FunctionCall("CONCAT", (sql.LiteralValue("w/"), sql.ColumnRef("id", "v")))
    for part in parts:
        yield sql.FunctionCall(
            "CONCAT", (sql.LiteralValue("w/"), part, sql.LiteralValue("/x"))
        )
        yield sql.FunctionCall("CONCAT", (part, sql.ColumnRef("id", "v")))
    separated = []
    for part in parts:
        separated += [part, sql.LiteralValue("|")]
    yield sql.FunctionCall("CONCAT", tuple(separated))


@pytest.mark.parametrize("leg", ["base", "derived"])
def test_kernel_matches_fn_concat_row_by_row(db, leg):
    executor, relations = _legs(db)
    relation = relations[leg]
    gathered = {
        column: relation.gather_column(position)
        for position, (_, column) in enumerate(relation.schema.fields)
    }
    # the values under test reach the leg unchanged
    values = [value for column in COLUMNS for value in gathered[column]]
    for probe in (None, 0, 1.0, 1e16, True, "", "Ærøskøbing ☃"):
        assert any(type(v) is type(probe) and v == probe for v in values), probe
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in gathered["d"])
    for template in _templates():
        kernel = executor._batch_concat(relation, template)
        assert kernel is not None, template.to_sql()
        expected = [
            _fn_concat(
                *(
                    arg.value
                    if isinstance(arg, sql.LiteralValue)
                    else gathered[arg.name][row]
                    for arg in template.args
                )
            )
            for row in range(relation.size)
        ]
        assert kernel == expected, template.to_sql()
        assert executor._batch_values(relation, template) == expected


def test_kernel_leaves_other_shapes_to_the_compiled_path(db):
    executor, relations = _legs(db)
    relation = relations["base"]
    column = sql.ColumnRef("t", "v")
    for template in (
        sql.FunctionCall("CONCAT", (sql.LiteralValue("a"), sql.LiteralValue("b"))),
        sql.FunctionCall("CONCAT", (sql.LiteralValue(None), column)),
        sql.FunctionCall("CONCAT", (sql.FunctionCall("UPPER", (column,)), column)),
    ):
        assert executor._batch_concat(relation, template) is None
        assert executor._batch_values(relation, template) == [
            executor._compiler(relation.schema).compile(template)(row)
            for row in relation.materialize()
        ]


@pytest.mark.parametrize(
    "source", ["vals v", "(SELECT id, i, d, b, t FROM vals) v"], ids=["base", "derived"]
)
def test_template_projection_over_nulls_matches_row_executor(db, source):
    plan = db.compile(
        "SELECT CONCAT('http://ex.org/w/', v.t) AS w, "
        "CONCAT('http://ex.org/n/', v.i, '/', v.d) AS n, "
        f"CONCAT('http://ex.org/b/', v.b) AS b FROM {source}"
    )
    before = db.stats.batch_blocks
    vectorized = db.execute_plan(plan, executor="vectorized").rows
    assert db.stats.batch_blocks > before
    row = db.execute_plan(plan, executor="row").rows
    assert Counter(vectorized) == Counter(row)
    assert any(value is None for line in row for value in line)
