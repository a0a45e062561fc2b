"""Phase 4 (SQL values back to RDF terms): the per-column translators.

``OBDAEngine.execute`` translates a result column by column with a
converter picked once from the column's ``VarMeta`` and a memo that
builds each distinct value's term once per response.  Both must agree
with the per-value definition ``_make_term`` on every edge value.
"""

from __future__ import annotations

import math

import pytest

from repro.obda.system import TRANSLATE_BATCH, _ColumnTranslator, _make_term, _translate_rows
from repro.obda.unfolder import VarMeta
from repro.rdf.terms import (
    IRI,
    Literal,
    TermError,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sql.types import Geometry

METAS = [
    None,
    VarMeta("iri"),
    VarMeta("literal"),
    VarMeta("literal", XSD_STRING),
    VarMeta("literal", XSD_INTEGER),
    VarMeta("literal", XSD_DECIMAL),
    VarMeta("literal", XSD_DOUBLE),
    VarMeta("literal", XSD_BOOLEAN),
    VarMeta("literal", XSD_DATE),
]

EDGE_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -7,
    10**20,
    7.0,
    1.0,
    2.5,
    -3.0,
    0.0,
    -0.0,
    1e300,
    math.nan,
    math.inf,
    -math.inf,
    "",
    "plain text",
    "http://ex.org/a#1",
    "2024-05-17",
    Geometry(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0))),
]


def _reference(value, meta):
    """``_make_term``, or the error type it raises (an IRI from "")."""
    try:
        return _make_term(value, meta)
    except TermError as error:
        return type(error)


def _translated(column, meta):
    try:
        return _ColumnTranslator(meta)(column)
    except TermError as error:
        return type(error)


def _describe(term):
    """Terms compare by value; also pin the class, so IRI("1") != Literal("1")."""
    return term if isinstance(term, type) or term is None else (type(term), term)


@pytest.mark.parametrize("meta", METAS, ids=repr)
class TestConverterParity:
    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_single_value(self, meta, value):
        expected = _reference(value, meta)
        got = _translated([value], meta)
        got = got if isinstance(got, type) else got[0]
        assert _describe(got) == _describe(expected)

    def test_mixed_column(self, meta):
        column = [v for v in EDGE_VALUES if not isinstance(_reference(v, meta), type)]
        expected = [_reference(value, meta) for value in column]
        got = _ColumnTranslator(meta)(column)
        assert list(map(_describe, got)) == list(map(_describe, expected))

    def test_homogeneous_columns_across_batches(self, meta):
        # one translator sees int, float, bool, str and zero-float batches
        # in turn: the memo must never hand one type's term to another
        translate = _ColumnTranslator(meta)
        batches = [
            [1, 1, 2, None],
            [1.0, 1.0, 2.5, None],
            [True, True, False],
            ["1", "1", "x"],
            [0.0, -0.0, 1.0],
            [-0.0, -0.0],
            [1, 1.0, True],
        ]
        for batch in batches:
            expected = [_reference(value, meta) for value in batch]
            got = translate(batch)
            assert list(map(_describe, got)) == list(map(_describe, expected))


class TestMemo:
    def test_distinct_value_built_once(self):
        translate = _ColumnTranslator(VarMeta("literal", XSD_DOUBLE))
        first = translate([2.5, 2.5, 3.5])
        second = translate([3.5, 2.5])
        assert first[0] is first[1] is second[1]
        assert first[2] is second[0]

    def test_one_int_float_bool_never_conflated(self):
        translate = _ColumnTranslator(None)
        assert translate([1]) == [Literal("1", XSD_INTEGER)]
        assert translate([1.0]) == [Literal("1.0", XSD_DOUBLE)]
        assert translate([True]) == [Literal("true", XSD_BOOLEAN)]
        assert translate([1, 1.0, True]) == [
            Literal("1", XSD_INTEGER),
            Literal("1.0", XSD_DOUBLE),
            Literal("true", XSD_BOOLEAN),
        ]

    def test_signed_zeros_keep_their_sign(self):
        translate = _ColumnTranslator(VarMeta("literal", XSD_DOUBLE))
        assert translate([0.0]) == [Literal("0.0", XSD_DOUBLE)]
        assert translate([-0.0]) == [Literal("-0.0", XSD_DOUBLE)]
        assert translate([0.0, -0.0]) == [
            Literal("0.0", XSD_DOUBLE),
            Literal("-0.0", XSD_DOUBLE),
        ]

    def test_str_under_iri_meta_and_no_meta(self):
        assert _ColumnTranslator(VarMeta("iri"))(["http://ex.org/a"]) == [
            IRI("http://ex.org/a")
        ]
        assert _ColumnTranslator(None)(["http://ex.org/a"]) == [
            Literal("http://ex.org/a", XSD_STRING)
        ]


class TestTranslateRows:
    def test_rows_match_make_term(self):
        metas = [VarMeta("iri"), VarMeta("literal", XSD_INTEGER), None]
        values = [
            (f"http://ex.org/{index % 7}", index % 3 or None, float(index % 5))
            for index in range(2 * TRANSLATE_BATCH + 10)
        ]
        expected = [
            tuple(_make_term(value, meta) for value, meta in zip(row, metas))
            for row in values
        ]
        assert _translate_rows(values, metas) == expected

    def test_zero_columns_keep_the_row_count(self):
        assert _translate_rows([(), (), ()], []) == [(), (), ()]

    def test_polls_the_token_once_per_batch(self):
        class CountingToken:
            checks = 0

            def check(self):
                self.checks += 1

        token = CountingToken()
        values = [(index,) for index in range(2 * TRANSLATE_BATCH + 1)]
        _translate_rows(values, [VarMeta("literal", XSD_INTEGER)], token)
        assert token.checks == 3
