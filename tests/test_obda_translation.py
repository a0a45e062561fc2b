"""Phase 4 (SQL values back to RDF terms): the column encoder.

``OBDAEngine.execute`` dictionary-encodes a result column by column: each
distinct value (keyed by type and value) is translated once into an
entry by the rule picked from the column's ``VarMeta``, and the column
becomes a list of codes.  Its term view must agree with the per-value
definition ``_make_term`` on every edge value.
"""

from __future__ import annotations

import math

import pytest

from repro.obda.system import _encode_answer, _encode_column, _make_term
from repro.obda.unfolder import VarMeta
from repro.rdf.answers import Answer
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
from repro.sql.executor import QueryResult
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


def _encode_rows(values, metas, token=None):
    """``_encode_answer`` over a row-major SQL result of *values*."""
    result = QueryResult([f"c{index}" for index in range(len(metas))], values)
    return _encode_answer(result.value_columns(), len(result), metas, token)


def _reference(value, meta):
    """``_make_term``, or the error type it raises (an IRI from "")."""
    try:
        return _make_term(value, meta)
    except TermError as error:
        return type(error)


def _terms(column, meta):
    """The term view of one encoded column."""
    answer = Answer([_encode_column(column, meta)], len(column))
    return [row[0] for row in answer.rows()]


def _translated(column, meta):
    try:
        return _terms(column, meta)
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
        got = _terms(column, meta)
        assert list(map(_describe, got)) == list(map(_describe, expected))

    def test_homogeneous_columns_across_batches(self, meta):
        # each batch alone and all of them as one column: one type's
        # entry must never be handed to another type's equal value
        batches = [
            [1, 1, 2, None],
            [1.0, 1.0, 2.5, None],
            [True, True, False],
            ["1", "1", "x"],
            [0.0, -0.0, 1.0],
            [-0.0, -0.0],
            [1, 1.0, True],
            [math.nan, math.nan, 2.5],
        ]
        for batch in batches + [sum(batches, [])]:
            expected = [_reference(value, meta) for value in batch]
            got = _terms(batch, meta)
            assert list(map(_describe, got)) == list(map(_describe, expected))


class TestMemo:
    def test_distinct_value_built_once(self):
        column = _encode_column([2.5, 2.5, 3.5, None, 3.5, 2.5], VarMeta("literal", XSD_DOUBLE))
        assert column.codes == [0, 0, 1, 2, 1, 0]
        assert column.entries == [
            ("literal", XSD_DOUBLE, None, "2.5"),
            ("literal", XSD_DOUBLE, None, "3.5"),
            None,
        ]

    def test_one_int_float_bool_never_conflated(self):
        assert _terms([1], None) == [Literal("1", XSD_INTEGER)]
        assert _terms([1.0], None) == [Literal("1.0", XSD_DOUBLE)]
        assert _terms([True], None) == [Literal("true", XSD_BOOLEAN)]
        column = _encode_column([1, 1.0, True, 1], None)
        assert column.codes == [0, 1, 2, 0]
        assert _terms([1, 1.0, True], None) == [
            Literal("1", XSD_INTEGER),
            Literal("1.0", XSD_DOUBLE),
            Literal("true", XSD_BOOLEAN),
        ]

    def test_signed_zeros_keep_their_sign(self):
        meta = VarMeta("literal", XSD_DOUBLE)
        assert _terms([0.0], meta) == [Literal("0.0", XSD_DOUBLE)]
        assert _terms([-0.0], meta) == [Literal("-0.0", XSD_DOUBLE)]
        assert _terms([0.0, -0.0, 0.0], meta) == [
            Literal("0.0", XSD_DOUBLE),
            Literal("-0.0", XSD_DOUBLE),
            Literal("0.0", XSD_DOUBLE),
        ]
        assert _encode_column([0.0, -0.0, 0.0, -0.0], meta).codes == [0, 1, 0, 1]

    def test_nan_is_never_shared_with_another_value(self):
        meta = VarMeta("literal", XSD_DOUBLE)
        nan = math.nan
        column = _encode_column([nan, float("nan"), nan, 1.0], meta)
        assert column.entries[column.codes[3]] == ("literal", XSD_DOUBLE, None, "1.0")
        assert {column.entries[code] for code in column.codes[:3]} == {
            ("literal", XSD_DOUBLE, None, "nan")
        }

    def test_str_under_iri_meta_and_no_meta(self):
        assert _terms(["http://ex.org/a"], VarMeta("iri")) == [IRI("http://ex.org/a")]
        assert _terms(["http://ex.org/a"], None) == [
            Literal("http://ex.org/a", XSD_STRING)
        ]

    @pytest.mark.parametrize(
        "value", ["", "http://ex.org/a b", "http://ex.org/<a>", 'http://ex.org/"']
    )
    def test_invalid_iri_raises_what_the_term_raises(self, value):
        column = ["http://ex.org/a", value, "http://ex.org/b"]
        with pytest.raises(TermError) as expected:
            IRI(value)
        with pytest.raises(TermError) as got:
            _encode_column(column, VarMeta("iri"))
        assert str(got.value) == str(expected.value)


class TestTranslateRows:
    def test_rows_match_make_term(self):
        metas = [VarMeta("iri"), VarMeta("literal", XSD_INTEGER), None]
        values = [
            (f"http://ex.org/{index % 7}", index % 3 or None, float(index % 5))
            for index in range(8202)
        ]
        expected = [
            tuple(_make_term(value, meta) for value, meta in zip(row, metas))
            for row in values
        ]
        assert _encode_rows(values, metas).rows() == expected

    def test_zero_columns_keep_the_row_count(self):
        answer = _encode_rows([(), (), ()], [])
        assert len(answer) == 3
        assert answer.rows() == [(), (), ()]

    def test_no_rows_keep_the_columns(self):
        answer = _encode_rows([], [VarMeta("iri"), None])
        assert len(answer) == 0 and len(answer.columns) == 2
        assert answer.rows() == []

    def test_polls_the_token_once_per_column(self):
        class CountingToken:
            checks = 0

            def check(self):
                self.checks += 1

        token = CountingToken()
        values = [(index, index) for index in range(8193)]
        _encode_rows(values, [VarMeta("literal", XSD_INTEGER)] * 2, token)
        assert token.checks == 2
