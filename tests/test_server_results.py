"""Round-trip tests: result serializers vs their reference parsers."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random

import pytest

from repro.diffcheck.normalize import canonical_bag
from repro.obda.system import _encode_answer, _make_term
from repro.obda.unfolder import VarMeta
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sql.executor import QueryResult
from repro.server import (
    NotAcceptable,
    negotiate,
    parse_csv_results,
    parse_json_results,
    parse_ntriples_results,
    parse_tsv_results,
    parse_xml_results,
    write_csv,
    write_json,
    write_ntriples,
    write_tsv,
    write_xml,
)
from repro.server.results import WRITERS

from test_unfolder_residue import BULK_QUERIES

ROUND_TRIP = [
    ("json", write_json, parse_json_results),
    ("xml", write_xml, parse_xml_results),
    ("tsv", write_tsv, parse_tsv_results),
]

# every term shape the OBDA translator can produce, plus tricky lexicals
TRICKY_VARIABLES = ["s", "value", "note"]
TRICKY_ROWS = [
    (IRI("http://ex.org/a#1"), Literal("42", XSD_INTEGER), Literal("plain")),
    (IRI("http://ex.org/a#2"), Literal("3.25", XSD_DECIMAL), None),
    (BNode("b0"), Literal("1.5e3", XSD_DOUBLE), Literal("hei", language="no")),
    (IRI("http://ex.org/a#3"), Literal("2024-05-17", XSD_DATE), None),
    (None, None, Literal('quote " and\ttab and\nnewline')),
    (IRI("http://ex.org/a#1"), Literal("42", XSD_INTEGER), Literal("plain")),
]


def render(writer, variables, rows) -> bytes:
    return b"".join(writer(variables, rows))


class TestSyntheticRoundTrip:
    @pytest.mark.parametrize("name,writer,parser", ROUND_TRIP)
    def test_tricky_terms_round_trip(self, name, writer, parser):
        payload = render(writer, TRICKY_VARIABLES, TRICKY_ROWS)
        variables, rows = parser(payload)
        assert variables == TRICKY_VARIABLES
        assert canonical_bag(variables, rows) == canonical_bag(
            TRICKY_VARIABLES, TRICKY_ROWS
        )
        # duplicates preserved (bag semantics)
        assert len(rows) == len(TRICKY_ROWS)

    def test_csv_is_lossy_but_value_faithful(self):
        payload = render(write_csv, TRICKY_VARIABLES, TRICKY_ROWS)
        variables, rows = parse_csv_results(payload)
        assert variables == TRICKY_VARIABLES
        assert len(rows) == len(TRICKY_ROWS)
        # lexical forms survive even though type info does not
        for original, parsed in zip(TRICKY_ROWS, rows):
            for term, cell in zip(original, parsed):
                if term is None:
                    assert cell is None
                elif isinstance(term, IRI):
                    assert cell.lexical == term.value
                elif isinstance(term, Literal):
                    assert cell.lexical == term.lexical

    def test_empty_result_round_trips(self):
        for name, writer, parser in ROUND_TRIP:
            variables, rows = parser(render(writer, ["x", "y"], []))
            assert variables == ["x", "y"]
            assert rows == []

    def test_ntriples_round_trip_and_skips(self):
        variables = ["s", "p", "o"]
        rows = [
            (IRI("http://ex.org/s"), IRI("http://ex.org/p"), Literal("v")),
            (IRI("http://ex.org/s"), IRI("http://ex.org/p"), Literal("v")),
            (None, IRI("http://ex.org/p"), Literal("skipped: unbound")),
            (Literal("bad"), IRI("http://ex.org/p"), Literal("skipped: subject")),
            (IRI("http://ex.org/s"), Literal("bad"), Literal("skipped: predicate")),
            (BNode("b1"), IRI("http://ex.org/p"), IRI("http://ex.org/o")),
        ]
        payload = render(write_ntriples, variables, rows)
        _, parsed = parse_ntriples_results(payload)
        assert len(parsed) == 3  # two valid + one duplicate, three skipped
        assert canonical_bag(variables, parsed) == canonical_bag(
            variables, [rows[0], rows[1], rows[5]]
        )

    def test_ntriples_requires_three_columns(self):
        with pytest.raises(ValueError):
            list(write_ntriples(["a", "b"], []))

    def test_writers_stream_in_chunks(self):
        rows = [
            (IRI(f"http://ex.org/{index}"), Literal(str(index), XSD_INTEGER))
        for index in range(1000)]
        chunks = list(write_json(["s", "n"], rows))
        assert len(chunks) > 2  # not one monolithic body


class TestCatalogueRoundTrip:
    """All 21 catalogue query results survive every serializer."""

    @pytest.fixture(scope="class")
    def catalogue_results(self, npd_benchmark, npd_engine):
        results = {}
        for query_id in sorted(npd_benchmark.queries):
            result = npd_engine.execute(npd_benchmark.queries[query_id].sparql)
            results[query_id] = (result.variables, result.rows)
        return results

    def test_catalogue_has_expected_size(self, catalogue_results):
        assert len(catalogue_results) == 21

    @pytest.mark.parametrize("name,writer,parser", ROUND_TRIP)
    def test_all_queries_round_trip(self, catalogue_results, name, writer, parser):
        for query_id, (variables, rows) in catalogue_results.items():
            payload = render(writer, variables, rows)
            parsed_variables, parsed_rows = parser(payload)
            assert parsed_variables == list(variables), f"{query_id} via {name}"
            assert canonical_bag(parsed_variables, parsed_rows) == canonical_bag(
                variables, rows
            ), f"{query_id} via {name}: bags differ"

    def test_all_queries_csv_shape(self, catalogue_results):
        for query_id, (variables, rows) in catalogue_results.items():
            payload = render(write_csv, variables, rows)
            parsed_variables, parsed_rows = parse_csv_results(payload)
            assert parsed_variables == list(variables), query_id
            assert len(parsed_rows) == len(rows), query_id


class TestNegotiation:
    def test_default_is_json(self):
        assert negotiate(None) == "json"
        assert negotiate("*/*") == "json"
        assert negotiate("") == "json"

    def test_explicit_media_types(self):
        assert negotiate("application/sparql-results+json") == "json"
        assert negotiate("application/sparql-results+xml") == "xml"
        assert negotiate("text/csv") == "csv"
        assert negotiate("text/tab-separated-values") == "tsv"
        assert negotiate("application/n-triples") == "ntriples"

    def test_quality_ordering(self):
        picked = negotiate("text/csv;q=0.3, application/sparql-results+xml;q=0.9")
        assert picked == "xml"

    def test_format_param_wins(self):
        assert negotiate("text/csv", "tsv") == "tsv"
        assert negotiate(None, "text/csv") == "csv"

    def test_unknown_rejected(self):
        with pytest.raises(NotAcceptable):
            negotiate("application/pdf")
        with pytest.raises(NotAcceptable):
            negotiate(None, "yaml")

    def test_wildcard_families(self):
        assert negotiate("text/*") == "csv"
        assert negotiate("application/*") == "json"


# -- byte goldens ----------------------------------------------------------
#
# Literal bodies produced by the row-at-a-time writers that preceded the
# column codecs: repeated terms (one object and equal objects), unbound
# cells, XML and CSV special characters, non-ASCII text, and terms that
# differ only by datatype, language or IRI-vs-literal.

_EX = "http://ex.org/"
_ONE = Literal("1", XSD_INTEGER)
_SUBJECT = IRI(_EX + "s?a=1&b=2")
GOLDEN_ROWS = [
    (_SUBJECT, IRI(_EX + "p"), _ONE),
    (_SUBJECT, IRI(_EX + "p"), _ONE),
    (IRI(_EX + "s?a=1&b=2"), IRI(_EX + "p"), Literal("1", XSD_INTEGER)),
    (BNode("b0"), IRI(_EX + "p"), Literal("1", XSD_DECIMAL)),
    (BNode("b0"), IRI(_EX + "p"), Literal("1")),
    (IRI(_EX + "t"), IRI(_EX + "q"), Literal("1", language="en")),
    (IRI(_EX + "t"), None, Literal('<a href="x">&amp;</a>')),
    (None, IRI(_EX + "q"), Literal('comma, "quote"\r\nline')),
    (IRI(_EX + "t"), IRI(_EX + "q"), Literal("\u00c6rfugl \u2013 tab\there", language="no")),
    (IRI(_EX + "t"), IRI(_EX + "q"), IRI(_EX + "1")),
    (IRI(_EX + "t"), IRI(_EX + "q"), Literal(_EX + "1")),
    (None, None, None),
    (Literal("lit-subject"), IRI(_EX + "q"), Literal("2024-05-17", XSD_DATE)),
    (IRI(_EX + "t"), IRI(_EX + "q"), Literal("", XSD_STRING)),
]
#: a single column, where CSV must quote an unbound cell
GOLDEN_ONE_COLUMN_ROWS = [(None,), (Literal("a"),), (None,)]

GOLDEN = {
    "json": (
        b'{"head": {"vars": ["s", "p", "o"]}, "results": {"bindings": [{"s": {"t'
        b'ype": "uri", "value": "http://ex.org/s?a=1&b=2"}, "p": {"type": "uri",'
        b' "value": "http://ex.org/p"}, "o": {"type": "literal", "value": "1", "'
        b'datatype": "http://www.w3.org/2001/XMLSchema#integer"}},{"s": {"type":'
        b' "uri", "value": "http://ex.org/s?a=1&b=2"}, "p": {"type": "uri", "val'
        b'ue": "http://ex.org/p"}, "o": {"type": "literal", "value": "1", "datat'
        b'ype": "http://www.w3.org/2001/XMLSchema#integer"}},{"s": {"type": "uri'
        b'", "value": "http://ex.org/s?a=1&b=2"}, "p": {"type": "uri", "value": '
        b'"http://ex.org/p"}, "o": {"type": "literal", "value": "1", "datatype":'
        b' "http://www.w3.org/2001/XMLSchema#integer"}},{"s": {"type": "bnode", '
        b'"value": "b0"}, "p": {"type": "uri", "value": "http://ex.org/p"}, "o":'
        b' {"type": "literal", "value": "1", "datatype": "http://www.w3.org/2001'
        b'/XMLSchema#decimal"}},{"s": {"type": "bnode", "value": "b0"}, "p": {"t'
        b'ype": "uri", "value": "http://ex.org/p"}, "o": {"type": "literal", "va'
        b'lue": "1"}},{"s": {"type": "uri", "value": "http://ex.org/t"}, "p": {"'
        b'type": "uri", "value": "http://ex.org/q"}, "o": {"type": "literal", "v'
        b'alue": "1", "xml:lang": "en"}},{"s": {"type": "uri", "value": "http://'
        b'ex.org/t"}, "o": {"type": "literal", "value": "<a href=\\"x\\">&amp;</'
        b'a>"}},{"p": {"type": "uri", "value": "http://ex.org/q"}, "o": {"type":'
        b' "literal", "value": "comma, \\"quote\\"\\r\\nline"}},{"s": {"type": "'
        b'uri", "value": "http://ex.org/t"}, "p": {"type": "uri", "value": "http'
        b'://ex.org/q"}, "o": {"type": "literal", "value": "\\u00c6rfugl \\u2013'
        b' tab\\there", "xml:lang": "no"}},{"s": {"type": "uri", "value": "http:'
        b'//ex.org/t"}, "p": {"type": "uri", "value": "http://ex.org/q"}, "o": {'
        b'"type": "uri", "value": "http://ex.org/1"}},{"s": {"type": "uri", "val'
        b'ue": "http://ex.org/t"}, "p": {"type": "uri", "value": "http://ex.org/'
        b'q"}, "o": {"type": "literal", "value": "http://ex.org/1"}},{},{"s": {"'
        b'type": "literal", "value": "lit-subject"}, "p": {"type": "uri", "value'
        b'": "http://ex.org/q"}, "o": {"type": "literal", "value": "2024-05-17",'
        b' "datatype": "http://www.w3.org/2001/XMLSchema#date"}},{"s": {"type": '
        b'"uri", "value": "http://ex.org/t"}, "p": {"type": "uri", "value": "htt'
        b'p://ex.org/q"}, "o": {"type": "literal", "value": ""}}]}}'
    ),
    "xml": (
        b'<?xml version="1.0"?><sparql xmlns="http://www.w3.org/2005/sparql-resu'
        b'lts#"><head><variable name="s"/><variable name="p"/><variable name="o"'
        b'/></head><results><result><binding name="s"><uri>http://ex.org/s?a=1&a'
        b'mp;b=2</uri></binding><binding name="p"><uri>http://ex.org/p</uri></bi'
        b'nding><binding name="o"><literal datatype="http://www.w3.org/2001/XMLS'
        b'chema#integer">1</literal></binding></result><result><binding name="s"'
        b'><uri>http://ex.org/s?a=1&amp;b=2</uri></binding><binding name="p"><ur'
        b'i>http://ex.org/p</uri></binding><binding name="o"><literal datatype="'
        b'http://www.w3.org/2001/XMLSchema#integer">1</literal></binding></resul'
        b't><result><binding name="s"><uri>http://ex.org/s?a=1&amp;b=2</uri></bi'
        b'nding><binding name="p"><uri>http://ex.org/p</uri></binding><binding n'
        b'ame="o"><literal datatype="http://www.w3.org/2001/XMLSchema#integer">1'
        b'</literal></binding></result><result><binding name="s"><bnode>b0</bnod'
        b'e></binding><binding name="p"><uri>http://ex.org/p</uri></binding><bin'
        b'ding name="o"><literal datatype="http://www.w3.org/2001/XMLSchema#deci'
        b'mal">1</literal></binding></result><result><binding name="s"><bnode>b0'
        b'</bnode></binding><binding name="p"><uri>http://ex.org/p</uri></bindin'
        b'g><binding name="o"><literal>1</literal></binding></result><result><bi'
        b'nding name="s"><uri>http://ex.org/t</uri></binding><binding name="p"><'
        b'uri>http://ex.org/q</uri></binding><binding name="o"><literal xml:lang'
        b'="en">1</literal></binding></result><result><binding name="s"><uri>htt'
        b'p://ex.org/t</uri></binding><binding name="o"><literal>&lt;a href="x"&'
        b"gt;&amp;amp;&lt;/a&gt;</literal></binding></result><result><binding na"
        b'me="p"><uri>http://ex.org/q</uri></binding><binding name="o"><literal>'
        b'comma, "quote"\r\nline</literal></binding></result><result><binding na'
        b'me="s"><uri>http://ex.org/t</uri></binding><binding name="p"><uri>http'
        b'://ex.org/q</uri></binding><binding name="o"><literal xml:lang="no">'
        b"\xc3\x86rfugl \xe2\x80\x93 tab\there</literal></binding></result><resu"
        b'lt><binding name="s"><uri>http://ex.org/t</uri></binding><binding name'
        b'="p"><uri>http://ex.org/q</uri></binding><binding name="o"><uri>http:/'
        b'/ex.org/1</uri></binding></result><result><binding name="s"><uri>http:'
        b'//ex.org/t</uri></binding><binding name="p"><uri>http://ex.org/q</uri>'
        b'</binding><binding name="o"><literal>http://ex.org/1</literal></bindin'
        b'g></result><result></result><result><binding name="s"><literal>lit-sub'
        b'ject</literal></binding><binding name="p"><uri>http://ex.org/q</uri></'
        b'binding><binding name="o"><literal datatype="http://www.w3.org/2001/XM'
        b'LSchema#date">2024-05-17</literal></binding></result><result><binding '
        b'name="s"><uri>http://ex.org/t</uri></binding><binding name="p"><uri>ht'
        b'tp://ex.org/q</uri></binding><binding name="o"><literal></literal></bi'
        b"nding></result></results></sparql>"
    ),
    "csv": (
        b"s,p,o\r\nhttp://ex.org/s?a=1&b=2,http://ex.org/p,1\r\nhttp://ex.org/s?"
        b"a=1&b=2,http://ex.org/p,1\r\nhttp://ex.org/s?a=1&b=2,http://ex.org/p,1"
        b"\r\n_:b0,http://ex.org/p,1\r\n_:b0,http://ex.org/p,1\r\nhttp://ex.org/"
        b't,http://ex.org/q,1\r\nhttp://ex.org/t,,"<a href=""x"">&amp;</a>"\r\n,'
        b'http://ex.org/q,"comma, ""quote""\r\nline"\r\nhttp://ex.org/t,http://e'
        b"x.org/q,\xc3\x86rfugl \xe2\x80\x93 tab\there\r\nhttp://ex.org/t,http:/"
        b"/ex.org/q,http://ex.org/1\r\nhttp://ex.org/t,http://ex.org/q,http://ex"
        b".org/1\r\n,,\r\nlit-subject,http://ex.org/q,2024-05-17\r\nhttp://ex.or"
        b"g/t,http://ex.org/q,\r\n"
    ),
    "tsv": (
        b'?s\t?p\t?o\n<http://ex.org/s?a=1&b=2>\t<http://ex.org/p>\t"1"^^<http:/'
        b"/www.w3.org/2001/XMLSchema#integer>\n<http://ex.org/s?a=1&b=2>\t<http:"
        b'//ex.org/p>\t"1"^^<http://www.w3.org/2001/XMLSchema#integer>\n<http://'
        b'ex.org/s?a=1&b=2>\t<http://ex.org/p>\t"1"^^<http://www.w3.org/2001/XML'
        b'Schema#integer>\n_:b0\t<http://ex.org/p>\t"1"^^<http://www.w3.org/2001'
        b'/XMLSchema#decimal>\n_:b0\t<http://ex.org/p>\t"1"\n<http://ex.org/t>\t'
        b'<http://ex.org/q>\t"1"@en\n<http://ex.org/t>\t\t"<a href=\\"x\\">&amp;'
        b'</a>"\n\t<http://ex.org/q>\t"comma, \\"quote\\"\\r\\nline"\n<http://ex'
        b'.org/t>\t<http://ex.org/q>\t"\xc3\x86rfugl \xe2\x80\x93 tab\\there"@no'
        b"\n<http://ex.org/t>\t<http://ex.org/q>\t<http://ex.org/1>\n<http://ex."
        b'org/t>\t<http://ex.org/q>\t"http://ex.org/1"\n\t\t\n"lit-subject"\t<ht'
        b'tp://ex.org/q>\t"2024-05-17"^^<http://www.w3.org/2001/XMLSchema#date>'
        b'\n<http://ex.org/t>\t<http://ex.org/q>\t""\n'
    ),
    "ntriples": (
        b'<http://ex.org/s?a=1&b=2> <http://ex.org/p> "1"^^<http://www.w3.org/20'
        b'01/XMLSchema#integer> .\n<http://ex.org/s?a=1&b=2> <http://ex.org/p> "'
        b'1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n<http://ex.org/s?a=1'
        b'&b=2> <http://ex.org/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer'
        b'> .\n_:b0 <http://ex.org/p> "1"^^<http://www.w3.org/2001/XMLSchema#dec'
        b'imal> .\n_:b0 <http://ex.org/p> "1" .\n<http://ex.org/t> <http://ex.or'
        b'g/q> "1"@en .\n<http://ex.org/t> <http://ex.org/q> "\xc3\x86rfugl \xe2'
        b'\x80\x93 tab\\there"@no .\n<http://ex.org/t> <http://ex.org/q> <http:/'
        b'/ex.org/1> .\n<http://ex.org/t> <http://ex.org/q> "http://ex.org/1" .'
        b'\n<http://ex.org/t> <http://ex.org/q> "" .\n'
    ),
}
GOLDEN_ONE_COLUMN = {
    "json": (
        b'{"head": {"vars": ["x"]}, "results": {"bindings": [{},{"x": {"type": "'
        b'literal", "value": "a"}},{}]}}'
    ),
    "xml": (
        b'<?xml version="1.0"?><sparql xmlns="http://www.w3.org/2005/sparql-resu'
        b'lts#"><head><variable name="x"/></head><results><result></result><resu'
        b'lt><binding name="x"><literal>a</literal></binding></result><result></'
        b"result></results></sparql>"
    ),
    "csv": (
        b'x\r\n""\r\na\r\n""\r\n'
    ),
    "tsv": (
        b'?x\n\n"a"\n\n'
    ),
}
GOLDEN_X300_SHA1 = {
    "json": "65c71e9ef81e6bc2a65ec067ccf8cc1c457fbd61",
    "xml": "1b369536ca436c1366bed3910d98743c2eb21992",
    "csv": "0138afe57154e83bea413dd683bff3241cf9c23e",
    "tsv": "bd532dbfbdc7d64430e84bd28dfc154e4aa74635",
    "ntriples": "4131913bc5ef3536ce42ef8dd04eeef156cbda88",
}



class TestByteGolden:
    @pytest.mark.parametrize("format_key", sorted(WRITERS))
    def test_three_columns(self, format_key):
        body = render(WRITERS[format_key], ["s", "p", "o"], GOLDEN_ROWS)
        assert body == GOLDEN[format_key]

    @pytest.mark.parametrize("format_key", sorted(GOLDEN_ONE_COLUMN))
    def test_one_column(self, format_key):
        body = render(WRITERS[format_key], ["x"], GOLDEN_ONE_COLUMN_ROWS)
        assert body == GOLDEN_ONE_COLUMN[format_key]

    @pytest.mark.parametrize("format_key", sorted(WRITERS))
    def test_many_chunks(self, format_key):
        # 4 200 rows: terms recur across chunk boundaries
        body = render(WRITERS[format_key], ["s", "p", "o"], GOLDEN_ROWS * 300)
        assert hashlib.sha1(body).hexdigest() == GOLDEN_X300_SHA1[format_key]


# -- the encoded answer path -------------------------------------------------
#
# The server writes from ``OBDAResult.answer`` (each column's distinct
# entries plus codes); in-process callers and these tests may hand the
# writers rows of terms instead.  Both must give the same bytes.

_IRI_VALUES = ["http://ex.org/a#1", "http://ex.org/ø", "urn:x:y", 1, "http://ex.org/a#1"]
_SQL_VALUES = [
    None,
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    1,
    1.0,
    True,
    False,
    7.0,
    -3.0,
    2.5,
    10**20,
    "",
    'say "hi", ok',
    "line\nbreak\r\nend",
    "tab\there",
    "<&> 'x'",
    "Ærfugl – ø",
    "comma,value",
    "http://ex.org/a#1",
]
_METAS = [
    None,
    VarMeta("iri"),
    VarMeta("literal", XSD_STRING),
    VarMeta("literal", XSD_INTEGER),
    VarMeta("literal", XSD_DECIMAL),
    VarMeta("literal", XSD_DOUBLE),
    VarMeta("literal", XSD_BOOLEAN),
    VarMeta("literal", XSD_DATE),
]


_TEXTS = ["", 'say "hi", ok', "line\nbreak\r\nend", "tab\there", "<&> 'x'", "Ærfugl – ø", "c,v"]
_FLOATS = [2.5, -0.25, 1e-07, 1.5e300, math.inf, -math.inf, math.nan, 7.0]
#: (values of one type, metas under which every value translates to one
#: form with text ``str(value)``): the encoder keeps such a column as one
#: form and its texts
_SINGLE_FORM = [
    (
        ["http://ex.org/a#1", "http://ex.org/ø", "urn:x:'y'", "http://ex.org/a&b,c"],
        [VarMeta("iri")],
    ),
    ([1, 20, -3], [VarMeta("iri")]),
    (
        _TEXTS,
        [None, VarMeta("literal", XSD_STRING), VarMeta("literal", XSD_INTEGER),
         VarMeta("literal", XSD_DATE)],
    ),
    (
        [0, 1, -7, 10**20, 42],
        [None, VarMeta("literal", XSD_STRING), VarMeta("literal", XSD_INTEGER),
         VarMeta("literal", XSD_DECIMAL), VarMeta("literal", XSD_DOUBLE)],
    ),
    (
        _FLOATS,
        [None, VarMeta("literal", XSD_STRING), VarMeta("literal", XSD_DOUBLE),
         VarMeta("literal", XSD_DATE)],
    ),
]
#: columns the encoder keeps as whole entries: more than one form, or a
#: text that is not ``str(value)``
_MIXED_FORM = [
    ([1, "1", 2.5], [None, VarMeta("literal", XSD_STRING)]),
    (_FLOATS, [VarMeta("literal", XSD_INTEGER), VarMeta("literal", XSD_DECIMAL)]),
    ([True, False], [None, VarMeta("literal", XSD_BOOLEAN)]),
    ([0.0, -0.0, 1.5], [VarMeta("literal", XSD_DOUBLE)]),
]


def _encode_rows(values, metas, token=None):
    """``_encode_answer`` over a row-major SQL result of *values*."""
    result = QueryResult([f"c{index}" for index in range(len(metas))], values)
    return _encode_answer(result.value_columns(), len(result), metas, token)


def _term_rows(values, metas):
    return [tuple(_make_term(v, m) for v, m in zip(row, metas)) for row in values]


class TestEncodedAnswerBytes:
    @pytest.mark.parametrize("seed", range(40))
    def test_entry_path_equals_term_path(self, seed):
        rng = random.Random(seed)
        width = 3 if seed % 2 else rng.randint(1, 4)
        metas = [rng.choice(_METAS) for _ in range(width)]
        if width == 3 and seed % 4 == 1:  # N-Triples-shaped: IRI, IRI, any
            metas[:2] = [VarMeta("iri"), VarMeta("iri")]
        pools = [
            _IRI_VALUES + [None] if meta is not None and meta.kind == "iri" else _SQL_VALUES
            for meta in metas
        ]
        values = [
            tuple(rng.choice(pool) for pool in pools)
            for _ in range(rng.randint(0, 700))
        ]
        variables = [f"v{index}" for index in range(width)]
        answer = _encode_rows(values, metas)
        rows = _term_rows(values, metas)
        assert answer.rows() == rows
        for format_key in sorted(WRITERS):
            if format_key == "ntriples" and width != 3:
                continue
            assert render(WRITERS[format_key], variables, answer) == render(
                WRITERS[format_key], variables, rows
            ), format_key

    @pytest.mark.parametrize("seed", range(30))
    def test_single_and_mixed_form_columns(self, seed):
        rng = random.Random(seed)
        width = 3 if seed % 3 == 0 else rng.randint(1, 4)
        kinds = [rng.choice(["single", "single", "mixed"]) for _ in range(width)]
        if seed % 3 == 0:  # N-Triples-shaped: two IRI columns first
            kinds[:2] = ["iri", "iri"]
        pools, metas = [], []
        for kind in kinds:
            pool, pool_metas = rng.choice(
                _MIXED_FORM if kind == "mixed" else _SINGLE_FORM[:1] if kind == "iri"
                else _SINGLE_FORM
            )
            pools.append(pool + [None] if rng.random() < 0.5 else pool)
            metas.append(rng.choice(pool_metas))
        size = rng.randint(12, 600)
        columns = []
        for pool in pools:  # every value of the pool at least once
            column = pool + [rng.choice(pool) for _ in range(size - len(pool))]
            rng.shuffle(column)
            columns.append(column)
        values = list(zip(*columns))
        variables = [f"v{index}" for index in range(width)]
        answer = _encode_rows(values, metas)
        for kind, column in zip(kinds, answer.columns):
            assert (column.form is None) == (kind == "mixed")
        rows = _term_rows(values, metas)
        assert answer.rows() == rows
        for format_key in sorted(WRITERS):
            if format_key == "ntriples" and width != 3:
                continue
            assert render(WRITERS[format_key], variables, answer) == render(
                WRITERS[format_key], variables, rows
            ), format_key

    def test_csv_quoting_is_csv_writers(self):
        rng = random.Random(7)
        alphabet = 'ab ,"\r\n\tø;'
        texts = [""] + [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            for _ in range(400)
        ]
        for width in (1, 2, 3):
            rows = [
                tuple(Literal(rng.choice(texts)) for _ in range(width))
                for _ in range(200)
            ]
            variables = ["x", "y z", 'q"'][:width]
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\r\n")
            writer.writerow(variables)
            writer.writerows([term.lexical for term in row] for row in rows)
            assert render(write_csv, variables, rows) == expected.getvalue().encode()

    def test_zero_columns(self):
        answer = _encode_rows([(), ()], [])
        for format_key in ("json", "xml", "csv", "tsv"):
            assert render(WRITERS[format_key], [], answer) == render(
                WRITERS[format_key], [], [(), ()]
            )


class TestEngineAnswerBytes:
    @pytest.mark.parametrize("config", ["best", "default"])
    def test_catalogue_and_bulk_bodies_equal_the_term_path(self, engines_s025, config):
        engines, queries = engines_s025
        engine = engines[config]
        for query_id, sparql in sorted(queries.items()):
            result = engine.execute(sparql)
            for format_key in sorted(WRITERS):
                if format_key == "ntriples" and len(result.variables) != 3:
                    continue
                encoded = render(WRITERS[format_key], result.variables, result.answer)
                terms = render(WRITERS[format_key], result.variables, result.rows)
                assert encoded == terms, (query_id, format_key)


#: SHA-1 of the bulk bodies on ``best-s025`` (1 440 rows each): a byte
#: drift in the column encoder and the Term writers together moves these,
#: where comparing the two paths cannot see it
BULK_BODY_SHA1 = {
    ("b1", "json"): "2eeb0a7693e98b032e15bf00b2e71da1805499bc",
    ("b1", "xml"): "5bd0a7e82deb1bd8b00d30d68236e9b1a0ba0be7",
    ("b1", "csv"): "d31fde663a430d846c8525e1ce4745845ccac7dd",
    ("b1", "tsv"): "796a29d9be4dde8fedaf41a9b93d8969bd42a90c",
    ("b2", "json"): "ed7571e28b85cd23ea9cd0cd316dc112f09092ba",
    ("b2", "xml"): "d80463d9bd49ef1f5d04f6e534fe8f4e1fce9a9b",
    ("b2", "csv"): "9486c54d3b720687405cd92ea62da605512819a9",
    ("b2", "tsv"): "4a0e09cc7fe7ee168ae1ff3ce8718214d4e4ab8b",
}


class TestBulkBodyPins:
    @pytest.mark.parametrize("query_id", sorted(BULK_QUERIES))
    def test_bulk_bodies(self, engines_s025, query_id):
        engines, _ = engines_s025
        result = engines["best"].execute(BULK_QUERIES[query_id])
        assert len(result) == 1440
        for format_key in ("json", "xml", "csv", "tsv"):
            body = render(WRITERS[format_key], result.variables, result.answer)
            digest = hashlib.sha1(body).hexdigest()
            assert digest == BULK_BODY_SHA1[query_id, format_key], format_key
