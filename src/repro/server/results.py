"""Streaming SPARQL result serializers and reference parsers.

Writers are generators yielding UTF-8 byte chunks, so the HTTP layer can
stream a large result straight to the socket without first building the
whole body in memory.  Four query-result formats from the SPARQL 1.1
recommendations are supported (JSON, XML, CSV, TSV) plus an N-Triples
export for three-column results, selected by standard ``Accept``
content negotiation.

The module also ships *reference parsers* for every format.  They exist
for round-trip testing and for the Mixer's HTTP client adapter — each
parser reverses its writer back into ``(variables, rows-of-Terms)``.
CSV is intentionally lossy per the spec (no datatypes, no IRI/literal
distinction); its parser returns plain-string literals and the tests
compare accordingly.
"""

from __future__ import annotations

import csv
import io
import json
import re
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from xml.etree import ElementTree
from xml.sax.saxutils import escape as xml_escape

from ..rdf.answers import BNODE, LITERAL, URI, Answer, Column, Entry, Form, encode_terms
from ..rdf.ntriples import _parse_term
from ..rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_STRING,
    escape_lexical,
    literal_suffix,
)

MIME_JSON = "application/sparql-results+json"
MIME_XML = "application/sparql-results+xml"
MIME_CSV = "text/csv"
MIME_TSV = "text/tab-separated-values"
MIME_NTRIPLES = "application/n-triples"

#: format key -> (mime type used in Content-Type, writer name)
FORMATS: Dict[str, str] = {
    "json": MIME_JSON,
    "xml": MIME_XML,
    "csv": MIME_CSV,
    "tsv": MIME_TSV,
    "ntriples": MIME_NTRIPLES,
}

_MIME_TO_FORMAT = {
    MIME_JSON: "json",
    "application/json": "json",
    MIME_XML: "xml",
    "application/xml": "xml",
    "text/xml": "xml",
    MIME_CSV: "csv",
    MIME_TSV: "tsv",
    MIME_NTRIPLES: "ntriples",
    "text/plain": "ntriples",
}

#: rows per emitted chunk — large enough to amortize syscalls, small
#: enough that a cancelled client stops costing us quickly
CHUNK_ROWS = 256


class NotAcceptable(Exception):
    """No representation satisfies the request's Accept header."""


def negotiate(accept: Optional[str], format_param: Optional[str] = None) -> str:
    """Pick a result format key from ``Accept`` and/or ``format=``.

    An explicit ``format`` query parameter wins (common SPARQL endpoint
    convention).  Otherwise the Accept header is scanned in q-value
    order; ``*/*`` (or a missing header) selects JSON, the protocol
    default.  Raises :class:`NotAcceptable` when nothing matches.
    """
    if format_param:
        key = format_param.strip().lower()
        if key in FORMATS:
            return key
        if key in _MIME_TO_FORMAT:
            return _MIME_TO_FORMAT[key]
        raise NotAcceptable(f"unknown format parameter: {format_param!r}")
    if not accept or accept.strip() == "":
        return "json"
    ranges: List[Tuple[float, int, str]] = []
    for position, part in enumerate(accept.split(",")):
        piece = part.strip()
        if not piece:
            continue
        media, _, params = piece.partition(";")
        quality = 1.0
        for param in params.split(";"):
            name, _, value = param.strip().partition("=")
            if name == "q":
                try:
                    quality = float(value)
                except ValueError:
                    quality = 0.0
        ranges.append((-quality, position, media.strip().lower()))
    for _, _, media in sorted(ranges):
        if media in ("*/*", "application/*"):
            return "json"
        if media == "text/*":
            return "csv"
        if media in _MIME_TO_FORMAT:
            return _MIME_TO_FORMAT[media]
    raise NotAcceptable(f"no supported media type in Accept: {accept!r}")


# ---------------------------------------------------------------------------
# writers
#
# A writer takes a dictionary-encoded Answer (rows of terms are encoded
# first), renders every distinct entry of a column once with its format's
# renderer, and emits CHUNK_ROWS rows at a time by code.

RowsT = Union[Answer, Sequence[Tuple[Optional[Term], ...]]]

#: the rendered text of each distinct entry of a column, by code
_Renderer = Callable[[Column], List[str]]
#: how one form (kind, datatype, language) renders: prefix, text escape, suffix
_Affixes = Tuple[str, Callable[[str], str], str]


def _answer(variables: Sequence[str], rows: RowsT) -> Answer:
    return rows if isinstance(rows, Answer) else encode_terms(len(variables), rows)


def _rendered_chunks(
    answer: Answer, renderers: Sequence[_Renderer]
) -> Iterator[Iterable[Tuple[str, ...]]]:
    """Up to CHUNK_ROWS rows at a time, each row as its rendered cells."""
    columns = [
        (render(column), column.codes)
        for render, column in zip(renderers, answer.columns)
    ]
    for start in range(0, len(answer), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, len(answer))
        if not columns:
            yield [()] * (stop - start)
            continue
        yield zip(*[map(texts.__getitem__, codes[start:stop]) for texts, codes in columns])


def _renderer(affixes: Callable[[str, Optional[str], Optional[str]], _Affixes]) -> _Renderer:
    """One format's renderer for one column: ``prefix + escape(text) +
    suffix``, the affixes worked out once per form; unbound renders "".
    A single-form column's texts render in one comprehension."""
    known: Dict[Form, _Affixes] = {}

    def render_entry(entry: Optional[Entry]) -> str:
        if entry is None:
            return ""
        form = entry[:3]
        parts = known.get(form)
        if parts is None:
            parts = known[form] = affixes(*form)
        prefix, escape, suffix = parts
        return prefix + escape(entry[3]) + suffix

    def render(column: Column) -> List[str]:
        if column.form is None:
            return list(map(render_entry, column.entries))
        prefix, escape, suffix = affixes(*column.form)
        if escape is str:
            rendered = [prefix + text + suffix for text in column.texts]
        else:
            rendered = [prefix + escape(text) + suffix for text in column.texts]
        if column.unbound:
            rendered.append("")
        return rendered

    return render


def _no_text(text: str) -> str:
    return ""


def _n3(kind: str, datatype: Optional[str], language: Optional[str]) -> _Affixes:
    if kind == URI:
        return "<", str, ">"
    if kind == BNODE:
        return "_:", str, ""
    return '"', escape_lexical, '"' + literal_suffix(datatype, language)


def _json_cell(variable: str) -> _Renderer:
    """``"variable": {binding}`` exactly as ``json.dumps`` renders it."""
    key = _json_string(variable) + ": "

    def affixes(kind: str, datatype: Optional[str], language: Optional[str]) -> _Affixes:
        suffix = "}"
        if language:
            suffix = f', "xml:lang": {_json_string(language)}}}'
        elif datatype and datatype != XSD_STRING:
            suffix = f', "datatype": {_json_string(datatype)}}}'
        return f'{key}{{"type": "{kind}", "value": ', _json_string, suffix

    return _renderer(affixes)


def write_json(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL 1.1 Query Results JSON Format, streamed binding-by-binding."""
    answer = _answer(variables, rows)
    head = json.dumps({"vars": list(variables)})
    yield f'{{"head": {head}, "results": {{"bindings": ['.encode()
    renderers = [_json_cell(variable) for variable in variables]
    # an unbound cell renders "" and must not leave a stray separator
    unbound = any(column.unbound for column in answer.columns)
    separator = "{"
    for chunk in _rendered_chunks(answer, renderers):
        if unbound:
            chunk = [filter(None, cells) for cells in chunk]
        yield (separator + "},{".join(map(", ".join, chunk)) + "}").encode()
        separator = ",{"
    yield b"]}}"


def write_ask_json(answer: bool) -> Iterator[bytes]:
    yield json.dumps({"head": {}, "boolean": bool(answer)}).encode()


#: what makes ``csv.writer`` (RFC 4180, QUOTE_MINIMAL) quote a field
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    if _CSV_QUOTED.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(kind: str, datatype: Optional[str], language: Optional[str]) -> _Affixes:
    # a blank node label is [A-Za-z0-9_]+: "_:label" never needs quoting
    return ("_:", str, "") if kind == BNODE else ("", _csv_field, "")


def _csv_only_cell() -> _Renderer:
    render = _renderer(_csv)
    # like csv.writer, a row of one empty field is written as ""
    return lambda column: [text or '""' for text in render(column)]


def write_csv(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL 1.1 CSV results: raw values, RFC 4180 quoting, CRLF."""
    answer = _answer(variables, rows)
    lines = [",".join(map(_csv_field, variables))]
    if len(variables) == 1:
        renderers = [_csv_only_cell()]
    else:
        renderers = [_renderer(_csv) for _ in variables]
    for chunk in _rendered_chunks(answer, renderers):
        lines.extend(map(",".join, chunk))
        yield ("\r\n".join(lines) + "\r\n").encode()
        lines = []
    if lines:
        yield ("\r\n".join(lines) + "\r\n").encode()


def write_tsv(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL 1.1 TSV results: ``?var`` header, N3-serialized terms."""
    answer = _answer(variables, rows)
    lines = ["\t".join(f"?{variable}" for variable in variables)]
    renderers = [_renderer(_n3) for _ in variables]
    for chunk in _rendered_chunks(answer, renderers):
        lines.extend(map("\t".join, chunk))
        yield ("\n".join(lines) + "\n").encode()
        lines = []
    if lines:
        yield ("\n".join(lines) + "\n").encode()


def _xml_cell(variable: str) -> _Renderer:
    name = f'<binding name="{xml_escape(variable)}">'

    def affixes(kind: str, datatype: Optional[str], language: Optional[str]) -> _Affixes:
        if kind == URI:
            return name + "<uri>", xml_escape, "</uri></binding>"
        if kind == BNODE:
            return name + "<bnode>", xml_escape, "</bnode></binding>"
        if language:
            tag = f'<literal xml:lang="{xml_escape(language)}">'
        elif datatype and datatype != XSD_STRING:
            tag = f'<literal datatype="{xml_escape(datatype)}">'
        else:
            tag = "<literal>"
        return name + tag, xml_escape, "</literal></binding>"

    return _renderer(affixes)


def write_xml(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL Query Results XML Format."""
    answer = _answer(variables, rows)
    head = "".join(
        f'<variable name="{xml_escape(variable)}"/>' for variable in variables
    )
    yield (
        '<?xml version="1.0"?>'
        '<sparql xmlns="http://www.w3.org/2005/sparql-results#">'
        f"<head>{head}</head><results>"
    ).encode()
    renderers = [_xml_cell(variable) for variable in variables]
    for chunk in _rendered_chunks(answer, renderers):
        yield ("<result>" + "</result><result>".join(map("".join, chunk)) + "</result>").encode()
    yield b"</results></sparql>"


def _ntriples_subject(kind: str, datatype: Optional[str], language: Optional[str]) -> _Affixes:
    return ("", _no_text, "") if kind == LITERAL else _n3(kind, datatype, language)


def _ntriples_predicate(kind: str, datatype: Optional[str], language: Optional[str]) -> _Affixes:
    return _n3(kind, datatype, language) if kind == URI else ("", _no_text, "")


def write_ntriples(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """Treat a three-column result as triples and emit N-Triples.

    Rows with an unbound column, a literal subject, or a non-IRI
    predicate cannot form a triple and are skipped — this is an export
    convenience for CONSTRUCT-shaped SELECTs, not a validator.
    """
    if len(variables) != 3:
        raise ValueError(
            f"n-triples export needs exactly 3 columns, got {len(variables)}"
        )
    answer = _answer(variables, rows)
    # a skipped position renders as "": no N-Triples term is empty
    renderers = [
        _renderer(_ntriples_subject),
        _renderer(_ntriples_predicate),
        _renderer(_n3),
    ]
    for chunk in _rendered_chunks(answer, renderers):
        lines = [f"{s} {p} {o} ." for s, p, o in chunk if s and p and o]
        if lines:
            yield ("\n".join(lines) + "\n").encode()


WRITERS = {
    "json": write_json,
    "xml": write_xml,
    "csv": write_csv,
    "tsv": write_tsv,
    "ntriples": write_ntriples,
}


def serialize(
    format_key: str, variables: Sequence[str], rows: RowsT
) -> Iterable[bytes]:
    """The body of an answer (encoded, or rows of terms) in one format."""
    return WRITERS[format_key](variables, rows)


# ---------------------------------------------------------------------------
# reference parsers


def _term_from_json(binding: Dict[str, str]) -> Term:
    kind = binding["type"]
    if kind == "uri":
        return IRI(binding["value"])
    if kind == "bnode":
        return BNode(binding["value"])
    if kind in ("literal", "typed-literal"):
        language = binding.get("xml:lang")
        if language:
            return Literal(binding["value"], XSD_STRING, language)
        return Literal(binding["value"], binding.get("datatype", XSD_STRING))
    raise ValueError(f"unknown binding type {kind!r}")


def parse_json_results(
    payload: bytes | str,
) -> Tuple[List[str], List[Tuple[Optional[Term], ...]]]:
    document = json.loads(payload)
    variables = list(document["head"]["vars"])
    rows = [
        tuple(
            _term_from_json(binding[variable]) if variable in binding else None
            for variable in variables
        )
        for binding in document["results"]["bindings"]
    ]
    return variables, rows


_SPARQL_NS = "{http://www.w3.org/2005/sparql-results#}"


def _term_from_xml(element: ElementTree.Element) -> Term:
    tag = element.tag.removeprefix(_SPARQL_NS)
    text = element.text or ""
    if tag == "uri":
        return IRI(text)
    if tag == "bnode":
        return BNode(text)
    if tag == "literal":
        language = element.get("{http://www.w3.org/XML/1998/namespace}lang")
        if language:
            return Literal(text, XSD_STRING, language)
        return Literal(text, element.get("datatype", XSD_STRING))
    raise ValueError(f"unknown term element {element.tag!r}")


def parse_xml_results(
    payload: bytes | str,
) -> Tuple[List[str], List[Tuple[Optional[Term], ...]]]:
    root = ElementTree.fromstring(payload)
    variables = [
        element.get("name") or ""
        for element in root.findall(f"{_SPARQL_NS}head/{_SPARQL_NS}variable")
    ]
    rows = []
    for result in root.findall(f"{_SPARQL_NS}results/{_SPARQL_NS}result"):
        bound: Dict[str, Term] = {}
        for binding in result.findall(f"{_SPARQL_NS}binding"):
            name = binding.get("name") or ""
            child = next(iter(binding), None)
            if child is not None:
                bound[name] = _term_from_xml(child)
        rows.append(tuple(bound.get(variable) for variable in variables))
    return variables, rows


def parse_csv_results(
    payload: bytes | str,
) -> Tuple[List[str], List[Tuple[Optional[Term], ...]]]:
    """CSV is lossy: every non-empty cell comes back as a plain literal."""
    text = payload.decode() if isinstance(payload, bytes) else payload
    reader = csv.reader(io.StringIO(text))
    table = list(reader)
    if not table:
        return [], []
    variables = table[0]
    rows = [
        tuple(Literal(cell) if cell != "" else None for cell in row)
        for row in table[1:]
    ]
    return variables, rows


def parse_tsv_results(
    payload: bytes | str,
) -> Tuple[List[str], List[Tuple[Optional[Term], ...]]]:
    text = payload.decode() if isinstance(payload, bytes) else payload
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    variables = [name.lstrip("?") for name in lines[0].split("\t")]
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        row: List[Optional[Term]] = []
        for cell in cells:
            if cell == "":
                row.append(None)
            else:
                term, _ = _parse_term(cell, 0, 0)
                row.append(term)
        rows.append(tuple(row))
    return variables, rows


def parse_ntriples_results(
    payload: bytes | str,
) -> Tuple[List[str], List[Tuple[Optional[Term], ...]]]:
    from ..rdf import ntriples

    text = payload.decode() if isinstance(payload, bytes) else payload
    rows = [tuple(triple) for triple in ntriples.parse(text)]
    return ["s", "p", "o"], rows


PARSERS = {
    "json": parse_json_results,
    "xml": parse_xml_results,
    "csv": parse_csv_results,
    "tsv": parse_tsv_results,
    "ntriples": parse_ntriples_results,
}
