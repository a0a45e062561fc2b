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
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from xml.etree import ElementTree
from xml.sax.saxutils import escape as xml_escape

from ..rdf.ntriples import _parse_term
from ..rdf.terms import BNode, IRI, Literal, Term, XSD_STRING

RowsT = Sequence[Tuple[Optional[Term], ...]]

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
# Every writer encodes a response column by column, CHUNK_ROWS rows at a
# time, and joins each row from its cells' texts.  All but CSV encode
# through a _ColumnCodec per variable, once per distinct term.


class _ColumnCodec:
    """The encoded text of one result column's terms, each built once.

    Cells are looked up by object identity: hashing a term costs about as
    much as encoding it, and the OBDA translator hands out one object per
    distinct value of a column.  Every object looked up stays referenced
    here, so its id is not reused by another term while the codec lives.
    """

    def __init__(self, encode: Callable[[Optional[Term]], str]):
        self.encode = encode
        self.by_id: Dict[int, str] = {}
        self.objects: List[Optional[Term]] = []

    def __call__(self, column: Sequence[Optional[Term]]) -> List[str]:
        ids = list(map(id, column))
        fresh = list(set(ids).difference(self.by_id))
        if fresh:
            terms = list(map(dict(zip(ids, column)).__getitem__, fresh))
            self.by_id.update(zip(fresh, map(self.encode, terms)))
            self.objects.extend(terms)
        return list(map(self.by_id.__getitem__, ids))


_ColumnEncoder = Callable[[Sequence[Optional[Term]]], Iterable[str]]


def _encoded_chunks(
    rows: Iterable[Tuple[Optional[Term], ...]], encoders: Sequence[_ColumnEncoder]
) -> Iterator[Iterable[Tuple[str, ...]]]:
    """Up to CHUNK_ROWS rows at a time, each row as its encoded cells."""
    remaining = iter(rows)
    while chunk := list(islice(remaining, CHUNK_ROWS)):
        if not encoders:
            yield [()] * len(chunk)
            continue
        yield zip(*[encode(column) for encode, column in zip(encoders, zip(*chunk))])


def _json_cell(variable: str) -> Callable[[Optional[Term]], str]:
    """``"variable": {binding}`` exactly as ``json.dumps`` renders it."""
    key = _json_string(variable) + ": "

    def encode(term: Optional[Term]) -> str:
        if term is None:
            return ""
        if isinstance(term, IRI):
            return f'{key}{{"type": "uri", "value": {_json_string(term.value)}}}'
        if isinstance(term, BNode):
            return f'{key}{{"type": "bnode", "value": {_json_string(term.label)}}}'
        text = f'{key}{{"type": "literal", "value": {_json_string(term.lexical)}'
        if term.language:
            text += f', "xml:lang": {_json_string(term.language)}'
        elif term.datatype and term.datatype != XSD_STRING:
            text += f', "datatype": {_json_string(term.datatype)}'
        return text + "}"

    return encode


def write_json(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL 1.1 Query Results JSON Format, streamed binding-by-binding."""
    head = json.dumps({"vars": list(variables)})
    yield f'{{"head": {head}, "results": {{"bindings": ['.encode()
    codecs = [_ColumnCodec(_json_cell(variable)) for variable in variables]
    separator = ""
    for chunk in _encoded_chunks(rows, codecs):
        text = ",".join("{" + ", ".join(filter(None, cells)) + "}" for cells in chunk)
        yield (separator + text).encode()
        separator = ","
    yield b"]}}"


def write_ask_json(answer: bool) -> Iterator[bytes]:
    yield json.dumps({"head": {}, "boolean": bool(answer)}).encode()


def _csv_value(term: Optional[Term]) -> str:
    if term is None:
        return ""
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, BNode):
        return f"_:{term.label}"
    return term.lexical


def write_csv(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL 1.1 CSV results: raw values, RFC 4180 quoting, CRLF."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(list(variables))
    # picking a term's CSV text costs less than looking it up in a codec
    encoders = [partial(map, _csv_value) for _ in variables]
    for chunk in _encoded_chunks(rows, encoders):
        writer.writerows(chunk)
        yield out.getvalue().encode()
        out.seek(0)
        out.truncate()
    if out.tell():
        yield out.getvalue().encode()


def _tsv_value(term: Optional[Term]) -> str:
    if term is None:
        return ""
    return term.n3()


def write_tsv(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL 1.1 TSV results: ``?var`` header, N3-serialized terms."""
    lines = ["\t".join(f"?{variable}" for variable in variables)]
    codecs = [_ColumnCodec(_tsv_value) for _ in variables]
    for chunk in _encoded_chunks(rows, codecs):
        lines.extend(map("\t".join, chunk))
        yield ("\n".join(lines) + "\n").encode()
        lines = []
    if lines:
        yield ("\n".join(lines) + "\n").encode()


def _xml_binding(variable: str, term: Term) -> str:
    if isinstance(term, IRI):
        body = f"<uri>{xml_escape(term.value)}</uri>"
    elif isinstance(term, BNode):
        body = f"<bnode>{xml_escape(term.label)}</bnode>"
    elif term.language:
        body = f'<literal xml:lang="{xml_escape(term.language)}">{xml_escape(term.lexical)}</literal>'
    elif term.datatype and term.datatype != XSD_STRING:
        body = (
            f'<literal datatype="{xml_escape(term.datatype)}">'
            f"{xml_escape(term.lexical)}</literal>"
        )
    else:
        body = f"<literal>{xml_escape(term.lexical)}</literal>"
    return f'<binding name="{xml_escape(variable)}">{body}</binding>'


def _xml_cell(variable: str) -> Callable[[Optional[Term]], str]:
    return lambda term: "" if term is None else _xml_binding(variable, term)


def write_xml(variables: Sequence[str], rows: RowsT) -> Iterator[bytes]:
    """SPARQL Query Results XML Format."""
    head = "".join(
        f'<variable name="{xml_escape(variable)}"/>' for variable in variables
    )
    yield (
        '<?xml version="1.0"?>'
        '<sparql xmlns="http://www.w3.org/2005/sparql-results#">'
        f"<head>{head}</head><results>"
    ).encode()
    codecs = [_ColumnCodec(_xml_cell(variable)) for variable in variables]
    for chunk in _encoded_chunks(rows, codecs):
        yield "".join(
            "<result>" + "".join(cells) + "</result>" for cells in chunk
        ).encode()
    yield b"</results></sparql>"


def _ntriples_subject(term: Optional[Term]) -> str:
    return "" if term is None or isinstance(term, Literal) else term.n3()


def _ntriples_predicate(term: Optional[Term]) -> str:
    return term.n3() if isinstance(term, IRI) else ""


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
    # a skipped position encodes as "": no N-Triples term is empty
    codecs = [
        _ColumnCodec(_ntriples_subject),
        _ColumnCodec(_ntriples_predicate),
        _ColumnCodec(_tsv_value),
    ]
    for chunk in _encoded_chunks(rows, codecs):
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
