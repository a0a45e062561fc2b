"""Dictionary-encoded answers: each column as distinct entries plus codes.

An *entry* is an RDF term as a plain tuple ``(kind, datatype, language,
text)``: ``kind`` is ``"uri"``, ``"bnode"`` or ``"literal"`` (the binding
types of the SPARQL JSON results format), ``datatype`` and ``language``
are set on literals only, and ``text`` is the IRI, the blank node label
or the lexical form.  The first three fields are the term's *form*,
which decides everything about its rendering but the escaped text.  An
unbound cell is the entry ``None``.

A column keeps each distinct entry once and one code (an index into its
entries) per row, so a writer renders every distinct term of a column
once and emits rows by code, and no term object need exist at all.
:meth:`Answer.rows` is the term view for callers that want rows of
:class:`~repro.rdf.terms.Term`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .terms import BNode, IRI, Literal, Term, _IRI_ESCAPE_RE

URI = "uri"
BNODE = "bnode"
LITERAL = "literal"

Entry = Tuple[str, Optional[str], Optional[str], str]
Form = Tuple[str, Optional[str], Optional[str]]


class Column:
    """One answer column: its distinct entries and a code per row.

    A *single-form* column, one whose bound entries all share one form,
    keeps that ``form`` once and the distinct texts in ``texts``; when
    the column has an unbound cell, its code is the last, ``len(texts)``.
    A mixed column (``form`` None) keeps whole entries.  ``entries`` is
    the entry list in both cases (built on first use for a single-form
    column).
    """

    __slots__ = ("codes", "form", "texts", "unbound", "_entries")

    def __init__(self, entries: List[Optional[Entry]], codes: List[int]) -> None:
        self.codes = codes
        self.form: Optional[Form] = None
        self.texts: List[str] = []
        self.unbound = None in entries
        self._entries: Optional[List[Optional[Entry]]] = entries

    @classmethod
    def single_form(
        cls, form: Form, texts: List[str], codes: List[int], unbound: bool
    ) -> "Column":
        column = cls.__new__(cls)
        column.codes = codes
        column.form = form
        column.texts = texts
        column.unbound = unbound
        column._entries = None
        return column

    @property
    def entries(self) -> List[Optional[Entry]]:
        entries = self._entries
        if entries is None:
            form = self.form
            entries = [form + (text,) for text in self.texts]
            if self.unbound:
                entries.append(None)
            self._entries = entries
        return entries


@dataclass
class Answer:
    """An answer as dictionary-encoded columns.

    ``size`` is the row count; it is kept apart from the columns so an
    answer without columns still has rows.
    """

    columns: List[Column]
    size: int

    def __len__(self) -> int:
        return self.size

    def rows(self) -> List[Tuple[Optional[Term], ...]]:
        """The answer as rows of terms, one term object per entry."""
        if not self.columns:
            return [()] * self.size
        columns = []
        for column in self.columns:
            terms = list(map(term_of, column.entries))
            columns.append(map(terms.__getitem__, column.codes))
        return list(zip(*columns))


def term_of(entry: Optional[Entry]) -> Optional[Term]:
    if entry is None:
        return None
    kind, datatype, language, text = entry
    if kind == URI:
        return IRI(text)
    if kind == BNODE:
        return BNode(text)
    return Literal(text, datatype, language)


def entry_of(term: Optional[Term]) -> Optional[Entry]:
    if term is None:
        return None
    if isinstance(term, IRI):
        return (URI, None, None, term.value)
    if isinstance(term, BNode):
        return (BNODE, None, None, term.label)
    return (LITERAL, term.datatype, term.language, term.lexical)


def encode_terms(width: int, rows: Iterable[Sequence[Optional[Term]]]) -> Answer:
    """An answer from rows of terms: equal terms share one entry."""
    rows = list(rows)
    columns = []
    for cells in zip(*rows):
        index = dict.fromkeys(cells)
        entries = list(map(entry_of, index))
        index = dict(zip(index, range(len(index))))
        columns.append(Column(entries, list(map(index.__getitem__, cells))))
    if not rows:
        columns = [Column([], []) for _ in range(width)]
    return Answer(columns, len(rows))


#: the characters ``IRI`` rejects, as UTF-8 bytes: all of them are ASCII,
#: and no byte of another character's UTF-8 sequence is
_IRI_FORBIDDEN = bytes(c for c in range(128) if _IRI_ESCAPE_RE.match(chr(c)))


def check_iris(values: Sequence[str]) -> None:
    """Raise the :class:`~repro.rdf.terms.TermError` that ``IRI(value)``
    raises for the first invalid value; one scan when all are valid."""
    joined = "".join(values).encode("utf-8", "surrogatepass")
    if all(values) and len(joined.translate(None, _IRI_FORBIDDEN)) == len(joined):
        return
    for value in values:
        IRI(value)
