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


@dataclass
class Column:
    """One answer column: its distinct entries and a code per row."""

    entries: List[Optional[Entry]]
    codes: List[int]


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


def check_iris(values: Sequence[str]) -> None:
    """Raise the :class:`~repro.rdf.terms.TermError` that ``IRI(value)``
    raises for the first invalid value; one scan when all are valid."""
    if all(values) and not _IRI_ESCAPE_RE.search("".join(values)):
        return
    for value in values:
        IRI(value)
