"""RDF term model: IRIs, blank nodes and typed literals.

The term classes are immutable, hashable value objects.  Literals carry an
optional datatype IRI and expose a :meth:`Literal.to_python` conversion used
throughout the SPARQL evaluator and the OBDA result translator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Optional, Union

XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
XSD_GYEAR = XSD + "gYear"

_NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE})

_IRI_ESCAPE_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


class TermError(ValueError):
    """Raised when an RDF term is constructed from invalid input."""


@dataclass(frozen=True, slots=True)
class IRI:
    """An absolute IRI reference.

    Only light validation is performed: control characters and characters
    forbidden by RFC 3987 in IRIs raise :class:`TermError`.
    """

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise TermError("IRI must be non-empty")
        if _IRI_ESCAPE_RE.search(self.value):
            raise TermError(f"IRI contains forbidden characters: {self.value!r}")

    def n3(self) -> str:
        """Return the N-Triples serialization, e.g. ``<http://ex.org/a>``."""
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Return the fragment/local part after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.value


@dataclass(frozen=True, slots=True)
class BNode:
    """A blank node with a local label."""

    label: str

    def __post_init__(self) -> None:
        if not self.label or not re.fullmatch(r"[A-Za-z0-9_]+", self.label):
            raise TermError(f"invalid blank node label: {self.label!r}")

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal with an optional datatype and language tag.

    ``lexical`` stores the canonical lexical form.  Plain literals default
    to ``xsd:string``, matching RDF 1.1 semantics.
    """

    lexical: str
    datatype: str = XSD_STRING
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if self.language is not None and self.datatype != XSD_STRING:
            raise TermError("language-tagged literals must be xsd:string")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_python(value: Any) -> "Literal":
        """Build a literal from a Python value, picking the XSD datatype."""
        if isinstance(value, Literal):
            return value
        if isinstance(value, bool):
            return Literal("true" if value else "false", XSD_BOOLEAN)
        if isinstance(value, int):
            return Literal(str(value), XSD_INTEGER)
        if isinstance(value, float):
            if math.isnan(value):
                return Literal("NaN", XSD_DOUBLE)
            if math.isinf(value):
                return Literal("INF" if value > 0 else "-INF", XSD_DOUBLE)
            return Literal(repr(value), XSD_DOUBLE)
        if isinstance(value, str):
            return Literal(value, XSD_STRING)
        raise TermError(f"cannot build a literal from {type(value).__name__}")

    # -- conversions ----------------------------------------------------

    def to_python(self) -> Any:
        """Convert the literal to the closest Python value.

        Unparseable numerics raise :class:`TermError` rather than silently
        degrading to strings, so type errors surface early.
        """
        if self.datatype == XSD_INTEGER:
            try:
                return int(self.lexical)
            except ValueError as exc:
                raise TermError(f"bad xsd:integer lexical {self.lexical!r}") from exc
        if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
            if self.lexical == "INF":
                return math.inf
            if self.lexical == "-INF":
                return -math.inf
            if self.lexical == "NaN":
                return math.nan
            try:
                return float(self.lexical)
            except ValueError as exc:
                raise TermError(f"bad numeric lexical {self.lexical!r}") from exc
        if self.datatype == XSD_BOOLEAN:
            if self.lexical in ("true", "1"):
                return True
            if self.lexical in ("false", "0"):
                return False
            raise TermError(f"bad xsd:boolean lexical {self.lexical!r}")
        if self.datatype == XSD_GYEAR:
            try:
                return int(self.lexical)
            except ValueError as exc:
                raise TermError(f"bad xsd:gYear lexical {self.lexical!r}") from exc
        return self.lexical

    @property
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES or self.datatype == XSD_GYEAR

    def n3(self) -> str:
        escaped = escape_lexical(self.lexical)
        return f'"{escaped}"{literal_suffix(self.datatype, self.language)}'

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()


Term = Union[IRI, BNode, Literal]


def escape_lexical(lexical: str) -> str:
    """A lexical form escaped for the quotes of its N-Triples literal."""
    return (
        lexical.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def literal_suffix(datatype: Optional[str], language: Optional[str]) -> str:
    """What follows the closing quote of an N-Triples literal."""
    if language:
        return f"@{language}"
    if datatype and datatype != XSD_STRING:
        return f"^^<{datatype}>"
    return ""


def is_resource(term: Term) -> bool:
    """True for terms usable in the subject position (IRI or blank node)."""
    return isinstance(term, (IRI, BNode))
