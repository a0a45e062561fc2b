"""Columnar table mirror: typed column arrays behind the row store.

``Table.rows`` stays the authoritative storage (the row-at-a-time executor
and all DML work on it unchanged); :class:`ColumnStore` is a lazily built,
incrementally maintained columnar mirror used by the vectorized executor:

* one :mod:`repro.sql.types` codec per column — ``array('q')``/``array('d')``
  with NULL bitmaps for numerics, signed-byte codes for booleans,
  dictionary-encoded codes for low-NDV strings/dates, plain object lists
  for geometry and degraded columns;
* positions are **table row ids**: deleted rows keep their slot (liveness
  is a separate bitmap), so column positions stay aligned with the row ids
  stored in hash/sorted indexes and late materialization is a plain gather;
* ``live_positions()`` returns a cached, identity-stable object so the
  shared-scan context can key hash-join build sharing on ``id()``.

The module also hosts the filter kernels (`select_eq`, `select_cmp`,
`select_null`, `select_in`).  Each kernel is *strictly gated* on the
literal's Python type so its semantics coincide exactly with
``sql_compare``'s three-valued comparison; any predicate outside a
kernel's gate returns ``None`` and the executor falls back to the
compiled-expression path, which is correct by construction.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from .types import (
    BoolColumn,
    ColumnCodec,
    DictColumn,
    FloatColumn,
    IntColumn,
    ObjectColumn,
    SqlType,
    column_codec_for,
)

Positions = Union[range, List[int]]


class ColumnStore:
    """Columnar mirror of one table, aligned with its row ids."""

    __slots__ = ("columns", "live", "live_count", "_live_cache")

    def __init__(self, table) -> None:
        rows = table.rows
        columns: List[ColumnCodec] = []
        for position, column in enumerate(table.columns):
            codec = column_codec_for(column.sql_type)
            try:
                for row in rows:
                    codec.append(None if row is None else row[position])
            except OverflowError:
                codec = ObjectColumn()
                for row in rows:
                    codec.append(None if row is None else row[position])
            if isinstance(codec, DictColumn):
                codec = codec.maybe_degrade()
            columns.append(codec)
        self.columns = columns
        self.live = bytearray(0 if row is None else 1 for row in rows)
        self.live_count = sum(self.live)
        self._live_cache: Optional[Positions] = None

    # -- maintenance (called from Table's DML hooks) ------------------------

    def append_row(self, row: Sequence[Any]) -> None:
        columns = self.columns
        for position, value in enumerate(row):
            codec = columns[position]
            try:
                codec.append(value)
            except OverflowError:
                codec = codec.to_object()
                columns[position] = codec
                codec.append(value)
        self.live.append(1)
        self.live_count += 1
        self._live_cache = None

    def delete_row(self, row_id: int) -> None:
        if self.live[row_id]:
            self.live[row_id] = 0
            self.live_count -= 1
            self._live_cache = None

    def update_row(self, row_id: int, row: Sequence[Any]) -> None:
        columns = self.columns
        for position, value in enumerate(row):
            codec = columns[position]
            try:
                codec.set(row_id, value)
            except OverflowError:
                codec = codec.to_object()
                columns[position] = codec
                codec.set(row_id, value)
        if not self.live[row_id]:
            self.live[row_id] = 1
            self.live_count += 1
            self._live_cache = None

    # -- access --------------------------------------------------------------

    def live_positions(self) -> Positions:
        """Row ids of live rows; identity-stable until the next mutation."""
        cache = self._live_cache
        if cache is None:
            live = self.live
            if self.live_count == len(live):
                cache = range(len(live))
            else:
                cache = [p for p in range(len(live)) if live[p]]
            self._live_cache = cache
        return cache

    def gather_rows(self, positions: Positions) -> List[tuple]:
        """Materialize full rows (tuple per position) — late, at the edges."""
        if not self.columns:
            return [() for _ in positions]
        return list(zip(*(codec.gather(positions) for codec in self.columns)))

    # -- index + statistics feeds -------------------------------------------

    def column_values(self, position: int, positions: Positions) -> list:
        return self.columns[position].gather(positions)

    def analyze_column(self, position: int) -> Tuple[int, int, Any, Any]:
        """(n_distinct, null_count, min, max) over live rows.

        Mirrors ``stats._analyze_table`` exactly, including the repr()
        fallback for unhashable values and dropping bounds on unordered
        types.
        """
        codec = self.columns[position]
        positions = self.live_positions()
        if isinstance(codec, DictColumn):
            codes = codec.codes
            used = {codes[p] for p in positions}
            nulls = len(used) if -1 in used else 0
            if nulls:
                used.discard(-1)
                nulls = sum(1 for p in positions if codes[p] < 0)
            values = [codec.dictionary[code] for code in used]
            bounds = (min(values), max(values)) if values else (None, None)
            return len(used), nulls, bounds[0], bounds[1]
        distinct: set = set()
        nulls = 0
        minimum: Any = None
        maximum: Any = None
        comparable = True
        for value in codec.gather(positions):
            if value is None:
                nulls += 1
                continue
            try:
                distinct.add(value)
            except TypeError:
                distinct.add(repr(value))
            if not comparable:
                continue
            try:
                if minimum is None or value < minimum:
                    minimum = value
                if maximum is None or value > maximum:
                    maximum = value
            except TypeError:
                comparable = False
                minimum = maximum = None
        return len(distinct), nulls, minimum, maximum


# -- filter kernels ----------------------------------------------------------
#
# All kernels take (codec, positions, ...) and return the surviving subset
# of ``positions`` (order preserved), or ``None`` when the literal's type
# falls outside the kernel's safety gate.  The gates encode sql_compare's
# rules: numeric kernels accept only non-bool int/float literals (bool
# compares as its own type, and mixed numeric/str coercion is left to the
# compiled path), dictionary kernels accept only str literals.


def _numeric_literal(value: Any) -> bool:
    return type(value) is int or type(value) is float


def index_probe_fits(sql_type: SqlType, literal: Any) -> bool:
    """Whether probing an index on a *sql_type* column with *literal*
    answers as ``sql_compare`` would.

    Hash and sorted indexes compare stored values with Python's ``==`` and
    ``<``, which agree with ``sql_compare`` only within one kind of value
    -- the kernels' gates: numeric columns against non-bool int/float
    literals, booleans against bools, text and dates against strings.
    ``id = '1'`` on an INTEGER column compares by numeric coercion, so it
    must not probe (and ``id < '10'`` would raise inside the index).
    """
    if sql_type.is_numeric:
        return _numeric_literal(literal)
    if sql_type is SqlType.BOOLEAN:
        return type(literal) is bool
    if sql_type.is_textual or sql_type is SqlType.DATE:
        return type(literal) is str
    return False


def select_eq(codec: ColumnCodec, positions: Positions, literal: Any, negated: bool = False):
    """``col = literal`` (or ``<>`` when negated); NULLs never match."""
    if isinstance(codec, (IntColumn, FloatColumn)):
        if not _numeric_literal(literal):
            return None
        values = codec.values
        if codec.null_count:
            nulls = codec.nulls
            if negated:
                return [p for p in positions if not nulls[p] and values[p] != literal]
            return [p for p in positions if not nulls[p] and values[p] == literal]
        if negated:
            return [p for p in positions if values[p] != literal]
        return [p for p in positions if values[p] == literal]
    if isinstance(codec, DictColumn):
        if type(literal) is not str:
            return None
        codes = codec.codes
        code = codec.code_of.get(literal)
        if negated:
            if code is None:
                return [p for p in positions if codes[p] >= 0]
            return [p for p in positions if codes[p] >= 0 and codes[p] != code]
        if code is None:
            return []
        return [p for p in positions if codes[p] == code]
    if isinstance(codec, BoolColumn):
        if type(literal) is not bool:
            return None
        codes = codec.codes
        code = 1 if literal else 0
        if negated:
            other = 1 - code
            return [p for p in positions if codes[p] == other]
        return [p for p in positions if codes[p] == code]
    if isinstance(codec, ObjectColumn) and codec.textual:
        if type(literal) is not str:
            return None
        values = codec.values
        if negated:
            return [p for p in positions if values[p] is not None and values[p] != literal]
        return [p for p in positions if values[p] == literal]
    return None


def select_cmp(codec: ColumnCodec, positions: Positions, op: str, literal: Any):
    """``col <op> literal`` for ``<``, ``<=``, ``>``, ``>=``."""
    if isinstance(codec, (IntColumn, FloatColumn)):
        if not _numeric_literal(literal):
            return None
        values = codec.values
        if codec.null_count:
            nulls = codec.nulls
            if op == "<":
                return [p for p in positions if not nulls[p] and values[p] < literal]
            if op == "<=":
                return [p for p in positions if not nulls[p] and values[p] <= literal]
            if op == ">":
                return [p for p in positions if not nulls[p] and values[p] > literal]
            return [p for p in positions if not nulls[p] and values[p] >= literal]
        if op == "<":
            return [p for p in positions if values[p] < literal]
        if op == "<=":
            return [p for p in positions if values[p] <= literal]
        if op == ">":
            return [p for p in positions if values[p] > literal]
        return [p for p in positions if values[p] >= literal]
    if isinstance(codec, DictColumn):
        if type(literal) is not str:
            return None
        # decide once per dictionary entry, then select on integer codes
        if op == "<":
            passes = [value < literal for value in codec.dictionary]
        elif op == "<=":
            passes = [value <= literal for value in codec.dictionary]
        elif op == ">":
            passes = [value > literal for value in codec.dictionary]
        else:
            passes = [value >= literal for value in codec.dictionary]
        codes = codec.codes
        return [p for p in positions if codes[p] >= 0 and passes[codes[p]]]
    if isinstance(codec, ObjectColumn) and codec.textual:
        if type(literal) is not str:
            return None
        values = codec.values
        if op == "<":
            return [p for p in positions if values[p] is not None and values[p] < literal]
        if op == "<=":
            return [p for p in positions if values[p] is not None and values[p] <= literal]
        if op == ">":
            return [p for p in positions if values[p] is not None and values[p] > literal]
        return [p for p in positions if values[p] is not None and values[p] >= literal]
    return None


def select_null(codec: ColumnCodec, positions: Positions, negated: bool):
    """``col IS [NOT] NULL`` — every codec type supports this kernel."""
    if isinstance(codec, (IntColumn, FloatColumn)):
        if not codec.null_count:
            return list(positions) if negated else []
        nulls = codec.nulls
        if negated:
            return [p for p in positions if not nulls[p]]
        return [p for p in positions if nulls[p]]
    if isinstance(codec, (DictColumn, BoolColumn)):
        if not codec.null_count:
            return list(positions) if negated else []
        codes = codec.codes
        if negated:
            return [p for p in positions if codes[p] >= 0]
        return [p for p in positions if codes[p] < 0]
    values = codec.values
    if negated:
        return [p for p in positions if values[p] is not None]
    return [p for p in positions if values[p] is None]


def select_in(codec: ColumnCodec, positions: Positions, literals: Sequence[Any], negated: bool):
    """``col [NOT] IN (literals)`` with SQL three-valued semantics."""
    saw_null = any(literal is None for literal in literals)
    if negated and saw_null:
        # NOT IN with a NULL literal never evaluates to TRUE
        return []
    candidates = [literal for literal in literals if literal is not None]
    if isinstance(codec, (IntColumn, FloatColumn)):
        if not all(_numeric_literal(literal) for literal in candidates):
            return None
        wanted = set(candidates)
        values = codec.values
        if codec.null_count:
            nulls = codec.nulls
            if negated:
                return [p for p in positions if not nulls[p] and values[p] not in wanted]
            return [p for p in positions if not nulls[p] and values[p] in wanted]
        if negated:
            return [p for p in positions if values[p] not in wanted]
        return [p for p in positions if values[p] in wanted]
    if isinstance(codec, DictColumn):
        if not all(type(literal) is str for literal in candidates):
            return None
        code_of = codec.code_of
        wanted = {code_of[literal] for literal in candidates if literal in code_of}
        codes = codec.codes
        if negated:
            return [p for p in positions if codes[p] >= 0 and codes[p] not in wanted]
        return [p for p in positions if codes[p] in wanted]
    if isinstance(codec, ObjectColumn) and codec.textual:
        if not all(type(literal) is str for literal in candidates):
            return None
        wanted = set(candidates)
        values = codec.values
        if negated:
            return [p for p in positions if values[p] is not None and values[p] not in wanted]
        return [p for p in positions if values[p] is not None and values[p] in wanted]
    return None
