"""The equi-join core of both executors.

The row executor (:mod:`repro.sql.executor`) joins row tuples and the
vectorized one (:mod:`repro.sql.vectorized`) joins position lists, but
for the same inputs they take the same physical join, count it the same
way and trace it under the same name.  This module makes that choice
(:func:`choose_join`) and owns the data forms under it:

* one join key per row (:func:`key_column`): the value of a single key,
  a tuple of several, a float for a part compared across types
  (:func:`key_coercion`), None where a part is NULL;
* one bucket build, key -> positions (:func:`build_buckets`), never
  holding the None key and shared across a UNION's disjuncts through
  :class:`~repro.sql.optimizer.SharedScanContext`;
* one index probe (:func:`index_matches`), the sorted (live) row ids a
  base table's hash index holds for a key, called as the buckets' ``get``
  is.

A nested loop is the join on no keys: every row's key is ``()`` and one
bucket holds the whole build side.  So each executor keeps a single
probe loop over ``(probe row, key)`` pairs -- rows out on the row path,
take-lists out on the batch path.

A relation here is anything with ``schema``, ``size``, ``base_table``,
``gather_column(position)`` and ``build_source`` (the list whose
identity keys a shared build; None when the build is never shared).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .expressions import RowSchema
from .types import SqlType

#: physical joins
HASH = "hash"
INDEX = "index"
NESTED = "nested"

#: logical joins
INNER = "inner"
LEFT = "left"
NATURAL = "natural"

#: base tables with more rows get a hash index on their join columns when
#: no hash join is allowed; smaller right inputs of a LEFT join are joined
#: by nested loop there
AUTO_INDEX_ROWS = 64

#: declared type pairs ``sql_compare`` compares as floats: a number or a
#: boolean against text
_COERCED_PAIRS = frozenset(
    pair
    for number in (
        SqlType.INTEGER,
        SqlType.BIGINT,
        SqlType.DOUBLE,
        SqlType.DECIMAL,
        SqlType.BOOLEAN,
    )
    for text in (SqlType.VARCHAR, SqlType.TEXT, SqlType.DATE)
    for pair in ((number, text), (text, number))
)

Key = Any
Coercion = Optional[Tuple[bool, ...]]


def _hashable(value: Any) -> Any:
    return value if not isinstance(value, list) else tuple(value)


def _float_key(value: Any) -> Optional[float]:
    """A key ``sql_compare`` compares as a float; None (no match) for NULL
    or text that is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def key_coercion(
    left: RowSchema,
    right: RowSchema,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
) -> Coercion:
    """Which equi-join key pairs ``sql_compare`` compares as floats: a
    number or a boolean against text, as in ``1 = '1'``.  None when no
    pair does: every key then matches by Python equality, which is what
    ``sql_compare`` does within one type class.  Decided from the
    declared column types, field by field; a field without one (a
    computed column) matches by Python equality."""
    if left.types is None or right.types is None:
        return None
    coerced = tuple(
        map(
            _COERCED_PAIRS.__contains__,
            zip(
                map(left.types.__getitem__, left_keys),
                map(right.types.__getitem__, right_keys),
            ),
        )
    )
    return coerced if True in coerced else None


def key_column(columns: Sequence[Sequence[Any]], coerced: Coercion) -> Sequence[Key]:
    """The join key of each row, given its key columns: the value of a
    single key, the tuple of several; a part *coerced* marks as a float
    (:func:`_float_key`), a list as a tuple; None for a row whose key has
    a NULL part (it matches nothing).  The columns are never mutated."""
    parts = []
    for position, column in enumerate(columns):
        if coerced is not None and coerced[position]:
            column = list(map(_float_key, column))
        elif list in map(type, column):
            column = list(map(_hashable, column))
        parts.append(column)
    if len(parts) == 1:
        return parts[0]
    keys = list(zip(*parts))
    if any(None in part for part in parts):
        keys = [None if None in key else key for key in keys]
    return keys


def build_buckets(
    shared, relation, keys: Sequence[int], coerced: Coercion
) -> Dict[Key, List[int]]:
    """Key -> the positions of *relation*'s rows holding it, in row order.

    With a shared-scan context (*shared*) the buckets are keyed by the
    identity of the relation's ``build_source`` and the key positions
    with their coercion, so disjuncts hashing the same scan on the same
    keys build once.
    """
    source = relation.build_source if shared is not None else None
    if source is not None:
        cache_key = (tuple(keys), coerced)
        cached = shared.lookup_build(source, cache_key)
        if cached is not None:
            return cached
    buckets: Dict[Key, List[int]] = {}
    get = buckets.get
    column = key_column([relation.gather_column(p) for p in keys], coerced)
    for position, key in enumerate(column):
        bucket = get(key)
        if bucket is None:
            buckets[key] = [position]
        else:
            bucket.append(position)
    buckets.pop(None, None)
    if source is not None:
        shared.store_build(source, cache_key, buckets)
    return buckets


def index_matches(index, width: int) -> Callable[[Key], Optional[List[int]]]:
    """A base table's hash index read as buckets: the sorted row ids it
    holds for a join key of *width* parts, or None.  The ids are live
    ones: ``Table.delete_row`` takes a row out of every hash index before
    it drops the row.  An index also holds NULL keys, which match
    nothing."""
    lookup = index.lookup

    def matches(key: Key) -> Optional[List[int]]:
        if key is None:
            return None
        row_ids = lookup((key,) if width == 1 else key)
        return sorted(row_ids) if row_ids else None

    return matches


class JoinChoice(NamedTuple):
    """A physical join: HASH, INDEX or NESTED, and how it runs."""

    method: str
    #: its trace label's key in the executor's ``JOIN_LABELS``
    label: str
    #: INDEX only: the right base table's hash index
    index: Any = None
    #: HASH only: the left input is built and the right one probed
    build_left: bool = False
    #: the key pairs compared as floats (:func:`key_coercion`)
    coerced: Coercion = None


class JoinPlan(NamedTuple):
    """A chosen physical join and the data its probe loop reads."""

    method: str
    build_left: bool
    #: the probe side's key per row (the left side unless build_left)
    keys: Iterable[Key]
    #: a key's build-side positions (row ids of the base table for INDEX),
    #: or None: ``get`` of the buckets
    matches: Callable[[Key], Optional[Sequence[int]]]
    #: the trace line before EXPLAIN ANALYZE's counts; None when not traced
    label: Optional[str]


def choose_join(
    executor,
    left,
    right,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
    kind: str = INNER,
) -> JoinChoice:
    """The physical join of *left* and *right* on the key positions,
    counted in ``executor.stats``.

    * no keys, or a LEFT join without hash joins against a small right
      input: nested loop;
    * keys compared as floats (an index holds the stored values), and
      LEFT and NATURAL joins: hash join, the right side built;
    * with hash joins (``profile.hash_join``): an index nested loop when
      a small left input meets a whole, already-indexed base table,
      otherwise a hash join building the smaller input;
    * without: an index nested loop against a whole base table, indexing
      it when it is large; otherwise a transient hash key on the right
      input (MySQL 5.6+ auto-keying of derived tables), counted as an
      index nested loop.
    """
    stats = executor.stats
    profile = executor.profile
    if not left_keys or (
        kind == LEFT and not profile.hash_join and right.size <= AUTO_INDEX_ROWS
    ):
        stats.nested_loop_joins += 1
        return JoinChoice(NESTED, "nested")
    coerced = key_coercion(left.schema, right.schema, left_keys, right_keys)
    if coerced is not None or kind != INNER:
        stats.hash_joins += 1
        return JoinChoice(HASH, "coerced" if coerced else "hash", coerced=coerced)
    table = right.base_table
    whole = table is not None and right.size == table.row_count
    if whole:
        columns = [right.schema.fields[p][1] for p in right_keys]
    index = None
    if profile.hash_join:
        if whole and left.size * 4 <= right.size:
            index = table.hash_index_for(columns)
        if index is None:
            build_left = left.size < right.size
            stats.hash_joins += 1
            stats.build_side_swaps += build_left
            return JoinChoice(HASH, "hash", build_left=build_left)
    else:
        if whole:
            index = table.hash_index_for(columns)
            if index is None and table.row_count > AUTO_INDEX_ROWS:
                index = table.create_hash_index(columns)
        if index is None:
            stats.index_nl_joins += 1
            return JoinChoice(HASH, "auto_key")
    stats.index_nl_joins += 1
    return JoinChoice(INDEX, "index", index)


def plan_join(
    executor,
    left,
    right,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
    kind: str = INNER,
) -> JoinPlan:
    """:func:`choose_join`, then the probe keys and the buckets it reads,
    and its trace label (INNER joins only, and only while tracing)."""
    choice = choose_join(executor, left, right, left_keys, right_keys, kind)
    method, build_left = choice.method, choice.build_left
    build, probe = (left, right) if build_left else (right, left)
    build_keys, probe_keys = (
        (left_keys, right_keys) if build_left else (right_keys, left_keys)
    )
    if method == NESTED:
        keys: Iterable[Key] = repeat((), probe.size)
        matches = {(): range(build.size)}.get
    else:
        keys = key_column([probe.gather_column(p) for p in probe_keys], choice.coerced)
        if method == INDEX:
            matches = index_matches(choice.index, len(right_keys))
        else:
            matches = build_buckets(
                executor._shared, build, build_keys, choice.coerced
            ).get
    label = None
    if kind == INNER and executor.trace is not None:
        label = executor.JOIN_LABELS[choice.label].format(
            build=build.size,
            probe=probe.size,
            table=right.base_table.name if method == INDEX else None,
        ) + (" (swapped)" if build_left else "")
    return JoinPlan(method, build_left, keys, matches, label)
