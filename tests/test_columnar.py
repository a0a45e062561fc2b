"""Property-based tests for the column codecs and filter kernels (PR 6).

The typed column arrays behind :class:`~repro.sql.columnar.ColumnStore`
must be *invisible*: whatever mix of values and NULLs a column holds,
gathers round-trip exactly, the filter kernels agree with a plain-Python
reference predicate under SQL three-valued semantics, aggregates stay
``math.fsum``-order-independent, and the batch executor matches the row
executor on empty and single-row boundaries.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.columnar import select_cmp, select_eq, select_in, select_null
from repro.sql.engine import Database
from repro.sql.types import (
    BoolColumn,
    DictColumn,
    FloatColumn,
    IntColumn,
    ObjectColumn,
)


def batch_query(db: Database, sql: str):
    """Run a SELECT on the vectorized executor and check it took the
    batch path."""
    before = db.stats.batch_blocks
    result = db.execute_plan(db.compile(sql), executor="vectorized")
    assert db.stats.batch_blocks > before
    return result


# -- strategies -------------------------------------------------------------

int_values = st.lists(
    st.one_of(st.none(), st.integers(min_value=-(2**40), max_value=2**40)),
    max_size=60,
)
float_values = st.lists(
    st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=60,
)
bool_values = st.lists(st.one_of(st.none(), st.booleans()), max_size=60)
text_values = st.lists(
    st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd", "ee", ""])),
    max_size=60,
)


def _fill(codec, values):
    for value in values:
        codec.append(value)
    return codec


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------


class TestCodecRoundTrip:
    @given(values=int_values)
    def test_int_gather_round_trips(self, values):
        codec = _fill(IntColumn(), values)
        positions = range(len(values))
        assert codec.gather(positions) == values
        assert [codec.get(p) for p in positions] == values
        assert codec.null_count == sum(1 for v in values if v is None)

    @given(values=float_values)
    def test_float_gather_round_trips(self, values):
        codec = _fill(FloatColumn(), values)
        got = codec.gather(range(len(values)))
        for stored, original in zip(got, values):
            if original is None:
                assert stored is None
            else:
                assert stored == original

    @given(values=bool_values)
    def test_bool_gather_round_trips(self, values):
        codec = _fill(BoolColumn(), values)
        assert codec.gather(range(len(values))) == values

    @given(values=text_values)
    def test_dict_gather_round_trips(self, values):
        codec = _fill(DictColumn(), values)
        assert codec.gather(range(len(values))) == values
        # dictionary holds each distinct non-NULL value exactly once
        distinct = {v for v in values if v is not None}
        assert sorted(codec.dictionary) == sorted(distinct)

    @given(values=int_values, updates=int_values)
    def test_set_round_trips(self, values, updates):
        codec = _fill(IntColumn(), values)
        for position, value in enumerate(updates[: len(values)]):
            codec.set(position, value)
        expected = list(values)
        expected[: len(updates)] = updates[: len(values)]
        assert codec.gather(range(len(values))) == expected
        assert codec.null_count == sum(1 for v in expected if v is None)

    @given(values=int_values)
    def test_to_object_preserves_values(self, values):
        codec = _fill(IntColumn(), values)
        obj = codec.to_object()
        assert obj.gather(range(len(values))) == values


class TestDegradation:
    def test_int_overflow_value_degrades_but_keeps_data(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v BIGINT)")
        db.insert_rows("t", [(1, 5), (2, 2**70), (3, None)])
        table = db.catalog.table("t")
        codec = table.column_store().columns[1]
        assert isinstance(codec, ObjectColumn)
        rows = batch_query(db, "SELECT v FROM t ORDER BY id").rows
        assert [r[0] for r in rows] == [5, 2**70, None]

    def test_high_ndv_text_degrades_to_object(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        db.insert_rows("t", [(i, f"unique-{i}") for i in range(400)])
        codec = db.catalog.table("t").column_store().columns[1]
        assert isinstance(codec, ObjectColumn) and codec.textual
        assert batch_query(
            db, "SELECT id FROM t WHERE s = 'unique-37'"
        ).rows == [(37,)]

    def test_low_ndv_text_stays_dictionary(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        db.insert_rows("t", [(i, "ab"[i % 2]) for i in range(400)])
        codec = db.catalog.table("t").column_store().columns[1]
        assert isinstance(codec, DictColumn)


# ---------------------------------------------------------------------------
# kernels vs. reference predicates
# ---------------------------------------------------------------------------


class TestKernelsAgainstReference:
    @given(values=int_values, literal=st.integers(-50, 50))
    def test_eq_kernel(self, values, literal):
        codec = _fill(IntColumn(), values)
        positions = list(range(len(values)))
        assert select_eq(codec, positions, literal) == [
            p for p in positions if values[p] == literal
        ]
        assert select_eq(codec, positions, literal, negated=True) == [
            p for p in positions if values[p] is not None and values[p] != literal
        ]

    @given(
        values=int_values,
        op=st.sampled_from(["<", "<=", ">", ">="]),
        literal=st.integers(-50, 50),
    )
    def test_cmp_kernel(self, values, op, literal):
        import operator

        ops = {
            "<": operator.lt,
            "<=": operator.le,
            ">": operator.gt,
            ">=": operator.ge,
        }
        codec = _fill(IntColumn(), values)
        positions = list(range(len(values)))
        assert select_cmp(codec, positions, op, literal) == [
            p
            for p in positions
            if values[p] is not None and ops[op](values[p], literal)
        ]

    @given(values=int_values)
    def test_null_kernel(self, values):
        codec = _fill(IntColumn(), values)
        positions = list(range(len(values)))
        assert select_null(codec, positions, negated=False) == [
            p for p in positions if values[p] is None
        ]
        assert select_null(codec, positions, negated=True) == [
            p for p in positions if values[p] is not None
        ]

    @given(
        values=text_values,
        literals=st.lists(
            st.one_of(st.none(), st.sampled_from(["a", "c", "zz"])), max_size=4
        ),
    )
    def test_in_kernel_three_valued(self, values, literals):
        codec = _fill(DictColumn(), values)
        positions = list(range(len(values)))
        wanted = {v for v in literals if v is not None}
        assert select_in(codec, positions, literals, negated=False) == [
            p for p in positions if values[p] is not None and values[p] in wanted
        ]
        if any(v is None for v in literals):
            # NOT IN over a NULL literal is never TRUE
            assert select_in(codec, positions, literals, negated=True) == []
        else:
            assert select_in(codec, positions, literals, negated=True) == [
                p
                for p in positions
                if values[p] is not None and values[p] not in wanted
            ]

    @given(values=text_values, literal=st.sampled_from(["a", "c", "zz"]))
    def test_dict_eq_kernel(self, values, literal):
        codec = _fill(DictColumn(), values)
        positions = list(range(len(values)))
        assert select_eq(codec, positions, literal) == [
            p for p in positions if values[p] == literal
        ]

    def test_type_gates_refuse_cross_type_literals(self):
        ints = _fill(IntColumn(), [1, 2, None])
        texts = _fill(DictColumn(), ["a", None])
        # bool is not a numeric literal for the kernel gate, and numbers
        # are not strings: the caller must fall back to compiled eval
        assert select_eq(ints, [0, 1, 2], True) is None
        assert select_eq(texts, [0, 1], 3) is None
        assert select_cmp(ints, [0, 1, 2], "<", "x") is None
        assert select_in(ints, [0, 1, 2], [1, "x"], negated=False) is None


# ---------------------------------------------------------------------------
# SQL-level properties: NULLs, fsum parity, batch boundaries
# ---------------------------------------------------------------------------


def _pair_dbs(rows):
    """Two Databases over identical data: the first answers on the row
    executor, the second through :func:`batch_query`."""
    dbs = []
    for _ in range(2):
        db = Database()
        db.execute(
            "CREATE TABLE m (id INTEGER PRIMARY KEY, g TEXT, x DOUBLE)"
        )
        db.insert_rows("m", rows)
        dbs.append(db)
    return dbs


class TestSqlLevelProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.one_of(st.none(), st.sampled_from(["g1", "g2"])),
                st.one_of(
                    st.none(),
                    st.floats(
                        allow_nan=False, allow_infinity=False, width=16
                    ),
                ),
            ),
            max_size=40,
        )
    )
    def test_null_bitmap_through_filter_join_aggregate(self, data):
        rows = [(i, g, x) for i, (g, x) in enumerate(data)]
        row_db, vec_db = _pair_dbs(rows)
        probes = [
            "SELECT id FROM m WHERE x IS NULL ORDER BY id",
            "SELECT id FROM m WHERE x IS NOT NULL AND x >= 0 ORDER BY id",
            "SELECT g, COUNT(x), SUM(x) FROM m GROUP BY g ORDER BY g",
            "SELECT a.id, b.id FROM m a, m b WHERE a.g = b.g AND a.x < b.x "
            "ORDER BY a.id, b.id",
        ]
        for sql in probes:
            assert row_db.execute(sql).rows == batch_query(vec_db, sql).rows, sql

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.floats(
                min_value=-1e12, max_value=1e12,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=30,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_sum_is_insertion_order_independent(self, xs, seed):
        import random

        shuffled = list(xs)
        random.Random(seed).shuffle(shuffled)
        expected = math.fsum(xs)
        for ordering in (xs, shuffled):
            rows = [(i, "g", x) for i, x in enumerate(ordering)]
            _, vec_db = _pair_dbs(rows)
            total = batch_query(vec_db, "SELECT SUM(x) FROM m").rows[0][0]
            assert total == expected

    def test_empty_batch(self):
        row_db, vec_db = _pair_dbs([])
        probes = [
            "SELECT id FROM m WHERE x > 0",
            "SELECT COUNT(*), SUM(x) FROM m",
            "SELECT g, COUNT(*) FROM m GROUP BY g",
            "SELECT a.id FROM m a, m b WHERE a.id = b.id",
        ]
        for sql in probes:
            assert row_db.execute(sql).rows == batch_query(vec_db, sql).rows, sql

    def test_single_row_batch(self):
        row_db, vec_db = _pair_dbs([(0, "g1", 1.5)])
        probes = [
            "SELECT id, g, x FROM m",
            "SELECT id FROM m WHERE x > 0 AND g = 'g1'",
            "SELECT g, SUM(x), MIN(x), MAX(x) FROM m GROUP BY g",
            "SELECT a.id, b.id FROM m a, m b WHERE a.g = b.g",
        ]
        for sql in probes:
            assert row_db.execute(sql).rows == batch_query(vec_db, sql).rows, sql

    def test_is_not_null_guard_elision_parity(self):
        """obdalint's IS NOT NULL elision rests on filters never matching
        NULL; the kernels must uphold it."""
        rows = [(0, None, None), (1, "g1", 2.0), (2, "g2", None)]
        row_db, vec_db = _pair_dbs(rows)
        for sql in (
            "SELECT id FROM m WHERE g IS NOT NULL AND g = 'g1'",
            "SELECT id FROM m WHERE g = 'g1'",
            "SELECT id FROM m WHERE x IS NOT NULL AND x > 1",
            "SELECT id FROM m WHERE x > 1",
        ):
            assert row_db.execute(sql).rows == batch_query(vec_db, sql).rows == [
                (1,)
            ], sql
