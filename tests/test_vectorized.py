"""Batch-vs-row differential harness for the vectorized executor (PR 6).

The vectorized batch path ships gated by this suite: the row-at-a-time
executor is the correctness oracle, and every catalogue query (at two
scales), a pool of seeded fuzzed CQs, and DML-then-query sequences must
produce identical answer *bags* across the two executors before the
batch path counts as usable.  Executor selection (per-call override,
EXPLAIN) and the fallback accounting are covered here too.
"""

from __future__ import annotations

import gc
import re
from collections import Counter

import pytest

from repro.diffcheck import QueryFuzzer
from repro.npd import build_benchmark
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine
from repro.sql.engine import Database
from repro.sql.errors import ExecutionError
from repro.sql.executor import QueryResult

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_small():
    return build_benchmark(seed=1, profile=SeedProfile().scaled(0.1))


@pytest.fixture(scope="module")
def bench_medium():
    return build_benchmark(seed=1, profile=SeedProfile().scaled(0.25))


def _engine_pair(bench):
    row = OBDAEngine(
        bench.database, bench.ontology, bench.mappings, executor="row"
    )
    vec = OBDAEngine(
        bench.database, bench.ontology, bench.mappings, executor="vectorized"
    )
    return row, vec


@pytest.fixture(scope="module")
def engines_small(bench_small):
    return _engine_pair(bench_small)


@pytest.fixture(scope="module")
def engines_medium(bench_medium):
    return _engine_pair(bench_medium)


def _bags(row_engine, vec_engine, sparql):
    row_bag = Counter(row_engine.execute(sparql).to_python_rows())
    vec_bag = Counter(vec_engine.execute(sparql).to_python_rows())
    return row_bag, vec_bag


# ---------------------------------------------------------------------------
# catalogue parity
# ---------------------------------------------------------------------------


class TestCatalogueParity:
    def test_catalogue_bags_scale_01(self, bench_small, engines_small):
        row_engine, vec_engine = engines_small
        for query_id in sorted(bench_small.queries, key=lambda q: int(q[1:])):
            sparql = bench_small.queries[query_id].sparql
            row_bag, vec_bag = _bags(row_engine, vec_engine, sparql)
            assert row_bag == vec_bag, f"bag mismatch on {query_id} @ 0.1"

    def test_catalogue_bags_scale_025(self, bench_medium, engines_medium):
        row_engine, vec_engine = engines_medium
        for query_id in sorted(bench_medium.queries, key=lambda q: int(q[1:])):
            sparql = bench_medium.queries[query_id].sparql
            row_bag, vec_bag = _bags(row_engine, vec_engine, sparql)
            assert row_bag == vec_bag, f"bag mismatch on {query_id} @ 0.25"

    def test_batch_path_actually_used(self, bench_small, engines_small):
        """The catalogue must exercise the batch path, not fall back."""
        _, vec_engine = engines_small
        stats = bench_small.database.stats
        before = stats.batch_blocks
        for query in bench_small.queries.values():
            vec_engine.execute(query.sparql)
        assert stats.batch_blocks - before > 0


# ---------------------------------------------------------------------------
# one join planner for both executors
# ---------------------------------------------------------------------------


def _join_trace(database, statement, executor):
    """Join operator + sizes per EXPLAIN line, ``Batch`` prefix stripped."""
    return [
        line.removeprefix("Batch")
        for line in database.explain(statement, executor=executor)
        if line.split(" ", 1)[0].endswith("Join")
    ]


class TestSharedJoinPlanner:
    def test_vectorized_join_trace_follows_row_trace(self, bench_small, engines_small):
        """Same join order, same operator per pair, same input sizes.

        The batch path may run *fewer* joins -- it evaluates a derived
        table repeated across disjuncts once per execution (q14) -- but
        never different ones or in another order, so its trace is an
        order-preserving subsequence of the row trace.
        """
        row_engine, _ = engines_small
        database = bench_small.database
        shorter = []
        for query_id in sorted(bench_small.queries, key=lambda q: int(q[1:])):
            statement = row_engine.unfold(bench_small.queries[query_id].sparql).statement
            row_trace = _join_trace(database, statement, "row")
            vec_trace = _join_trace(database, statement, "vectorized")
            assert row_trace, f"{query_id}: no joins traced"
            remaining = iter(row_trace)
            assert all(line in remaining for line in vec_trace), (
                f"{query_id}: vectorized join trace diverges from the row trace"
            )
            if len(vec_trace) != len(row_trace):
                shorter.append(query_id)
        assert shorter == ["q14"]


_BULK_QUERY = (
    "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"
    "SELECT ?year ?month ?oil ?gas WHERE { ?volume npdv:productionMonth ?month ; "
    "npdv:productionYear ?year ; npdv:producedOil ?oil ; npdv:producedGas ?gas }"
)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("index", [0, 1], ids=["row", "vectorized"])
    def test_execution_leaves_no_cyclic_garbage(self, bench_small, engines_small, index):
        """Scanned and joined rows are freed by reference counting alone,
        not held in reference cycles until a full collection."""
        engine = engines_small[index]
        texts = [_BULK_QUERY, bench_small.queries["q6"].sparql]
        for text in texts:  # compile and fill the caches first
            engine.execute(text)
        gc.collect()
        gc.disable()
        try:
            for text in texts:
                engine.execute(text)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("index", [0, 1], ids=["row", "vectorized"])
    def test_compiling_leaves_no_cyclic_garbage(self, bench_small, engines_small, index):
        """Parsing, rewriting, unfolding and planning a never-seen query
        text leaves nothing for the collector either."""
        engine = engines_small[index]
        filtered = [
            query.sparql
            for _, query in sorted(bench_small.queries.items())
            if "FILTER" in query.sparql
        ]
        for text in filtered:  # fill the caches the fresh texts share
            engine.execute(text)
        gc.collect()
        gc.disable()
        try:
            for text in filtered:
                engine.execute(_FILTER.sub(_nudge_integers, text))
            assert gc.collect() == 0
        finally:
            gc.enable()


_FILTER = re.compile(r"FILTER\([^\n]*\)")
_INTEGER = re.compile(r"(?<![\w-])\d+(?![\w-])")


def _nudge_integers(found: re.Match) -> str:
    """A FILTER with every integer constant plus one: a text no cache has seen."""
    return _INTEGER.sub(lambda number: str(int(number.group()) + 1), found.group())


# ---------------------------------------------------------------------------
# fuzzed conjunctive queries
# ---------------------------------------------------------------------------


class TestFuzzedParity:
    def test_fuzzed_cqs_agree(self, bench_small, engines_small):
        row_engine, vec_engine = engines_small
        fuzzer = QueryFuzzer(bench_small.ontology, bench_small.mappings, seed=17)
        checked = 0
        for fuzzed in fuzzer.generate(24):
            row_bag, vec_bag = _bags(row_engine, vec_engine, fuzzed.sparql)
            assert row_bag == vec_bag, f"bag mismatch for {fuzzed.id}"
            checked += 1
        assert checked >= 20


# ---------------------------------------------------------------------------
# DML visibility / plan invalidation
# ---------------------------------------------------------------------------


def batch_query(db: Database, sql: str):
    """Run a SELECT on the vectorized executor and check it took the
    batch path."""
    before = db.stats.batch_blocks
    result = db.execute_plan(db.compile(sql), executor="vectorized")
    assert db.stats.batch_blocks > before
    return result


@pytest.fixture()
def vec_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE wells "
        "(id INTEGER PRIMARY KEY, name TEXT, depth REAL, active INTEGER)"
    )
    db.insert_rows(
        "wells",
        [(i, f"w{i}", 100.0 + i, i % 2) for i in range(50)],
    )
    return db


class TestColumnMajorResults:
    """A block with no DISTINCT, ORDER BY, LIMIT/OFFSET or UNION hands
    its value columns on; row tuples are built only when read."""

    def test_columns_lazy_rows_and_row_executor_agree(self, engines_s025):
        engines, queries = engines_s025
        engine = engines["best"]
        database = engine.database
        column_major = set()
        for query_id, sparql in sorted(queries.items()):
            statement = engine.unfold(sparql).statement
            if statement is None:
                continue
            plan = database.compile(statement)
            result = database.execute_plan(plan, executor="vectorized")
            if result.values is not None:
                column_major.add(query_id)
            rows = database.execute_plan(plan, executor="row").rows
            view = result.value_columns()
            assert len(result.rows) == len(result) == len(rows), query_id
            assert all(len(column) == len(result) for column in view), query_id
            assert list(zip(*view)) == list(result.rows), query_id
            assert Counter(result.rows) == Counter(rows), query_id
        assert {"b1", "b2"} <= column_major

    def test_bulk_answer_builds_no_row_tuples(self, engines_s025, monkeypatch):
        engines, queries = engines_s025
        built, results = [], []
        row_list = QueryResult.row_list
        execute_plan = Database.execute_plan

        def counted_row_list(result):
            built.append(result.columns)
            return row_list(result)

        def recorded_execute_plan(database, *args, **kwargs):
            results.append(execute_plan(database, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(QueryResult, "row_list", counted_row_list)
        monkeypatch.setattr(Database, "execute_plan", recorded_execute_plan)
        answer = engines["best"].execute(queries["b1"])
        assert len(answer) == 1440 and len(answer.answer.columns) == 4
        assert built == []
        assert [result.values is not None for result in results] == [True]


class TestDMLVisibility:
    QUERY = "SELECT id, name FROM wells WHERE depth > 120 ORDER BY id"

    def test_insert_visible(self, vec_db):
        before = batch_query(vec_db, self.QUERY).rows
        vec_db.execute(
            "INSERT INTO wells (id, name, depth, active) "
            "VALUES (99, 'fresh', 500.0, 1)"
        )
        after = batch_query(vec_db, self.QUERY).rows
        assert (99, "fresh") in after
        assert len(after) == len(before) + 1

    def test_delete_visible(self, vec_db):
        vec_db.execute("DELETE FROM wells WHERE id >= 40")
        rows = batch_query(vec_db, "SELECT id FROM wells ORDER BY id").rows
        assert [r[0] for r in rows] == list(range(40))

    def test_update_visible(self, vec_db):
        vec_db.execute("UPDATE wells SET depth = 999.0 WHERE id = 3")
        rows = batch_query(
            vec_db, "SELECT id FROM wells WHERE depth = 999.0"
        ).rows
        assert rows == [(3,)]

    def test_mixed_sequence_matches_row_executor(self, vec_db):
        """Interleave DML with queries; bags must match a row re-run."""
        script = [
            "INSERT INTO wells (id, name, depth, active) "
            "VALUES (200, 'deep', 1000.0, 0)",
            "DELETE FROM wells WHERE active = 1 AND id < 10",
            "UPDATE wells SET active = 1 WHERE depth > 130",
        ]
        probe = (
            "SELECT active, COUNT(*), SUM(depth) FROM wells "
            "GROUP BY active ORDER BY active"
        )
        for statement in script:
            vec_db.execute(statement)
            vec_rows = batch_query(vec_db, probe).rows
            plan = vec_db.compile(probe)
            row_rows = vec_db.execute_plan(plan, executor="row").rows
            assert vec_rows == row_rows

    def test_index_backed_lookup_sees_dml(self, vec_db):
        # PK equality goes through the hash index inside the batch path;
        # a stale index would resurrect the deleted row
        assert batch_query(
            vec_db, "SELECT name FROM wells WHERE id = 7"
        ).rows == [("w7",)]
        vec_db.execute("DELETE FROM wells WHERE id = 7")
        assert batch_query(
            vec_db, "SELECT name FROM wells WHERE id = 7"
        ).rows == []


# ---------------------------------------------------------------------------
# executor selection API
# ---------------------------------------------------------------------------


class TestExecutorSelection:
    def test_per_call_override(self, vec_db):
        plan = vec_db.compile("SELECT COUNT(*) FROM wells")
        stats = vec_db.stats
        fallback_before = stats.batch_blocks
        vec_db.execute_plan(plan, executor="vectorized")
        assert stats.batch_blocks == fallback_before + 1
        row_result = vec_db.execute_plan(plan, executor="row")
        vec_result = vec_db.execute_plan(plan, executor="vectorized")
        assert row_result.rows == vec_result.rows

    def test_unknown_executor_rejected_per_call(self, vec_db):
        plan = vec_db.compile("SELECT id FROM wells")
        with pytest.raises(ExecutionError):
            vec_db.execute_plan(plan, executor="turbo")

    def test_explain_shows_batch_operators(self, vec_db):
        lines = vec_db.explain(
            "SELECT id FROM wells WHERE depth > 120", analyze=True,
            executor="vectorized",
        )
        assert any("Batch" in line for line in lines)

    def test_left_join_falls_back_to_row_path(self, vec_db):
        vec_db.execute(
            "CREATE TABLE ops (well_id INTEGER PRIMARY KEY, op TEXT)"
        )
        vec_db.insert_rows("ops", [(i, "co") for i in range(0, 50, 5)])
        stats = vec_db.stats
        before = stats.batch_fallbacks
        plan = vec_db.compile(
            "SELECT w.id, o.op FROM wells w "
            "LEFT JOIN ops o ON w.id = o.well_id WHERE w.id < 12 ORDER BY w.id"
        )
        result = vec_db.execute_plan(plan, executor="vectorized")
        assert stats.batch_fallbacks > before
        assert result.rows == vec_db.execute_plan(plan, executor="row").rows
