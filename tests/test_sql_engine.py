"""Tests for the Database facade: DDL, DML, constraints, cloning."""

import pytest

from repro.sql import CatalogError, Database, ExecutionError, IntegrityError
from repro.sql.executor import ExecutionStats


@pytest.fixture()
def db():
    return Database()


class TestDdl:
    def test_create_and_describe(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
        table = db.catalog.table("t")
        assert table.primary_key == ("id",)
        assert table.column_names == ("id", "v")

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (id INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (id INTEGER)")

    def test_create_index(self, db):
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR(10))")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        db.execute("CREATE INDEX idx ON t (v)")
        table = db.catalog.table("t")
        assert table.hash_index_for(("v",)) is not None
        assert table.sorted_index_for("v") is not None


class TestDml:
    def test_insert_select(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
        result = db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert result.rows == [(2,)]
        assert db.query("SELECT COUNT(*) FROM t").rows == [(2,)]

    def test_insert_with_columns(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
        db.execute("INSERT INTO t (v, id) VALUES ('a', 1)")
        assert db.query("SELECT id, v FROM t").rows == [(1, "a")]

    def test_delete(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = db.execute("DELETE FROM t WHERE id > 1")
        assert result.rows == [(2,)]
        assert db.query("SELECT id FROM t").rows == [(1,)]

    def test_delete_updates_indexes(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DELETE FROM t")
        db.execute("INSERT INTO t VALUES (1)")  # PK free again
        assert db.query("SELECT COUNT(*) FROM t").rows == [(1,)]

    def test_update(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        result = db.execute("UPDATE t SET v = 'z' WHERE id = 2")
        assert result.rows == [(1,)]
        assert db.query("SELECT v FROM t WHERE id = 2").rows == [("z",)]

    def test_update_expression_uses_old_row(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("UPDATE t SET v = v + 1")
        assert db.query("SELECT v FROM t").rows == [(11,)]


class TestConstraints:
    def test_pk_uniqueness(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_composite_pk(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")
        db.execute("INSERT INTO t VALUES (1, 1), (1, 2)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (1, 2)")

    def test_pk_null_rejected(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (NULL)")

    def test_not_null(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(5) NOT NULL)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (1, NULL)")

    def test_foreign_key_enforced(self, db):
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE c (id INTEGER PRIMARY KEY, pid INTEGER, "
            "FOREIGN KEY (pid) REFERENCES p (id))"
        )
        db.execute("INSERT INTO p VALUES (1)")
        db.execute("INSERT INTO c VALUES (1, 1)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO c VALUES (2, 99)")

    def test_null_fk_allowed(self, db):
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE c (id INTEGER PRIMARY KEY, pid INTEGER, "
            "FOREIGN KEY (pid) REFERENCES p (id))"
        )
        db.execute("INSERT INTO c VALUES (1, NULL)")

    def test_fk_check_can_be_disabled(self):
        db = Database(enforce_foreign_keys=False)
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE c (id INTEGER PRIMARY KEY, pid INTEGER, "
            "FOREIGN KEY (pid) REFERENCES p (id))"
        )
        db.execute("INSERT INTO c VALUES (1, 99)")  # no error
        assert len(db.catalog.check_foreign_keys()) == 1

    def test_type_coercion_on_insert(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, d DATE)")
        db.execute("INSERT INTO t VALUES (1, '2014-01-01')")
        from repro.sql import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t VALUES (2, 'not-a-date')")


class TestBulkLoading:
    def test_insert_rows(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
        count = db.insert_rows("t", [(1, "a"), (2, "b"), (3, "c")])
        assert count == 3
        assert db.query("SELECT COUNT(*) FROM t").rows == [(3,)]

    def test_insert_rows_with_columns(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
        db.insert_rows("t", [("a", 1)], columns=["v", "id"])
        assert db.query("SELECT id, v FROM t").rows == [(1, "a")]


class TestQueryIsReadOnly:
    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO t VALUES (3)",
            "DELETE FROM t",
            "UPDATE t SET id = 9 WHERE id = 1",
            "CREATE TABLE u (id INTEGER PRIMARY KEY)",
            "CREATE INDEX idx_t ON t (id)",
        ],
    )
    def test_query_rejects_non_select_before_running_it(self, db, statement):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        generation = db.plan_generation
        with pytest.raises(ExecutionError):
            db.query(statement)
        assert db.query("SELECT id FROM t ORDER BY id").rows == [(1,), (2,)]
        assert not db.catalog.has_table("u")
        assert db.plan_generation == generation


class TestExecutionStats:
    def test_reset_zeroes_every_counter(self):
        import dataclasses

        stats = ExecutionStats()
        names = [counter.name for counter in dataclasses.fields(stats)]
        for position, name in enumerate(names, start=1):
            setattr(stats, name, position)
        stats.reset()
        assert {name: getattr(stats, name) for name in names} == dict.fromkeys(names, 0)
        # the benchmark's control API reads these by name
        read_by_name = {
            "batch_blocks",
            "batch_fallbacks",
            "shared_scan_hits",
            "plan_recompiles",
        }
        assert read_by_name <= set(names)


class TestCloning:
    def test_clone_schema_is_empty(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        clone = db.clone_schema()
        assert clone.catalog.has_table("t")
        assert clone.catalog.table("t").row_count == 0

    def test_clone_with_data(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        clone = db.clone_with_data()
        assert clone.query("SELECT COUNT(*) FROM t").rows == [(2,)]
        clone.execute("INSERT INTO t VALUES (3)")
        assert db.query("SELECT COUNT(*) FROM t").rows == [(2,)]  # independent

    def test_table_sizes(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.table_sizes() == {"t": 1}
        assert db.total_rows() == 1


class TestFkGraph:
    def test_fk_cycle_detection(self, db):
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, bref INTEGER, FOREIGN KEY (bref) REFERENCES b (id))")
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, aref INTEGER, FOREIGN KEY (aref) REFERENCES a (id))")
        cycles = db.catalog.fk_cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b"}

    def test_self_cycle(self, db):
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, parent INTEGER, "
            "FOREIGN KEY (parent) REFERENCES t (id))"
        )
        cycles = db.catalog.fk_cycles()
        assert cycles == [["t"]]

    def test_referencing_tables(self, db):
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE c (id INTEGER PRIMARY KEY, pid INTEGER, "
            "FOREIGN KEY (pid) REFERENCES p (id))"
        )
        refs = db.catalog.referencing_tables("p")
        assert refs[0][0] == "c"
