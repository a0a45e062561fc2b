"""Integration-style tests for query execution (via the Database facade)."""

import pytest

from repro.sql import mysql_profile, postgresql_profile


@pytest.fixture(params=["mysql", "postgresql"])
def db(request, example_db):
    """Each test runs under both engine profiles -- results must agree."""
    profile = mysql_profile() if request.param == "mysql" else postgresql_profile()
    example_db.set_profile(profile)
    return example_db


class TestSelect:
    def test_projection(self, db):
        result = db.query("SELECT name FROM temployee ORDER BY name")
        assert result.rows == [("John",), ("Lisa",)]

    def test_where_pushdown_with_index(self, db):
        result = db.query("SELECT name FROM temployee WHERE id = 2")
        assert result.rows == [("Lisa",)]

    def test_range_predicate(self, db):
        result = db.query("SELECT id FROM temployee WHERE id >= 2")
        assert result.rows == [(2,)]

    def test_inner_join(self, db):
        result = db.query(
            "SELECT e.name, s.product FROM temployee e "
            "JOIN tsellsproduct s ON e.id = s.id ORDER BY e.name, s.product"
        )
        assert result.rows == [
            ("John", "p1"),
            ("John", "p2"),
            ("Lisa", "p2"),
            ("Lisa", "p3"),
        ]

    def test_three_way_join(self, db):
        result = db.query(
            "SELECT e.name, p.size FROM temployee e "
            "JOIN tsellsproduct s ON e.id = s.id "
            "JOIN tproduct p ON s.product = p.product "
            "WHERE p.size = 'small'"
        )
        assert result.rows == [("Lisa", "small")]

    def test_left_join_preserves_unmatched(self, db):
        result = db.query(
            "SELECT p.product, s.id FROM tproduct p "
            "LEFT JOIN tsellsproduct s ON p.product = s.product "
            "ORDER BY p.product, s.id"
        )
        products = [row[0] for row in result.rows]
        assert "p4" in products
        p4_rows = [row for row in result.rows if row[0] == "p4"]
        assert p4_rows == [("p4", None)]

    def test_natural_join(self, db):
        result = db.query(
            "SELECT name, task FROM temployee NATURAL JOIN tassignment "
            "ORDER BY name, task"
        )
        # both employees are in branch B1 which has two tasks
        assert len(result.rows) == 4

    def test_cross_join(self, db):
        result = db.query("SELECT e.id, p.product FROM temployee e, tproduct p")
        assert len(result.rows) == 8

    def test_where_comma_join(self, db):
        result = db.query(
            "SELECT e.name FROM temployee e, tsellsproduct s "
            "WHERE e.id = s.id AND s.product = 'p1'"
        )
        assert result.rows == [("John",)]


class TestAggregates:
    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM tproduct").rows == [(4,)]

    def test_group_by(self, db):
        result = db.query(
            "SELECT size, COUNT(*) AS n FROM tproduct GROUP BY size ORDER BY n DESC"
        )
        assert result.rows == [("big", 3), ("small", 1)]

    def test_count_distinct(self, db):
        result = db.query("SELECT COUNT(DISTINCT size) FROM tproduct")
        assert result.rows == [(2,)]

    def test_sum_avg_min_max(self, db):
        result = db.query(
            "SELECT SUM(id), AVG(id), MIN(id), MAX(id) FROM temployee"
        )
        assert result.rows == [(3, 1.5, 1, 2)]

    def test_aggregate_ignores_nulls(self, db):
        db.execute("CREATE TABLE nt (v INTEGER)")
        db.execute("INSERT INTO nt VALUES (1), (NULL), (3)")
        result = db.query("SELECT COUNT(v), SUM(v), AVG(v) FROM nt")
        assert result.rows == [(2, 4, 2.0)]
        db.catalog.drop_table("nt")

    def test_empty_group_aggregate(self, db):
        result = db.query("SELECT COUNT(*), SUM(id) FROM temployee WHERE id > 99")
        assert result.rows == [(0, None)]

    def test_having(self, db):
        result = db.query(
            "SELECT size, COUNT(*) AS n FROM tproduct GROUP BY size HAVING n >= 3"
        )
        assert result.rows == [("big", 3)]

    def test_having_with_aggregate_expression(self, db):
        result = db.query(
            "SELECT size FROM tproduct GROUP BY size HAVING COUNT(*) = 1"
        )
        assert result.rows == [("small",)]

    def test_group_by_expression_ordering(self, db):
        result = db.query(
            "SELECT branch, COUNT(*) AS n FROM tassignment GROUP BY branch "
            "ORDER BY branch"
        )
        assert result.rows == [("B1", 2), ("B2", 2)]


class TestSetOperations:
    def test_union_dedups(self, db):
        result = db.query(
            "SELECT branch FROM temployee UNION SELECT branch FROM tassignment"
        )
        assert sorted(result.rows) == [("B1",), ("B2",)]

    def test_union_all_keeps_duplicates(self, db):
        result = db.query(
            "SELECT branch FROM temployee UNION ALL SELECT branch FROM tassignment"
        )
        assert len(result.rows) == 6

    def test_union_column_count_mismatch(self, db):
        from repro.sql import ExecutionError

        with pytest.raises(ExecutionError):
            db.query("SELECT id, name FROM temployee UNION SELECT id FROM temployee")

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT size FROM tproduct")
        assert sorted(result.rows) == [("big",), ("small",)]


class TestNullSemantics:
    @pytest.fixture(autouse=True)
    def _nulls(self, db):
        db.execute("CREATE TABLE n (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO n VALUES (1, 10), (2, NULL), (NULL, 30)")
        yield
        db.catalog.drop_table("n")

    def test_null_never_equals(self, db):
        assert db.query("SELECT a FROM n WHERE b = NULL").rows == []

    def test_is_null(self, db):
        assert db.query("SELECT a FROM n WHERE b IS NULL").rows == [(2,)]

    def test_is_not_null(self, db):
        result = db.query("SELECT b FROM n WHERE a IS NOT NULL ORDER BY a")
        assert result.rows == [(10,), (None,)]

    def test_null_in_comparison_filters_row(self, db):
        assert db.query("SELECT a FROM n WHERE b > 5 ORDER BY a").rows == [
            (None,),
            (1,),
        ] or db.query("SELECT a FROM n WHERE b > 5 ORDER BY a").rows == [
            (None,),
            (1,),
        ]

    def test_three_valued_or(self, db):
        # NULL > 5 OR a = 2  ->  keeps row with a=2 despite NULL b
        result = db.query("SELECT a FROM n WHERE b > 5 OR a = 2 ORDER BY a")
        assert (2,) in result.rows

    def test_nulls_do_not_join(self, db):
        db.execute("CREATE TABLE m (b INTEGER)")
        db.execute("INSERT INTO m VALUES (NULL), (10)")
        result = db.query("SELECT n.a FROM n JOIN m ON n.b = m.b")
        assert result.rows == [(1,)]
        db.catalog.drop_table("m")


class TestModifiers:
    def test_limit_offset(self, db):
        result = db.query("SELECT product FROM tproduct ORDER BY product LIMIT 2 OFFSET 1")
        assert result.rows == [("p2",), ("p3",)]

    def test_order_by_desc(self, db):
        result = db.query("SELECT id FROM temployee ORDER BY id DESC")
        assert result.rows == [(2,), (1,)]

    def test_order_by_ordinal(self, db):
        result = db.query("SELECT name, id FROM temployee ORDER BY 2 DESC")
        assert result.rows[0] == ("Lisa", 2)

    def test_order_by_source_column_not_projected(self, db):
        result = db.query("SELECT name FROM temployee ORDER BY id DESC")
        assert result.rows == [("Lisa",), ("John",)]

    def test_order_by_nulls_first(self, db):
        db.execute("CREATE TABLE o (v INTEGER)")
        db.execute("INSERT INTO o VALUES (2), (NULL), (1)")
        result = db.query("SELECT v FROM o ORDER BY v")
        assert result.rows == [(None,), (1,), (2,)]
        db.catalog.drop_table("o")


class TestSubqueries:
    def test_in_subquery(self, db):
        result = db.query(
            "SELECT name FROM temployee WHERE id IN "
            "(SELECT id FROM tsellsproduct WHERE product = 'p3')"
        )
        assert result.rows == [("Lisa",)]

    def test_not_in_subquery(self, db):
        result = db.query(
            "SELECT product FROM tproduct WHERE product NOT IN "
            "(SELECT product FROM tsellsproduct)"
        )
        assert result.rows == [("p4",)]

    def test_exists(self, db):
        result = db.query(
            "SELECT name FROM temployee WHERE EXISTS (SELECT 1 FROM tproduct)"
        )
        assert len(result.rows) == 2

    def test_from_subquery(self, db):
        result = db.query(
            "SELECT x FROM (SELECT id + 10 AS x FROM temployee) s ORDER BY x"
        )
        assert result.rows == [(11,), (12,)]

    def test_nested_subqueries(self, db):
        result = db.query(
            "SELECT y FROM (SELECT x AS y FROM "
            "(SELECT id AS x FROM temployee) a) b ORDER BY y"
        )
        assert result.rows == [(1,), (2,)]


class TestExpressionsInQueries:
    def test_scalar_functions(self, db):
        result = db.query(
            "SELECT UPPER(name), LENGTH(name) FROM temployee WHERE id = 1"
        )
        assert result.rows == [("JOHN", 4)]

    def test_concat(self, db):
        result = db.query("SELECT CONCAT(name, '-', branch) FROM temployee WHERE id = 1")
        assert result.rows == [("John-B1",)]

    def test_coalesce(self, db):
        result = db.query("SELECT COALESCE(NULL, name) FROM temployee WHERE id = 1")
        assert result.rows == [("John",)]

    def test_case(self, db):
        result = db.query(
            "SELECT CASE WHEN size = 'big' THEN 1 ELSE 0 END AS b "
            "FROM tproduct ORDER BY product"
        )
        assert [row[0] for row in result.rows] == [1, 1, 0, 1]

    def test_division_by_zero_is_null(self, db):
        assert db.query("SELECT 1 / 0").rows == [(None,)]

    def test_like(self, db):
        result = db.query("SELECT name FROM temployee WHERE name LIKE 'J%'")
        assert result.rows == [("John",)]

    def test_between(self, db):
        result = db.query("SELECT id FROM temployee WHERE id BETWEEN 2 AND 5")
        assert result.rows == [(2,)]

    def test_year_function(self, db):
        assert db.query("SELECT YEAR('2008-05-01')").rows == [(2008,)]


class TestProfilesAgree:
    def test_same_results_across_profiles(self, example_db):
        queries = [
            "SELECT e.name, s.product FROM temployee e JOIN tsellsproduct s "
            "ON e.id = s.id ORDER BY 1, 2",
            "SELECT size, COUNT(*) FROM tproduct GROUP BY size ORDER BY 1",
            "SELECT DISTINCT branch FROM tassignment UNION SELECT size FROM tproduct",
        ]
        example_db.set_profile(mysql_profile())
        mysql_results = [sorted(example_db.query(q).rows) for q in queries]
        example_db.set_profile(postgresql_profile())
        pg_results = [sorted(example_db.query(q).rows) for q in queries]
        assert mysql_results == pg_results

    def test_stats_tracking(self, example_db):
        example_db.set_profile(postgresql_profile())
        example_db.stats.reset()
        example_db.query(
            "SELECT e.name FROM temployee e JOIN tsellsproduct s ON e.id = s.id"
        )
        assert example_db.stats.rows_scanned > 0
        assert (
            example_db.stats.hash_joins
            + example_db.stats.index_nl_joins
            + example_db.stats.nested_loop_joins
            > 0
        )


class TestCrossTypeEquiJoin:
    """An equi-join of a number or a boolean with text matches as ``=``
    does (``sql_compare``: both as floats) on every join operator, with or
    without a hash index on the text column."""

    @pytest.fixture()
    def codes(self, db):
        db.execute_script(
            """
            CREATE TABLE tcode (code VARCHAR(10), label VARCHAR(10));
            INSERT INTO tcode VALUES ('1', 'one'), ('2', 'two'), ('2.0', 'two again'),
                ('x', 'ex'), (NULL, 'none');
            CREATE TABLE tflag (flag BOOLEAN, note VARCHAR(10));
            INSERT INTO tflag VALUES (TRUE, 't'), (FALSE, 'f'), (NULL, 'n');
            """
        )
        return db

    JOINS = [
        "SELECT e.name, c.label FROM temployee e JOIN tcode c ON e.id = c.code",
        "SELECT e.name, c.label FROM temployee e, tcode c WHERE e.id = c.code",
        "SELECT e.name, c.label FROM tcode c JOIN temployee e ON c.code = e.id",
        "SELECT e.name, c.label FROM temployee e JOIN tcode c "
        "ON e.id = c.code AND e.name = e.name",
        "SELECT e.name, c.label FROM temployee e "
        "JOIN (SELECT code, label FROM tcode) c ON e.id = c.code",
        "SELECT e.name, c.label FROM (SELECT id, name FROM temployee) e "
        "JOIN tcode c ON e.id = c.code",
        "SELECT e.name, c.label FROM (SELECT id, name FROM temployee "
        "UNION ALL SELECT id, name FROM temployee WHERE id < 0) e "
        "JOIN (SELECT code, label FROM tcode) c ON e.id = c.code",
    ]

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    @pytest.mark.parametrize("sql", JOINS)
    def test_number_against_text(self, codes, executor, sql):
        rows = codes.execute_plan(codes.compile(sql), executor=executor).rows
        reference = codes.compile(sql.replace("e.id", "e.id + 0"))
        assert sorted(rows) == [("John", "one"), ("Lisa", "two"), ("Lisa", "two again")]
        assert sorted(rows) == sorted(codes.execute_plan(reference, executor=executor).rows)

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_boolean_against_text(self, codes, executor):
        sql = "SELECT f.note, c.label FROM tflag f JOIN tcode c ON f.flag = c.code"
        rows = codes.execute_plan(codes.compile(sql), executor=executor).rows
        assert sorted(rows) == [("t", "one")]

    def test_left_join(self, codes):
        rows = codes.query(
            "SELECT e.name, c.label FROM temployee e LEFT JOIN tcode c "
            "ON e.id = c.code AND c.label <> 'two'"
        ).rows
        assert sorted(rows) == [("John", "one"), ("Lisa", "two again")]

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_left_join_derived_table(self, codes, executor):
        sql = (
            "SELECT e.name, c.label FROM temployee e LEFT JOIN "
            "(SELECT code, label FROM tcode) c ON e.id = c.code AND c.label <> 'two'"
        )
        rows = codes.execute_plan(codes.compile(sql), executor=executor).rows
        assert sorted(rows) == [("John", "one"), ("Lisa", "two again")]

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_indexed_text_column(self, codes, executor):
        # enough rows for the index-nested-loop access paths to apply
        codes.execute_script(
            "INSERT INTO tcode VALUES "
            + ", ".join(f"('{n}', 'n{n}')" for n in range(3, 200))
            + "; CREATE INDEX tcode_code ON tcode (code);"
        )
        sql = "SELECT e.name, c.label FROM temployee e JOIN tcode c ON e.id = c.code"
        rows = codes.execute_plan(codes.compile(sql), executor=executor).rows
        assert sorted(rows) == [("John", "one"), ("Lisa", "two"), ("Lisa", "two again")]

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_same_type_join_keeps_its_operator(self, codes, executor):
        trace = codes.explain(
            "SELECT e.name, s.product FROM temployee e "
            "JOIN tsellsproduct s ON e.id = s.id",
            executor=executor,
        )
        assert not any("coerced" in line for line in trace)
        trace = codes.explain(self.JOINS[0], executor=executor)
        assert any("coerced keys" in line for line in trace)
