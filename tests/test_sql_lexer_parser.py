"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.sql import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    FunctionCall,
    InList,
    InSubquery,
    InsertStatement,
    IsNull,
    Join,
    LexError,
    NamedTable,
    ParseError,
    SqlType,
    Star,
    SubquerySource,
    TokenType,
    UnaryOp,
    UpdateStatement,
    expr_columns,
    parse_select,
    parse_statement,
    parse_script,
    tokenize,
)
from repro.sql.ast import replace_expr


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:3])

    def test_identifiers(self):
        tokens = tokenize("wellbore_exploration_all w1")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[1].value == "w1"

    def test_quoted_identifier(self):
        tokens = tokenize('"select"')
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "select"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 .5")
        values = [t.value for t in tokens[:-1]]
        assert values == ["1", "2.5", "1e3", ".5"]

    def test_operators(self):
        tokens = tokenize("<> != <= >= ||")
        assert [t.value for t in tokens[:-1]] == ["<>", "<>", "<=", ">=", "||"]

    def test_line_comment(self):
        tokens = tokenize("SELECT -- hello\n 1")
        assert len(tokens) == 3  # SELECT, 1, EOF

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("SELECT @")


class TestSelectParsing:
    def test_simple(self):
        stmt = parse_select("SELECT a, b FROM t")
        assert isinstance(stmt.source, NamedTable)
        assert [i.output_name for i in stmt.items] == ["a", "b"]

    def test_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, Star)

    def test_qualified_star(self):
        stmt = parse_select("SELECT t.* FROM t")
        assert stmt.items[0].expr == Star("t")

    def test_aliases(self):
        stmt = parse_select("SELECT a AS x, b y FROM t z")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.source.alias == "z"

    def test_where_precedence(self):
        stmt = parse_select("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(stmt.where, BinaryOp)
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_join_on(self):
        stmt = parse_select("SELECT * FROM t JOIN u ON t.a = u.a")
        assert isinstance(stmt.source, Join)
        assert stmt.source.kind == "INNER"

    def test_left_join(self):
        stmt = parse_select("SELECT * FROM t LEFT OUTER JOIN u ON t.a = u.a")
        assert stmt.source.kind == "LEFT"

    def test_natural_join(self):
        stmt = parse_select("SELECT * FROM t NATURAL JOIN u")
        assert stmt.source.kind == "NATURAL"
        assert stmt.source.condition is None

    def test_using(self):
        stmt = parse_select("SELECT * FROM t JOIN u USING (a, b)")
        condition = stmt.source.condition
        assert isinstance(condition, BinaryOp) and condition.op == "AND"

    def test_comma_join(self):
        stmt = parse_select("SELECT * FROM t, u WHERE t.a = u.a")
        assert isinstance(stmt.source, Join)
        assert stmt.source.condition is None

    def test_subquery_source(self):
        stmt = parse_select("SELECT x FROM (SELECT a AS x FROM t) s")
        assert isinstance(stmt.source, SubquerySource)
        assert stmt.source.alias == "s"

    def test_group_by_having(self):
        stmt = parse_select(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_limit_offset(self):
        stmt = parse_select("SELECT a FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2")
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True
        assert stmt.limit == 5
        assert stmt.offset == 2

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct

    def test_union(self):
        stmt = parse_select("SELECT a FROM t UNION SELECT a FROM u")
        assert stmt.union is not None
        assert stmt.union.all is False

    def test_union_all_chain(self):
        stmt = parse_select(
            "SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v"
        )
        assert stmt.union.all is True
        assert stmt.union.query.union is not None

    def test_right_join_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM t RIGHT JOIN u ON t.a = u.a")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM t extra garbage here (")


class TestExpressions:
    def parse_where(self, text):
        return parse_select(f"SELECT a FROM t WHERE {text}").where

    def test_in_list(self):
        expr = self.parse_where("a IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.items) == 3

    def test_not_in(self):
        expr = self.parse_where("a NOT IN (1)")
        assert expr.negated

    def test_in_subquery(self):
        expr = self.parse_where("a IN (SELECT b FROM u)")
        assert isinstance(expr, InSubquery)

    def test_between(self):
        expr = self.parse_where("a BETWEEN 1 AND 10")
        assert isinstance(expr, Between)

    def test_is_null(self):
        assert self.parse_where("a IS NULL") == IsNull(ColumnRef("a"))
        assert self.parse_where("a IS NOT NULL").negated

    def test_like(self):
        expr = self.parse_where("a LIKE 'x%'")
        assert expr.op == "LIKE"

    def test_not_like(self):
        expr = self.parse_where("a NOT LIKE 'x%'")
        assert isinstance(expr, UnaryOp) and expr.op == "NOT"

    def test_case_when(self):
        expr = self.parse_where("CASE WHEN a = 1 THEN 1 ELSE 0 END = 1")
        assert isinstance(expr.left, CaseWhen)

    def test_cast(self):
        expr = self.parse_where("CAST(a AS INTEGER) = 1")
        assert isinstance(expr.left, Cast)
        assert expr.left.target is SqlType.INTEGER

    def test_cast_with_length(self):
        expr = self.parse_where("CAST(a AS VARCHAR(10)) = 'x'")
        assert expr.left.target is SqlType.VARCHAR

    def test_count_star(self):
        stmt = parse_select("SELECT COUNT(*) FROM t")
        call = stmt.items[0].expr
        assert isinstance(call, FunctionCall) and call.is_aggregate

    def test_count_distinct(self):
        stmt = parse_select("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct

    def test_arithmetic_precedence(self):
        expr = self.parse_where("a + b * 2 = 7")
        assert expr.left.op == "+"
        assert expr.left.right.op == "*"

    def test_unary_minus(self):
        expr = self.parse_where("a = -1")
        assert isinstance(expr.right, UnaryOp)

    def test_scalar_subquery_rejected(self):
        with pytest.raises(ParseError):
            self.parse_where("a = (SELECT b FROM u)")

    def test_to_sql_round_trip(self):
        text = (
            "SELECT DISTINCT a AS x, COUNT(*) AS n FROM t JOIN u ON t.a = u.a "
            "WHERE (t.b > 5 AND u.c LIKE 'x%') GROUP BY a "
            "ORDER BY a ASC LIMIT 10"
        )
        stmt = parse_select(text)
        reparsed = parse_select(stmt.to_sql())
        assert reparsed.to_sql() == stmt.to_sql()


class TestDdlDml:
    def test_create_table(self):
        stmt = parse_statement(
            """
            CREATE TABLE t (
                id INTEGER PRIMARY KEY,
                name VARCHAR(50) NOT NULL,
                ref INTEGER,
                FOREIGN KEY (ref) REFERENCES u (id)
            )
            """
        )
        assert isinstance(stmt, CreateTableStatement)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.foreign_keys[0].ref_table == "u"

    def test_create_table_composite_pk(self):
        stmt = parse_statement("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")
        assert stmt.primary_key == ("a", "b")

    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX idx ON t (a, b)")
        assert isinstance(stmt, CreateIndexStatement)
        assert stmt.columns == ("a", "b")

    def test_insert(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
        assert isinstance(stmt, InsertStatement)
        assert len(stmt.rows) == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, DeleteStatement)

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = 'x' WHERE c IS NULL")
        assert isinstance(stmt, UpdateStatement)
        assert len(stmt.assignments) == 2

    def test_script(self):
        statements = parse_script("SELECT 1; SELECT 2;; SELECT 3")
        assert len(statements) == 3


class TestReplaceExpr:
    SELECT = (
        "SELECT CASE WHEN a BETWEEN 1 AND b THEN CAST(c AS INTEGER) ELSE -d END, "
        "x IN (1, y), f(z) FROM t WHERE NOT (e IS NULL)"
    )

    def _exprs(self):
        statement = parse_select(self.SELECT)
        return [item.expr for item in statement.items] + [statement.where]

    def test_an_unchanged_tree_is_returned_as_it_is(self):
        for expr in self._exprs():
            assert replace_expr(expr, {ColumnRef("q"): ColumnRef("r")}) is expr

    def test_every_listed_ref_is_replaced(self):
        renamed = [
            replace_expr(expr, {ref: ColumnRef(ref.name, "m") for ref in expr_columns(expr)})
            for expr in self._exprs()
        ]
        assert [expr.to_sql() for expr in renamed] == [
            "CASE WHEN (m.a BETWEEN 1 AND m.b) THEN CAST(m.c AS INTEGER) ELSE (-m.d) END",
            "(m.x IN (1, m.y))",
            "F(m.z)",
            "(NOT (m.e IS NULL))",
        ]
