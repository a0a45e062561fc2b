"""Unit tests for unfolding internals: pruning, self-join elimination,
expression translation and variable metadata."""

import pytest

from repro.obda import UnfoldingError, VarMeta, translate_expression
from repro.obda.unfolder import var_column
from repro.rdf import IRI, Literal, XSD_INTEGER
from repro.sparql import BinaryExpr, CallExpr, TermExpr, Var, VarExpr
from repro.sql import ColumnRef, IsNull

EX = "http://ex.org/"
PRE = f"PREFIX : <{EX}>\n"


class TestVarMeta:
    def test_merge_same(self):
        assert VarMeta("iri").merge(VarMeta("iri")) == VarMeta("iri")

    def test_merge_different_datatypes_degrades(self):
        merged = VarMeta("literal", XSD_INTEGER).merge(VarMeta("literal", "x"))
        assert merged.kind == "literal"

    def test_merge_kind_conflict_raises(self):
        with pytest.raises(UnfoldingError):
            VarMeta("iri").merge(VarMeta("literal"))


class TestExpressionTranslation:
    def setup_method(self):
        self.var_exprs = {
            Var("y"): ColumnRef("v_y", "q"),
            Var("n"): ColumnRef("v_n", "q"),
        }

    def test_comparison(self):
        expr = BinaryExpr(
            ">=", VarExpr(Var("y")), TermExpr(Literal("2008", XSD_INTEGER))
        )
        sql = translate_expression(expr, self.var_exprs)
        assert sql.to_sql() == "(q.v_y >= 2008)"

    def test_logical(self):
        expr = BinaryExpr(
            "&&",
            BinaryExpr(">", VarExpr(Var("y")), TermExpr(Literal("1", XSD_INTEGER))),
            BinaryExpr("<", VarExpr(Var("y")), TermExpr(Literal("9", XSD_INTEGER))),
        )
        sql = translate_expression(expr, self.var_exprs)
        assert "AND" in sql.to_sql()

    def test_bound_becomes_is_not_null(self):
        expr = CallExpr("BOUND", (VarExpr(Var("n")),))
        sql = translate_expression(expr, self.var_exprs)
        assert isinstance(sql, IsNull) and sql.negated

    def test_iri_constant_to_string(self):
        expr = BinaryExpr("=", VarExpr(Var("n")), TermExpr(IRI(EX + "a")))
        sql = translate_expression(expr, self.var_exprs)
        assert EX + "a" in sql.to_sql()

    def test_cast_is_transparent(self):
        expr = CallExpr("CAST:" + XSD_INTEGER, (VarExpr(Var("y")),))
        sql = translate_expression(expr, self.var_exprs)
        assert sql == ColumnRef("v_y", "q")

    def test_contains_to_like(self):
        expr = CallExpr("CONTAINS", (VarExpr(Var("n")), TermExpr(Literal("x"))))
        sql = translate_expression(expr, self.var_exprs)
        assert "LIKE" in sql.to_sql()

    def test_out_of_scope_var_raises(self):
        with pytest.raises(UnfoldingError):
            translate_expression(VarExpr(Var("zzz")), self.var_exprs)

    def test_unsupported_function_raises(self):
        with pytest.raises(UnfoldingError):
            translate_expression(
                CallExpr("LANG", (VarExpr(Var("n")),)), self.var_exprs
            )


class TestUnfoldOutput:
    def test_var_column_naming(self):
        assert var_column(Var("Name")) == "v_name"

    def test_unfold_produces_sql_and_metadata(self, example_engine):
        unfolded = example_engine.unfold(
            PRE + "SELECT ?e ?n WHERE { ?e a :Employee ; :name ?n }"
        )
        assert unfolded.statement is not None
        assert unfolded.columns == ["e", "n"]
        kinds = [meta.kind for meta in unfolded.column_meta]
        assert kinds == ["iri", "literal"]

    def test_unmapped_entity_gives_empty(self, example_engine):
        unfolded = example_engine.unfold(PRE + "SELECT ?x WHERE { ?x a :Nothing }")
        assert unfolded.statement is None
        assert unfolded.sql_text == "-- empty --"

    def test_incompatible_templates_pruned(self, example_engine):
        # joining an employee IRI with a product position can never succeed:
        # every combination is pruned statically
        unfolded = example_engine.unfold(
            PRE + "SELECT ?x WHERE { ?x a :Employee . ?x a :Product }"
        )
        assert unfolded.statement is None
        assert unfolded.pruned_combinations > 0

    def test_self_join_elimination_counts(self, example_engine):
        q = (
            PRE
            + "SELECT ?n ?b WHERE { ?e a :Employee ; :name ?n . }"
        )
        unfolded = example_engine.unfold(q)
        # subject columns of temployee (id) are its PK: merging applies
        assert unfolded.merged_self_joins >= 0  # counted without error

    def test_filter_on_literal_column_translates(self, example_engine):
        unfolded = example_engine.unfold(
            PRE + 'SELECT ?n WHERE { ?e :name ?n FILTER(?n != "Bob") }'
        )
        assert "<>" in unfolded.sql_text

    def test_order_by_and_limit_carried(self, example_engine):
        unfolded = example_engine.unfold(
            PRE + "SELECT ?n WHERE { ?e :name ?n } ORDER BY ?n LIMIT 1"
        )
        assert unfolded.statement.limit == 1
        assert unfolded.statement.order_by


NPDV = "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"
#: COUNT queries over a pattern that unfolds to nothing (an unmapped
#: class), with and without GROUP BY, plus a non-empty control
AGGREGATE_QUERIES = {
    "count-var": "SELECT (COUNT(?x) AS ?c) WHERE { ?x a npdv:NoSuchClass }",
    "count-star": "SELECT (COUNT(*) AS ?c) WHERE { ?x a npdv:NoSuchClass }",
    "count-join": "SELECT (COUNT(?n) AS ?c) "
    "WHERE { ?x a npdv:NoSuchClass . ?x npdv:name ?n }",
    "count-having": "SELECT (COUNT(?x) AS ?c) WHERE { ?x a npdv:NoSuchClass } "
    "HAVING (COUNT(?x) = 0)",
    "group-by": "SELECT ?x (COUNT(?x) AS ?c) "
    "WHERE { ?x a npdv:NoSuchClass } GROUP BY ?x",
    "control": "SELECT (COUNT(?x) AS ?c) WHERE { ?x a npdv:Wellbore }",
}


@pytest.fixture(scope="module")
def small_npd():
    from repro.npd import build_benchmark
    from repro.npd.seed import SeedProfile
    from repro.obda.materializer import materialize

    from repro.diffcheck.oracle import CONFIGS_BY_NAME

    bench = build_benchmark(seed=1, profile=SeedProfile().scaled(0.1))
    engines = {
        config: CONFIGS_BY_NAME[config].build(
            bench.database, bench.ontology, bench.mappings
        )
        for config in ("default", "facts")
    }
    return engines, materialize(bench.database, bench.mappings).graph


class TestAggregateOverEmpty:
    """An aggregate without GROUP BY answers one row even when its
    pattern unfolds to nothing, as SPARQL's implicit single group does."""

    @pytest.mark.parametrize("config", ["default", "facts"])
    @pytest.mark.parametrize("name", sorted(AGGREGATE_QUERIES))
    def test_matches_materialized_graph(self, small_npd, config, name):
        from repro.sparql.evaluator import query_graph

        engines, graph = small_npd
        text = NPDV + AGGREGATE_QUERIES[name]
        expected = query_graph(graph, text).rows
        assert sorted(map(repr, engines[config].execute(text).rows)) == sorted(
            map(repr, expected)
        )
        if name == "group-by":
            assert expected == []
        else:
            assert len(expected) == 1
