"""End-to-end tests for the OBDA engine on the paper's Example 4.1."""

import pytest

from repro.obda import (
    RDF_TYPE_IRI,
    ConstantTermMap,
    IriTermMap,
    LiteralTermMap,
    MappingAssertion,
    MappingCollection,
    MappingError,
    OBDAEngine,
    Template,
    materialize,
    virtual_extension_sizes,
)
from repro.rdf import IRI, Literal

EX = "http://ex.org/"
PRE = f"PREFIX : <{EX}>\n"


class TestBasicAnswering:
    def test_class_query(self, example_engine):
        result = example_engine.execute(PRE + "SELECT ?e WHERE { ?e a :Employee }")
        values = sorted(row[0].value for row in result.rows)
        assert values == [EX + "emp/1", EX + "emp/2"]

    def test_data_property(self, example_engine):
        result = example_engine.execute(
            PRE + "SELECT ?n WHERE { ?e :name ?n } ORDER BY ?n"
        )
        assert result.to_python_rows() == [("John",), ("Lisa",)]

    def test_object_property_join(self, example_engine):
        result = example_engine.execute(
            PRE + "SELECT ?n ?p WHERE { ?e :sellsProduct ?p ; :name ?n } "
            "ORDER BY ?n ?p"
        )
        rows = result.to_python_rows()
        assert rows[0] == ("John", EX + "prod/p1")
        assert len(rows) == 4

    def test_hierarchy_reasoning(self, example_engine):
        # Employee ⊑ Person: Person query returns employees
        result = example_engine.execute(PRE + "SELECT ?p WHERE { ?p a :Person }")
        assert len(result) == 2

    def test_domain_reasoning(self, example_engine):
        # domain(sellsProduct) = Employee: selling implies employee
        result = example_engine.execute(PRE + "SELECT ?e WHERE { ?e a :Employee }")
        assert len(result) == 2

    def test_multiple_mappings_unioned(self, example_engine):
        # Branch maps from two tables (m2 over tassignment, m3 over temployee)
        result = example_engine.execute(
            PRE + "SELECT DISTINCT ?b WHERE { ?b a :Branch }"
        )
        values = sorted(row[0].value for row in result.rows)
        assert values == [EX + "branch/B1", EX + "branch/B2"]

    def test_constant_in_query(self, example_engine):
        result = example_engine.execute(
            PRE + f"SELECT ?n WHERE {{ <{EX}emp/1> :name ?n }}"
        )
        assert result.to_python_rows() == [("John",)]

    def test_filter(self, example_engine):
        result = example_engine.execute(
            PRE + 'SELECT ?n WHERE { ?e :name ?n FILTER(?n = "Lisa") }'
        )
        assert result.to_python_rows() == [("Lisa",)]

    def test_optional(self, example_engine):
        result = example_engine.execute(
            PRE
            + "SELECT ?p ?id WHERE { ?p a :Product "
            "OPTIONAL { ?id :sellsProduct ?p } } ORDER BY ?p"
        )
        rows = result.to_python_rows()
        unsold = [row for row in rows if row[1] is None]
        assert len(unsold) == 1  # p4 is sold by nobody

    def test_union(self, example_engine):
        result = example_engine.execute(
            PRE
            + "SELECT ?x WHERE { { ?x a :Employee } UNION { ?x a :Product } }"
        )
        assert len(result) == 6

    def test_aggregate(self, example_engine):
        result = example_engine.execute(
            PRE
            + "SELECT ?n (COUNT(?p) AS ?k) WHERE { ?e :name ?n ; :sellsProduct ?p } "
            "GROUP BY ?n ORDER BY ?n"
        )
        assert result.to_python_rows() == [("John", 2), ("Lisa", 2)]

    def test_existential_reasoning(self, example_engine):
        # Employee ⊑ ∃assignedTo.Task: every employee is assigned to something
        result = example_engine.execute(
            PRE + "SELECT DISTINCT ?n WHERE { ?e :name ?n . ?e :assignedTo ?t }"
        )
        assert len(result) == 2

    def test_empty_answer_for_unmapped_class(self, example_engine):
        result = example_engine.execute(PRE + "SELECT ?x WHERE { ?x a :Task }")
        # Task has no mapping and no sound way to produce named individuals
        assert result.rows == []


class TestMetricsAndTimings:
    def test_phase_timings_populated(self, example_engine):
        result = example_engine.execute(PRE + "SELECT ?e WHERE { ?e a :Person }")
        timings = result.timings
        assert timings.loading > 0
        assert timings.overall_response >= timings.execution
        assert 0 <= timings.weight_of_r_u <= 1

    def test_quality_metrics(self, example_engine):
        result = example_engine.execute(
            PRE + "SELECT ?n WHERE { ?e :name ?n . ?e :assignedTo ?t }"
        )
        assert result.metrics.tree_witnesses >= 1
        assert result.metrics.sql_characters > 0

    def test_describe(self, example_engine):
        description = example_engine.describe()
        assert description["tmappings"] is True
        assert description["mappings"] > 0


class TestConfigurations:
    def test_no_tmappings_same_answers(
        self, example_db, example_ontology, example_mappings
    ):
        with_tm = OBDAEngine(example_db, example_ontology, example_mappings)
        without_tm = OBDAEngine(
            example_db, example_ontology, example_mappings, enable_tmappings=False
        )
        q = PRE + "SELECT ?p WHERE { ?p a :Person }"
        assert sorted(map(str, (r[0] for r in with_tm.execute(q).rows))) == sorted(
            map(str, (r[0] for r in without_tm.execute(q).rows))
        )

    def test_existential_off_loses_answers(
        self, example_db, example_ontology, example_mappings
    ):
        on = OBDAEngine(example_db, example_ontology, example_mappings)
        off = OBDAEngine(
            example_db,
            example_ontology,
            example_mappings,
            enable_existential=False,
        )
        q = PRE + "SELECT DISTINCT ?n WHERE { ?e :name ?n . ?e :assignedTo ?t }"
        # with reasoning: all employees; without: only those with actual tasks
        assert len(on.execute(q)) >= len(off.execute(q))

    def test_sqo_off_same_answers(
        self, example_db, example_ontology, example_mappings
    ):
        opt = OBDAEngine(example_db, example_ontology, example_mappings)
        unopt = OBDAEngine(
            example_db, example_ontology, example_mappings, enable_sqo=False
        )
        q = PRE + "SELECT ?n ?p WHERE { ?e :name ?n ; :sellsProduct ?p } ORDER BY ?n ?p"
        assert opt.execute(q).to_python_rows() == unopt.execute(q).to_python_rows()

    def test_sqo_off_bigger_sql(
        self, example_db, example_ontology, example_mappings
    ):
        opt = OBDAEngine(example_db, example_ontology, example_mappings)
        unopt = OBDAEngine(
            example_db, example_ontology, example_mappings, enable_sqo=False
        )
        q = PRE + "SELECT ?p WHERE { ?p a :Person }"
        assert (
            unopt.execute(q).metrics.sql_characters
            >= opt.execute(q).metrics.sql_characters
        )


class TestMappingValidation:
    @staticmethod
    def _mappings(source_sql):
        renamed = MappingAssertion(
            "renamed",
            "SELECT id, name AS branch FROM temployee",
            IriTermMap(Template(EX + "emp/{id}")),
            RDF_TYPE_IRI,
            ConstantTermMap(IRI(EX + "Renamed")),
        )
        alias = MappingAssertion(
            "alias",
            source_sql,
            IriTermMap(Template(EX + "emp/{id}")),
            EX + "alias",
            LiteralTermMap("name"),
        )
        return MappingCollection([renamed, alias])

    def test_unknown_term_map_column_fails_construction(
        self, example_db, example_ontology
    ):
        mappings = self._mappings("SELECT id, name AS branch FROM temployee")
        with pytest.raises(MappingError, match=r"alias: column 'name' not in source"):
            OBDAEngine(example_db, example_ontology, mappings)

    def test_valid_and_unparseable_sources_still_build(
        self, example_db, example_ontology
    ):
        valid = OBDAEngine(
            example_db, example_ontology, self._mappings("SELECT id, name FROM temployee")
        )
        rows = valid.execute(PRE + "SELECT ?v WHERE { ?x :alias ?v }").to_python_rows()
        assert sorted(rows) == [("John",), ("Lisa",)]
        # an unparseable source is left to fail at query time, as before
        OBDAEngine(
            example_db,
            example_ontology,
            self._mappings("SELECT id, name FROM temployee WHERE"),
        )


class TestMaterializer:
    def test_materialization_counts(self, example_db, example_mappings):
        result = materialize(example_db, example_mappings)
        # 2 employees + 2 branches + 4 sells + 2 names + 4 assigned + 4 products
        # + 2 sizes = 20 triples, duplicates collapsed
        assert result.triples == len(result.graph)
        assert result.triples == 20

    def test_null_values_skipped(self, example_db, example_mappings):
        example_db.execute("INSERT INTO temployee VALUES (3, NULL, 'B2')")
        result = materialize(example_db, example_mappings)
        name_triples = [
            t for t in result.graph if t[1] == IRI(EX + "name")
        ]
        assert all(isinstance(t[2], Literal) for t in name_triples)
        assert len(name_triples) == 2  # the NULL name produced no triple

    def test_virtual_extension_sizes(self, example_db, example_mappings):
        sizes = virtual_extension_sizes(example_db, example_mappings)
        assert sizes[EX + "Employee"] == 2
        assert sizes[EX + "ProductSize"] == 2  # 'big'/'small', duplicates merged
        assert sizes[EX + "sellsProduct"] == 4


class TestAgainstTripleStoreGroundTruth:
    """The OBDA engine and the materialize-then-rewrite store must agree."""

    QUERIES = [
        PRE + "SELECT ?p WHERE { ?p a :Person }",
        PRE + "SELECT ?n ?p WHERE { ?e :name ?n ; :sellsProduct ?p }",
        PRE + "SELECT DISTINCT ?n WHERE { ?e :name ?n . ?e :assignedTo ?t }",
        PRE + "SELECT ?b WHERE { ?b a :Branch }",
    ]

    def test_answers_match(
        self, example_db, example_ontology, example_mappings, example_engine
    ):
        from repro.obda import RewritingTripleStore

        store = RewritingTripleStore(example_ontology)
        store.load_graph(materialize(example_db, example_mappings).graph)
        for query in self.QUERIES:
            obda_rows = sorted(set(example_engine.execute(query).to_python_rows()))
            store_rows = sorted(set(store.execute(query).result.to_python_rows()))
            assert obda_rows == store_rows, query
