"""Tests for T-mapping compilation and containment optimization."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.obda import (
    ConstantTermMap,
    IriTermMap,
    MappingAssertion,
    MappingCollection,
    RDF_TYPE_IRI,
    Template,
    compile_tmappings,
)
from repro.obda.containment import covering
from repro.obda.mapping import LiteralTermMap, MappingSource
from repro.owl import Ontology, QLReasoner
from repro.rdf import IRI
from repro.sql import Database

EX = "http://ex.org/"
T_W = Template(EX + "w/{id}")
T_C = Template(EX + "c/{cid}")


def class_assertion(aid, cls, source, template=T_W):
    return MappingAssertion(
        aid, source, IriTermMap(template), RDF_TYPE_IRI, ConstantTermMap(IRI(cls))
    )


def property_assertion(aid, prop, source, subject=T_W, obj=T_C):
    return MappingAssertion(aid, source, IriTermMap(subject), prop, IriTermMap(obj))


def contains(container_sql, contained_sql, needed):
    """Does an assertion over *container_sql* cover one over
    *contained_sql*, both with an IRI template over the *needed* columns?"""
    template = Template(EX + "x/" + "/".join("{%s}" % column for column in needed))
    container = class_assertion("a", EX + "C", container_sql, template)
    contained = class_assertion("b", EX + "C", contained_sql, template)
    return 0 in covering([container, contained])[1]


def name_assertion(aid, source, column, prop=EX + "name"):
    return MappingAssertion(aid, source, IriTermMap(T_C), prop, LiteralTermMap(column))


@pytest.fixture()
def ontology():
    o = Ontology()
    o.add_subclass(EX + "Exploration", EX + "Wellbore")
    o.add_domain(EX + "operatedBy", EX + "Wellbore")
    o.add_range(EX + "operatedBy", EX + "Company")
    o.add_subproperty(EX + "completedBy", EX + "operatedBy")
    o.add_data_domain(EX + "name", EX + "Wellbore")
    return o


@pytest.fixture()
def reasoner(ontology):
    return QLReasoner(ontology)


class TestCompilation:
    def test_subclass_mappings_lifted(self, reasoner):
        mappings = MappingCollection(
            [
                class_assertion("m1", EX + "Exploration", "SELECT id FROM expl"),
            ]
        )
        compiled = compile_tmappings(reasoner, mappings).mappings
        wellbore = compiled.for_entity(EX + "Wellbore")
        assert len(wellbore) == 1
        assert wellbore[0].source_sql == "SELECT id FROM expl"

    def test_domain_gives_class_from_property(self, reasoner):
        mappings = MappingCollection(
            [
                property_assertion(
                    "m1", EX + "operatedBy", "SELECT id, cid FROM op"
                ),
            ]
        )
        compiled = compile_tmappings(reasoner, mappings).mappings
        wellbore = compiled.for_entity(EX + "Wellbore")
        assert len(wellbore) == 1
        assert repr(wellbore[0].subject) == repr(IriTermMap(T_W))

    def test_range_gives_class_from_object_side(self, reasoner):
        mappings = MappingCollection(
            [property_assertion("m1", EX + "operatedBy", "SELECT id, cid FROM op")]
        )
        compiled = compile_tmappings(reasoner, mappings).mappings
        company = compiled.for_entity(EX + "Company")
        assert len(company) == 1
        assert repr(company[0].subject) == repr(IriTermMap(T_C))

    def test_subproperty_lifted(self, reasoner):
        mappings = MappingCollection(
            [property_assertion("m1", EX + "completedBy", "SELECT id, cid FROM cb")]
        )
        compiled = compile_tmappings(reasoner, mappings).mappings
        assert len(compiled.for_entity(EX + "operatedBy")) == 1
        assert len(compiled.for_entity(EX + "completedBy")) == 1

    def test_duplicates_removed(self, reasoner):
        mappings = MappingCollection(
            [
                class_assertion("m1", EX + "Wellbore", "SELECT id FROM w"),
                class_assertion("m2", EX + "Wellbore", "select id from w"),
            ]
        )
        result = compile_tmappings(reasoner, mappings)
        assert len(result.mappings.for_entity(EX + "Wellbore")) == 1
        assert result.duplicate_assertions_removed >= 1

    def test_unknown_entities_preserved(self, reasoner):
        mappings = MappingCollection(
            [class_assertion("m1", EX + "Unknown", "SELECT id FROM u")]
        )
        compiled = compile_tmappings(reasoner, mappings).mappings
        assert len(compiled.for_entity(EX + "Unknown")) == 1


class TestContainment:
    def test_unwrap_nested(self):
        nested = MappingSource.of("SELECT * FROM (SELECT id FROM t) sub")
        assert nested.branches == MappingSource.of("SELECT id FROM t").branches

    def test_union_branches(self):
        source = MappingSource.of("SELECT id FROM a UNION SELECT id FROM b")
        assert [branch.table for branch in source.branches] == ["a", "b"]

    def test_filter_contained_in_unfiltered(self):
        assert contains(
            "SELECT id FROM t",
            "SELECT id FROM t WHERE purpose = 'WILDCAT'",
            ["id"],
        )
        assert not contains(
            "SELECT id FROM t WHERE purpose = 'WILDCAT'",
            "SELECT id FROM t",
            ["id"],
        )

    def test_conjunct_subset(self):
        assert contains(
            "SELECT id FROM t WHERE a = 1",
            "SELECT id FROM t WHERE a = 1 AND b = 2",
            ["id"],
        )

    def test_different_tables_not_contained(self):
        assert not contains("SELECT id FROM t", "SELECT id FROM u", ["id"])

    def test_union_contained_branchwise(self):
        assert contains(
            "SELECT id FROM a UNION SELECT id FROM b",
            "SELECT id FROM a WHERE x = 1 UNION SELECT id FROM b WHERE y = 2",
            ["id"],
        )
        assert not contains(
            "SELECT id FROM a",
            "SELECT id FROM a UNION SELECT id FROM b",
            ["id"],
        )

    def test_nested_equivalence(self):
        assert contains(
            "SELECT id FROM t", "SELECT * FROM (SELECT id FROM t) s", ["id"]
        )

    def test_aliased_column_definitions_checked(self):
        assert not contains(
            "SELECT a AS id FROM t",
            "SELECT b AS id FROM t",
            ["id"],
        )

    def test_expression_definitions_compared_whole(self):
        assert not contains(
            "SELECT t.x + t.z AS k FROM t", "SELECT t.y + t.z AS k FROM t", ["k"]
        )
        assert contains(
            "SELECT t.x + t.z AS k FROM t",
            "SELECT T.X + T.Z AS k FROM t WHERE a = 1",
            ["k"],
        )
        # a bare column is compared by base column, qualifier or not
        assert contains("SELECT t.x AS k FROM t", "SELECT x AS k FROM t", ["k"])

    def test_string_literals_keep_their_case(self):
        assert not contains(
            "SELECT x FROM t WHERE s = 'A'", "SELECT x FROM t WHERE s = 'a'", ["x"]
        )
        assert not contains("SELECT x AS k FROM t", "SELECT 'x' AS k FROM t", ["k"])
        # identifiers and keywords still fold
        assert contains(
            "select X from T where S = 'A'", "SELECT x FROM t WHERE s = 'A'", ["x"]
        )

    def test_containment_pass_drops_subsumed(self, reasoner):
        mappings = MappingCollection(
            [
                class_assertion("m1", EX + "Wellbore", "SELECT id FROM w"),
                class_assertion(
                    "m2", EX + "Exploration", "SELECT id FROM w WHERE k = 'E'"
                ),
            ]
        )
        result = compile_tmappings(reasoner, mappings, optimize=True)
        # Wellbore collects both, but the filtered one is contained
        assert len(result.mappings.for_entity(EX + "Wellbore")) == 1
        assert result.contained_assertions_removed >= 1
        # the subclass entity itself keeps its own mapping
        assert len(result.mappings.for_entity(EX + "Exploration")) == 1

    def test_optimize_false_keeps_redundancy(self, reasoner):
        mappings = MappingCollection(
            [
                class_assertion("m1", EX + "Wellbore", "SELECT id FROM w"),
                class_assertion(
                    "m2", EX + "Exploration", "SELECT id FROM w WHERE k = 'E'"
                ),
            ]
        )
        result = compile_tmappings(reasoner, mappings, optimize=False)
        assert len(result.mappings.for_entity(EX + "Wellbore")) == 2

    def test_mutual_containment_keeps_one(self, reasoner):
        mappings = MappingCollection(
            [
                class_assertion(
                    "a", EX + "Wellbore", "SELECT * FROM (SELECT id FROM w) s"
                ),
                class_assertion("b", EX + "Wellbore", "SELECT id FROM w"),
            ]
        )
        result = compile_tmappings(reasoner, mappings, optimize=True)
        (kept,) = result.mappings.for_entity(EX + "Wellbore")
        # the tie-break looks at the sources, not at emission order
        assert kept.source_sql == "SELECT id FROM w"

    def test_renamed_column_is_the_same_triple(self, reasoner):
        mappings = MappingCollection(
            [
                name_assertion(
                    "a", "SELECT cid, cname AS name_col FROM c", "name_col"
                ),
                name_assertion("b", "SELECT cid, cname FROM c WHERE k = 1", "cname"),
                name_assertion("c", "SELECT cid, cname FROM c", "cname"),
            ]
        )
        result = compile_tmappings(reasoner, mappings, optimize=True)
        (kept,) = result.mappings.for_entity(EX + "name")
        # the filtered one is contained; of the two equivalent ones the
        # shorter source text survives
        assert kept.source_sql == "SELECT cid, cname FROM c"
        # two of name's, and two of the class assertions its domain lifts
        assert result.contained_assertions_removed == 4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_renamed_twins_over_one_text_keep_one(self, reasoner, reverse):
        source = "SELECT cid, cname AS label, cname FROM c"
        twins = [
            name_assertion("a", source, "label"),
            name_assertion("b", source, "cname"),
        ]
        if reverse:
            twins.reverse()
        result = compile_tmappings(reasoner, MappingCollection(twins))
        (kept,) = result.mappings.for_entity(EX + "name")
        # the sources tie, so the term maps break it: whatever the order
        assert kept.object == LiteralTermMap("cname")
        assert result.contained_assertions_removed == 1

    def test_wrapped_filtered_union_inside_plain_union_dropped(self, reasoner):
        mappings = MappingCollection(
            [
                class_assertion(
                    "m1", EX + "Wellbore", "SELECT id FROM a UNION SELECT id FROM b"
                ),
                class_assertion(
                    "m2",
                    EX + "Exploration",
                    "SELECT * FROM (SELECT id FROM a WHERE s = 'D' "
                    "UNION SELECT id FROM b WHERE s = 'D') sub",
                ),
            ]
        )
        result = compile_tmappings(reasoner, mappings, optimize=True)
        (kept,) = result.mappings.for_entity(EX + "Wellbore")
        assert kept.source_sql == "SELECT id FROM a UNION SELECT id FROM b"
        assert len(result.mappings.for_entity(EX + "Exploration")) == 1

    @pytest.mark.parametrize(
        "wrapped",
        [
            "SELECT DISTINCT * FROM (SELECT id FROM a WHERE s = 'D' "
            "UNION SELECT id FROM b WHERE s = 'D') sub",
            "SELECT * FROM (SELECT id FROM a WHERE s = 'D' GROUP BY id "
            "UNION SELECT id FROM b WHERE s = 'D') sub",
        ],
    )
    def test_wrapped_union_with_a_modifier_kept(self, reasoner, wrapped):
        mappings = MappingCollection(
            [
                class_assertion(
                    "m1", EX + "Wellbore", "SELECT id FROM a UNION SELECT id FROM b"
                ),
                class_assertion("m2", EX + "Exploration", wrapped),
            ]
        )
        result = compile_tmappings(reasoner, mappings, optimize=True)
        assert len(result.mappings.for_entity(EX + "Wellbore")) == 2
        assert result.contained_assertions_removed == 0


class TestExactEntities:
    def test_inherited_assertion_stands_in_for_a_dropped_own_one(self):
        """An own assertion the containment pass drops for a covering one
        inherited from a sub-class is still answered: the exact-mapping
        filter keeps the inherited one in its place."""
        from repro.analysis import analyze
        from repro.obda import OBDAEngine

        db = Database()
        db.execute_script(
            """
            CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER);
            CREATE TABLE u (id INTEGER PRIMARY KEY);
            INSERT INTO t VALUES (1, 1), (2, 1);
            INSERT INTO u VALUES (3);
            """
        )
        ontology = Ontology()
        ontology.add_subclass(EX + "Exploration", EX + "Wellbore")
        mappings = MappingCollection(
            [
                class_assertion("own1", EX + "Wellbore", "SELECT id FROM u"),
                class_assertion("own2", EX + "Wellbore", "SELECT id FROM t WHERE k = 1"),
                class_assertion("sub", EX + "Exploration", "SELECT id FROM t"),
            ]
        )
        report = analyze(db, ontology, mappings, perf=False)
        constraints = report.constraints.constraints
        assert constraints.exact(EX + "Wellbore") is not None
        engine = OBDAEngine(
            db, ontology, mappings, factbase=report.factbase, constraints=constraints
        )
        # own2 is covered by the inherited, unfiltered sub
        sources = {a.source_sql for a in engine.mappings.for_entity(EX + "Wellbore")}
        assert sources == {"SELECT id FROM u", "SELECT id FROM t"}
        result = engine.execute(
            f"PREFIX : <{EX}>\nSELECT ?w WHERE {{ ?w a :Wellbore }}"
        )
        assert sorted(row[0].value for row in result.rows) == [
            EX + "w/1",
            EX + "w/2",
            EX + "w/3",
        ]


class TestSourceParsing:
    def test_parser_runs_once_per_distinct_source(self, monkeypatch, npd_reasoner):
        from repro.npd import build_npd_mappings
        from repro.obda import mapping as mapping_module
        from repro.sql import parser as parser_module

        parsed = Counter()
        real_init = parser_module.Parser.__init__

        def counting_init(self, text):
            parsed[text] += 1
            real_init(self, text)

        monkeypatch.setattr(parser_module.Parser, "__init__", counting_init)
        monkeypatch.setattr(mapping_module, "_SOURCES", {})
        mappings = build_npd_mappings()
        result = compile_tmappings(npd_reasoner, mappings)
        assert len(result.mappings) == 1170
        assert set(parsed.values()) == {1}
        assert set(parsed) == {a.source_sql for a in mappings}


class TestLiteralCase:
    def test_sources_differing_only_in_literal_case_both_answer(self):
        from repro.obda import OBDAEngine

        db = Database()
        db.execute_script(
            """
            CREATE TABLE w (id INTEGER PRIMARY KEY, kind VARCHAR(10));
            INSERT INTO w VALUES (1, 'A'), (2, 'a'), (3, 'b');
            """
        )
        ontology = Ontology()
        ontology.declare_class(EX + "Wellbore")
        mappings = MappingCollection(
            [
                class_assertion(
                    "upper", EX + "Wellbore", "SELECT id FROM w WHERE kind = 'A'"
                ),
                class_assertion(
                    "lower", EX + "Wellbore", "SELECT id FROM w WHERE kind = 'a'"
                ),
            ]
        )
        engine = OBDAEngine(db, ontology, mappings)
        assert len(engine.mappings.for_entity(EX + "Wellbore")) == 2
        result = engine.execute(
            f"PREFIX : <{EX}>\nSELECT ?w WHERE {{ ?w a :Wellbore }}"
        )
        assert sorted(row[0].value for row in result.rows) == [
            EX + "w/1",
            EX + "w/2",
        ]


_DETERMINISM_PROBE = """
import json
from repro.npd import build_benchmark
from repro.npd.seed import SeedProfile
from repro.obda import OBDAEngine

bench = build_benchmark(seed=1, profile=SeedProfile().scaled(0.1))
engine = OBDAEngine(bench.database, bench.ontology, bench.mappings)
tmappings = [
    [a.id, a.source_sql, repr(a.subject), a.predicate, repr(a.object)]
    for a in engine.mappings
]
sql = {}
for name, query in sorted(bench.queries.items()):
    statement = engine.unfold(query.sparql).statement
    sql[name] = statement.to_sql() if statement is not None else None
print(json.dumps({"tmappings": tmappings, "sql": sql}))
"""


_TWINS_PROBE = """
import json
from repro.obda import IriTermMap, LiteralTermMap, MappingAssertion
from repro.obda import MappingCollection, Template, compile_tmappings
from repro.owl import Ontology, QLReasoner

name = "http://ex.org/name"
ontology = Ontology()
ontology.add_data_domain(name, "http://ex.org/Thing")
source = "SELECT cid, cname AS label, cname FROM c"
twins = [
    MappingAssertion(aid, source, IriTermMap(Template("http://ex.org/c/{cid}")),
                     name, LiteralTermMap(column))
    for aid, column in (("a", "label"), ("b", "cname"))
]
kept = []
for order in (twins, twins[::-1]):
    compiled = compile_tmappings(QLReasoner(ontology), MappingCollection(order))
    kept.append([repr(a.object) for a in compiled.mappings.for_entity(name)])
print(json.dumps(kept))
"""


def _probe(code, hash_seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


class TestHashSeedIndependence:
    def test_renamed_twins_keep_the_same_one_across_hash_seeds(self):
        outputs = [_probe(_TWINS_PROBE, hash_seed) for hash_seed in ("0", "7")]
        # one survivor, the same under either emission order and seed
        expected = [repr(LiteralTermMap("cname"))]
        assert outputs == [[expected, expected]] * 2

    def test_tmappings_and_sql_match_across_hash_seeds(self):
        first, second = [
            _probe(_DETERMINISM_PROBE, hash_seed) for hash_seed in ("1", "2")
        ]
        assert len(first["tmappings"]) == 1170
        assert len(first["sql"]) == 21
        assert first["tmappings"] == second["tmappings"]
        assert first["sql"] == second["sql"]
