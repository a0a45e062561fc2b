"""Tests for the mapping model, templates and .obda syntax round-trip."""

import pytest

from repro.obda import (
    ConstantTermMap,
    IriTermMap,
    LiteralTermMap,
    MappingAssertion,
    MappingCollection,
    MappingError,
    RDF_TYPE_IRI,
    Template,
    parse_obda,
    serialize_obda,
)
from repro.obda.mapping import MappingSource
from repro.rdf import IRI, Literal, XSD_INTEGER
from repro.sql.errors import SqlError


class TestTemplate:
    def test_columns_lowercased(self):
        t = Template("http://x/{Id}/{Name}")
        assert t.columns == ("id", "name")

    def test_render(self):
        t = Template("http://x/well/{id}")
        assert t.render([42]) == "http://x/well/42"

    def test_render_null_gives_none(self):
        t = Template("http://x/well/{id}")
        assert t.render([None]) is None

    def test_render_encodes_hostile_characters(self):
        t = Template("http://x/{name}")
        assert t.render(["a b<c"]) == "http://x/a%20b%3Cc"

    def test_match_inverts_render(self):
        t = Template("http://x/{a}/core/{b}")
        assert t.match("http://x/7/core/3") == ("7", "3")
        assert t.match("http://x/7/photo/3") is None

    def test_compatibility(self):
        t1 = Template("http://x/well/{id}")
        t2 = Template("http://x/well/{other}")
        t3 = Template("http://x/core/{id}")
        assert t1.compatible_with(t2)
        assert not t1.compatible_with(t3)

    def test_multi_column_fragments(self):
        t = Template("http://x/{a}-{b}")
        assert t.fragments == ("http://x/", "-", "")


class TestTermMaps:
    def test_iri_term_map(self):
        m = IriTermMap(Template("http://x/{id}"))
        assert m.make_term([5]) == IRI("http://x/5")
        assert m.make_term([None]) is None

    def test_literal_term_map(self):
        m = LiteralTermMap("v", XSD_INTEGER)
        assert m.make_term([7]) == Literal("7", XSD_INTEGER)
        assert m.make_term([None]) is None

    def test_constant_term_map(self):
        m = ConstantTermMap(IRI("http://x/C"))
        assert m.make_term([]) == IRI("http://x/C")
        assert m.columns == ()


class TestAssertions:
    def make(self, **kwargs):
        defaults = dict(
            id="a1",
            source_sql="SELECT id FROM t",
            subject=IriTermMap(Template("http://x/{id}")),
            predicate=RDF_TYPE_IRI,
            object=ConstantTermMap(IRI("http://x/C")),
        )
        defaults.update(kwargs)
        return MappingAssertion(**defaults)

    def test_class_assertion(self):
        a = self.make()
        assert a.is_class_assertion
        assert a.entity == "http://x/C"

    def test_property_assertion_entity(self):
        a = self.make(
            predicate="http://x/p",
            object=LiteralTermMap("v"),
        )
        assert not a.is_class_assertion
        assert a.entity == "http://x/p"

    def test_literal_subject_rejected(self):
        with pytest.raises(MappingError):
            self.make(subject=LiteralTermMap("v"))

    def test_referenced_columns_deduped(self):
        a = self.make(
            predicate="http://x/p",
            subject=IriTermMap(Template("http://x/{id}")),
            object=IriTermMap(Template("http://y/{id}")),
        )
        assert a.referenced_columns() == ("id",)


class TestCollection:
    def test_index_by_entity(self):
        c = MappingCollection()
        a1 = MappingAssertion(
            "a1",
            "SELECT id FROM t",
            IriTermMap(Template("http://x/{id}")),
            RDF_TYPE_IRI,
            ConstantTermMap(IRI("http://x/C")),
        )
        c.add(a1)
        assert c.for_entity("http://x/C") == [a1]
        assert c.for_entity(IRI("http://x/C")) == [a1]
        assert c.for_entity("http://x/D") == []

    def test_duplicate_id_rejected(self):
        c = MappingCollection()
        a = MappingAssertion(
            "a1",
            "SELECT id FROM t",
            IriTermMap(Template("http://x/{id}")),
            "http://x/p",
            LiteralTermMap("id"),
        )
        c.add(a)
        with pytest.raises(MappingError):
            c.add(
                MappingAssertion(
                    "a1",
                    "SELECT id FROM t",
                    IriTermMap(Template("http://x/{id}")),
                    "http://x/q",
                    LiteralTermMap("id"),
                )
            )

    def test_validate_catches_missing_column(self):
        c = MappingCollection()
        c.add(
            MappingAssertion(
                "bad",
                "SELECT id FROM t",
                IriTermMap(Template("http://x/{id}")),
                "http://x/p",
                LiteralTermMap("missing_col"),
            )
        )
        problems = c.validate()
        assert len(problems) == 1
        assert "missing_col" in problems[0]

    def test_statistics(self):
        c = MappingCollection()
        c.add(
            MappingAssertion(
                "u1",
                "SELECT id FROM t UNION SELECT id FROM u",
                IriTermMap(Template("http://x/{id}")),
                RDF_TYPE_IRI,
                ConstantTermMap(IRI("http://x/C")),
            )
        )
        stats = c.statistics()
        assert stats["assertions"] == 1
        assert stats["avg_spj_unions"] == 2.0


EX = "http://ex.org/"


def _name_assertion(aid, source_sql):
    return MappingAssertion(
        aid,
        source_sql,
        IriTermMap(Template(EX + "emp/{id}")),
        EX + "name",
        LiteralTermMap("name"),
    )


class TestMappingSource:
    def test_shared_per_text(self):
        first = _name_assertion("a", "SELECT id, name FROM temployee")
        second = _name_assertion("b", "SELECT id, name FROM temployee")
        assert first.source is second.source
        assert first.parsed_source() is first.source.statement

    def test_wrappers_removed(self):
        source = MappingSource.of(
            "SELECT * FROM (SELECT * FROM (SELECT id, a AS b FROM T) s1) s2"
        )
        (branch,) = source.branches
        assert branch.table == "t"
        assert dict(branch.columns) == {"id": "id", "b": "a"}
        assert not branch.star and branch.plain
        assert source.tables == ("t",)
        assert source.single is branch
        # a wrapper that drops rows is not transparent
        kept = MappingSource.of("SELECT * FROM (SELECT id FROM t) s OFFSET 2")
        assert kept.single is None

    def test_star_of_own_binding_vs_foreign(self):
        own = MappingSource.of("SELECT w.* FROM t w").single
        assert own is not None and own.star and own.base_column("x") == "x"
        foreign = MappingSource.of("SELECT u.* FROM t w")
        assert foreign.branches[0].table is None
        assert foreign.single is None

    def test_renamed_column(self):
        source = MappingSource.of("SELECT id, a AS b, a || 'x' AS c FROM t")
        branch = source.single
        assert branch.base_column("b") == "a"
        assert branch.base_column("c") is None
        assert branch.expressions == {"c": "( a || 'x' )"}
        # a rename or a computed item is not a bare projection
        assert source.projection is None
        assert MappingSource.of("SELECT id, a FROM t").projection is not None

    def test_modifiers_and_conjuncts(self):
        branch = MappingSource.of(
            "SELECT DISTINCT id FROM t WHERE A = 'Xy' AND b > 1 LIMIT 3"
        ).branches[0]
        assert branch.modifiers == {"WHERE", "DISTINCT", "LIMIT"}
        assert not branch.plain
        assert branch.conjuncts == {"( a = 'Xy' )", "( b > 1 )"}

    def test_union_with_one_non_simple_branch(self):
        source = MappingSource.of(
            "SELECT id FROM a UNION SELECT a.id FROM a JOIN b ON a.id = b.id"
        )
        assert [branch.table for branch in source.branches] == ["a", None]
        assert source.single is None
        assert source.tables == ("a", "a", "b")

    def test_union_nested_in_a_wrapper(self):
        source = MappingSource.of(
            "SELECT * FROM (SELECT id FROM a UNION SELECT id FROM b WHERE x = 1) s"
        )
        # a wrapper around the whole statement is transparent: the union
        # profiles as its own branches
        assert [branch.table for branch in source.branches] == ["a", "b"]
        assert source.branches == source.blocks
        assert source.branches[1].conjuncts == {"( x = 1 )"}
        assert source.single is None

    def test_union_nested_in_a_wrapped_branch(self):
        source = MappingSource.of(
            "SELECT * FROM (SELECT id FROM a UNION SELECT id FROM b) s "
            "UNION SELECT id FROM c"
        )
        # a union inside one branch stays one opaque top-level branch;
        # its SELECT blocks stay visible
        assert [branch.table for branch in source.branches] == [None, "c"]
        assert [block.table for block in source.blocks] == ["a", "b", "c"]

    def test_canonical_key(self):
        assert (
            MappingSource.of("select  ID from T where s = 'A'").key
            == MappingSource.of("SELECT id FROM t WHERE s = 'A'").key
        )
        assert (
            MappingSource.of("SELECT id FROM t WHERE s = 'A'").key
            != MappingSource.of("SELECT id FROM t WHERE s = 'a'").key
        )

    def test_unparseable_source_opts_out_everywhere(self, example_db, example_ontology):
        from repro.analysis.constraints import ConstraintSet, VfdConstraint
        from repro.analysis.facts import (
            FactBase,
            ForeignKeyFact,
            NotNullFact,
            UniqueFact,
        )
        from repro.obda.containment import covering
        from repro.obda.unfolder import Unfolder

        good = _name_assertion("good", "SELECT id, name FROM temployee")
        bad = _name_assertion("bad", "SELECT id, name FROM temployee WHERE")
        source = bad.source
        assert source.statement is None
        with pytest.raises(SqlError):
            bad.parsed_source()
        assert source.tables == () and source.single is None
        assert all(block.table is None for block in source.blocks)
        assert covering([good, bad]) == [frozenset(), frozenset()]
        problems = MappingCollection([good, bad]).validate()
        assert len(problems) == 1 and "unparseable" in problems[0]

        unfolder = Unfolder(
            MappingCollection([good, bad]),
            example_ontology,
            catalog=example_db.catalog,
            facts=FactBase(
                not_null=[NotNullFact("temployee", "name", "data")],
                unique=[UniqueFact("temployee", ("id",), "pk")],
                foreign_keys=[
                    ForeignKeyFact(
                        "temployee", ("id",), "temployee", ("id",), True
                    )
                ],
            ),
            constraints=ConstraintSet(
                vfds=[VfdConstraint("temployee", ("id",), "name", "declared")]
            ),
        )
        fk_args = (("id",), "temployee", ("id",))
        good_profile = unfolder._profile(good)
        bad_profile = unfolder._profile(bad)
        # the parseable twin fires every shape-based check ...
        assert good_profile.guarded == ()
        assert good_profile.unique is not None
        assert good_profile.vfd is not None
        assert good_profile.parent_key is not None
        assert unfolder._child_fk_labels(good, *fk_args) is not None
        # ... the unparseable one none of them
        assert (bad_profile.guarded, bad_profile.elided) == (("id", "name"), ())
        assert bad_profile.unique is None
        assert bad_profile.vfd is None
        assert bad_profile.parent_key is None
        assert unfolder._child_fk_labels(bad, *fk_args) is None


OBDA_DOC = """
[PrefixDeclaration]
:\thttp://ex.org/
xsd:\thttp://www.w3.org/2001/XMLSchema#

[MappingDeclaration] @collection [[
mappingId\tcls
target\t\t:w/{id} a :Wellbore .
source\t\tSELECT id FROM wellbore

mappingId\tdata
target\t\t:w/{id} :depth {depth}^^xsd:integer .
source\t\tSELECT id, depth FROM wellbore

mappingId\tobj
target\t\t:w/{id} :inLicence :lic/{lid} .
source\t\tSELECT id, lid FROM wellbore
]]
"""


class TestObdaSyntax:
    def test_parse(self):
        prefixes, mappings = parse_obda(OBDA_DOC)
        assert prefixes[""] == "http://ex.org/"
        assert len(mappings) == 3
        cls = mappings.by_id("cls")
        assert cls.is_class_assertion
        assert cls.entity == "http://ex.org/Wellbore"
        data = mappings.by_id("data")
        assert isinstance(data.object, LiteralTermMap)
        assert data.object.datatype == XSD_INTEGER
        obj = mappings.by_id("obj")
        assert isinstance(obj.object, IriTermMap)

    def test_round_trip(self):
        prefixes, mappings = parse_obda(OBDA_DOC)
        text = serialize_obda(mappings, prefixes)
        prefixes2, mappings2 = parse_obda(text)
        assert len(mappings2) == len(mappings)
        for a in mappings:
            b = mappings2.by_id(a.id)
            assert b.entity == a.entity
            assert repr(b.subject) == repr(a.subject)
            assert repr(b.object) == repr(a.object)

    def test_malformed_block_rejected(self):
        from repro.obda import ObdaSyntaxError

        with pytest.raises(ObdaSyntaxError):
            parse_obda(
                "[MappingDeclaration] @collection [[\nmappingId x\ntarget :a :b .\n]]"
            )

    def test_npd_mappings_round_trip(self):
        from repro.npd import build_npd_mappings
        from repro.rdf import NPDV, NPD_DATA

        mappings = build_npd_mappings()
        prefixes = {
            "npdv": NPDV.base,
            "npd": NPD_DATA.base,
            "xsd": "http://www.w3.org/2001/XMLSchema#",
        }
        text = serialize_obda(mappings, prefixes)
        _, reparsed = parse_obda(text)
        assert len(reparsed) == len(mappings)
