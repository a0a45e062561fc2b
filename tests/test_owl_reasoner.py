"""Tests for the OWL 2 QL model, reasoner and ABox utilities."""

import pytest

from repro.owl import (
    ClassConcept,
    DataPropertyRef,
    DataSomeValues,
    Ontology,
    OwlError,
    QLReasoner,
    QualifiedSome,
    Role,
    SomeValues,
    compute_stats,
    concept_extension,
    find_inconsistencies,
    is_consistent,
    saturate_graph,
)
from repro.rdf import Graph, IRI, Literal, RDF_TYPE

EX = "http://ex.org/"


@pytest.fixture()
def ontology():
    o = Ontology()
    o.add_subclass(EX + "ExplorationWellbore", EX + "Wellbore")
    o.add_subclass(EX + "WildcatWellbore", EX + "ExplorationWellbore")
    o.add_subclass(EX + "Wellbore", EX + "Facility")
    o.add_subproperty(EX + "completedBy", EX + "operatedBy")
    o.add_domain(EX + "operatedBy", EX + "Facility")
    o.add_range(EX + "operatedBy", EX + "Company")
    o.add_data_domain(EX + "name", EX + "Facility")
    o.add_data_subproperty(EX + "shortName", EX + "name")
    o.add_existential(
        EX + "Wellbore", Role(EX + "coreFor", inverse=True), EX + "Core"
    )
    o.add_disjoint(EX + "Wellbore", EX + "Company")
    return o


@pytest.fixture()
def reasoner(ontology):
    return QLReasoner(ontology)


class TestModel:
    def test_role_inverse_involution(self):
        role = Role(EX + "p")
        assert role.inv().inv() == role
        assert role.inv().inverse

    def test_qualified_existential_lhs_rejected(self):
        o = Ontology()
        with pytest.raises(OwlError):
            o.add_subclass(
                QualifiedSome(Role(EX + "p"), ClassConcept(EX + "A")), EX + "B"
            )

    def test_disjointness_requires_basic(self):
        o = Ontology()
        with pytest.raises(OwlError):
            o.add_disjoint(
                QualifiedSome(Role(EX + "p"), ClassConcept(EX + "A")), EX + "B"
            )

    def test_declarations_registered(self, ontology):
        assert EX + "Wellbore" in ontology.classes
        assert EX + "operatedBy" in ontology.object_properties
        assert EX + "name" in ontology.data_properties

    def test_inclusion_axiom_count(self, ontology):
        assert ontology.inclusion_axiom_count() > 0


class TestClassification:
    def test_transitive_subclasses(self, reasoner):
        subs = set(reasoner.named_subclasses_of(EX + "Facility"))
        assert {EX + "Facility", EX + "Wellbore", EX + "ExplorationWellbore",
                EX + "WildcatWellbore"} <= subs

    def test_existential_subsumption_from_domain(self, reasoner):
        # domain(operatedBy) = Facility, so ∃operatedBy ⊑ Facility
        assert reasoner.is_subconcept(
            SomeValues(Role(EX + "operatedBy")), ClassConcept(EX + "Facility")
        )

    def test_role_hierarchy_propagates_to_existentials(self, reasoner):
        # completedBy ⊑ operatedBy implies ∃completedBy ⊑ ∃operatedBy ⊑ Facility
        assert reasoner.is_subconcept(
            SomeValues(Role(EX + "completedBy")), ClassConcept(EX + "Facility")
        )

    def test_inverse_roles_in_hierarchy(self, reasoner):
        assert reasoner.is_subrole(
            Role(EX + "completedBy", inverse=True),
            Role(EX + "operatedBy", inverse=True),
        )

    def test_range_gives_inverse_existential(self, reasoner):
        assert reasoner.is_subconcept(
            SomeValues(Role(EX + "operatedBy", inverse=True)),
            ClassConcept(EX + "Company"),
        )

    def test_data_property_hierarchy(self, reasoner):
        subs = reasoner.sub_data_properties_of(DataPropertyRef(EX + "name"))
        assert DataPropertyRef(EX + "shortName") in subs

    def test_data_existential(self, reasoner):
        assert reasoner.is_subconcept(
            DataSomeValues(DataPropertyRef(EX + "name")),
            ClassConcept(EX + "Facility"),
        )

    def test_superconcepts(self, reasoner):
        sups = reasoner.superconcepts_of(ClassConcept(EX + "WildcatWellbore"))
        assert ClassConcept(EX + "Facility") in sups

    def test_depth(self, reasoner):
        assert reasoner.class_hierarchy_depth() == 4

    def test_cycle_tolerance(self):
        o = Ontology()
        o.add_subclass(EX + "A", EX + "B")
        o.add_subclass(EX + "B", EX + "A")
        r = QLReasoner(o)
        assert r.is_subconcept(ClassConcept(EX + "A"), ClassConcept(EX + "B"))
        assert r.is_subconcept(ClassConcept(EX + "B"), ClassConcept(EX + "A"))
        assert r.class_hierarchy_depth() >= 1


class TestExistentials:
    def test_existentials_indexed(self, reasoner):
        axioms = reasoner.existential_axioms()
        assert len(axioms) == 1
        sub, role, filler = axioms[0]
        assert sub == ClassConcept(EX + "Wellbore")
        assert role == Role(EX + "coreFor", inverse=True)
        assert filler == ClassConcept(EX + "Core")

    def test_existentials_into(self, reasoner):
        matches = reasoner.existentials_into(Role(EX + "coreFor", inverse=True))
        assert matches
        assert not reasoner.existentials_into(Role(EX + "coreFor"))


class TestDisjointness:
    def test_saturated_downwards(self, reasoner):
        assert reasoner.are_disjoint(
            ClassConcept(EX + "WildcatWellbore"), ClassConcept(EX + "Company")
        )

    def test_unrelated_not_disjoint(self, reasoner):
        assert not reasoner.are_disjoint(
            ClassConcept(EX + "Facility"), ClassConcept(EX + "Core")
        )

    def test_pairs_listed_once_from_the_adjacency(self, reasoner):
        pairs = list(reasoner.disjoint_pairs())
        # the saturation as a set of pairs, built the direct way
        expected = {
            frozenset((first, second))
            for first in reasoner.subconcepts_of(ClassConcept(EX + "Wellbore"))
            for second in reasoner.subconcepts_of(ClassConcept(EX + "Company"))
        }
        assert len(pairs) == len(expected) == 9
        assert {frozenset(pair) for pair in pairs} == expected
        adjacency = reasoner.disjointness()
        for first, second in pairs:
            assert second in adjacency[first] and first in adjacency[second]

    def test_self_disjoint_class(self):
        o = Ontology().add_subclass(EX + "B", EX + "A").add_disjoint(EX + "A", EX + "A")
        reasoner = QLReasoner(o)
        a, b = ClassConcept(EX + "A"), ClassConcept(EX + "B")
        assert reasoner.disjointness()[a] == {a, b}
        assert reasoner.are_disjoint(b, b)
        assert sorted(reasoner.disjoint_pairs(), key=str) == sorted(
            [(a, a), (a, b), (b, b)], key=str
        )


class TestSharedClassification:
    """One classification per ontology revision, shared by every consumer."""

    @pytest.fixture()
    def classifications(self, monkeypatch):
        calls = []
        original = QLReasoner.__init__

        def counted(self, ontology):
            calls.append(ontology)
            original(self, ontology)

        monkeypatch.setattr(QLReasoner, "__init__", counted)
        return calls

    def test_analyzer_and_engine_classify_once(
        self, classifications, example_db, example_ontology, example_mappings
    ):
        from repro.analysis import analyze
        from repro.obda import OBDAEngine

        report = analyze(example_db, example_ontology, example_mappings, perf=False)
        engine = OBDAEngine(
            example_db,
            example_ontology,
            example_mappings,
            factbase=report.factbase,
            constraints=report.constraints.constraints,
        )
        assert len(classifications) == 1
        assert engine.reasoner is QLReasoner.of(example_ontology)
        assert len(classifications) == 1

    def test_mutation_after_classification_is_seen(self, classifications, ontology):
        first = QLReasoner.of(ontology)
        assert not first.is_subconcept(
            ClassConcept(EX + "Company"), ClassConcept(EX + "Facility")
        )
        ontology.add_subclass(EX + "Company", EX + "Facility")
        second = QLReasoner.of(ontology)
        assert second is not first
        assert second.is_subconcept(
            ClassConcept(EX + "Company"), ClassConcept(EX + "Facility")
        )
        ontology.add_disjoint(EX + "Core", EX + "Facility")
        third = QLReasoner.of(ontology)
        assert third.are_disjoint(ClassConcept(EX + "Core"), ClassConcept(EX + "Company"))
        assert QLReasoner.of(ontology) is third
        assert len(classifications) == 3

    def test_engine_after_mutation_sees_new_axiom(
        self, example_db, example_ontology, example_mappings
    ):
        from repro.obda import OBDAEngine

        before = OBDAEngine(example_db, example_ontology, example_mappings)
        example_ontology.add_subclass(EX + "Product", EX + "Person")
        after = OBDAEngine(example_db, example_ontology, example_mappings)
        assert after.reasoner is not before.reasoner
        person, product = ClassConcept(EX + "Person"), ClassConcept(EX + "Product")
        assert after.reasoner.is_subconcept(product, person)
        assert not before.reasoner.is_subconcept(product, person)


class TestAbox:
    def test_saturation(self, reasoner):
        g = Graph()
        w1 = IRI(EX + "w1")
        g.add(w1, RDF_TYPE, IRI(EX + "WildcatWellbore"))
        g.add(w1, IRI(EX + "completedBy"), IRI(EX + "c1"))
        g.add(w1, IRI(EX + "shortName"), Literal("W"))
        added = saturate_graph(g, reasoner)
        assert (w1, RDF_TYPE, IRI(EX + "Wellbore")) in g
        assert (w1, RDF_TYPE, IRI(EX + "Facility")) in g
        assert (w1, IRI(EX + "operatedBy"), IRI(EX + "c1")) in g
        assert (IRI(EX + "c1"), RDF_TYPE, IRI(EX + "Company")) in g
        assert (w1, IRI(EX + "name"), Literal("W")) in g
        assert added >= 5

    def test_concept_extension_via_subsumees(self, reasoner):
        g = Graph()
        g.add(IRI(EX + "w1"), RDF_TYPE, IRI(EX + "WildcatWellbore"))
        g.add(IRI(EX + "f1"), IRI(EX + "operatedBy"), IRI(EX + "c1"))
        members = concept_extension(g, reasoner, ClassConcept(EX + "Facility"))
        assert IRI(EX + "w1") in members
        assert IRI(EX + "f1") in members

    def test_consistency(self, reasoner):
        g = Graph()
        g.add(IRI(EX + "x"), RDF_TYPE, IRI(EX + "Wellbore"))
        assert is_consistent(g, reasoner)
        g.add(IRI(EX + "x"), RDF_TYPE, IRI(EX + "Company"))
        assert not is_consistent(g, reasoner)
        violations = find_inconsistencies(g, reasoner)
        assert violations[0][0] == IRI(EX + "x")

    def test_inconsistency_via_subsumption(self, reasoner):
        # membership in WildcatWellbore + Company violates the saturated pair
        g = Graph()
        g.add(IRI(EX + "x"), RDF_TYPE, IRI(EX + "WildcatWellbore"))
        g.add(IRI(EX + "x"), RDF_TYPE, IRI(EX + "Company"))
        assert not is_consistent(g, reasoner)


class TestStats:
    def test_stats_shape(self, ontology):
        stats = compute_stats(ontology)
        assert stats.classes == len(ontology.classes)
        assert stats.existential_axioms == 1
        assert stats.disjointness_axioms == 1
        assert stats.max_hierarchy_depth == 4
        row = stats.as_row()
        assert row["#classes"] == stats.classes
