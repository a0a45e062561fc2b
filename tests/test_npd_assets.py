"""Tests for the NPD benchmark assets: schema, ontology, mappings, queries,
seed data.  Structural checks compare against the paper's headline numbers."""


from repro.npd import build_npd_mappings, schema_statistics, table_definitions
from repro.owl import compute_stats
from repro.sql import Database
from repro.sql.parser import parse_select


class TestSchema:
    def test_headline_counts(self):
        stats = schema_statistics()
        # paper: 70 tables, 276 distinct columns (~1000 total), 94 FKs
        assert stats["tables"] == 70
        assert 250 <= stats["distinct_columns"] <= 350
        assert stats["total_columns"] >= 600
        assert 80 <= stats["foreign_keys"] <= 100

    def test_schema_creates_cleanly(self):
        from repro.npd import create_schema

        db = Database()
        create_schema(db)
        assert len(list(db.catalog.tables())) == 70

    def test_fk_cycle_present(self):
        from repro.npd import create_schema

        db = Database()
        create_schema(db)
        cycles = db.catalog.fk_cycles()
        assert any(set(c) == {"company", "licence"} for c in cycles)

    def test_fk_targets_exist(self):
        tables = table_definitions()
        names = set(tables)
        for name, (_, _, fks) in tables.items():
            for _, ref_table, _ in fks:
                assert ref_table in names, f"{name} references missing {ref_table}"

    def test_fk_columns_exist(self):
        tables = table_definitions()
        for name, (columns, pk, fks) in tables.items():
            column_names = {c for c, _ in columns}
            assert set(pk) <= column_names
            for local, ref_table, ref in fks:
                assert set(local) <= column_names
                ref_columns = {c for c, _ in tables[ref_table][0]}
                assert set(ref) <= ref_columns

    def test_wide_tables_exist(self):
        tables = table_definitions()
        widths = {name: len(cols) for name, (cols, _, _) in tables.items()}
        assert max(widths.values()) >= 60  # paper: tables with >100 columns


class TestOntology:
    def test_headline_counts(self, npd_benchmark):
        stats = compute_stats(npd_benchmark.ontology)
        # paper: 343 classes, 142 obj props, 238 data props, 1451 axioms
        assert 300 <= stats.classes <= 420
        assert 120 <= stats.object_properties <= 160
        assert 200 <= stats.data_properties <= 260
        assert 1200 <= stats.axioms_total <= 1700
        assert stats.max_hierarchy_depth == 10
        assert stats.existential_axioms >= 20
        assert stats.disjointness_axioms >= 20

    def test_rich_wellbore_hierarchy(self, npd_reasoner):
        subs = npd_reasoner.named_subclasses_of(
            "http://sws.ifi.uio.no/vocab/npd-v2#Wellbore"
        )
        assert len(subs) >= 20

    def test_no_orphan_axiom_entities(self, npd_benchmark):
        onto = npd_benchmark.ontology
        # every axiom entity is declared
        from repro.owl import ClassConcept

        for axiom in onto.subclass_axioms():
            for concept in (axiom.sub, axiom.sup):
                if isinstance(concept, ClassConcept):
                    assert concept.iri in onto.classes


class TestMappings:
    def test_volume(self):
        mappings = build_npd_mappings()
        # paper: 1190 assertions over 464 entities
        assert 800 <= len(mappings) <= 1400
        assert len(mappings.entities()) >= 400

    def test_all_sources_parse(self):
        mappings = build_npd_mappings()
        for assertion in mappings:
            parse_select(assertion.source_sql)  # should not raise

    def test_term_map_columns_valid(self):
        assert build_npd_mappings().validate() == []

    def test_sources_reference_real_tables(self):
        tables = set(table_definitions())
        mappings = build_npd_mappings()
        for assertion in mappings:
            for table in assertion.source.tables:
                assert table in tables, f"{assertion.id} scans unknown {table}"

    def test_redundancy_flag(self):
        redundant = build_npd_mappings(redundancy=True)
        lean = build_npd_mappings(redundancy=False)
        assert len(redundant) > len(lean)

    def test_mapped_entities_in_ontology(self, npd_benchmark):
        onto = npd_benchmark.ontology
        known = onto.classes | onto.object_properties | onto.data_properties
        mappings = build_npd_mappings()
        unknown = [e for e in mappings.entities() if e not in known]
        assert unknown == [], f"mapped entities missing in ontology: {unknown[:5]}"


class TestQueries:
    def test_twentyone_queries(self, npd_benchmark):
        assert len(npd_benchmark.queries) == 21
        assert set(npd_benchmark.queries) == {f"q{i}" for i in range(1, 22)}

    def test_all_parse(self, npd_benchmark):
        from repro.sparql import parse_query

        for query in npd_benchmark.queries.values():
            parse_query(query.sparql)

    def test_aggregate_split_matches_paper(self, npd_benchmark):
        # q15-q21 are the aggregate queries of the journal version
        for qid, query in npd_benchmark.queries.items():
            number = int(qid[1:])
            assert query.has_aggregates == (number >= 15), qid

    def test_q6_shape(self, npd_benchmark):
        q6 = npd_benchmark.queries["q6"]
        assert "coreForWellbore" in q6.sparql
        assert q6.has_filter


class TestSeed:
    def test_deterministic(self):
        from repro.npd import build_seed_database

        db1 = build_seed_database(seed=5)
        db2 = build_seed_database(seed=5)
        assert db1.table_sizes() == db2.table_sizes()
        rows1 = sorted(db1.catalog.table("company").iter_rows())
        rows2 = sorted(db2.catalog.table("company").iter_rows())
        assert rows1 == rows2

    def test_different_seeds_differ(self):
        from repro.npd import build_seed_database

        db1 = build_seed_database(seed=5)
        db2 = build_seed_database(seed=6)
        rows1 = sorted(db1.catalog.table("company").iter_rows())
        rows2 = sorted(db2.catalog.table("company").iter_rows())
        assert rows1 != rows2

    def test_all_tables_populated(self, npd_benchmark):
        sizes = npd_benchmark.database.table_sizes()
        empty = [name for name, count in sizes.items() if count == 0]
        assert empty == [], f"empty tables: {empty}"

    def test_foreign_keys_hold(self, npd_benchmark):
        violations = npd_benchmark.database.catalog.check_foreign_keys()
        assert violations == [], violations[:5]

    def test_constant_columns_present(self, npd_benchmark):
        table = npd_benchmark.database.catalog.table("wellbore_exploration_all")
        purposes = set(table.column_values("wlbpurpose"))
        assert purposes <= {"WILDCAT", "APPRAISAL"}

    def test_geometry_columns_loaded(self, npd_benchmark):
        from repro.sql import Geometry

        table = npd_benchmark.database.catalog.table("licence")
        values = [v for v in table.column_values("geometry") if v is not None]
        assert values and all(isinstance(v, Geometry) for v in values)

    def test_scaling_profile(self):
        from repro.npd import NPDSeedGenerator, SeedProfile
        from repro.sql import Database

        profile = SeedProfile().scaled(0.3)
        db = Database(enforce_foreign_keys=False)
        NPDSeedGenerator(seed=1, profile=profile).populate(db)
        assert db.catalog.table("company").row_count == max(1, int(40 * 0.3))
