"""Shared fixtures.

The expensive artifacts (seed database, compiled OBDA engine) are
session-scoped; tests must not mutate them.  Tests needing a mutable
database use the cheap ``example_db`` fixture instead.
"""

from __future__ import annotations

import pytest

from repro.npd import Benchmark, build_benchmark
from repro.obda import OBDAEngine, parse_obda
from repro.owl import Ontology, QLReasoner
from repro.sql import Database

EX = "http://ex.org/"


@pytest.fixture()
def example_db() -> Database:
    """The paper's Example 4.1 database (employees/products/tasks)."""
    db = Database()
    db.execute_script(
        """
        CREATE TABLE temployee (
            id INTEGER PRIMARY KEY,
            name VARCHAR(50),
            branch VARCHAR(10)
        );
        CREATE TABLE tassignment (
            branch VARCHAR(10),
            task VARCHAR(10),
            PRIMARY KEY (branch, task)
        );
        CREATE TABLE tproduct (product VARCHAR(10) PRIMARY KEY, size VARCHAR(10));
        CREATE TABLE tsellsproduct (
            id INTEGER,
            product VARCHAR(10),
            PRIMARY KEY (id, product),
            FOREIGN KEY (id) REFERENCES temployee (id),
            FOREIGN KEY (product) REFERENCES tproduct (product)
        );
        INSERT INTO temployee VALUES (1, 'John', 'B1'), (2, 'Lisa', 'B1');
        INSERT INTO tassignment VALUES
            ('B1','task1'),('B1','task2'),('B2','task1'),('B2','task2');
        INSERT INTO tproduct VALUES
            ('p1','big'),('p2','big'),('p3','small'),('p4','big');
        INSERT INTO tsellsproduct VALUES (1,'p1'),(2,'p2'),(1,'p2'),(2,'p3');
        """
    )
    return db


EXAMPLE_OBDA = """
[PrefixDeclaration]
:\thttp://ex.org/
xsd:\thttp://www.w3.org/2001/XMLSchema#

[MappingDeclaration] @collection [[
mappingId\tm1
target\t\t:emp/{id} a :Employee .
source\t\tSELECT id FROM temployee

mappingId\tm2
target\t\t:branch/{branch} a :Branch .
source\t\tSELECT branch FROM tassignment

mappingId\tm3
target\t\t:branch/{branch} a :Branch .
source\t\tSELECT branch FROM temployee

mappingId\tm4
target\t\t:emp/{id} :sellsProduct :prod/{product} .
source\t\tSELECT id, product FROM tsellsproduct

mappingId\tm5
target\t\t:emp/{id} :name {name}^^xsd:string .
source\t\tSELECT id, name FROM temployee

mappingId\tm6
target\t\t:emp/{id} :assignedTo :task/{task} .
source\t\tSELECT id, task FROM temployee NATURAL JOIN tassignment

mappingId\tm7
target\t\t:prod/{product} a :Product .
source\t\tSELECT product FROM tproduct

mappingId\tm8
target\t\t:size/{size} a :ProductSize .
source\t\tSELECT size FROM tproduct
]]
"""


@pytest.fixture()
def example_mappings():
    _, mappings = parse_obda(EXAMPLE_OBDA)
    return mappings


@pytest.fixture()
def example_ontology() -> Ontology:
    onto = Ontology()
    for cls in ("Employee", "Branch", "Person", "Product", "ProductSize", "Task"):
        onto.declare_class(EX + cls)
    onto.declare_object_property(EX + "sellsProduct")
    onto.declare_object_property(EX + "assignedTo")
    onto.declare_data_property(EX + "name")
    onto.add_subclass(EX + "Employee", EX + "Person")
    onto.add_domain(EX + "sellsProduct", EX + "Employee")
    onto.add_range(EX + "sellsProduct", EX + "Product")
    onto.add_existential(EX + "Employee", EX + "assignedTo", EX + "Task")
    onto.add_disjoint(EX + "Employee", EX + "Product")
    return onto


@pytest.fixture()
def example_engine(example_db, example_ontology, example_mappings) -> OBDAEngine:
    return OBDAEngine(example_db, example_ontology, example_mappings)


# -- session-scoped NPD artifacts (read-only!) ------------------------------


@pytest.fixture(scope="session")
def npd_benchmark() -> Benchmark:
    return build_benchmark(seed=1)


@pytest.fixture(scope="session")
def npd_engine(npd_benchmark) -> OBDAEngine:
    return OBDAEngine(
        npd_benchmark.database, npd_benchmark.ontology, npd_benchmark.mappings
    )


@pytest.fixture(scope="session")
def npd_reasoner(npd_benchmark) -> QLReasoner:
    return QLReasoner(npd_benchmark.ontology)


@pytest.fixture(scope="session")
def engines_s025():
    """``best-s025`` and ``default-s025``: the benchmark's engines at
    scale 0.25 without growth, with the catalogue and bulk queries."""
    from repro.analysis import analyze
    from repro.npd.seed import SeedProfile
    from test_unfolder_residue import BULK_QUERIES

    bench = build_benchmark(seed=1, profile=SeedProfile().scaled(0.25))
    report = analyze(bench.database, bench.ontology, bench.mappings, perf=False)
    best = OBDAEngine(
        bench.database,
        bench.ontology,
        bench.mappings,
        factbase=report.factbase,
        constraints=report.constraints.constraints,
        executor="vectorized",
    )
    default = OBDAEngine(bench.database, bench.ontology, bench.mappings)
    queries = {qid: q.sparql for qid, q in bench.queries.items()}
    queries.update(BULK_QUERIES)
    return {"best": best, "default": default}, queries
