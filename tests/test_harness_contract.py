"""The names the e2e benchmark reads from the program, pinned in tier-1.

``benchmarks/e2e`` wraps module attributes by name to trace each layer,
reads ``ExecutionStats`` counters, ``OBDAEngine.cache_stats()`` keys and
``Database.plan_generation`` over its control API, and reads a few
result attributes.  Its files are the benchmark's own and are not edited
alongside the program, so a rename here would otherwise surface only in
CI's e2e-smoke job (or in the benchmark run itself).
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.sql import Database
from repro.sql.executor import ExecutionStats

#: (module, owner class or None for a module attribute, attribute) the
#: harness replaces with a tracing wrapper (benchmarks/e2e/tracing.py,
#: serve.py)
WRAPPED = [
    ("repro.server.http", "_Handler", "do_GET"),
    ("repro.server.app", "SparqlEndpoint", "handle_query"),
    ("repro.server.app", None, "parse_query"),
    ("repro.server.app", None, "serialize"),
    ("repro.server.admission", "WorkerPool", "submit"),
    ("repro.obda.system", None, "parse_query"),
    ("repro.obda.system", None, "compile_tmappings"),
    ("repro.obda.system", "OBDAEngine", "execute"),
    ("repro.obda.rewriter", "TreeWitnessRewriter", "rewrite"),
    ("repro.obda.unfolder", "Unfolder", "unfold_query"),
    ("repro.owl.reasoner", "QLReasoner", "__init__"),
    ("repro.sql.engine", "Database", "execute_plan"),
    ("repro.sql.engine", None, "refresh_plan"),
    ("repro.sql.engine", None, "compile_select"),
    ("repro.sql.executor", None, "compile_select"),
    ("repro.sql.vectorized", None, "compile_select"),
]

#: ExecutionStats counters the control API reads (benchmarks/e2e/serve.py)
STATS_FIELDS = {"batch_blocks", "batch_fallbacks", "shared_scan_hits", "plan_recompiles"}

#: cache_stats() keys the benchmark reads (benchmarks/e2e/run.py)
CACHE_KEYS = {
    "query_cache_hits",
    "query_cache_misses",
    "rewrite_cache_hits",
    "rewrite_cache_misses",
}


@pytest.mark.parametrize(
    "module_name, owner_name, attribute",
    WRAPPED,
    ids=[".".join(filter(None, entry)) for entry in WRAPPED],
)
def test_wrapped_names_exist(module_name, owner_name, attribute):
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attribute))


def test_execution_stats_fields():
    names = {counter.name for counter in dataclasses.fields(ExecutionStats)}
    assert STATS_FIELDS <= names
    assert Database().stats.plan_recompiles == 0


def test_cache_stats_keys(example_engine):
    stats = example_engine.cache_stats()
    assert CACHE_KEYS <= set(stats)
    # there is no rewrite cache: the two keys exist for the harness only
    assert stats["rewrite_cache_hits"] == stats["rewrite_cache_misses"] == 0


def test_database_plan_generation(example_db):
    generation = example_db.plan_generation
    assert isinstance(generation, int)
    example_db.execute("INSERT INTO temployee VALUES (9, 'Eve', 'B2')")
    assert example_db.plan_generation == generation + 1


def test_engine_and_result_attributes(example_engine):
    query = "PREFIX : <http://ex.org/> SELECT ?e WHERE { ?e :assignedTo ?t }"
    unfolded = example_engine.unfold(query)
    assert isinstance(unfolded.sql_text, str)
    assert isinstance(unfolded.union_blocks, int)
    assert isinstance(unfolded.rewriting.ucq_size, int)
    result = example_engine.execute(query)
    assert isinstance(result.variables, list) and isinstance(result.rows, list)
    assert example_engine.stale_findings == []
    assert callable(example_engine.analyze_database)
    assert example_engine.database.total_rows() > 0
    assert len(example_engine.mappings) > 0


def test_server_attributes(example_engine):
    from repro.server import ServerConfig, SparqlServer

    server = SparqlServer(example_engine, ServerConfig(port=0, workers=1))
    server.start()
    try:
        assert isinstance(server.port, int)
        assert server.endpoint.metrics.count("admission_rejections") == 0
    finally:
        server.stop()
