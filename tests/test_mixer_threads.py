"""Threaded Mixer mode: wall-clock accounting and thread safety.

The ISSUE's regression bar: 4 concurrent Mixer clients over the seed DB
must produce byte-identical sorted result sets to a single-client run.
"""

from __future__ import annotations

import threading
from typing import Dict, List

import pytest

from repro.mixer import Mixer, OBDASystemAdapter
from repro.mixer.systems import ExecutionRecord
from repro.sql import Database

# a fast, representative slice of the tractable mix (joins, unions,
# aggregates, modifiers)
MIX_IDS = ["q1", "q5", "q12", "q14", "q19", "q21"]


class RecordingAdapter:
    """Wraps an adapter and snapshots every result set it returns."""

    def __init__(self, system, engine):
        self.system = system
        self.engine = engine
        self.name = f"recording-{system.name}"
        self._lock = threading.Lock()
        self.result_blobs: Dict[str, List[str]] = {}

    def loading_time(self) -> float:
        return self.system.loading_time()

    def run_query(self, query_id: str, sparql: str) -> ExecutionRecord:
        result = self.engine.execute(sparql)
        blob = "\n".join(sorted(repr(row) for row in result.rows))
        with self._lock:
            self.result_blobs.setdefault(query_id, []).append(blob)
        return self.system.run_query(query_id, sparql)


@pytest.fixture()
def mix_queries(npd_benchmark):
    return {qid: npd_benchmark.queries[qid].sparql for qid in MIX_IDS}


class TestThreadedMode:
    def test_report_shape(self, npd_engine, mix_queries):
        report = Mixer(
            OBDASystemAdapter(npd_engine),
            mix_queries,
            warmup_runs=1,
            clients=2,
            mode="threads",
        ).run(runs=2)
        assert report.errors == {}
        assert report.mode == "threads"
        assert report.clients == 2
        assert report.wall_seconds > 0
        # every client completes its own mixes
        assert len(report.mix_seconds) == 2 * 2
        for stats in report.per_query.values():
            assert stats.runs == 2 * 2
        assert report.qmph > 0
        assert report.cache.get("query_cache_hits", 0) > 0

    def test_invalid_mode_rejected(self, npd_engine, mix_queries):
        with pytest.raises(ValueError):
            Mixer(OBDASystemAdapter(npd_engine), mix_queries, mode="fibers")

    def test_simulated_mode_unchanged(self, npd_engine, mix_queries):
        report = Mixer(
            OBDASystemAdapter(npd_engine), mix_queries, warmup_runs=0, clients=3
        ).run(runs=1)
        assert report.mode == "simulated"
        assert report.errors == {}
        assert len(report.mix_seconds) == 1


class TestFourClientDeterminism:
    def test_concurrent_clients_match_single_client(self, npd_engine, mix_queries):
        baseline = RecordingAdapter(OBDASystemAdapter(npd_engine), npd_engine)
        single = Mixer(
            baseline, mix_queries, warmup_runs=1, clients=1, mode="threads"
        ).run(runs=1)
        assert single.errors == {}

        concurrent = RecordingAdapter(OBDASystemAdapter(npd_engine), npd_engine)
        threaded = Mixer(
            concurrent, mix_queries, warmup_runs=0, clients=4, mode="threads"
        ).run(runs=2)
        assert threaded.errors == {}

        for query_id in mix_queries:
            expected = baseline.result_blobs[query_id][-1]
            blobs = concurrent.result_blobs[query_id]
            # 4 clients x 2 measured mixes (warmup_runs=0: already warm)
            assert len(blobs) == 8
            assert all(blob == expected for blob in blobs), (
                f"{query_id}: concurrent result sets diverged"
            )


class TestConcurrentDml:
    def test_readers_and_writer_interleave_safely(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, grp VARCHAR(5), v INTEGER)"
        )
        db.insert_rows("t", [(i, "a", i) for i in range(200)])
        # one compiled plan shared by every reader, never re-planned:
        # each execution sees the rows committed before it
        plan = db.compile("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp")
        blocks = plan.blocks
        db.execute_plan(plan)
        generation = db.plan_generation
        failures: List[str] = []
        stop = threading.Event()

        def reader(executor):
            while not stop.is_set():
                try:
                    result = db.execute_plan(plan, executor=executor)
                    # counts must always reflect a consistent snapshot:
                    # a torn read mid-insert would surface as an exception
                    # or an impossible negative/None count
                    for _, count in result.rows:
                        if count is None or count < 0:
                            failures.append(f"bad count {count}")
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{type(exc).__name__}: {exc}")
                    return

        readers = [
            threading.Thread(target=reader, args=(executor,))
            for executor in ("row", "vectorized", "row")
        ]
        for thread in readers:
            thread.start()
        try:
            for i in range(200, 400):
                db.execute(f"INSERT INTO t VALUES ({i}, 'b', {i})")
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert failures == []
        for executor in ("row", "vectorized"):
            final = db.execute_plan(plan, executor=executor)
            assert dict(final.rows) == {"a": 200, "b": 200}
        assert db.plan_generation == generation + 200
        assert plan.blocks is blocks
        assert db.stats.plan_recompiles == 0


class TestConcurrentSharedScans:
    def test_union_teardown_does_not_race_other_queries(
        self, npd_engine, npd_benchmark
    ):
        """The shared-scan context is per query *and* per thread.

        Regression: it used to be plain Executor instance state, so one
        thread finishing its UNION nulled the context out from under
        another thread's in-flight disjuncts (AttributeError: 'NoneType'
        object has no attribute 'lookup_scan') — and, more quietly, two
        concurrent queries could share one context and tear it down once.
        """
        queries = {
            query_id: npd_benchmark.queries[query_id].sparql
            for query_id in ("q1", "q5", "q14", "q19")
        }
        expected = {
            query_id: sorted(repr(row) for row in npd_engine.execute(sparql).rows)
            for query_id, sparql in queries.items()
        }
        failures: List[str] = []

        def hammer():
            for _ in range(6):
                for query_id, sparql in queries.items():
                    try:
                        result = npd_engine.execute(sparql)
                    except Exception as exc:  # noqa: BLE001
                        failures.append(f"{query_id}: {type(exc).__name__}: {exc}")
                        return
                    if sorted(repr(row) for row in result.rows) != expected[query_id]:
                        failures.append(f"{query_id}: result set diverged")
                        return

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert failures == []


class TestConcurrentSubPlans:
    def test_threads_each_run_their_own_blocks_sub_plans(self, monkeypatch):
        """The running block's sub-plans are per thread.

        One executor serves every request thread; if the block a thread
        is running were instance state, another thread's block would
        replace it mid-execution and the lookup would miss (and compile)
        or find the wrong sub-plan.
        """
        import sys

        import repro.sql.executor as executor_module

        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp VARCHAR(5), v INTEGER)")
        db.insert_rows("t", [(i, "abcd"[i % 4], i * 7 % 31) for i in range(120)])
        texts = [
            f"SELECT a.id, d.n FROM t a JOIN (SELECT grp, COUNT(*) AS n FROM t "
            f"WHERE v > {k} GROUP BY grp) d ON a.grp = d.grp "
            f"WHERE a.id IN (SELECT id FROM t WHERE v < {k + 9}) "
            f"UNION SELECT id, v FROM (SELECT id, v FROM t WHERE grp = '{'abcd'[k]}') s"
            for k in range(4)
        ]
        plans = [db.compile(text) for text in texts]
        expected = {
            (k, executor): db.execute_plan(plan, executor=executor).rows
            for k, plan in enumerate(plans)
            for executor in ("row", "vectorized")
        }
        compiles: List[object] = []
        original = executor_module.compile_select

        def spy(*args, **kwargs):
            compiles.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "compile_select", spy)
        failures: List[str] = []

        def hammer(k: int, executor: str) -> None:
            for _ in range(15):
                try:
                    rows = db.execute_plan(plans[k], executor=executor).rows
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{k}/{executor}: {type(exc).__name__}: {exc}")
                    return
                if rows != expected[(k, executor)]:
                    failures.append(f"{k}/{executor}: rows diverged")
                    return

        threads = [
            threading.Thread(target=hammer, args=(k, executor))
            for k in range(4)
            for executor in ("row", "vectorized")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert compiles == []
