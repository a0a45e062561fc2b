"""The Mixer runner: executes query mixes and aggregates statistics.

Reproduces the measurement protocol behind Tables 9/10 and Figure 1: a
*query mix* is one pass over the whole query set; the headline throughput
metric is **QMpH** (query mixes per hour), and per-query averages of
execution time, output (rewrite+unfold+translate) time and result size
are collected across the runs.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..concurrency import CancellationToken, QueryCancelled
from .systems import ExecutionRecord, QueryAnsweringSystem


@dataclass
class QueryStats:
    """Aggregates for one query across mix runs."""

    query_id: str
    runs: int
    avg_execution: float
    avg_output: float
    avg_overall: float
    avg_result_size: float
    max_overall: float
    quality: Dict[str, float] = field(default_factory=dict)


@dataclass
class MixReport:
    """Result of running N query mixes against one system."""

    system: str
    runs: int
    loading_seconds: float
    mix_seconds: List[float]
    per_query: Dict[str, QueryStats]
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def avg_mix_seconds(self) -> float:
        return statistics.mean(self.mix_seconds) if self.mix_seconds else 0.0

    clients: int = 1
    # mix periods aborted by a mid-mix query failure; their elapsed time is
    # kept here and excluded from mix_seconds so QMpH is not inflated by
    # partially-measured mixes
    aborted_mix_seconds: List[float] = field(default_factory=list)
    #: "simulated" (round-robin interleaving in one thread) or "threads"
    #: (real concurrent client threads; QMpH is wall-clock)
    mode: str = "simulated"
    #: wall-clock seconds of the whole measured period (threads mode)
    wall_seconds: float = 0.0
    #: cache hit/miss counters harvested from the system after the run
    cache: Dict[str, int] = field(default_factory=dict)
    #: obdalint pre-flight ERROR findings that aborted the run before any
    #: mix was measured (described, one per line); QMpH is 0 in that case
    preflight_findings: List[str] = field(default_factory=list)
    aborted_by_preflight: bool = False

    @property
    def aborted_mixes(self) -> int:
        return len(self.aborted_mix_seconds)

    @property
    def qmph(self) -> float:
        """Query mixes per hour.

        Simulated mode aggregates over interleaved client streams (the
        legacy metric, unchanged for comparability); threads mode reports
        *wall-clock* throughput: completed mixes over the measured period.
        """
        if not self.mix_seconds:
            return 0.0  # no fully-measured mix, no throughput evidence
        if self.mode == "threads":
            if self.wall_seconds <= 0:
                return float("inf")
            return len(self.mix_seconds) * 3600.0 / self.wall_seconds
        average = self.avg_mix_seconds
        if average <= 0:
            return float("inf")
        return self.clients * 3600.0 / average

    def total_results(self) -> float:
        return sum(stats.avg_result_size for stats in self.per_query.values())


class Mixer:
    """Runs query mixes against a system, with warm-up and timeouts."""

    def __init__(
        self,
        system: QueryAnsweringSystem,
        queries: Mapping[str, str],
        warmup_runs: int = 1,
        query_timeout: Optional[float] = None,
        clients: int = 1,
        mode: str = "simulated",
        preflight=None,
    ):
        """In ``mode="simulated"`` (the legacy default) ``clients``
        interleaves N query streams round-robin within one measured mix
        period in a single thread, modelling a one-core server.  In
        ``mode="threads"`` each client is a real thread issuing its own
        mixes concurrently against the shared system and the report's
        QMpH is wall-clock throughput.  ``preflight`` is an
        optional zero-argument callable returning obdalint findings (any
        objects with ``is_error``/``describe()``); when it yields ERROR
        findings the run aborts before warm-up and the report carries the
        findings instead of measurements."""
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if mode not in ("simulated", "threads"):
            raise ValueError(f"unknown mixer mode {mode!r}")
        self.system = system
        self.queries = dict(queries)
        self.warmup_runs = warmup_runs
        self.query_timeout = query_timeout
        self.clients = clients
        self.mode = mode
        self.preflight = preflight
        #: cancellable systems get ``query_timeout`` enforced by a
        #: CancellationToken (the query is *aborted* mid-flight and the
        #: client freed); others keep the legacy post-hoc detection
        self._cancellable = bool(getattr(system, "supports_cancellation", False))

    def _issue(self, query_id: str, sparql: str) -> ExecutionRecord:
        """Run one query, enforcing ``query_timeout`` by cancellation
        when the system supports it."""
        if self._cancellable and self.query_timeout is not None:
            token = CancellationToken.with_timeout(self.query_timeout)
            return self.system.run_query(query_id, sparql, token=token)
        return self.system.run_query(query_id, sparql)

    def _timeout_label(self, exc: QueryCancelled) -> str:
        """The error label of a cancelled query.

        The Mixer's own budget when it set one; otherwise the system
        cancelled on its own (an endpoint's server-side deadline, a
        socket timeout), and the exception's reason says why.
        """
        if self.query_timeout is not None:
            return f"timeout: aborted at {self.query_timeout:.1f}s"
        return f"timeout: {exc.reason}"

    def run(self, runs: int = 3) -> MixReport:
        aborted = self._preflight_report(runs)
        if aborted is not None:
            return aborted
        if self.mode == "threads":
            return self._run_threads(runs)
        return self._run_simulated(runs)

    def _preflight_report(self, runs: int) -> Optional[MixReport]:
        """Run the lint pre-flight; a report aborting the run, or None."""
        if self.preflight is None:
            return None
        errors = [
            finding
            for finding in self.preflight()
            if getattr(finding, "is_error", False)
        ]
        if not errors:
            return None
        return MixReport(
            system=self.system.name,
            runs=runs,
            loading_seconds=self.system.loading_time(),
            mix_seconds=[],
            per_query={},
            errors={
                "__preflight__": f"{len(errors)} obdalint ERROR finding(s)"
            },
            clients=self.clients,
            mode=self.mode,
            preflight_findings=[finding.describe() for finding in errors],
            aborted_by_preflight=True,
        )

    # -- shared pieces ------------------------------------------------------

    def _warmup(self) -> Dict[str, str]:
        """Unmeasured warm-up pass(es); returns the failing-query map.

        Also discovers failing queries and queries exceeding the timeout
        (the paper excludes intractable queries from the mixes the same
        way), and -- with the compilation caches in place -- pre-compiles
        every query so measured mixes start warm, matching the paper's
        own warm-up convention for QMpH runs.
        """
        errors: Dict[str, str] = {}
        for _ in range(self.warmup_runs):
            for query_id, sparql in self.queries.items():
                if query_id in errors:
                    continue
                try:
                    started = time.perf_counter()
                    self._issue(query_id, sparql)
                    elapsed = time.perf_counter() - started
                    if (
                        self.query_timeout is not None
                        and elapsed > self.query_timeout
                    ):
                        # post-hoc path: the query *finished* but overran
                        # (non-cancellable systems can only detect this)
                        errors[query_id] = (
                            f"timeout: {elapsed:.1f}s > {self.query_timeout:.1f}s"
                        )
                except QueryCancelled as exc:
                    errors[query_id] = self._timeout_label(exc)
                except Exception as exc:  # noqa: BLE001 - record and skip
                    errors[query_id] = f"{type(exc).__name__}: {exc}"
        return errors

    def _aggregate(
        self, records: Dict[str, List[ExecutionRecord]]
    ) -> Dict[str, QueryStats]:
        per_query: Dict[str, QueryStats] = {}
        for query_id, query_records in records.items():
            if not query_records:
                continue
            executions = [r.phases.execution for r in query_records]
            outputs = [r.phases.output_time for r in query_records]
            overalls = [r.phases.overall for r in query_records]
            sizes = [r.result_size for r in query_records]
            quality: Dict[str, float] = {}
            for record in query_records:
                for key, value in record.quality.items():
                    if isinstance(value, (int, float)):
                        quality[key] = max(quality.get(key, 0.0), float(value))
            per_query[query_id] = QueryStats(
                query_id=query_id,
                runs=len(query_records),
                avg_execution=statistics.mean(executions),
                avg_output=statistics.mean(outputs),
                avg_overall=statistics.mean(overalls),
                avg_result_size=statistics.mean(sizes),
                max_overall=max(overalls),
                quality=quality,
            )
        return per_query

    def _harvest_cache(self) -> Dict[str, int]:
        stats = getattr(self.system, "cache_stats", None)
        return dict(stats()) if callable(stats) else {}

    # -- simulated mode (legacy) -------------------------------------------

    def _run_simulated(self, runs: int) -> MixReport:
        errors = self._warmup()
        records: Dict[str, List[ExecutionRecord]] = {
            query_id: [] for query_id in self.queries if query_id not in errors
        }
        mix_seconds: List[float] = []
        aborted_mix_seconds: List[float] = []
        for _ in range(runs):
            mix_started = time.perf_counter()
            aborted = False
            for query_id, sparql in self.queries.items():
                if query_id in errors:
                    continue
                # interleave the simulated clients' streams round-robin
                for _client in range(self.clients):
                    try:
                        record = self._issue(query_id, sparql)
                    except QueryCancelled as exc:
                        errors[query_id] = self._timeout_label(exc)
                        records.pop(query_id, None)
                        aborted = True
                        break
                    except Exception as exc:  # noqa: BLE001
                        errors[query_id] = f"{type(exc).__name__}: {exc}"
                        records.pop(query_id, None)
                        aborted = True
                        break
                    if query_id in records:
                        records[query_id].append(record)
            elapsed = time.perf_counter() - mix_started
            # a mix period in which a query died measured fewer queries
            # than a full mix -- keeping it would inflate QMpH
            if aborted:
                aborted_mix_seconds.append(elapsed)
            else:
                mix_seconds.append(elapsed)
        return MixReport(
            system=self.system.name,
            runs=runs,
            loading_seconds=self.system.loading_time(),
            mix_seconds=mix_seconds,
            per_query=self._aggregate(records),
            errors=errors,
            clients=self.clients,
            aborted_mix_seconds=aborted_mix_seconds,
            mode="simulated",
            cache=self._harvest_cache(),
        )

    # -- threads mode -------------------------------------------------------

    def _run_threads(self, runs: int) -> MixReport:
        """N real client threads, each issuing ``runs`` mixes concurrently.

        Compiled plans and cached artifacts are shared (read-only) across
        clients; the database's read-write lock serializes any mutation
        against the in-flight SELECTs.  A query failing in any client is
        blacklisted for all of them, its records dropped, and the mix it
        interrupted is excluded from throughput (as in simulated mode).
        """
        errors = self._warmup()
        errors_lock = threading.Lock()
        merge_lock = threading.Lock()
        all_records: Dict[str, List[ExecutionRecord]] = {
            query_id: [] for query_id in self.queries if query_id not in errors
        }
        mix_seconds: List[float] = []
        aborted_mix_seconds: List[float] = []

        def client_loop() -> None:
            local_records: Dict[str, List[ExecutionRecord]] = {
                query_id: [] for query_id in all_records
            }
            local_mixes: List[float] = []
            local_aborted: List[float] = []
            for _ in range(runs):
                mix_started = time.perf_counter()
                aborted = False
                for query_id, sparql in self.queries.items():
                    if query_id in errors:  # atomic read under the GIL
                        continue
                    try:
                        record = self._issue(query_id, sparql)
                    except QueryCancelled as exc:
                        with errors_lock:
                            errors.setdefault(query_id, self._timeout_label(exc))
                        local_records.pop(query_id, None)
                        aborted = True
                        break
                    except Exception as exc:  # noqa: BLE001
                        with errors_lock:
                            errors.setdefault(
                                query_id, f"{type(exc).__name__}: {exc}"
                            )
                        local_records.pop(query_id, None)
                        aborted = True
                        break
                    if query_id in local_records:
                        local_records[query_id].append(record)
                elapsed = time.perf_counter() - mix_started
                if aborted:
                    local_aborted.append(elapsed)
                else:
                    local_mixes.append(elapsed)
            with merge_lock:
                for query_id, query_records in local_records.items():
                    if query_id in all_records:
                        all_records[query_id].extend(query_records)
                mix_seconds.extend(local_mixes)
                aborted_mix_seconds.extend(local_aborted)

        threads = [
            threading.Thread(target=client_loop, name=f"mixer-client-{index}")
            for index in range(self.clients)
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - wall_started
        # drop queries blacklisted by any client from the aggregates
        records = {
            query_id: query_records
            for query_id, query_records in all_records.items()
            if query_id not in errors
        }
        return MixReport(
            system=self.system.name,
            runs=runs,
            loading_seconds=self.system.loading_time(),
            mix_seconds=mix_seconds,
            per_query=self._aggregate(records),
            errors=errors,
            clients=self.clients,
            aborted_mix_seconds=aborted_mix_seconds,
            mode="threads",
            wall_seconds=wall_seconds,
            cache=self._harvest_cache(),
        )


def run_mix(
    system: QueryAnsweringSystem,
    queries: Mapping[str, str],
    runs: int = 3,
    warmup_runs: int = 1,
) -> MixReport:
    """One-shot convenience wrapper."""
    return Mixer(system, queries, warmup_runs).run(runs)
