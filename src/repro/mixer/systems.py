"""System adapters for the OBDA Mixer.

The Mixer (the paper's "automatized testing platform") drives any
query-answering system implementing :class:`QueryAnsweringSystem`; the
paper stresses extensibility to systems exposing per-phase statistics,
which the adapters surface through :class:`PhaseBreakdown`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Protocol

from ..concurrency import CancellationToken, QueryCancelled
from ..obda.system import OBDAEngine, OBDAResult
from ..obda.triplestore import RewritingTripleStore, TripleStoreAnswer


@dataclass
class PhaseBreakdown:
    """Per-phase seconds for one query execution (Table 1 measures)."""

    rewriting: float = 0.0
    unfolding: float = 0.0
    execution: float = 0.0
    translation: float = 0.0
    planning: float = 0.0

    @property
    def overall(self) -> float:
        return (
            self.rewriting
            + self.unfolding
            + self.planning
            + self.execution
            + self.translation
        )

    @property
    def output_time(self) -> float:
        """The paper's 'out_time': everything that is not raw execution."""
        return self.rewriting + self.unfolding + self.planning + self.translation


@dataclass
class ExecutionRecord:
    """One query execution as observed by the Mixer."""

    query_id: str
    result_size: int
    phases: PhaseBreakdown
    quality: Dict[str, Any] = field(default_factory=dict)


class QueryAnsweringSystem(Protocol):
    """Anything the Mixer can benchmark.

    Adapters that can abort a running query set the class attribute
    ``supports_cancellation = True`` and accept an optional ``token``
    keyword (a :class:`repro.concurrency.CancellationToken`) in
    :meth:`run_query`; the Mixer then enforces ``query_timeout`` by
    cancellation instead of post-hoc detection.
    """

    name: str

    def loading_time(self) -> float:
        """Seconds spent in the starting phase."""
        ...

    def run_query(self, query_id: str, sparql: str) -> ExecutionRecord:
        ...


class OBDASystemAdapter:
    """Adapter for the Ontop-like :class:`OBDAEngine`."""

    supports_cancellation = True

    def __init__(self, engine: OBDAEngine, name: Optional[str] = None):
        self.engine = engine
        self.name = name or f"obda-{engine.database.profile.name}"

    def loading_time(self) -> float:
        return self.engine.loading_seconds

    def cache_stats(self) -> Dict[str, int]:
        return self.engine.cache_stats()

    def run_query(
        self,
        query_id: str,
        sparql: str,
        token: Optional[CancellationToken] = None,
    ) -> ExecutionRecord:
        result: OBDAResult = self.engine.execute(sparql, token=token)
        phases = PhaseBreakdown(
            rewriting=result.timings.rewriting,
            unfolding=result.timings.unfolding,
            execution=result.timings.execution,
            translation=result.timings.translation,
            planning=result.timings.planning,
        )
        return ExecutionRecord(
            query_id=query_id,
            result_size=len(result),
            phases=phases,
            quality={
                "tree_witnesses": result.metrics.tree_witnesses,
                "ucq_size": result.metrics.ucq_size,
                "sql_union_blocks": result.metrics.sql_union_blocks,
                "sql_characters": result.metrics.sql_characters,
                "weight_of_r_u": result.timings.weight_of_r_u,
                "compile_cache_hit": int(result.metrics.compile_cache_hit),
            },
        )


QualityProbe = Callable[[str, str, ExecutionRecord], None]


class ProbedSystemAdapter:
    """Wraps a system and runs a quality probe after every execution.

    The probe mutates ``record.quality`` in place -- e.g. the
    differential oracle's :meth:`DifferentialOracle.quality_probe` stamps
    ``oracle_verdict``/``oracle_agreement`` so every measured mix carries
    correctness evidence alongside its timings.  Probe time is *not*
    charged to the system's phase breakdown.
    """

    def __init__(
        self,
        system: QueryAnsweringSystem,
        probe: QualityProbe,
        name: Optional[str] = None,
    ):
        self.system = system
        self.probe = probe
        self.name = name or f"probed-{system.name}"

    @property
    def supports_cancellation(self) -> bool:
        return bool(getattr(self.system, "supports_cancellation", False))

    def loading_time(self) -> float:
        return self.system.loading_time()

    def cache_stats(self) -> Dict[str, int]:
        stats = getattr(self.system, "cache_stats", None)
        return stats() if callable(stats) else {}

    def run_query(
        self,
        query_id: str,
        sparql: str,
        token: Optional[CancellationToken] = None,
    ) -> ExecutionRecord:
        if token is not None and self.supports_cancellation:
            record = self.system.run_query(query_id, sparql, token=token)
        else:
            record = self.system.run_query(query_id, sparql)
        self.probe(query_id, sparql, record)
        return record


class SparqlEndpointAdapter:
    """Drive a SPARQL 1.1 Protocol endpoint (``python -m repro.server``).

    This is the serving-path counterpart of :class:`OBDASystemAdapter`:
    the same Mixer workload, but every query crosses a real HTTP
    boundary, so QMpH includes serialization, transport and the server's
    admission queue.  Per-phase engine timings come back in the
    ``X-Phase-*`` response headers; the measured wall time (including
    the network) is stamped into ``quality["wall_seconds"]``.

    Cancellation is delegated: the token's remaining budget is sent as
    the ``timeout`` parameter and the *server* aborts the query
    cooperatively; a 408 response (or a client-side socket timeout)
    surfaces as :class:`QueryCancelled` just like the in-process path.
    """

    supports_cancellation = True

    def __init__(self, base_url: str, name: Optional[str] = None):
        self.base_url = base_url.rstrip("/")
        self.name = name or f"endpoint-{urllib.parse.urlsplit(base_url).netloc}"

    def _get_json(self, path: str) -> Dict[str, Any]:
        with urllib.request.urlopen(self.base_url + path, timeout=10.0) as resp:
            return json.loads(resp.read())

    def loading_time(self) -> float:
        try:
            return float(self._get_json("/health").get("loading_seconds", 0.0))
        except (OSError, ValueError):
            return 0.0

    def cache_stats(self) -> Dict[str, int]:
        try:
            caches = self._get_json("/metrics").get("engine_caches", {})
            return {key: int(value) for key, value in caches.items()}
        except (OSError, ValueError):
            return {}

    def run_query(
        self,
        query_id: str,
        sparql: str,
        token: Optional[CancellationToken] = None,
    ) -> ExecutionRecord:
        params = {}
        socket_timeout = 300.0
        if token is not None:
            remaining = token.remaining()
            if remaining is not None:
                if remaining <= 0:
                    raise QueryCancelled("deadline")
                params["timeout"] = f"{remaining:.3f}"
                # the server enforces the deadline; the socket timeout is
                # only a safety net against a hung connection
                socket_timeout = remaining + 30.0
        url = self.base_url + "/sparql"
        if params:
            url += "?" + urllib.parse.urlencode(params)
        request = urllib.request.Request(
            url,
            data=sparql.encode("utf-8"),
            headers={
                "Content-Type": "application/sparql-query",
                "Accept": "application/sparql-results+json",
            },
        )
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=socket_timeout) as resp:
                headers = resp.headers
                payload = json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            if exc.code == 408:
                raise QueryCancelled("deadline") from None
            detail = exc.read().decode("utf-8", "replace")[:200]
            raise RuntimeError(f"endpoint returned {exc.code}: {detail}") from None
        except TimeoutError:
            raise QueryCancelled("deadline") from None
        wall = time.perf_counter() - started

        def phase(name: str) -> float:
            try:
                return float(headers.get(f"X-Phase-{name}", "0") or "0")
            except ValueError:
                return 0.0

        phases = PhaseBreakdown(
            rewriting=phase("Rewriting"),
            unfolding=phase("Unfolding"),
            planning=phase("Planning"),
            execution=phase("Execution"),
            translation=phase("Translation"),
        )
        bindings = payload.get("results", {}).get("bindings", [])
        return ExecutionRecord(
            query_id=query_id,
            result_size=len(bindings),
            phases=phases,
            quality={
                "wall_seconds": wall,
                "compile_cache_hit": int(headers.get("X-Cache-Hit", "0") or "0"),
            },
        )


class TripleStoreAdapter:
    """Adapter for the Stardog-like rewriting triple store."""

    def __init__(
        self,
        store: RewritingTripleStore,
        name: str = "triplestore",
        enable_existential: bool = True,
    ):
        self.store = store
        self.name = name
        self.enable_existential = enable_existential

    def loading_time(self) -> float:
        return self.store.load_seconds

    def run_query(self, query_id: str, sparql: str) -> ExecutionRecord:
        answer: TripleStoreAnswer = self.store.execute(
            sparql, enable_existential=self.enable_existential
        )
        phases = PhaseBreakdown(
            rewriting=answer.rewriting_seconds,
            execution=answer.execution_seconds,
        )
        return ExecutionRecord(
            query_id=query_id,
            result_size=len(answer.result),
            phases=phases,
            quality={
                "ucq_size": answer.rewriting.ucq_size if answer.rewriting else 1,
                "tree_witnesses": (
                    answer.rewriting.tree_witnesses if answer.rewriting else 0
                ),
            },
        )
