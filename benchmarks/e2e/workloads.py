"""What the benchmark runs: server configurations, request streams, write batches.

Everything here is a pure function of its arguments (the workload seed
among them); nothing imports the program under test at module level, so
the server launcher can time its own imports.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: the database is the same on every run, so that the committed answers
#: under ``expected/`` hold for every workload seed; the seed drives the
#: request stream and the write batches
DATA_SEED = 1
VIG_SEED = 13
SMOKE_SCALE = 0.1
#: never-repeated variants per ad-hoc template (and per smoke run)
ADHOC_POOL = 256
ADHOC_POOL_SMOKE = 8
#: about the rounds of one run: see ``AdhocPool.rounds``
ADHOC_BLOCK = 32


@dataclass(frozen=True)
class Config:
    """One way to assemble the server (see ``serve.build``)."""

    scale: float
    growth: int
    #: FactBase + verified constraints + vectorized executor
    best: bool

    def tag(self, smoke: bool) -> str:
        """Names the data instance: the key of its expected-answers file."""
        scale = SMOKE_SCALE if smoke else self.scale
        grown = f"g{self.growth}" if self.growth > 1 else ""
        return f"s{round(scale * 100):03d}{grown}"


CONFIGS: Dict[str, Config] = {
    "best-g4": Config(scale=0.25, growth=4, best=True),
    "best-s025": Config(scale=0.25, growth=1, best=True),
    "default-s025": Config(scale=0.25, growth=1, best=False),
}


@dataclass(frozen=True)
class Workload:
    """Why each exists is recorded in ``BENCHMARK.json`` and the README."""

    name: str
    config: str
    clients: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mix_warm_g4", "best-g4", 1),
        Workload("adhoc_cold", "best-s025", 1),
        Workload("bulk_output", "best-g4", 1),
        # one client per core of the sandbox
        Workload("mix_rw_default", "default-s025", 2),
    )
}


@dataclass(frozen=True)
class Request:
    #: position in the round; per-class latency is taken per slot
    slot: str
    #: key of the expected answer
    key: str
    query: str
    format: str = "json"


# -- catalogue mix -------------------------------------------------------------


def catalogue() -> Dict[str, str]:
    from repro.npd import build_query_set

    return {query_id: query.sparql for query_id, query in build_query_set().items()}


def mix_round() -> List[Request]:
    """The 21 catalogue queries in catalogue order."""
    return [Request(query_id, query_id, sparql) for query_id, sparql in catalogue().items()]


# -- bulk output ---------------------------------------------------------------

_PREFIX = "PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>\n"
BULK_FORMATS = ("json", "xml", "csv", "tsv")
BULK_QUERIES: Dict[str, str] = {
    # one unfiltered scan of the monthly production table each: little to
    # execute, 5 760 rows to translate, serialize and ship
    "b1": _PREFIX
    + "SELECT ?year ?month ?oil ?gas WHERE { ?volume npdv:productionMonth ?month ; "
    "npdv:productionYear ?year ; npdv:producedOil ?oil ; npdv:producedGas ?gas }",
    "b2": _PREFIX
    + "SELECT ?volume ?month ?oe ?water WHERE { ?volume npdv:productionMonth ?month ; "
    "npdv:producedOe ?oe ; npdv:producedWater ?water }",
}


def shuffled_rounds(requests: List[Request], key: str) -> Iterator[List[Request]]:
    """The same requests in a fresh seeded order every round.

    In a fixed order whatever depends on position repeats round after
    round, differently from run to run: the server's collector pauses fall
    on the same classes of ``bulk_output``; the two clients of
    ``mix_rw_default`` stay in step, so a short query always runs beside
    the same partner and its latency is set by the offset between the
    clients, which changes between runs and hardly within one.  Shuffled,
    a window sees every alignment.
    """
    rng = random.Random(key)
    while True:
        yield rng.sample(requests, len(requests))


def bulk_round() -> List[Request]:
    return [
        Request(f"{key}.{fmt}", key, query, fmt)
        for key, query in BULK_QUERIES.items()
        for fmt in BULK_FORMATS
    ]


# -- ad-hoc templates ----------------------------------------------------------

_NS = "http://sws.ifi.uio.no/vocab/npd-v2#"
#: slot -> (marker, anchor class, subject).  The marker is a predicate-object
#: pair of the catalogue query; extra ``property ?var`` pairs are appended
#: behind it, for the marker's own subject or, where one is named, for the
#: marker's object as a new subject.  A class in the marker is replaced by
#: one of its subclasses.
ADHOC_ANCHORS: Dict[str, Tuple[str, str, str]] = {
    "q1": ("a npdv:Wellbore", "Wellbore", ""),
    "q2": ("a npdv:ExplorationWellbore", "ExplorationWellbore", ""),
    "q3": ("a npdv:Wellbore", "Wellbore", ""),
    "q4": ("a npdv:ProductionLicence", "ProductionLicence", ""),
    "q5": ("a npdv:Field", "Field", ""),
    "q6": ("rdf:type npdv:Wellbore", "Wellbore", ""),
    "q7": ("a npdv:Discovery", "Discovery", ""),
    "q8": ("a npdv:ProductionLicence", "ProductionLicence", ""),
    "q9": ("a npdv:FixedFacility", "FixedFacility", ""),
    "q10": ("a npdv:WildcatWellbore", "WildcatWellbore", ""),
    "q11": ("a npdv:SeismicSurvey", "SeismicSurvey", ""),
    # a pipeline has two properties of its own; its source facility has many
    "q12": ("npdv:pipelineFromFacility ?from", "FixedFacility", "?from"),
    "q13": ("npdv:name ?wellbore", "Wellbore", ""),
    "q14": ("a npdv:Operator", "Operator", ""),
    "q15": ("a npdv:Wellbore", "Wellbore", ""),
    "q16": ("a npdv:ProductionLicence", "ProductionLicence", ""),
    "q17": ("a npdv:ExplorationWellbore", "ExplorationWellbore", ""),
    "q18": ("a npdv:Wellbore", "Wellbore", ""),
    "q19": ("npdv:name ?field", "Field", ""),
    "q20": ("npdv:name ?field", "Field", ""),
    "q21": ("npdv:name ?wellbore", "Wellbore", ""),
}

_FROM = re.compile(r"FROM (\w+)")
_FILTER = re.compile(r"FILTER\([^\n]*\)")
_OPTIONAL = re.compile(r"OPTIONAL \{([^{}]*)\}")
_INTEGER = re.compile(r"(?<![\w-])\d+(?![\w-])")
_DATE = re.compile(r'"(\d{4})(-\d\d-\d\d)"')


def _fresh_constants(sparql: str, rng: random.Random) -> str:
    """Nudge every FILTER constant: years by a few, other numbers by ~10 %."""

    def integer(match: re.Match) -> str:
        value = int(match.group())
        spread = 3 if 1900 <= value <= 2100 else max(1, value // 10)
        return str(value + rng.randint(-spread, spread))

    def date(match: re.Match) -> str:
        return f'"{int(match.group(1)) + rng.randint(-3, 3)}{match.group(2)}"'

    return _FILTER.sub(
        lambda found: _DATE.sub(date, _INTEGER.sub(integer, found.group())), sparql
    )


class AdhocPool:
    """``ADHOC_POOL`` distinct instantiations of each catalogue query.

    Variant ``(slot, index)`` is fixed by the ontology and mappings alone,
    so its answer can be committed; the workload seed only chooses the
    order in which a run walks through the pool.  Every variant changes
    the query's basic graph pattern (a subclass of the anchor class, one
    to three extra data properties of the anchor), so no two share a
    conjunctive query, let alone a query or SQL text.  The extra
    properties are leaves of the property hierarchy mapped for the
    anchor's kind of entity only, which keeps a variant's cost near its
    template's; those mapped from a table the class is mapped from come
    first, which keeps most answers non-empty.
    """

    def __init__(self) -> None:
        from repro.npd import build_npd_mappings, build_npd_ontology
        from repro.owl.model import DataPropertyRef
        from repro.owl.reasoner import QLReasoner

        ontology = build_npd_ontology()
        mappings = build_npd_mappings()
        reasoner = QLReasoner(ontology)

        def sources(iri: str) -> Set[Tuple[str, str]]:
            """(subject IRI template, table) of every mapping assertion."""
            return {
                (assertion.subject.template.pattern, table)
                for assertion in mappings.for_entity(iri)
                for table in _FROM.findall(assertion.source_sql)
            }

        leaves = {
            iri[len(_NS):]: sources(iri)
            for iri in ontology.data_properties
            if mappings.for_entity(iri)
            and not reasoner.sub_data_properties_of(DataPropertyRef(iri), reflexive=False)
        }
        self._templates = catalogue()
        self._choices: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
        for slot, (marker, anchor, _) in ADHOC_ANCHORS.items():
            classes = [anchor]
            if marker.endswith(anchor):
                classes = sorted(
                    iri[len(_NS):]
                    for iri in reasoner.named_subclasses_of(_NS + anchor)
                    if mappings.for_entity(iri)
                )
            kind = {template for template, _ in sources(_NS + anchor)}
            properties = sorted(
                name
                for name, origin in leaves.items()
                if {template for template, _ in origin} <= kind
            )
            same_table = {
                cls: {name for name in properties if leaves[name] & sources(_NS + cls)}
                for cls in classes
            }

            def fits(choice: Tuple[str, Tuple[str, ...]]) -> bool:
                return same_table[choice[0]].issuperset(choice[1])

            def combinations(sizes: Sequence[int]) -> List[Tuple[str, Tuple[str, ...]]]:
                return [
                    (cls, extra)
                    for cls in classes
                    for size in sizes
                    for extra in itertools.combinations(properties, size)
                ]

            choices = combinations((1, 2))
            if sum(map(fits, choices)) < ADHOC_POOL:
                choices += combinations((3,))
            random.Random(slot).shuffle(choices)
            choices.sort(key=lambda choice: not fits(choice))
            if len(choices) < ADHOC_POOL:
                raise ValueError(f"{slot}: only {len(choices)} distinct variants")
            self._choices[slot] = choices[:ADHOC_POOL]

    def variant(self, slot: str, index: int) -> str:
        marker, anchor, subject = ADHOC_ANCHORS[slot]
        cls, extra = self._choices[slot][index]

        def pairs(prefix: str) -> str:
            return " ; ".join(
                f"npdv:{name} ?{prefix}{position}" for position, name in enumerate(extra)
            )

        if subject:
            grown = f"{marker} . {subject} {pairs('adhoc')}"
        else:
            grown = f"{marker.replace(f'npdv:{anchor}', f'npdv:{cls}')} ; {pairs('adhoc')}"
        template = self._templates[slot]
        sparql = template.replace(marker, grown, 1)
        # an OPTIONAL group is a conjunctive query of its own: it takes the
        # class and the extra properties too, or the rewriter has seen it
        anchored = re.search(rf"(\?\w+)\s+{re.escape(marker)}", template)
        if anchored:
            for group, body in enumerate(_OPTIONAL.findall(template)):
                also = f"{anchored.group(1)} a npdv:{cls} ; {pairs(f'side{group}_')}"
                sparql = sparql.replace(body, f"{body.rstrip()} . {also} ", 1)
        return _fresh_constants(sparql, random.Random(f"{slot}#{index}"))

    def rounds(self, seed: int, pool: int = ADHOC_POOL) -> Iterator[List[Request]]:
        """Round ``r`` instantiates every template once, by a seeded walk.

        The walk shuffles within blocks of ``ADHOC_BLOCK`` variants, so two
        runs of about a block's length see nearly the same variants in a
        different order: the seed varies the input without making one run's
        queries cheaper than another's.
        """
        order: Dict[str, List[int]] = {}
        for slot in ADHOC_ANCHORS:
            rng = random.Random(f"{seed}:{slot}")
            order[slot] = []
            for start in range(0, pool, ADHOC_BLOCK):
                block = range(start, min(start + ADHOC_BLOCK, pool))
                order[slot] += rng.sample(block, len(block))
        for position in range(pool):
            yield [
                Request(slot, f"{slot}#{walk[position]}", self.variant(slot, walk[position]))
                for slot, walk in order.items()
            ]


def round_caps(workload: str) -> Tuple[Optional[int], Optional[int]]:
    """Most rounds the window and the traced pass may take, ``None`` for no limit.

    The ad-hoc pool is finite because its reference answers are committed:
    after the warm-up round a fifth of it is kept for the traced pass and
    the window ends early, on per-round statistics that stay valid, when a
    long window or a fast server has used up the rest.
    """
    if workload != "adhoc_cold":
        return None, None
    traced = ADHOC_POOL // 5
    return ADHOC_POOL - 1 - traced, traced


def rounds(workload: str, seed: int, client: int, smoke: bool = False) -> Iterator[List[Request]]:
    """The endless (ad-hoc: pool-long) stream of rounds of one client."""
    if workload == "adhoc_cold":
        return AdhocPool().rounds(seed, ADHOC_POOL_SMOKE if smoke else ADHOC_POOL)
    if workload == "bulk_output":
        return shuffled_rounds(bulk_round(), f"{seed}:bulk")
    if workload == "mix_rw_default":
        return shuffled_rounds(mix_round(), f"{seed}:rw:{client}")
    return itertools.repeat(mix_round())


# -- write batches -------------------------------------------------------------

_BENCH_ID = 9_000_000


def _batch_parts(seed: int, index: int) -> Tuple[List[str], List[str]]:
    """(do, undo) statements of batch ``index``; undo restores the base rows."""
    rng = random.Random(f"{seed}:batch:{index}")
    base = _BENCH_ID + index * 10
    do: List[str] = []
    for offset in range(3):
        ident = base + offset
        year = rng.randint(1995, 2012)
        do += [
            f"INSERT INTO company (cmpnpdidcompany, cmplongname, cmpshortname) "
            f"VALUES ({ident}, 'Bench Company {ident}', 'BC{ident}')",
            f"INSERT INTO licence (prlnpdidlicence, prlname, prldategranted, "
            f"prlyeargranted, prlnpdidoperator) VALUES ({ident}, 'PL{ident}', "
            f"'{year}-0{rng.randint(1, 9)}-15', {year}, {rng.randint(1, 10)})",
            f"INSERT INTO wellbore_core (wlbnpdidwellbore, wlbcorenumber, "
            f"wlbtotalcorelength) VALUES ({rng.randint(1, 30)}, {ident}, "
            f"{rng.randint(20, 90)}.5)",
            f"INSERT INTO field_production_monthly (fldnpdidfield, prfyear, prfmonth, "
            f"prfprdoilnetmillsm3) VALUES ({rng.randint(1, 5)}, {rng.randint(2005, 2010)}, "
            f"{ident}, {rng.randint(1, 9)}.25)",
        ]
    licences = rng.sample(range(1, 21), 4)
    do += [
        f"UPDATE licence SET prlyeargranted = prlyeargranted + 1 WHERE prlnpdidlicence = {ident}"
        for ident in licences
    ]
    undo = [
        f"DELETE FROM company WHERE cmpnpdidcompany >= {_BENCH_ID}",
        f"DELETE FROM licence WHERE prlnpdidlicence >= {_BENCH_ID}",
        f"DELETE FROM wellbore_core WHERE wlbcorenumber >= {_BENCH_ID}",
        f"DELETE FROM field_production_monthly WHERE prfmonth >= {_BENCH_ID}",
    ] + [
        f"UPDATE licence SET prlyeargranted = prlyeargranted - 1 WHERE prlnpdidlicence = {ident}"
        for ident in licences
    ]
    return do, undo


def write_batch(seed: int, index: int) -> List[str]:
    """Batch ``index``: take back batch ``index - 1``, then write anew."""
    undo_previous = _batch_parts(seed, index - 1)[1] if index else []
    return undo_previous + _batch_parts(seed, index)[0]


def restore_batch(seed: int, batches_sent: int) -> Sequence[str]:
    """Takes back the last batch, leaving the base rows."""
    return _batch_parts(seed, batches_sent - 1)[1] if batches_sent else []
