"""Table 3: statistics of popular benchmark ontologies vs. the NPD ontology.

Reproduces the #classes / #obj+data props / #i-axioms columns for the five
prior benchmarks (structural replicas, see repro.npd.prior_benchmarks) and
the per-query max #joins / #opt / #tw columns computed with the same
machinery as for the NPD queries.
"""

from __future__ import annotations

from repro.bench import save_report
from repro.mixer import format_table
from repro.npd import all_prior_benchmarks, build_npd_ontology
from repro.obda import TreeWitnessRewriter, Vocabulary, bgp_to_cq
from repro.owl import QLReasoner, compute_stats
from repro.sparql import collect_bgps, count_optionals, parse_query, simplify, translate


def _query_profile(ontology, reasoner, sparql):
    """(#joins, #opt, #tw) of one replica query."""
    query = parse_query(sparql)
    algebra = simplify(translate(query.where))
    optionals = count_optionals(algebra)
    joins = 0
    witnesses = 0
    vocabulary = Vocabulary.from_ontology(ontology)
    rewriter = TreeWitnessRewriter(reasoner, expand_hierarchy=False, max_ucq=64)
    for bgp in collect_bgps(algebra):
        if not bgp.triples:
            continue
        joins += max(0, len(bgp.triples) - 1)
        variables = []
        for triple in bgp.triples:
            for var in triple.variables():
                if var not in variables:
                    variables.append(var)
        projected = [v for v in variables if not v.name.startswith("_")]
        cq = bgp_to_cq(bgp.triples, projected, vocabulary)
        witnesses += rewriter.rewrite(cq).tree_witnesses
    return joins, optionals, witnesses


def _build_rows():
    rows = []
    for name, bench in all_prior_benchmarks().items():
        reasoner = QLReasoner.of(bench.ontology)
        stats = compute_stats(bench.ontology)
        joins = optionals = witnesses = 0
        for query in bench.queries:
            j, o, t = _query_profile(bench.ontology, reasoner, query.sparql)
            joins, optionals, witnesses = (
                max(joins, j),
                max(optionals, o),
                max(witnesses, t),
            )
        rows.append(
            [
                name,
                stats.classes,
                stats.obj_data_properties,
                stats.inclusion_axioms,
                joins,
                optionals,
                witnesses,
            ]
        )
    npd = build_npd_ontology()
    npd_stats = compute_stats(npd)
    rows.append(
        [
            "npd (ours)",
            npd_stats.classes,
            npd_stats.obj_data_properties,
            npd_stats.inclusion_axioms,
            "-",
            "-",
            "-",
        ]
    )
    return rows


def test_table3(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    text = format_table(
        ["name", "#classes", "#obj/data_prop", "#i-axioms", "#joins", "#opt", "#tw"],
        rows,
        "Table 3: Popular Benchmark Ontologies: Statistics (replicas)",
    )
    save_report("table3_prior_benchmarks", text)
    by_name = {row[0]: row for row in rows}
    # the paper's qualitative claims: BSBM has essentially no ontology,
    # DBpedia is large but existential-free, NPD dwarfs all in axioms
    assert by_name["bsbm"][1] <= 10
    assert by_name["dbpedia"][1] >= 200
    assert by_name["npd (ours)"][3] > by_name["lubm"][3]
    assert by_name["lubm"][6] >= 1  # LUBM replica has tree witnesses
    assert by_name["bsbm"][6] == 0
