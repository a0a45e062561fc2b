"""Table 9: tractable queries on the MySQL-like engine profile.

One row per rung of the scale ladder: average execution time, output
(rewrite+unfold+translate) time, result size, query mixes per hour and
virtual-instance size in triples.
"""

from __future__ import annotations

import pytest

from repro.bench import save_report
from repro.mixer import (
    MIX_HEADERS,
    format_table,
    mix_report_rows,
    per_query_rows,
    PER_QUERY_HEADERS,
)
from repro.npd import tractable_queries
from repro.sql import mysql_profile

PROFILE_NAME = "mysql"
REPORT_NAME = "table9_mysql"
TITLE = "Table 9: Tractable queries (MySQL profile)"


def run_ladder(ctx, ladder, profile):
    queries = {
        qid: ctx.benchmark.queries[qid].sparql for qid in tractable_queries()
    }
    rows = []
    reports = {}
    for growth in ladder:
        report = ctx.run_mix(growth, profile, queries)
        assert report.errors == {}, report.errors
        label = f"NPD{int(growth)}"
        rows.extend(mix_report_rows(report, label, ctx.triples(growth)))
        reports[growth] = report
    return rows, reports


@pytest.mark.benchmark(group="table9")
def test_table9_mysql(benchmark, ctx, scale_ladder):
    rows, reports = benchmark.pedantic(
        run_ladder, args=(ctx, scale_ladder, mysql_profile()), rounds=1, iterations=1
    )
    text = format_table(MIX_HEADERS, rows, TITLE)
    detail = format_table(
        PER_QUERY_HEADERS,
        per_query_rows(reports[scale_ladder[-1]]),
        f"per-query detail at NPD{int(scale_ladder[-1])} ({PROFILE_NAME})",
    )
    save_report(REPORT_NAME, text + "\n\n" + detail)
    # shape: data grows along the ladder and QMpH decays monotonically-ish
    triple_counts = [row[-1] for row in rows]
    assert triple_counts == sorted(triple_counts)
    qmph = [row[-2] for row in rows]
    assert qmph[0] > qmph[-1]
