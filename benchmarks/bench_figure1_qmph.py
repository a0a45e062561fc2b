"""Figure 1: QMpH (log scale) of Ontop-MySQL vs Ontop-PostgreSQL.

Runs the tractable query mix on both engine profiles across the scale
ladder and renders the paper's figure as an ASCII log-scale chart.  The
shape to reproduce: throughput decays with database size, and the
PostgreSQL profile sustains higher QMpH on OBDA-generated SQL (hash joins
and hash deduplication pay off on the DISTINCT-heavy union queries).
"""

from __future__ import annotations

import math

import pytest

from repro.bench import save_report
from repro.npd import tractable_queries
from repro.sql import mysql_profile, postgresql_profile


def measure_series(ctx, ladder):
    queries = {
        qid: ctx.benchmark.queries[qid].sparql for qid in tractable_queries()
    }
    series = {"mysql": [], "postgresql": []}
    for name, profile in (
        ("mysql", mysql_profile()),
        ("postgresql", postgresql_profile()),
    ):
        for growth in ladder:
            report = ctx.run_mix(growth, profile, queries)
            assert report.errors == {}, report.errors
            series[name].append(report.qmph)
    return series


def _ascii_chart(ladder, series, width=52, height=12):
    """Log-scale scatter of the two QMpH series."""
    values = [v for points in series.values() for v in points]
    low = math.log10(max(1e-3, min(values) * 0.8))
    high = math.log10(max(values) * 1.2)
    rows = [[" "] * width for _ in range(height)]
    markers = {"mysql": "M", "postgresql": "P"}
    for name, points in series.items():
        for index, value in enumerate(points):
            x = int(index * (width - 1) / max(1, len(ladder) - 1))
            norm = (math.log10(value) - low) / max(1e-9, high - low)
            y = height - 1 - int(norm * (height - 1))
            rows[y][x] = markers[name] if rows[y][x] == " " else "*"
    lines = ["QMpH (log scale)   M = mysql profile, P = postgresql profile"]
    for row in rows:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(
        " " + "  ".join(f"NPD{int(g)}" for g in ladder)
    )
    return "\n".join(lines)


@pytest.mark.benchmark(group="figure1")
def test_figure1_qmph(benchmark, ctx, scale_ladder):
    series = benchmark.pedantic(
        measure_series, args=(ctx, scale_ladder), rounds=1, iterations=1
    )
    lines = [_ascii_chart(scale_ladder, series)]
    lines.append("")
    lines.append("growth  mysql_qmph  postgresql_qmph  pg/mysql")
    ratios = []
    for index, growth in enumerate(scale_ladder):
        m = series["mysql"][index]
        p = series["postgresql"][index]
        ratios.append(p / m)
        lines.append(f"NPD{int(growth):<5} {m:10.1f}  {p:15.1f}  {p / m:8.2f}")
    save_report("figure1_qmph", "\n".join(lines))
    # shape: both profiles decay with scale
    assert series["mysql"][0] > series["mysql"][-1]
    assert series["postgresql"][0] > series["postgresql"][-1]
    # shape: the postgresql profile wins at the largest scale (the paper's
    # full summary shows PostgreSQL dominating at NPD50+)
    assert series["postgresql"][-1] >= series["mysql"][-1] * 0.9
