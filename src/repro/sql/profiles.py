"""Engine profiles emulating planner/runtime differences between RDBMSes.

The paper benchmarks Ontop over MySQL and over PostgreSQL (Tables 9/10,
Figure 1) and attributes the performance gap to how each engine copes with
the SQL that OBDA unfolding produces: wide unions of select-project-join
blocks, many joins, and DISTINCT.  We reproduce the *relative* behaviour by
gating physical operators on a profile:

* the MySQL-like profile only has index-nested-loop joins (MySQL had no
  hash join until 8.0.18, well after the paper) and sort-based
  deduplication for DISTINCT/UNION;
* the PostgreSQL-like profile enables hash joins and hash deduplication.

Everything else -- data, indexes, plans -- is identical, which keeps the
comparison honest.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineProfile:
    """Physical-operator switches for the executor."""

    name: str
    hash_join: bool
    hash_distinct: bool

    def describe(self) -> str:
        joins = "hash+index-NL" if self.hash_join else "index-NL only"
        dedup = "hash" if self.hash_distinct else "sort"
        return f"{self.name}: joins={joins}, dedup={dedup}"


def mysql_profile() -> EngineProfile:
    """A MySQL-5.x-like profile: index nested loops, sort-based dedup."""
    return EngineProfile(
        name="mysql",
        hash_join=False,
        hash_distinct=False,
    )


def postgresql_profile() -> EngineProfile:
    """A PostgreSQL-like profile: hash joins and hash dedup."""
    return EngineProfile(
        name="postgresql",
        hash_join=True,
        hash_distinct=True,
    )


def profile_by_name(name: str) -> EngineProfile:
    profiles = {
        "mysql": mysql_profile,
        "postgresql": postgresql_profile,
        "postgres": postgresql_profile,
    }
    try:
        return profiles[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown engine profile {name!r}") from exc
