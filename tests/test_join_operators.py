"""Every physical equi-join path, on both executors and both profiles.

Each case runs one join shape and checks three things against values
recorded once: the answer bag equals the same join forced through the
nested loop (its keys rewritten so no ``col = col`` pair is left), the
join counters of :class:`~repro.sql.executor.ExecutionStats`, and the
join lines of the operator trace.  The row order is pinned too, by a
digest of the ordered rows.
"""

import hashlib

import pytest

from repro.sql import Database, mysql_profile, postgresql_profile

COUNTERS = (
    "hash_joins",
    "index_nl_joins",
    "nested_loop_joins",
    "build_side_swaps",
    "join_rows",
    "shared_build_hits",
)


def _database(profile: str) -> Database:
    db = Database(mysql_profile() if profile == "mysql" else postgresql_profile())
    db.execute_script(
        """
        CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER,
                          code VARCHAR(10), tag VARCHAR(10));
        CREATE TABLE small (id INTEGER PRIMARY KEY, ref INTEGER, grp INTEGER);
        CREATE TABLE mid (k INTEGER, w INTEGER, note VARCHAR(10));
        CREATE TABLE kv (k INTEGER, label VARCHAR(10));
        """
    )
    for i in range(1, 101):
        code = None if i % 13 == 0 else "x" if i % 17 == 0 else str(i % 5)
        db.catalog.table("big").insert((i, i % 7, code, f"t{i}"))
    for i in range(1, 11):
        db.catalog.table("small").insert(
            (i, None if i == 4 else i * 9 % 120, None if i == 7 else i % 4)
        )
    for i in range(30):
        db.catalog.table("mid").insert((i % 6, None if i % 10 == 9 else i % 4, f"n{i}"))
    for k, label in [(0, "a"), (1, "b"), (2, "c"), (2, "d"), (3, "e"), (None, "f"), (7, "g")]:
        db.catalog.table("kv").insert((k, label))
    return db


#: name -> (SQL, the same join with no equi-key pair left)
CASES = {
    "index_nl": (
        "SELECT s.id, b.tag FROM small s JOIN big b ON s.ref = b.id",
        "SELECT s.id, b.tag FROM small s JOIN big b ON s.ref + 0 = b.id",
    ),
    "hash": (
        "SELECT a.note, b.note FROM mid a JOIN mid b ON a.w = b.w",
        "SELECT a.note, b.note FROM mid a JOIN mid b ON a.w + 0 = b.w",
    ),
    "swapped_hash": (
        "SELECT m.note, b.tag FROM mid m JOIN big b ON m.w = b.grp",
        "SELECT m.note, b.tag FROM mid m JOIN big b ON m.w + 0 = b.grp",
    ),
    "multi_key": (
        "SELECT a.note, b.note FROM mid a JOIN mid b ON a.k = b.w AND a.w = b.k",
        "SELECT a.note, b.note FROM mid a JOIN mid b ON a.k + 0 = b.w AND a.w + 0 = b.k",
    ),
    "null_keys": (
        "SELECT s.id, m.note FROM small s JOIN mid m ON s.grp = m.w",
        "SELECT s.id, m.note FROM small s JOIN mid m ON s.grp + 0 = m.w",
    ),
    "coerced": (
        "SELECT s.id, b.tag FROM small s JOIN big b ON s.grp = b.code",
        "SELECT s.id, b.tag FROM small s JOIN big b ON s.grp + 0 = b.code",
    ),
    "derived": (
        "SELECT s.id, d.tag FROM small s JOIN (SELECT id, tag FROM big) d ON s.ref = d.id",
        "SELECT s.id, d.tag FROM small s JOIN (SELECT id, tag FROM big) d ON s.ref + 0 = d.id",
    ),
    "three_way": (
        "SELECT s.id, b.tag, m.note FROM small s JOIN big b ON s.ref = b.id "
        "JOIN mid m ON b.grp = m.k WHERE m.note <> 'n3'",
        "SELECT s.id, b.tag, m.note FROM small s JOIN big b ON s.ref + 0 = b.id "
        "JOIN mid m ON b.grp + 0 = m.k WHERE m.note <> 'n3'",
    ),
    "union": (
        "SELECT a.note FROM mid a JOIN kv b ON a.k = b.k "
        "UNION ALL SELECT b.label FROM mid a JOIN kv b ON a.k = b.k",
        "SELECT a.note FROM mid a JOIN kv b ON a.k + 0 = b.k "
        "UNION ALL SELECT b.label FROM mid a JOIN kv b ON a.k + 0 = b.k",
    ),
    "left_big": (
        "SELECT s.id, b.tag FROM small s LEFT JOIN big b ON s.ref = b.id",
        "SELECT s.id, b.tag FROM small s LEFT JOIN big b ON s.ref + 0 = b.id",
    ),
    "left_small": (
        "SELECT m.note, s.id FROM mid m LEFT JOIN small s ON m.k = s.grp AND s.id > 3",
        "SELECT m.note, s.id FROM mid m LEFT JOIN small s ON m.k + 0 = s.grp AND s.id > 3",
    ),
    "natural": (
        "SELECT mid.note, kv.label FROM mid NATURAL JOIN kv",
        "SELECT mid.note, kv.label FROM mid JOIN kv ON mid.k + 0 = kv.k",
    ),
    "natural_cross": (
        "SELECT small.id, kv.label FROM small NATURAL JOIN kv",
        "SELECT small.id, kv.label FROM small JOIN kv ON 1 = 1",
    ),
    "nested_loop": (
        "SELECT s.id, k.label FROM small s, kv k WHERE s.grp < k.k",
        "SELECT s.id, k.label FROM small s JOIN kv k ON k.k > s.grp",
    ),
}


def _observe(db: Database, sql: str, executor: str):
    """(ordered-rows digest, counters, join trace lines) of one execution."""
    db.stats.reset()
    rows = db.execute_plan(db.compile(sql), executor=executor).rows
    counters = tuple(getattr(db.stats, name) for name in COUNTERS)
    trace = [line for line in db.explain(sql, executor=executor) if "Join" in line]
    digest = hashlib.sha1(repr(list(rows)).encode()).hexdigest()[:12]
    return digest, counters, trace


def _bag(rows):
    return sorted(rows, key=repr)


#: (case, profile, executor) -> (rows digest, COUNTERS, join trace lines)
EXPECTED = {
    ("coerced", "mysql", "row"): (
        "5146ed2f59b3",
        (1, 0, 0, 0, 158, 0),
        ["HashJoin (coerced keys) build=100 probe=10"],
    ),
    ("coerced", "mysql", "vectorized"): (
        "5146ed2f59b3",
        (1, 0, 0, 0, 158, 0),
        ["BatchHashJoin (coerced keys) build=100 probe=10"],
    ),
    ("coerced", "postgresql", "row"): (
        "5146ed2f59b3",
        (1, 0, 0, 0, 158, 0),
        ["HashJoin (coerced keys) build=100 probe=10"],
    ),
    ("coerced", "postgresql", "vectorized"): (
        "5146ed2f59b3",
        (1, 0, 0, 0, 158, 0),
        ["BatchHashJoin (coerced keys) build=100 probe=10"],
    ),
    ("derived", "mysql", "row"): (
        "9455bc35dabe",
        (0, 1, 0, 0, 9, 0),
        ["AutoKeyJoin (derived) build=100 probe=10"],
    ),
    ("derived", "mysql", "vectorized"): (
        "9455bc35dabe",
        (0, 1, 0, 0, 9, 0),
        ["BatchAutoKeyJoin build=100 probe=10"],
    ),
    ("derived", "postgresql", "row"): (
        "9455bc35dabe",
        (1, 0, 0, 1, 9, 0),
        ["HashJoin build=10 probe=100 (swapped)"],
    ),
    ("derived", "postgresql", "vectorized"): (
        "9455bc35dabe",
        (1, 0, 0, 1, 9, 0),
        ["BatchHashJoin build=10 probe=100 (swapped)"],
    ),
    ("hash", "mysql", "row"): (
        "197bf1a78a5b",
        (0, 1, 0, 0, 185, 0),
        ["AutoKeyJoin (derived) build=30 probe=30"],
    ),
    ("hash", "mysql", "vectorized"): (
        "197bf1a78a5b",
        (0, 1, 0, 0, 185, 0),
        ["BatchAutoKeyJoin build=30 probe=30"],
    ),
    ("hash", "postgresql", "row"): (
        "197bf1a78a5b",
        (1, 0, 0, 0, 185, 0),
        ["HashJoin build=30 probe=30"],
    ),
    ("hash", "postgresql", "vectorized"): (
        "197bf1a78a5b",
        (1, 0, 0, 0, 185, 0),
        ["BatchHashJoin build=30 probe=30"],
    ),
    ("index_nl", "mysql", "row"): (
        "9455bc35dabe",
        (0, 1, 0, 0, 9, 0),
        ["IndexNLJoin outer=10 inner=big"],
    ),
    ("index_nl", "mysql", "vectorized"): (
        "9455bc35dabe",
        (0, 1, 0, 0, 9, 0),
        ["BatchIndexNLJoin outer=10 inner=big"],
    ),
    ("index_nl", "postgresql", "row"): (
        "9455bc35dabe",
        (0, 1, 0, 0, 9, 0),
        ["IndexNLJoin outer=10 inner=big"],
    ),
    ("index_nl", "postgresql", "vectorized"): (
        "9455bc35dabe",
        (0, 1, 0, 0, 9, 0),
        ["BatchIndexNLJoin outer=10 inner=big"],
    ),
    ("left_big", "mysql", "row"): (
        "06e9cffbc5ad",
        (1, 0, 0, 0, 10, 0),
        [],
    ),
    ("left_big", "mysql", "vectorized"): (
        "06e9cffbc5ad",
        (1, 0, 0, 0, 10, 0),
        [],
    ),
    ("left_big", "postgresql", "row"): (
        "06e9cffbc5ad",
        (1, 0, 0, 0, 10, 0),
        [],
    ),
    ("left_big", "postgresql", "vectorized"): (
        "06e9cffbc5ad",
        (1, 0, 0, 0, 10, 0),
        [],
    ),
    ("left_small", "mysql", "row"): (
        "c3b5ac8e826f",
        (0, 0, 1, 0, 45, 0),
        [],
    ),
    ("left_small", "mysql", "vectorized"): (
        "c3b5ac8e826f",
        (0, 0, 1, 0, 45, 0),
        [],
    ),
    ("left_small", "postgresql", "row"): (
        "c3b5ac8e826f",
        (1, 0, 0, 0, 45, 0),
        [],
    ),
    ("left_small", "postgresql", "vectorized"): (
        "c3b5ac8e826f",
        (1, 0, 0, 0, 45, 0),
        [],
    ),
    ("multi_key", "mysql", "row"): (
        "4b0f85a57863",
        (0, 1, 0, 0, 46, 0),
        ["AutoKeyJoin (derived) build=30 probe=30"],
    ),
    ("multi_key", "mysql", "vectorized"): (
        "4b0f85a57863",
        (0, 1, 0, 0, 46, 0),
        ["BatchAutoKeyJoin build=30 probe=30"],
    ),
    ("multi_key", "postgresql", "row"): (
        "4b0f85a57863",
        (1, 0, 0, 0, 46, 0),
        ["HashJoin build=30 probe=30"],
    ),
    ("multi_key", "postgresql", "vectorized"): (
        "4b0f85a57863",
        (1, 0, 0, 0, 46, 0),
        ["BatchHashJoin build=30 probe=30"],
    ),
    ("natural", "mysql", "row"): (
        "011247d41173",
        (1, 0, 0, 0, 25, 0),
        [],
    ),
    ("natural", "mysql", "vectorized"): (
        "011247d41173",
        (1, 0, 0, 0, 25, 0),
        [],
    ),
    ("natural", "postgresql", "row"): (
        "011247d41173",
        (1, 0, 0, 0, 25, 0),
        [],
    ),
    ("natural", "postgresql", "vectorized"): (
        "011247d41173",
        (1, 0, 0, 0, 25, 0),
        [],
    ),
    ("natural_cross", "mysql", "row"): (
        "a4f5a4218f7f",
        (0, 0, 1, 0, 70, 0),
        [],
    ),
    ("natural_cross", "mysql", "vectorized"): (
        "a4f5a4218f7f",
        (0, 0, 1, 0, 70, 0),
        [],
    ),
    ("natural_cross", "postgresql", "row"): (
        "a4f5a4218f7f",
        (0, 0, 1, 0, 70, 0),
        [],
    ),
    ("natural_cross", "postgresql", "vectorized"): (
        "a4f5a4218f7f",
        (0, 0, 1, 0, 70, 0),
        [],
    ),
    ("nested_loop", "mysql", "row"): (
        "1dbad144d23a",
        (0, 0, 1, 0, 29, 0),
        ["BlockNLJoin outer=7 inner=10"],
    ),
    ("nested_loop", "mysql", "vectorized"): (
        "1dbad144d23a",
        (0, 0, 1, 0, 29, 0),
        ["BatchNLJoin outer=7 inner=10"],
    ),
    ("nested_loop", "postgresql", "row"): (
        "1dbad144d23a",
        (0, 0, 1, 0, 29, 0),
        ["BlockNLJoin outer=7 inner=10"],
    ),
    ("nested_loop", "postgresql", "vectorized"): (
        "1dbad144d23a",
        (0, 0, 1, 0, 29, 0),
        ["BatchNLJoin outer=7 inner=10"],
    ),
    ("null_keys", "mysql", "row"): (
        "7c789538d739",
        (0, 1, 0, 0, 61, 0),
        ["AutoKeyJoin (derived) build=30 probe=10"],
    ),
    ("null_keys", "mysql", "vectorized"): (
        "7c789538d739",
        (0, 1, 0, 0, 61, 0),
        ["BatchAutoKeyJoin build=30 probe=10"],
    ),
    ("null_keys", "postgresql", "row"): (
        "9741d6abb288",
        (1, 0, 0, 1, 61, 0),
        ["HashJoin build=10 probe=30 (swapped)"],
    ),
    ("null_keys", "postgresql", "vectorized"): (
        "9741d6abb288",
        (1, 0, 0, 1, 61, 0),
        ["BatchHashJoin build=10 probe=30 (swapped)"],
    ),
    ("swapped_hash", "mysql", "row"): (
        "098947b4b397",
        (0, 1, 0, 0, 391, 0),
        ["IndexNLJoin outer=30 inner=big"],
    ),
    ("swapped_hash", "mysql", "vectorized"): (
        "098947b4b397",
        (0, 1, 0, 0, 391, 0),
        ["BatchIndexNLJoin outer=30 inner=big"],
    ),
    ("swapped_hash", "postgresql", "row"): (
        "5f26e63c7951",
        (1, 0, 0, 1, 391, 0),
        ["HashJoin build=30 probe=100 (swapped)"],
    ),
    ("swapped_hash", "postgresql", "vectorized"): (
        "5f26e63c7951",
        (1, 0, 0, 1, 391, 0),
        ["BatchHashJoin build=30 probe=100 (swapped)"],
    ),
    ("three_way", "mysql", "row"): (
        "145687113c6d",
        (0, 2, 0, 0, 43, 0),
        ["IndexNLJoin outer=10 inner=big", "AutoKeyJoin (derived) build=29 probe=9"],
    ),
    ("three_way", "mysql", "vectorized"): (
        "145687113c6d",
        (0, 2, 0, 0, 43, 0),
        ["BatchIndexNLJoin outer=10 inner=big", "BatchAutoKeyJoin build=29 probe=9"],
    ),
    ("three_way", "postgresql", "row"): (
        "2a9c777f066a",
        (1, 1, 0, 1, 43, 0),
        ["IndexNLJoin outer=10 inner=big", "HashJoin build=9 probe=29 (swapped)"],
    ),
    ("three_way", "postgresql", "vectorized"): (
        "2a9c777f066a",
        (1, 1, 0, 1, 43, 0),
        ["BatchIndexNLJoin outer=10 inner=big", "BatchHashJoin build=9 probe=29 (swapped)"],
    ),
    ("union", "mysql", "row"): (
        "3b04b32e4edb",
        (0, 2, 0, 0, 50, 1),
        ["AutoKeyJoin (derived) build=30 probe=7", "AutoKeyJoin (derived) build=30 probe=7"],
    ),
    ("union", "mysql", "vectorized"): (
        "3b04b32e4edb",
        (0, 2, 0, 0, 50, 1),
        ["BatchAutoKeyJoin build=30 probe=7", "BatchAutoKeyJoin build=30 probe=7"],
    ),
    ("union", "postgresql", "row"): (
        "a6559f75a2f7",
        (2, 0, 0, 2, 50, 1),
        ["HashJoin build=7 probe=30 (swapped)", "HashJoin build=7 probe=30 (swapped)"],
    ),
    ("union", "postgresql", "vectorized"): (
        "a6559f75a2f7",
        (2, 0, 0, 2, 50, 1),
        ["BatchHashJoin build=7 probe=30 (swapped)", "BatchHashJoin build=7 probe=30 (swapped)"],
    ),
}


@pytest.mark.parametrize("executor", ["row", "vectorized"])
@pytest.mark.parametrize("profile", ["mysql", "postgresql"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_join_operator(case, profile, executor):
    db = _database(profile)
    sql, reference = CASES[case]
    rows = db.execute_plan(db.compile(sql), executor=executor).rows
    forced = db.execute_plan(db.compile(reference), executor=executor).rows
    assert rows, "every case answers some rows"
    assert _bag(rows) == _bag(forced)
    assert _observe(db, sql, executor) == EXPECTED[case, profile, executor]


@pytest.mark.parametrize("executor", ["row", "vectorized"])
@pytest.mark.parametrize("profile", ["mysql", "postgresql"])
def test_index_probe_after_deletes(profile, executor):
    """An index nested loop over a table with deleted rows joins only
    the live ones: an index never holds a deleted row's id."""
    db = _database(profile)
    db.execute_script("DELETE FROM big WHERE id < 40 OR id = 81")
    sql, reference = CASES["index_nl"]
    trace = db.explain(sql, executor=executor)
    assert any("IndexNLJoin" in line for line in trace)
    rows = db.execute_plan(db.compile(sql), executor=executor).rows
    forced = db.execute_plan(db.compile(reference), executor=executor).rows
    assert rows and _bag(rows) == _bag(forced)
    assert all(row[0] * 9 >= 40 and row[0] != 9 for row in rows)
