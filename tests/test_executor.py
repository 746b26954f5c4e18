import contextlib
import json
import random
import shutil
import sqlite3

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from querycrew import executor
from querycrew.executor import (
    EMPTY_RESULT,
    OK,
    RUNTIME_ERROR,
    SYNTAX_ERROR,
    TIMEOUT,
    ExecutionResult,
    canonicalize,
    classify_fault,
    execute,
    fingerprint,
    results_match,
)
from querycrew.catalog import introspect_database
from querycrew.value_index import build_value_index


# ints that a float holds exactly, at every magnitude a float reaches
whole_ints = st.integers(-(2**53), 2**53) | st.floats(
    allow_nan=False, allow_infinity=False
).map(int)

cells = (
    whole_ints
    | st.floats(allow_nan=False)
    | st.floats(-10.0, 10.0).map(lambda x: round(x, 7))
    | st.text(max_size=3)
    | st.none()
)

# numbers whose x / 1e-6 carries far less than half a quantum of float error
numbers = (
    st.integers(-(10**6), 10**6)
    | st.floats(-1e6, 1e6)
    | st.floats(-1e-5, 1e-5)
    | st.integers(-40, 40).map(lambda k: k * 2.5e-7)
)


def _equal_cells(cell):
    """Cells that should compare equal to `cell`: itself, or a number's other type."""
    if isinstance(cell, int) and float(cell) == cell:
        return st.sampled_from([cell, float(cell)])
    if isinstance(cell, float) and cell.is_integer():
        return st.sampled_from([cell, int(cell)])
    return st.just(cell)


class TestExecute:
    def test_select_one(self, finance_db):
        result = execute(finance_db, "SELECT 1")
        assert result.status == OK
        assert result.rows == [(1,)]

    def test_syntax_error(self, finance_db):
        result = execute(finance_db, "SELEC 1")
        assert result.status == SYNTAX_ERROR
        assert "syntax" in result.error_text.lower()

    def test_runtime_error_missing_table(self, finance_db):
        result = execute(finance_db, "SELECT * FROM no_such_table")
        assert result.status == RUNTIME_ERROR

    def test_write_statement_rejected(self, finance_db):
        before = finance_db.read_bytes()
        for sql in (
            "INSERT INTO customers VALUES (99, 'M', 'EUR')",
            "UPDATE customers SET Currency = 'USD'",
            "DELETE FROM customers",
            "DROP TABLE customers",
            "CREATE TABLE hacked (x)",
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 3)"
            " INSERT INTO customers SELECT 100 + n, 'M', 'EUR' FROM r",
        ):
            result = execute(finance_db, sql)
            assert result.status == RUNTIME_ERROR, sql
        assert finance_db.read_bytes() == before

    def test_recursive_cte_allowed(self, finance_db):
        result = execute(
            finance_db,
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r WHERE n<3)"
            " SELECT n FROM r",
        )
        assert result.status == OK, result.error_text
        assert result.rows == [(1,), (2,), (3,)]

    def test_timeout_on_cartesian_blowup(self, tmp_path):
        db = tmp_path / "big.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(3000)])
        conn.commit()
        conn.close()
        result = execute(
            db, "SELECT count(*) FROM t a, t b, t c WHERE a.x + b.x + c.x = 17",
            timeout=0.01,
        )
        assert result.status == TIMEOUT

    def test_sqlite_warning_is_a_runtime_error(self, finance_db, monkeypatch):
        """Python 3.10's sqlite3 raises `sqlite3.Warning`, which is no
        `sqlite3.Error`, for a query of two statements ("SELECT 1; SELECT 2")."""

        class TwoStatements:
            def __init__(self, conn):
                self.conn = conn

            def __getattr__(self, name):
                return getattr(self.conn, name)

            def execute(self, sql):
                raise sqlite3.Warning("You can only execute one statement at a time.")

        real = executor.connect_read_only
        monkeypatch.setattr(executor, "connect_read_only", lambda db: TwoStatements(real(db)))
        result = execute(finance_db, "SELECT 1; SELECT 2")
        assert result.status == RUNTIME_ERROR
        assert "one statement" in result.error_text

    def test_row_cap_truncates(self, tmp_path):
        db = tmp_path / "caps.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        conn.commit()
        conn.close()
        result = execute(db, "SELECT x FROM t", row_cap=10)
        assert result.status == OK
        assert len(result.rows) == 10
        assert result.truncated

    def test_unreadable_db(self, tmp_path):
        result = execute(tmp_path / "absent.sqlite", "SELECT 1")
        assert result.status == RUNTIME_ERROR

    def test_database_under_odd_directory_name(self, tmp_path, finance_db):
        """`#`, `%`, `?` and a space in a directory name stay part of the
        path: every read-only opener reads the database there and creates no
        file beside its directory."""
        folder = tmp_path / "odd#dir %41?x"
        folder.mkdir()
        db = shutil.copy(finance_db, folder / "finance.sqlite")
        result = execute(db, "SELECT count(*) FROM customers")
        assert result.status == OK, result.error_text
        assert result.rows == [(5,)]
        catalog = introspect_database(db)
        assert catalog == introspect_database(finance_db)
        index = build_value_index(catalog, db)
        assert index.values == build_value_index(catalog, finance_db).values
        assert [p.name for p in tmp_path.iterdir()] == [folder.name]


# Statement shapes over the table-valued-function fixture below; `t` is a
# table, `c` one of its columns, `k` a small integer, `arr` a JSON int array.
READ_SHAPES = [
    "SELECT * FROM {t}",
    "SELECT value FROM json_each('{arr}')",
    "SELECT key, value, type, fullkey FROM json_tree('{{\"a\": {arr}}}')",
    "SELECT name, type, pk FROM pragma_table_info('{t}')",
    "SELECT count(*) FROM pragma_table_info('{t}')",
    "SELECT * FROM pragma_index_list('{t}')",
    "SELECT * FROM pragma_foreign_key_list('{t}')",
    "SELECT p.name, j.value FROM pragma_table_info('{t}') p JOIN json_each('{arr}') j"
    " ON p.cid = j.value",
    "SELECT * FROM {t} WHERE rowid IN (SELECT value FROM json_each('{arr}'))",
    "SELECT (SELECT count(*) FROM json_each('{arr}')), {c} FROM {t}",
    "WITH j AS (SELECT value FROM json_each('{arr}')) SELECT value * {k} FROM j",
    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < {k})"
    " SELECT n FROM r",
    "SELECT {c}, row_number() OVER (ORDER BY rowid DESC) FROM {t}",
    "SELECT value FROM json_each('{arr}') UNION SELECT {k} ORDER BY 1",
    "SELECT {c} FROM {t} EXCEPT SELECT value FROM json_each('{arr}')",
    "VALUES ({k}, 'x'), ({k} + 1, NULL)",
    "SELECT a.{c} FROM {t} a JOIN {t} b ON a.rowid = b.rowid + {k}",
]
WRITE_SHAPES = [
    "INSERT INTO {t} SELECT * FROM {t}",
    "DELETE FROM {t}",
    "UPDATE {t} SET {c} = NULL",
    "REPLACE INTO {t} SELECT * FROM {t}",
    "WITH j AS (SELECT value FROM json_each('{arr}')) INSERT INTO {t} ({c}) SELECT value FROM j",
    "DELETE FROM {t} WHERE rowid IN (SELECT value FROM json_each('{arr}'))",
    "UPDATE {t} SET {c} = (SELECT name FROM pragma_table_info('{t}') LIMIT 1)",
    "CREATE TABLE z AS SELECT * FROM json_each('{arr}')",
    "DROP TABLE {t}",
    "ALTER TABLE {t} ADD COLUMN z{k}",
    "CREATE INDEX z ON {t} ({c})",
    "CREATE TEMP TABLE z (x)",
    "CREATE TEMP VIEW z AS SELECT * FROM {t}",
    "CREATE TEMP TRIGGER z AFTER DELETE ON {t} BEGIN SELECT 1; END",
    "ATTACH DATABASE ':memory:' AS z",
    "PRAGMA user_version = {k}",
    "PRAGMA query_only = 0",
    "PRAGMA writable_schema = 1",
    "PRAGMA table_info('{t}')",
    "SELECT * FROM pragma_optimize",
    "VACUUM",
    "REINDEX",
    "REINDEX {t}",
    "ANALYZE",
    "ANALYZE {t}",
    "BEGIN IMMEDIATE",
]
TVF_TABLES = {"customers": ["Gender", "Currency"], "transactions_1k": ["Date", "Amount"]}


@pytest.fixture(scope="module")
def tvf_db(finance_db, tmp_path_factory):
    """A copy of the finance database with an index on each table above, so
    that REINDEX has something to rebuild (without one it is a no-op that
    reports nothing to the authorizer)."""
    db = shutil.copy(finance_db, tmp_path_factory.mktemp("tvf") / "finance.sqlite")
    with contextlib.closing(sqlite3.connect(db)) as conn:
        for table, columns in TVF_TABLES.items():
            conn.execute(f"CREATE INDEX {table}_{columns[0]} ON {table} ({columns[0]})")
        conn.commit()
    return db


@st.composite
def statements(draw, shapes):
    table = draw(st.sampled_from(sorted(TVF_TABLES)))
    return draw(st.sampled_from(shapes)).format(
        t=table,
        c=draw(st.sampled_from(TVF_TABLES[table])),
        k=draw(st.integers(0, 6)),
        arr=json.dumps(draw(st.lists(st.integers(-2, 8), max_size=5))),
    )


def _schema_version(db) -> int:
    with contextlib.closing(sqlite3.connect(db)) as conn:
        return conn.execute("PRAGMA schema_version").fetchone()[0]


class TestReadOnlyGuard:
    @given(statements(READ_SHAPES))
    def test_reads_return_unguarded_rows(self, tvf_db, sql):
        with contextlib.closing(sqlite3.connect(tvf_db)) as conn:
            expected = conn.execute(sql).fetchall()
        result = execute(tvf_db, sql)
        assert result.status == OK, (sql, result.error_text)
        assert result.rows == expected

    @given(statements(WRITE_SHAPES))
    def test_writes_rejected_and_file_unchanged(self, tvf_db, sql):
        before, version = tvf_db.read_bytes(), _schema_version(tvf_db)
        result = execute(tvf_db, sql)
        assert result.status == RUNTIME_ERROR, sql
        assert tvf_db.read_bytes() == before
        assert _schema_version(tvf_db) == version


class TestCanonicalize:
    def test_sorting(self):
        assert canonicalize([(2,), (1,)]) == canonicalize([(1,), (2,)])

    def test_int_float_unify(self):
        assert canonicalize([(1.0,)]) == canonicalize([(1,)])
        assert canonicalize([(0.5,)]) != canonicalize([(1,)])
        assert canonicalize([(1e17,)]) == canonicalize([(10**17,)])

    @given(whole_ints)
    def test_whole_float_equals_its_int(self, i):
        a, b = _ok([(i,)]), _ok([(float(i),)])
        assert results_match(a, b, "set")
        assert fingerprint(a) == fingerprint(b)

    def test_near_equal_floats(self):
        # numbers match when they round to the same multiple of 1e-6:
        # 1.00001 and 1.0 round to different multiples, 1.0000001 and 1.0 to one
        assert canonicalize([(1.00001,)]) != canonicalize([(1.0,)])
        assert canonicalize([(1.0000001,)]) == canonicalize([(1.0,)])
        # under 1e-6 apart, but a rounding boundary (5e-7) lies between them
        assert canonicalize([(2.5e-7,)]) != canonicalize([(7.5e-7,)])

    @example(2.5e-7, 7.5e-7)
    @given(numbers, numbers)
    def test_numbers_match_when_they_round_to_one_multiple(self, a, b):
        same = canonicalize([(a,)]) == canonicalize([(b,)])
        assert same == (round(a / 1e-6) == round(b / 1e-6))
        if same:  # one multiple of 1e-6 is within half a quantum of both
            assert abs(a - b) <= 1.001e-6

    def test_bool_is_its_int(self):
        assert canonicalize([(True,)]) == canonicalize([(1,)])
        assert canonicalize([(True,)]) != canonicalize([(1e-6,)])
        assert canonicalize([(False,)]) == canonicalize([(0,)])

    def test_null_vs_zero(self):
        assert canonicalize([(None,)]) != canonicalize([(0,)])
        assert canonicalize([(None,)]) != canonicalize([("",)])

    def test_text_exact(self):
        assert canonicalize([("EUR",)]) != canonicalize([("eur",)])

    def test_mixed_type_column_sortable(self):
        rows = [(1,), ("a",), (None,), (2.5,), (b"\x01",)]
        out = canonicalize(rows)
        assert len(out) == 5


def _ok(rows, truncated=False):
    return ExecutionResult(OK, rows=rows, truncated=truncated)


def _reference_match(a, b, mode):
    """Reference comparison of two complete ok results, kept apart from
    `fingerprint`: distinct canonical rows in `set` mode, the sorted
    canonical rows in `multiset` mode."""
    ca, cb = canonicalize(a.rows), canonicalize(b.rows)
    return set(ca) == set(cb) if mode == "set" else ca == cb


class TestResultsMatch:
    def test_order_insensitive(self):
        assert results_match(_ok([(1,), (2,)]), _ok([(2,), (1,)]), "set")
        assert results_match(_ok([(1,), (2,)]), _ok([(2,), (1,)]), "multiset")

    def test_set_vs_multiset_on_duplicates(self):
        a, b = _ok([(1,), (1,)]), _ok([(1,)])
        assert results_match(a, b, "set")
        assert not results_match(a, b, "multiset")

    def test_fault_never_matches(self):
        bad = ExecutionResult(SYNTAX_ERROR, error_text="x")
        assert not results_match(bad, _ok([(1,)]), "set")
        assert not results_match(bad, bad, "set")

    def test_truncated_never_matches(self):
        a = _ok([(1,)], truncated=True)
        assert not results_match(a, _ok([(1,)]), "set")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            results_match(_ok([]), _ok([]), "bag")

    def test_equivalence_relation(self):
        rng = random.Random(11)
        pool = [
            _ok([(rng.randint(0, 2),) for _ in range(rng.randint(0, 3))])
            for _ in range(12)
        ]
        for mode in ("set", "multiset"):
            for a in pool:
                assert results_match(a, a, mode)  # reflexive
                for b in pool:
                    assert results_match(a, b, mode) == results_match(b, a, mode)
                    for c in pool:
                        if results_match(a, b, mode) and results_match(b, c, mode):
                            assert results_match(a, c, mode)


class TestFingerprint:
    def test_order_invariant(self):
        assert fingerprint(_ok([(1,), (2,)])) == fingerprint(_ok([(2,), (1,)]))

    def test_empty_ok_vs_fault_differ(self):
        assert fingerprint(_ok([])) != fingerprint(
            ExecutionResult(RUNTIME_ERROR, error_text="boom")
        )

    def test_fault_kinds_differ(self):
        assert fingerprint(ExecutionResult(SYNTAX_ERROR)) != fingerprint(
            ExecutionResult(RUNTIME_ERROR)
        )
        assert fingerprint(ExecutionResult(SYNTAX_ERROR)) == fingerprint(
            ExecutionResult(SYNTAX_ERROR, error_text="different msg")
        )

    def test_deterministic(self):
        a = fingerprint(_ok([("x", 1), (None, 2.0)]))
        b = fingerprint(_ok([("x", 1), (None, 2.0)]))
        assert a == b

    @given(st.data())
    def test_matches_set_equality(self, data):
        row = st.tuples(cells, cells)
        a = data.draw(st.lists(row, max_size=4))
        # b reuses a's rows, rewritten to equal cells, plus maybe a row of its own
        b = data.draw(st.permutations(a)) + data.draw(st.lists(row, max_size=1))
        b = [tuple(data.draw(_equal_cells(c)) for c in row) for row in b]
        ra, rb = _ok(a), _ok(b)
        expected = _reference_match(ra, rb, "set")
        assert (fingerprint(ra) == fingerprint(rb)) == expected
        assert results_match(ra, rb, "set") == expected

    @given(st.data(), st.sampled_from(["set", "multiset"]))
    def test_equal_digests_iff_results_match(self, data, mode):
        row = st.tuples(cells, cells)
        a = data.draw(st.lists(row, max_size=4))
        # b shuffles a's rows, maybe repeats or drops some, and rewrites cells
        # to equal ones
        b = data.draw(st.permutations(a))
        b = b[: data.draw(st.integers(0, len(b)))]
        if a:
            b += data.draw(st.lists(st.sampled_from(a), max_size=2))
        b += data.draw(st.lists(row, max_size=1))
        b = [tuple(data.draw(_equal_cells(c)) for c in row) for row in b]
        ra, rb = _ok(a), _ok(b)
        expected = _reference_match(ra, rb, mode)
        assert (fingerprint(ra, mode) == fingerprint(rb, mode)) == expected
        assert results_match(ra, rb, mode) == expected

    def test_multiset_counts_duplicates(self):
        a, b = _ok([(1,), (1,)]), _ok([(1,)])
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a, "multiset") != fingerprint(b, "multiset")


class TestClassifyFault:
    def test_ok_nonempty_is_none(self):
        assert classify_fault(_ok([(1,)])) is None

    def test_ok_empty_is_empty_result(self):
        fault = classify_fault(_ok([]))
        assert fault.kind == EMPTY_RESULT
        assert fault.detail == "query returned 0 rows"

    def test_statuses_map_to_kinds(self):
        for status in (SYNTAX_ERROR, RUNTIME_ERROR, TIMEOUT):
            fault = classify_fault(ExecutionResult(status, error_text="msg"))
            assert fault.kind == status
