import itertools
import sqlite3
import string
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querycrew.catalog import ColumnInfo, SchemaCatalog, TableInfo
from querycrew.harness import DatasetError, extract_gold_schema_items
from querycrew.sql_items import extract_sql_items


class TestAliasResolution:
    def test_inner_join_with_aliases(self, motorsport_catalog):
        sql = (
            "SELECT T2.forename FROM results AS T1 "
            "INNER JOIN drivers AS T2 ON T1.driverId = T2.driverId"
        )
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.tables == {"results", "drivers"}
        assert ("drivers", "forename") in items.columns
        assert ("results", "driverId") in items.columns
        assert ("drivers", "driverId") in items.columns
        assert not items.unresolved

    def test_alias_without_as(self, motorsport_catalog):
        sql = "SELECT d.surname FROM drivers d WHERE d.driverId = 2"
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.tables == {"drivers"}
        assert ("drivers", "surname") in items.columns

    def test_select_literal_only(self, motorsport_catalog):
        items = extract_sql_items("SELECT 1", motorsport_catalog)
        assert items.tables == set()
        assert items.columns == set()

    def test_star_select_counts_all_columns(self, motorsport_catalog):
        items = extract_sql_items("SELECT * FROM status", motorsport_catalog)
        assert items.tables == {"status"}
        assert items.columns == {("status", "statusId"), ("status", "status")}

    def test_qualified_star(self, motorsport_catalog):
        items = extract_sql_items(
            "SELECT s.* FROM status s JOIN results r ON r.statusId = s.statusId",
            motorsport_catalog,
        )
        assert ("status", "status") in items.columns
        assert ("results", "statusId") in items.columns

    def test_bare_column_unique_home(self, motorsport_catalog):
        items = extract_sql_items(
            "SELECT forename FROM drivers WHERE surname = 'Hamilton'",
            motorsport_catalog,
        )
        assert ("drivers", "forename") in items.columns
        assert ("drivers", "surname") in items.columns

    def test_bare_column_ambiguous_flagged(self, motorsport_catalog):
        # raceId exists in both joined tables: bare use is ambiguous
        items = extract_sql_items(
            "SELECT raceId FROM results JOIN lapTimes ON results.driverId = lapTimes.driverId",
            motorsport_catalog,
        )
        assert "raceId" in items.unresolved

    def test_string_literals_ignored(self, motorsport_catalog):
        items = extract_sql_items(
            "SELECT forename FROM drivers WHERE surname = 'FROM results'",
            motorsport_catalog,
        )
        assert items.tables == {"drivers"}

    def test_function_names_not_columns(self, motorsport_catalog):
        items = extract_sql_items(
            "SELECT COUNT(*), MIN(fastestLapTime) FROM results",
            motorsport_catalog,
        )
        assert ("results", "fastestLapTime") in items.columns
        assert not items.unresolved

    def test_unknown_table_flagged(self, motorsport_catalog):
        items = extract_sql_items("SELECT x FROM ghost_table", motorsport_catalog)
        assert "ghost_table" in items.unresolved

    def test_strftime_call(self, motorsport_catalog):
        sql = (
            "SELECT T2.forename, T2.surname FROM results AS T1 "
            "INNER JOIN drivers AS T2 ON T1.driverId = T2.driverId "
            "WHERE STRFTIME('%Y', T2.dob) > '1975' AND T1.rank = 2"
        )
        items = extract_sql_items(sql, motorsport_catalog)
        assert ("drivers", "dob") in items.columns
        assert ("results", "rank") in items.columns
        assert not items.unresolved

    def test_subquery_from(self, finance_catalog):
        sql = (
            "SELECT AVG(total) FROM (SELECT Price AS total "
            "FROM transactions_1k WHERE CustomerID = 1)"
        )
        items = extract_sql_items(sql, finance_catalog)
        assert "transactions_1k" in items.tables
        assert ("transactions_1k", "Price") in items.columns

    def test_scalar_subquery_resolves_in_its_own_scope(self, motorsport_catalog):
        sql = (
            "SELECT surname FROM drivers WHERE driverId = "
            "(SELECT driverId FROM driverStandings ORDER BY wins DESC LIMIT 1)"
        )
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.columns == {
            ("drivers", "surname"),
            ("drivers", "driverId"),
            ("driverStandings", "driverId"),
            ("driverStandings", "wins"),
        }
        assert items.unresolved == []

    def test_in_subquery_resolves_in_its_own_scope(self, motorsport_catalog):
        sql = "SELECT surname FROM drivers WHERE driverId IN (SELECT driverId FROM results)"
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.columns == {
            ("drivers", "surname"),
            ("drivers", "driverId"),
            ("results", "driverId"),
        }
        assert items.unresolved == []

    def test_correlated_subquery_reaches_outer_table(self, motorsport_catalog):
        sql = (
            "SELECT driverRef FROM drivers AS d WHERE EXISTS "
            "(SELECT 1 FROM results AS r WHERE r.driverId = d.driverId AND surname = 'X')"
        )
        items = extract_sql_items(sql, motorsport_catalog)
        assert ("drivers", "surname") in items.columns
        assert ("drivers", "driverRef") in items.columns
        assert items.unresolved == []

    def test_alias_shadowed_in_subquery(self, motorsport_catalog):
        sql = (
            "SELECT T1.surname FROM drivers AS T1 WHERE T1.driverId IN "
            "(SELECT T1.driverId FROM results AS T1 WHERE T1.laps > 50)"
        )
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.columns == {
            ("drivers", "surname"),
            ("drivers", "driverId"),
            ("results", "driverId"),
            ("results", "laps"),
        }
        assert items.unresolved == []

    def test_three_way_join(self, finance_catalog):
        sql = (
            "SELECT AVG(T1.Price) FROM transactions_1k AS T1 "
            "INNER JOIN gasstations AS T2 ON T1.GasStationID = T2.GasStationID "
            "INNER JOIN customers AS T3 ON T1.CustomerID = T3.CustomerID "
            "WHERE T3.Currency = 'EUR'"
        )
        items = extract_sql_items(sql, finance_catalog)
        assert items.tables == {"transactions_1k", "gasstations", "customers"}
        expected = {
            ("transactions_1k", "Price"),
            ("transactions_1k", "GasStationID"),
            ("gasstations", "GasStationID"),
            ("transactions_1k", "CustomerID"),
            ("customers", "CustomerID"),
            ("customers", "Currency"),
        }
        assert items.columns == expected

    def test_group_by_and_order_by(self, finance_catalog):
        sql = (
            "SELECT Currency, COUNT(CustomerID) FROM customers "
            "GROUP BY Currency ORDER BY COUNT(CustomerID) DESC LIMIT 1"
        )
        items = extract_sql_items(sql, finance_catalog)
        assert items.columns == {
            ("customers", "Currency"),
            ("customers", "CustomerID"),
        }

    def test_case_insensitive_table_reference(self, finance_catalog):
        items = extract_sql_items("SELECT Currency FROM CUSTOMERS", finance_catalog)
        assert items.tables == {"customers"}


SYNTAX_ERROR = "SELEC surname FROM drivers"
TWO_STATEMENTS = "SELECT surname FROM drivers; SELECT forename FROM drivers"

# (sql, tables, columns, unresolved), each resolved by SQLite on the motorsport fixture
SQLITE_RESOLVED = [
    pytest.param(
        "SELECT driverId FROM results UNION SELECT driverId FROM driverStandings",
        {"results", "driverStandings"},
        {("results", "driverId"), ("driverStandings", "driverId")},
        [],
        id="union",
    ),
    pytest.param(
        "SELECT raceId FROM results INTERSECT SELECT raceId FROM qualifying",
        {"results", "qualifying"},
        {("results", "raceId"), ("qualifying", "raceId")},
        [],
        id="intersect",
    ),
    pytest.param(
        "SELECT driverId FROM drivers EXCEPT SELECT driverId FROM lapTimes WHERE lap > 50",
        {"drivers", "lapTimes"},
        {("drivers", "driverId"), ("lapTimes", "driverId"), ("lapTimes", "lap")},
        [],
        id="except",
    ),
    pytest.param(
        "WITH w AS (SELECT driverId FROM driverStandings) "
        "SELECT surname FROM drivers WHERE driverId IN (SELECT driverId FROM w)",
        {"drivers", "driverStandings"},
        {("drivers", "surname"), ("drivers", "driverId"), ("driverStandings", "driverId")},
        [],
        id="cte",
    ),
    pytest.param(
        "SELECT surname, laps FROM drivers JOIN results USING (driverId)",
        {"drivers", "results"},
        {
            ("drivers", "surname"),
            ("drivers", "driverId"),
            ("results", "driverId"),
            ("results", "laps"),
        },
        [],
        id="join-using",
    ),
    pytest.param(
        "SELECT surname FROM drivers NATURAL JOIN results",
        {"drivers", "results"},
        {
            ("drivers", "surname"),
            ("drivers", "driverId"),
            ("drivers", "number"),
            ("results", "driverId"),
            ("results", "number"),
        },
        [],
        id="natural-join",
    ),
    pytest.param(
        # the flattened subquery leaves no read of surname in the program
        "SELECT COUNT(*) FROM (SELECT surname FROM drivers) AS s, status AS st "
        "WHERE st.status = 'Finished'",
        {"drivers", "status"},
        {("drivers", "surname"), ("status", "status")},
        [],
        id="flattened-from-subquery",
    ),
    pytest.param(
        "SELECT d.rowid, d.surname FROM drivers AS d",
        {"drivers"},
        {("drivers", "surname")},
        [],
        id="rowid",
    ),
    pytest.param(SYNTAX_ERROR, set(), set(), ['near "SELEC": syntax error'], id="syntax-error"),
    pytest.param(
        TWO_STATEMENTS, set(), set(), ["You can only execute one statement at a time."],
        id="two-statements",
    ),
]


class TestSqliteResolution:
    @pytest.mark.parametrize("sql, tables, columns, unresolved", SQLITE_RESOLVED)
    def test_items(self, motorsport_catalog, sql, tables, columns, unresolved):
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.tables == tables
        assert items.columns == columns
        assert items.unresolved == unresolved

    @pytest.mark.parametrize("sql", [SYNTAX_ERROR, TWO_STATEMENTS])
    def test_unprepared_gold_is_rejected(self, motorsport_catalog, sql):
        with pytest.raises(DatasetError):
            extract_gold_schema_items(sql, motorsport_catalog)


_UNSEEN = itertools.count()


def _unseen_schema(catalog: SchemaCatalog) -> SchemaCatalog:
    """`catalog` plus one table of a name no other catalog has, so that no
    schema copy exists for it yet."""
    extra = TableInfo(f"unseen_{next(_UNSEEN)}", [ColumnInfo("x")])
    return SchemaCatalog(catalog.db_id, [*catalog.tables, extra], catalog.fk_edges)


class TestSchemaCopy:
    QUERIES = [row.values[0] for row in SQLITE_RESOLVED] + [
        "SELECT T2.forename FROM results AS T1 "
        "INNER JOIN drivers AS T2 ON T1.driverId = T2.driverId",
        "SELECT x FROM ghost_table",
        "SELECT raceId FROM results JOIN lapTimes ON results.driverId = lapTimes.driverId",
    ]

    def test_built_once_per_schema(self, motorsport_catalog, monkeypatch):
        catalog = _unseen_schema(motorsport_catalog)
        same_schema = SchemaCatalog(catalog.db_id, catalog.tables, catalog.fk_edges)
        connects = []
        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect", lambda *args, **kw: connects.append(args) or connect(*args, **kw)
        )
        first = extract_sql_items(self.QUERIES[0], catalog)
        second = extract_sql_items(self.QUERIES[0], catalog)
        third = extract_sql_items(self.QUERIES[0], same_schema)
        assert first == second == third
        assert len(connects) == 1

    def test_threads_match_sequential(self, motorsport_catalog):
        expected = [extract_sql_items(sql, motorsport_catalog) for sql in self.QUERIES]
        catalog = _unseen_schema(motorsport_catalog)  # the threads also race to build its copy
        start = threading.Barrier(8)

        def work(_):
            start.wait(timeout=10)
            return [[extract_sql_items(sql, catalog) for sql in self.QUERIES] for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(work, i) for i in range(8)]
                rounds = [r for f in futures for r in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert len(rounds) == 8 * 20
        assert all(r == expected for r in rounds)


class _Planter:
    """Draws a query over the catalog and records every table and
    (table, column) it reads. A bare column name is drawn only where one
    table of its own FROM clause has it; outer tables are always qualified."""

    def __init__(self, draw, catalog: SchemaCatalog):
        self.draw, self.catalog = draw, catalog
        self.tables: set[str] = set()
        self.columns: set[tuple[str, str]] = set()
        self.n_aliases = 0

    def alias(self) -> str:
        self.n_aliases += 1
        stem = self.draw(st.text(string.ascii_lowercase, min_size=1, max_size=3))
        return f"{stem}_{self.n_aliases}"

    def from_clause(self) -> tuple[str, list[tuple[str, str]]]:
        table = self.draw(st.sampled_from(self.catalog.table_names()))
        scope = [(table, self.alias())]
        sql = f"{table} AS {scope[0][1]}"
        for _ in range(self.draw(st.integers(0, 2))):
            in_scope = {t for t, _ in scope}
            edges = [
                pair
                for e in self.catalog.fk_edges
                for pair in (e.as_pair(), e.as_pair()[::-1])
                if pair[0][0] in in_scope
            ]
            (left, left_col), (right, right_col) = self.draw(st.sampled_from(edges))
            left_alias = self.draw(st.sampled_from([a for t, a in scope if t == left]))
            right_alias = self.alias()
            self.columns |= {(left, left_col), (right, right_col)}
            if len(scope) == 1 and left_col == right_col and self.draw(st.booleans()):
                sql += f" JOIN {right} AS {right_alias} USING ({left_col})"
            else:
                sql += (
                    f" JOIN {right} AS {right_alias}"
                    f" ON {left_alias}.{left_col} = {right_alias}.{right_col}"
                )
            scope.append((right, right_alias))
        self.tables |= {t for t, _ in scope}
        return sql, scope

    def ref(self, scope: list[tuple[str, str]], bare_ok: bool = True) -> str:
        table, alias = self.draw(st.sampled_from(scope))
        if self.draw(st.integers(0, 9)) == 0:
            return f"{alias}.rowid"  # no catalog column
        column = self.draw(st.sampled_from(self.catalog.table(table).column_names()))
        self.columns.add((table, column))
        homes = [t for t, _ in scope if self.catalog.resolve_column(t, column) is not None]
        if bare_ok and len(homes) == 1 and self.draw(st.booleans()):
            return column
        return f"{alias}.{column}"

    def select(
        self, outer: list[tuple[str, str]], width: int | None = None, depth: int = 0
    ) -> str:
        from_sql, scope = self.from_clause()
        items = [self.ref(scope) for _ in range(width or self.draw(st.integers(0, 3)))]
        if not items or (width is None and self.draw(st.booleans())):
            items.append("COUNT(*)")
        where = []
        if outer and self.draw(st.booleans()):
            where.append(f"{self.ref(outer, bare_ok=False)} = {self.ref(scope)}")
        shapes = ["plain", "filter"] + (["exists", "in"] if depth < 2 else [])
        shape = self.draw(st.sampled_from(shapes))
        if shape == "filter":
            where.append(f"{self.ref(scope)} IS NOT NULL")
        elif shape == "exists":
            where.append(f"EXISTS ({self.select(outer + scope, 1, depth + 1)})")
        elif shape == "in":
            where.append(f"{self.ref(scope)} IN ({self.select(outer + scope, 1, depth + 1)})")
        sql = f"SELECT {', '.join(items)} FROM {from_sql}"
        return f"{sql} WHERE {' AND '.join(where)}" if where else sql

    def statement(self) -> str:
        if self.draw(st.booleans()):
            return self.select([])
        width = self.draw(st.integers(1, 3))
        op = self.draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
        return f"{self.select([], width)} {op} {self.select([], width)}"


class TestPlantedItemsProperty:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_extractor_returns_planted_items(self, motorsport_catalog, data):
        planter = _Planter(data.draw, motorsport_catalog)
        sql = planter.statement()
        items = extract_sql_items(sql, motorsport_catalog)
        assert items.unresolved == [], sql
        assert items.tables == planter.tables, sql
        assert items.columns == planter.columns, sql
