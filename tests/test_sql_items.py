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
