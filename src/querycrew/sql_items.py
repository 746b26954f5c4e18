"""The tables and columns a SQL query reads, as SQLite itself resolves them.

A query is never run: `EXPLAIN <sql>` is prepared against an empty in-memory
copy of the catalog's schema, so SQLite binds every alias, subquery scope,
compound arm and CTE name. The tables are those the `EXPLAIN` program opens
with `OpenRead`; the columns join two records of the prepare:

- the authorizer's `SQLITE_READ (table, column)` calls, which cover every
  reference, including ones that subquery flattening then drops from the
  program;
- the `Column` reads on each table's `OpenRead` cursor, because the
  authorizer reports no `USING`/`NATURAL` join key and, for
  `a JOIN b USING (k)`, not even table `b`.

The copy declares quoted names only, no types and no constraints, so no
column is a rowid alias and no index covers a read: each column read is a
`Column` op on its table's cursor. Each table's column 0 is a spare that no
catalog has: the dead NULL scan that SQLite codes for
`x IN (SELECT rowid FROM t)` reads column 0 of `t`. Only names the catalog
has are kept; `COUNT(*)` reads `(table, "")` and `rowid` `(table, "ROWID")`.
"""

from __future__ import annotations

import re
import sqlite3
import threading
from dataclasses import dataclass, field

from .catalog import SchemaCatalog, _tick

# the authorizer is per-connection state: one lock covers building a copy and
# every prepare on one
_LOCK = threading.Lock()
_NAMED_ERROR = re.compile(r"(?:no such column|ambiguous column name|no such table): (.+)")
# one copy per distinct schema, for the life of the process: a sweep loads a
# fresh catalog per run, and freeing and rebuilding a wide schema's copy each
# time fragments the heap (about 8 MB more peak RSS at 4,337 columns)
_COPIES: dict[tuple, tuple[sqlite3.Connection, dict[int, str]]] = {}


@dataclass
class SqlItems:
    tables: set[str] = field(default_factory=set)
    columns: set[tuple[str, str]] = field(default_factory=set)
    unresolved: list[str] = field(default_factory=list)


def _schema_copy(catalog: SchemaCatalog) -> tuple[sqlite3.Connection, dict[int, str]]:
    """The empty copy of the catalog's schema and its table names by root
    page, built on first use. Call with `_LOCK` held."""
    names = tuple((t.name, *t.column_names()) for t in catalog.tables)
    if names not in _COPIES:
        conn = sqlite3.connect(":memory:", check_same_thread=False)
        conn.execute("PRAGMA page_size = 512")  # the copy is one empty root page per table
        for table, *columns in names:
            spare = "_" * (1 + max(map(len, columns), default=0))
            ddl = ", ".join(f'"{_tick(name)}"' for name in [spare, *columns])
            conn.execute(f'CREATE TABLE "{_tick(table)}" ({ddl})')
        roots = dict(conn.execute("SELECT rootpage, name FROM sqlite_schema WHERE type = 'table'"))
        _COPIES[names] = (conn, roots)
    return _COPIES[names]


def extract_sql_items(sql: str, catalog: SchemaCatalog) -> SqlItems:
    """Tables and (table, column) pairs a query reads.

    A query that does not prepare yields no items and one `unresolved`
    entry: the name from `no such column`, `ambiguous column name` or
    `no such table`, else SQLite's message (a syntax error, two statements).
    """
    reads: set[tuple[str, str]] = set()

    def record(action, table, column, _db, _trigger):
        if action == sqlite3.SQLITE_READ:
            reads.add((table, column))
        return sqlite3.SQLITE_OK

    with _LOCK:
        conn, roots = _schema_copy(catalog)
        conn.set_authorizer(record)
        try:
            program = conn.execute(f"EXPLAIN {sql}").fetchall()
        except (sqlite3.Error, sqlite3.Warning) as exc:
            named = _NAMED_ERROR.fullmatch(str(exc))
            return SqlItems(unresolved=[named.group(1) if named else str(exc)])
        finally:
            conn.set_authorizer(None)

    cursors = {p1: roots[p2] for _, op, p1, p2, *_ in program if op == "OpenRead" and p2 in roots}
    reads |= {
        (cursors[p1], catalog.table(cursors[p1]).columns[p2 - 1].name)
        for _, op, p1, p2, *_ in program
        if op == "Column" and p1 in cursors and p2 > 0
    }
    return SqlItems(
        tables=set(cursors.values()),
        columns={(t, c) for t, c in reads if catalog.has_column(t, c)},
    )
