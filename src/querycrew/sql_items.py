"""Token-level extraction of the tables and columns a SQL query touches.

This is a scanner with alias resolution, not a grammar: it handles the
join-heavy SELECT shape of benchmark gold queries. Every parenthesised
SELECT has a FROM scope of its own. Qualified references resolve through
the alias maps of the scopes around them; bare identifiers are attributed to
a table of the nearest scope that has a column of that name, when exactly
one of its tables has it. `SELECT *` counts every column of the tables in
its scope so recall denominators stay defined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .catalog import SchemaCatalog

_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "having", "limit",
    "offset", "join", "inner", "left", "right", "full", "outer", "cross",
    "on", "as", "and", "or", "not", "in", "is", "null", "like", "between",
    "exists", "union", "all", "distinct", "case", "when", "then", "else",
    "end", "asc", "desc", "with", "recursive", "using", "glob", "escape",
    "collate", "intersect", "except", "values", "cast", "nulls", "first",
    "last", "true", "false",
}

_FUNCTIONS = {
    "count", "sum", "avg", "min", "max", "abs", "round", "length", "substr",
    "substring", "upper", "lower", "trim", "ltrim", "rtrim", "replace",
    "instr", "coalesce", "ifnull", "nullif", "iif", "strftime", "date",
    "time", "datetime", "julianday", "printf", "format", "total", "group_concat",
    "row_number", "rank", "dense_rank", "ntile", "lag", "lead", "real",
    "integer", "text",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<string>'(?:[^']|'')*')
  | (?P<quoted>"[^"]*"|`[^`]*`|\[[^\]]*\])
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol>\*|\.|,|\(|\)|[^\s])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str


@dataclass
class SqlItems:
    tables: set[str] = field(default_factory=set)
    columns: set[tuple[str, str]] = field(default_factory=set)
    unresolved: list[str] = field(default_factory=list)


def tokenize(sql: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup or "symbol"
        text = m.group()
        if kind == "quoted":
            text = text[1:-1]
            kind = "ident"
        elif kind == "word":
            kind = "ident"
        tokens.append(Token(kind, text))
    return tokens


@dataclass
class _Scope:
    """The FROM clause of one SELECT: its tables and aliases."""

    parent: "_Scope | None"
    tables: list[str] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)

    def chain(self):
        scope = self
        while scope is not None:
            yield scope
            scope = scope.parent


def _scopes(tokens: list[Token]) -> list[_Scope]:
    """The scope of every token: each parenthesised SELECT opens a scope
    nested in the one around it, and the statement itself is the root."""
    current = _Scope(None)
    opened: list[bool] = []  # per open paren: whether it began a subquery
    out = []
    for i, tok in enumerate(tokens):
        if tok.kind == "symbol" and tok.text == "(":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            begins = nxt is not None and nxt.kind == "ident" and nxt.text.lower() in (
                "select", "with"
            )
            opened.append(begins)
            if begins:
                current = _Scope(current)
        elif tok.kind == "symbol" and tok.text == ")" and opened and opened.pop():
            out.append(current)
            current = current.parent
            continue
        out.append(current)
    return out


def extract_sql_items(sql: str, catalog: SchemaCatalog) -> SqlItems:
    """Tables and (table, column) pairs referenced by a query.

    A bare column name resolves in the FROM scope of its own SELECT first,
    then in the enclosing scopes (a correlated subquery can name an outer
    table), and last among every table of the statement. References that
    cannot be resolved against the catalog land in `unresolved` so callers
    can flag the query instead of miscounting.
    """
    tokens = tokenize(sql)
    scope_of = _scopes(tokens)
    items = SqlItems()

    # pass 1: tables and aliases of each FROM/JOIN clause, per scope
    alias_map: dict[str, str] = {}
    from_tables: list[str] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "ident" and tok.text.lower() in ("from", "join"):
            j = i + 1
            if j < len(tokens) and tokens[j].text == "(":
                i += 1
                continue  # subquery; its own FROM will be seen later
            if j < len(tokens) and tokens[j].kind == "ident":
                name = tokens[j].text
                table = catalog.resolve_table(name)
                if table is None:
                    items.unresolved.append(name)
                    i = j + 1
                    continue
                items.tables.add(table)
                scope = scope_of[i]
                if table not in scope.tables:
                    scope.tables.append(table)
                if table not in from_tables:
                    from_tables.append(table)
                k = j + 1
                if k < len(tokens) and tokens[k].kind == "ident" and tokens[k].text.lower() == "as":
                    k += 1
                if (
                    k < len(tokens)
                    and tokens[k].kind == "ident"
                    and tokens[k].text.lower() not in _KEYWORDS
                ):
                    scope.aliases[tokens[k].text.lower()] = table
                    alias_map[tokens[k].text.lower()] = table
                i = k
                continue
        i += 1

    def alias(scope: _Scope, name: str) -> str | None:
        for scope in scope.chain():
            if name in scope.aliases:
                return scope.aliases[name]
        return alias_map.get(name)

    def homes(scope: _Scope, name: str) -> list[tuple[str, str]]:
        for tables in [s.tables for s in scope.chain()] + [from_tables]:
            found = [
                (table, column)
                for table in tables
                if (column := catalog.resolve_column(table, name)) is not None
            ]
            if found:
                return found
        return []

    # pass 2: column references
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if tok.kind == "ident" and nxt is not None and nxt.text == ".":
            owner = alias(scope_of[i], tok.text.lower()) or catalog.resolve_table(tok.text)
            ref = tokens[i + 2] if i + 2 < len(tokens) else None
            if owner is None:
                items.unresolved.append(tok.text)
                i += 3
                continue
            if ref is not None and ref.kind == "ident":
                column = catalog.resolve_column(owner, ref.text)
                if column is None:
                    items.unresolved.append(f"{owner}.{ref.text}")
                else:
                    items.columns.add((owner, column))
            elif ref is not None and ref.text == "*":
                items.tables.add(owner)
                for col in catalog.table(owner).column_names():
                    items.columns.add((owner, col))
            i += 3
            continue
        if tok.text == "*" and _is_select_star(tokens, i):
            for table in scope_of[i].tables or from_tables:
                for col in catalog.table(table).column_names():
                    items.columns.add((table, col))
            i += 1
            continue
        if tok.kind == "ident":
            lower = tok.text.lower()
            is_call = nxt is not None and nxt.text == "("
            if (
                lower not in _KEYWORDS
                and not (is_call and lower in _FUNCTIONS)
                and lower not in alias_map
                and catalog.resolve_table(tok.text) is None
            ):
                found = homes(scope_of[i], tok.text)
                if len(found) == 1:
                    items.columns.add(found[0])
                elif found:
                    items.unresolved.append(tok.text)
        i += 1
    return items


def _is_select_star(tokens: list[Token], i: int) -> bool:
    """A bare `*` projects everything only right after SELECT or a comma."""
    j = i - 1
    while j >= 0 and tokens[j].kind == "symbol" and tokens[j].text == "(":
        j -= 1
    if j < 0:
        return False
    prev = tokens[j]
    return prev.kind == "ident" and prev.text.lower() in ("select", "distinct")
