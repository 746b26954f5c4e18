"""Token-level extraction of the tables and columns a SQL query touches.

This is a scanner with alias resolution, not a grammar: it handles the
join-heavy SELECT shape of benchmark gold queries. Qualified references
resolve through the alias map; bare identifiers are attributed to a FROM-set
table when exactly one of them has a column of that name. `SELECT *` counts
every column of the tables in scope so recall denominators stay defined.
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


def extract_sql_items(sql: str, catalog: SchemaCatalog) -> SqlItems:
    """Tables and (table, column) pairs referenced by a query.

    References that cannot be resolved against the catalog land in
    `unresolved` so callers can flag the query instead of miscounting.
    """
    tokens = tokenize(sql)
    items = SqlItems()

    # pass 1: alias map from FROM/JOIN clauses, subquery-depth aware
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
                    alias_map[tokens[k].text.lower()] = table
                i = k
                continue
        i += 1

    # pass 2: column references
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if tok.kind == "ident" and nxt is not None and nxt.text == ".":
            owner = alias_map.get(tok.text.lower()) or catalog.resolve_table(tok.text)
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
            for table in from_tables:
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
                homes = [
                    (table, column)
                    for table in from_tables
                    if (column := catalog.resolve_column(table, tok.text)) is not None
                ]
                if len(homes) == 1:
                    items.columns.add(homes[0])
                elif homes:
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
