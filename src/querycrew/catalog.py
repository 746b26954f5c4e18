"""Database structural model: introspection, catalog descriptions, sub-schema
projection with linking-column retention, and schema-to-prompt rendering.

A SchemaCatalog is built once per SQLite file, and so are its lookups: tables
and columns by name, linking columns and outgoing FK edges per table, and the
case-insensitive name resolution that all callers share. Its structural lists
(`tables`, each table's `columns` and `primary_key`, `fk_edges`) must not be
mutated afterwards; column attributes such as the descriptions may change.
SubSchema objects are lightweight views onto it. Foreign-key and primary-key
columns ("linking columns") are never missing from a SubSchema because joins
and counts need them even when they are semantically unrelated to a
question.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import re
import sqlite3
import string
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

from .executor import connect_read_only

logger = logging.getLogger(__name__)

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class CatalogError(Exception):
    """Database file could not be read or the catalog is inconsistent."""


class ProjectionError(Exception):
    """A projection request referenced an unknown table or column."""


@dataclass
class ColumnInfo:
    name: str
    declared_type: str = ""
    expanded_name: str | None = None
    column_description: str | None = None
    value_description: str | None = None
    is_pk: bool = False


@dataclass
class TableInfo:
    name: str
    columns: list[ColumnInfo] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)

    def column(self, name: str) -> ColumnInfo:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass
class FkEdge:
    """One foreign-key edge, src_table.src_column -> dst_table.dst_column."""

    src_table: str
    src_column: str
    dst_table: str
    dst_column: str

    def as_pair(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return (self.src_table, self.src_column), (self.dst_table, self.dst_column)


@dataclass
class SchemaCatalog:
    db_id: str
    tables: list[TableInfo] = field(default_factory=list)
    fk_edges: list[FkEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        # lookups built once; not dataclass fields, so never compared or serialized
        self._tables = {t.name: t for t in self.tables}
        self._columns = {t.name: {c.name: c for c in t.columns} for t in self.tables}
        self._folded_tables = {_fold(name): name for name in self._tables}
        self._folded_columns = {
            table: {_fold(name): name for name in cols} for table, cols in self._columns.items()
        }
        self.validate()
        self._linking = {t.name: set(t.primary_key) for t in self.tables}
        self._edges_from: dict[str, list[FkEdge]] = {t.name: [] for t in self.tables}
        for edge in self.fk_edges:
            self._linking[edge.src_table].add(edge.src_column)
            self._linking[edge.dst_table].add(edge.dst_column)
            self._edges_from[edge.src_table].append(edge)

    # -- lookups ---------------------------------------------------------

    def table(self, name: str) -> TableInfo:
        return self._tables[name]

    def column(self, table: str, column: str) -> ColumnInfo:
        return self._columns[table][column]

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def has_column(self, table: str, column: str) -> bool:
        return column in self._columns.get(table, ())

    def column_count(self) -> int:
        return sum(len(t.columns) for t in self.tables)

    def linking_columns(self, table: str) -> set[str]:
        """PK columns of `table` plus any column on either side of an FK edge."""
        return set(self._linking[table])

    def edges_from(self, table: str) -> list[FkEdge]:
        """FK edges whose source is `table`, in `fk_edges` order."""
        return self._edges_from[table]

    def resolve_table(self, name: str) -> str | None:
        """The table named `name` ignoring case and outer whitespace, or None."""
        return self._folded_tables.get(_fold(name))

    def resolve_column(self, table: str, name: str) -> str | None:
        """The column of `table` named `name`, matched like resolve_table."""
        return self._folded_columns[table].get(_fold(name))

    def validate(self) -> None:
        if len(self._tables) != len(self.tables):
            raise CatalogError(f"duplicate table names in catalog {self.db_id!r}")
        for t in self.tables:
            col_names = self._columns[t.name]
            if len(col_names) != len(t.columns):
                raise CatalogError(f"duplicate column names in table {t.name!r}")
            missing_pk = set(t.primary_key) - set(col_names)
            if missing_pk:
                raise CatalogError(f"primary key {missing_pk} not in table {t.name!r}")
            for col in t.columns:
                if col.is_pk != (col.name in t.primary_key):
                    raise CatalogError(
                        f"is_pk flag inconsistent for {t.name}.{col.name}"
                    )
        for edge in self.fk_edges:
            for table, column in edge.as_pair():
                if not self.has_column(table, column):
                    raise CatalogError(
                        f"fk edge endpoint {table}.{column} not in catalog"
                    )

    # -- serialization (cache/export format) ------------------------------

    def to_json_dict(self) -> dict:
        names = [f.name for f in fields(ColumnInfo)]  # one level deep, unlike `asdict`
        return {
            "db_id": self.db_id,
            "tables": [
                {
                    "name": t.name,
                    "primary_key": list(t.primary_key),
                    "columns": [{f: getattr(c, f) for f in names} for c in t.columns],
                }
                for t in self.tables
            ],
            "fk_edges": [
                [e.src_table, e.src_column, e.dst_table, e.dst_column]
                for e in self.fk_edges
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SchemaCatalog":
        tables = [
            TableInfo(
                name=t["name"],
                primary_key=list(t["primary_key"]),
                # older files hold `sample_values` and `fk_targets`, which nothing read
                columns=[
                    ColumnInfo(**{k: v for k, v in c.items()
                                  if k not in ("sample_values", "fk_targets")})
                    for c in t["columns"]
                ],
            )
            for t in payload["tables"]
        ]
        edges = [FkEdge(*e) for e in payload.get("fk_edges", [])]
        return cls(db_id=payload["db_id"], tables=tables, fk_edges=edges)


def save_catalog(catalog: SchemaCatalog, path: str | Path) -> None:
    Path(path).write_text(json.dumps(catalog.to_json_dict(), indent=1), encoding="utf-8")


def load_catalog(path: str | Path) -> SchemaCatalog:
    return SchemaCatalog.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class SubSchema:
    """An ordered table -> columns selection over a parent catalog, closed
    over its linking columns when it is built.

    Construction takes any table -> columns request as `selection` and keeps,
    beyond it, every PK column of each requested table and both endpoint
    columns of any FK edge joining two requested tables. Tables and columns
    follow catalog order. An unknown table or column raises ProjectionError.
    """

    selection: dict[str, list[str]]
    parent: SchemaCatalog

    def __post_init__(self) -> None:
        catalog = self.parent
        wanted: dict[str, set[str]] = {}
        for table, cols in self.selection.items():
            try:
                primary_key = catalog.table(table).primary_key
            except KeyError:
                raise ProjectionError(f"unknown table {table!r}") from None
            for col in cols:
                if not catalog.has_column(table, col):
                    raise ProjectionError(f"unknown column {table}.{col}")
            wanted[table] = set(cols) | set(primary_key)
        for table in wanted:
            for edge in catalog.edges_from(table):
                if edge.dst_table in wanted:
                    wanted[table].add(edge.src_column)
                    wanted[edge.dst_table].add(edge.dst_column)
        self.selection = {
            tinfo.name: [c for c in tinfo.column_names() if c in wanted[tinfo.name]]
            for tinfo in catalog.tables
            if tinfo.name in wanted
        }

    def table_names(self) -> list[str]:
        return list(self.selection)

    def n_tables(self) -> int:
        return len(self.selection)

    def n_columns(self) -> int:
        return sum(len(cols) for cols in self.selection.values())

    def contains(self, table: str, column: str) -> bool:
        return table in self.selection and column in self.selection[table]

    def as_requested(self) -> dict[str, list[str]]:
        return {t: list(cols) for t, cols in self.selection.items()}


_TABLES = "m.type = 'table' AND m.name NOT LIKE 'sqlite_%'"


def introspect_database(db_file: str | Path) -> SchemaCatalog:
    """Read table/column/PK/FK structure from a SQLite file.

    Raises CatalogError (naming the path) when the file is missing, not a
    database, or otherwise unreadable.
    """
    path = Path(db_file)
    try:
        conn = connect_read_only(path)
    except sqlite3.Error as exc:
        raise CatalogError(f"cannot open database {path}: {exc}") from exc
    try:
        try:  # one join per kind of row: a PRAGMA statement per table costs more
            column_rows = conn.execute(
                "SELECT m.name, p.name, p.type, p.pk FROM sqlite_master AS m"
                f" JOIN pragma_table_info(m.name) AS p WHERE {_TABLES}"
                " ORDER BY m.rowid, p.cid"
            ).fetchall()
            fk_rows = conn.execute(
                'SELECT m.name, f."table", f."from", f."to" FROM sqlite_master AS m'
                f" JOIN pragma_foreign_key_list(m.name) AS f WHERE {_TABLES}"
                " ORDER BY m.rowid, f.id, f.seq"
            ).fetchall()
        except sqlite3.Error as exc:
            raise CatalogError(f"cannot read schema of {path}: {exc}") from exc

        tables: list[TableInfo] = []
        for table_name, rows in itertools.groupby(column_rows, key=lambda r: r[0]):
            info = list(rows)
            pk_cols = sorted(((r[3], r[1]) for r in info if r[3] > 0), key=lambda x: x[0])
            primary_key = [name for _, name in pk_cols]
            columns = [
                ColumnInfo(name=r[1], declared_type=(r[2] or ""), is_pk=r[3] > 0) for r in info
            ]
            tables.append(TableInfo(table_name, columns, primary_key))

        # the pragma spells names as the REFERENCES clause wrote them; SQLite
        # matches identifiers ignoring ASCII case, and edges keep the defined names
        by_name = {_ascii_fold(t.name): t for t in tables}
        edges: list[FkEdge] = []
        for table_name, target_name, src_col, dst_col in fk_rows:
            t, target = by_name[_ascii_fold(table_name)], by_name.get(_ascii_fold(target_name))
            if target is None:
                continue
            if dst_col is None:
                # implicit reference: points at the target's primary key
                if len(target.primary_key) != 1:
                    continue
                dst_col = target.primary_key[0]
            src_col, dst_col = _defined_column(t, src_col), _defined_column(target, dst_col)
            if src_col is None or dst_col is None:
                continue
            edges.append(FkEdge(t.name, src_col, target.name, dst_col))
    finally:
        conn.close()
    return SchemaCatalog(db_id=path.stem, tables=tables, fk_edges=edges)


def ingest_catalog_descriptions(
    catalog: SchemaCatalog, description_dir: str | Path
) -> SchemaCatalog:
    """Attach expanded names and descriptions from per-table CSV files.

    Expects one `<table>.csv` per table with columns (original_column_name,
    column_name, column_description, data_format, value_description).
    Identifier matching is case-insensitive with whitespace stripped. Rows
    that do not match a column are logged and skipped; a missing directory
    leaves the catalog unchanged. The result is a copy; `ensure_artifacts`
    ingests in place, and logs these warnings only when it builds its cache.
    """
    return _ingest_descriptions(catalog, description_dir, copy=True)


def _ingest_descriptions(catalog: SchemaCatalog, description_dir, copy: bool) -> SchemaCatalog:
    """`ingest_catalog_descriptions`, in place unless `copy`; None ingests nothing."""
    if description_dir is None:
        return catalog
    directory = Path(description_dir)
    if not directory.is_dir():
        logger.warning("description directory %s not found; catalog unchanged", directory)
        return catalog
    if copy:
        # New column objects keep the input catalog as it was. Their lists
        # stay shared, because nothing below changes a list in place.
        catalog = replace(
            catalog,
            tables=[replace(t, columns=[replace(c) for c in t.columns]) for t in catalog.tables],
        )
    for csv_path in sorted(directory.glob("*.csv")):
        table = catalog.resolve_table(csv_path.stem)
        if table is None:
            logger.warning("description file %s matches no table", csv_path.name)
            continue
        try:
            text = csv_path.read_text(encoding="utf-8-sig", errors="replace")
        except OSError as exc:
            logger.warning("cannot read %s: %s", csv_path, exc)
            continue
        # newline="" keeps the line breaks of a quoted field that spans lines
        for row in csv.DictReader(io.StringIO(text, newline="")):
            if not row:
                continue
            original = (row.get("original_column_name") or "").strip()
            if not original:
                logger.warning("malformed description row in %s: %r", csv_path.name, row)
                continue
            col_name = catalog.resolve_column(table, original)
            if col_name is None:
                logger.warning("description for unknown column %s.%s skipped", table, original)
                continue
            col = catalog.column(table, col_name)
            expanded = (row.get("column_name") or "").strip()
            col_desc = (row.get("column_description") or "").strip()
            val_desc = (row.get("value_description") or "").strip()
            if expanded and expanded.lower() != col.name.lower():
                col.expanded_name = expanded
            if col_desc:
                col.column_description = col_desc
            if val_desc:
                col.value_description = val_desc
    return catalog


def project(
    catalog: SchemaCatalog, requested: Mapping[str, Sequence[str]]
) -> SubSchema:
    """The sub-schema of a table -> columns request, closed as SubSchema
    describes: PK columns and both ends of FK edges between requested tables
    are added, and unknown names raise ProjectionError."""
    return SubSchema(requested, catalog)


def full_projection(catalog: SchemaCatalog) -> SubSchema:
    return project(catalog, {t.name: t.column_names() for t in catalog.tables})


def render_schema_prompt(
    sub: SubSchema,
    entities: Sequence = (),
    descriptions: Sequence = (),
) -> str:
    """Render a sub-schema as CREATE TABLE blocks for prompting.

    Matched database values are appended to their column line as
    `-- examples: v1, v2`, retrieved catalog text as `-- description: ...`.
    Annotations referencing columns outside the sub-schema are dropped.
    Output is a pure function of the arguments: same inputs, same bytes.
    """
    # keyed by every column named; only the sub-schema's columns are looked up
    examples: dict[tuple[str, str], list[str]] = {}
    for ent in entities:
        examples.setdefault((ent.table, ent.column), []).append(ent.value)
    best_desc: dict[tuple[str, str], object] = {}
    for hit in descriptions:
        key = (hit.table, hit.column)
        prev = best_desc.get(key)
        if prev is None or (-hit.cosine, hit.doc_id) < (-prev.cosine, prev.doc_id):
            best_desc[key] = hit

    blocks: list[str] = []
    catalog = sub.parent
    for tinfo in catalog.tables:
        if tinfo.name not in sub.selection:
            continue
        chosen = set(sub.selection[tinfo.name])
        entries: list[tuple[str, str | None]] = []  # (entry text, column name)
        for col in tinfo.columns:
            if col.name not in chosen:
                continue
            parts = [f"{quote_identifier(col.name)} {col.declared_type}".rstrip()]
            if col.is_pk and len(tinfo.primary_key) == 1:
                parts.append("PRIMARY KEY")
            entries.append((" ".join(parts), col.name))
        if len(tinfo.primary_key) > 1:
            pk = ", ".join(quote_identifier(c) for c in tinfo.primary_key)
            entries.append((f"PRIMARY KEY ({pk})", None))
        for edge in catalog.edges_from(tinfo.name):
            if edge.dst_table not in sub.selection:
                continue
            entries.append(
                (
                    f"FOREIGN KEY ({quote_identifier(edge.src_column)}) REFERENCES "
                    f"{quote_identifier(edge.dst_table)} ({quote_identifier(edge.dst_column)})",
                    None,
                )
            )

        lines = [f"CREATE TABLE {quote_identifier(tinfo.name)}", "("]
        for i, (entry, col_name) in enumerate(entries):
            comma = "," if i < len(entries) - 1 else ""
            annotation = ""
            if col_name is not None:
                key = (tinfo.name, col_name)
                if key in examples:
                    vals = sorted(set(examples[key]))
                    annotation += " -- examples: " + ", ".join(vals)
                if key in best_desc:
                    text = " ".join(best_desc[key].text.split())
                    annotation += f" -- description: {text}"
            lines.append(f"    {entry}{comma}{annotation}")
        lines.append(");")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def quote_identifier(name: str) -> str:
    """Backquote identifiers that are not plain words (spaces, parens, ...)."""
    if _PLAIN_IDENT.match(name):
        return name
    return f"`{name}`"


def _fold(name: str) -> str:
    return name.strip().lower()


_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _ascii_fold(name: str) -> str:
    return name.translate(_ASCII_LOWER)


def _defined_column(table: TableInfo, name: str) -> str | None:
    """The column of `table` that SQLite would match to `name`, or None."""
    folded = _ascii_fold(name)
    return next((c for c in table.column_names() if _ascii_fold(c) == folded), None)


def _tick(name: str) -> str:
    return name.replace('"', '""')
