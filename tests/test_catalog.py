import logging
import sqlite3
import tempfile
from pathlib import Path

import pytest
from fixture_dbs import (
    build_empty_db, build_finance_db, build_motorsport_db, build_two_table_db,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from querycrew.catalog import (
    CatalogError,
    ColumnInfo,
    FkEdge,
    ProjectionError,
    SchemaCatalog,
    full_projection,
    ingest_catalog_descriptions,
    introspect_database,
    load_catalog,
    project,
    quote_identifier,
    render_schema_prompt,
    save_catalog,
)
from querycrew.catalog import TableInfo, _ascii_fold, _defined_column, _tick
from querycrew.context_store import DescriptionHit
from querycrew.value_index import EntityMatch


class TestIntrospection:
    def test_two_table_fixture(self, two_table_db):
        catalog = introspect_database(two_table_db)
        assert len(catalog.tables) == 2
        assert len(catalog.fk_edges) == 1
        edge = catalog.fk_edges[0]
        assert edge.as_pair() == (("results", "driverId"), ("drivers", "driverId"))

    def test_empty_database(self, empty_db):
        catalog = introspect_database(empty_db)
        assert catalog.tables == []
        assert catalog.fk_edges == []

    def test_motorsport_shape(self, motorsport_catalog):
        assert len(motorsport_catalog.tables) == 13
        assert motorsport_catalog.column_count() == 96

    def test_composite_primary_key(self, motorsport_catalog):
        lap_times = motorsport_catalog.table("lapTimes")
        assert lap_times.primary_key == ["raceId", "driverId", "lap"]
        assert lap_times.column("lap").is_pk

    def test_pk_flags_consistent(self, motorsport_catalog):
        drivers = motorsport_catalog.table("drivers")
        assert drivers.column("driverId").is_pk
        assert not drivers.column("forename").is_pk

    def test_fk_targets_recorded(self, motorsport_catalog):
        edges = motorsport_catalog.edges_from("results")
        assert FkEdge("results", "driverId", "drivers", "driverId") in edges

    def test_fk_reference_spelled_in_another_case(self, tmp_path):
        db = tmp_path / "case.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE parent (id INTEGER PRIMARY KEY)")
        conn.execute(
            "CREATE TABLE child (cid INTEGER PRIMARY KEY, pid INTEGER REFERENCES Parent(ID))"
        )
        conn.execute("CREATE TABLE twin (tid INTEGER PRIMARY KEY, PID INTEGER, "
                     "FOREIGN KEY (pid) REFERENCES PARENT)")
        conn.close()
        catalog = introspect_database(db)
        assert [e.as_pair() for e in catalog.fk_edges] == [
            (("child", "pid"), ("parent", "id")),
            (("twin", "PID"), ("parent", "id")),
        ]
        assert catalog.linking_columns("child") == {"cid", "pid"}
        assert catalog.edges_from("child") == [FkEdge("child", "pid", "parent", "id")]

    def test_fk_case_folding_is_ascii_only(self, tmp_path):
        # SQLite folds only ASCII letters, so "É" and "é" are two tables
        db = tmp_path / "accent.sqlite"
        conn = sqlite3.connect(db)
        conn.execute('CREATE TABLE "É" (id INTEGER PRIMARY KEY)')
        conn.execute('CREATE TABLE "é" (id INTEGER PRIMARY KEY, up INTEGER REFERENCES "É")')
        conn.execute('CREATE TABLE kid (kid INTEGER PRIMARY KEY, up INTEGER REFERENCES "é")')
        conn.close()
        catalog = introspect_database(db)
        assert [e.as_pair() for e in catalog.fk_edges] == [
            (("é", "up"), ("É", "id")),
            (("kid", "up"), ("é", "id")),
        ]

    def test_missing_file_raises_with_path(self, tmp_path):
        missing = tmp_path / "nope.sqlite"
        with pytest.raises(CatalogError) as exc:
            introspect_database(missing)
        assert "nope.sqlite" in str(exc.value)

    def test_corrupt_file_raises(self, tmp_path):
        bad = tmp_path / "corrupt.sqlite"
        bad.write_bytes(b"this is not a sqlite file at all" * 4)
        with pytest.raises(CatalogError):
            introspect_database(bad)

    def test_roundtrip_json(self, motorsport_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(motorsport_catalog, path)
        loaded = load_catalog(path)
        assert loaded.to_json_dict() == motorsport_catalog.to_json_dict()


def per_table_pragma_introspection(db_file) -> SchemaCatalog:
    """The introspection that ran one PRAGMA table_info and one PRAGMA
    foreign_key_list statement per table, kept as the oracle of the join."""
    path = Path(db_file)
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        rows = conn.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        tables: list[TableInfo] = []
        for (table_name,) in rows:
            info = conn.execute(f'PRAGMA table_info("{_tick(table_name)}")').fetchall()
            pk_cols = sorted(((r[5], r[1]) for r in info if r[5] > 0), key=lambda x: x[0])
            columns = [
                ColumnInfo(name=r[1], declared_type=(r[2] or ""), is_pk=r[5] > 0) for r in info
            ]
            tables.append(TableInfo(table_name, columns, [name for _, name in pk_cols]))
        by_name = {_ascii_fold(t.name): t for t in tables}
        edges: list[FkEdge] = []
        for t in tables:
            for fk in conn.execute(f'PRAGMA foreign_key_list("{_tick(t.name)}")').fetchall():
                target = by_name.get(_ascii_fold(fk[2]))
                if target is None:
                    continue
                dst_col = fk[4]
                if dst_col is None:
                    if len(target.primary_key) != 1:
                        continue
                    dst_col = target.primary_key[0]
                src_col, dst_col = _defined_column(t, fk[3]), _defined_column(target, dst_col)
                if src_col is None or dst_col is None:
                    continue
                edges.append(FkEdge(t.name, src_col, target.name, dst_col))
    finally:
        conn.close()
    return SchemaCatalog(db_id=path.stem, tables=tables, fk_edges=edges)


# identifiers with mixed case, quotes, spaces and non-ASCII letters
NAMES = st.text(alphabet="aAbBzZ_ \"'éÉ", min_size=1, max_size=4)


def _respell(draw, name: str) -> str:
    """`name` with the ASCII case of each letter drawn anew, as SQLite matches it."""
    return "".join(draw(st.sampled_from([c.lower(), c.upper()])) if c.isascii() else c
                   for c in name)


@st.composite
def schemas(draw) -> list[str]:
    """CREATE TABLE statements: composite primary keys in any order, foreign
    keys by explicit or implicit target, spelled in any ASCII case, and some
    that dangle (an unknown table or column)."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique_by=_ascii_fold))
    columns = {
        t: draw(st.lists(NAMES, min_size=1, max_size=4, unique_by=_ascii_fold)) for t in names
    }
    q = lambda name: f'"{_tick(name)}"'  # noqa: E731
    statements = []
    for t in names:
        parts = [
            f"{q(c)} {draw(st.sampled_from(['INTEGER', 'TEXT', 'varchar(8)', 'REAL', '']))}"
            for c in columns[t]
        ]
        pk = draw(st.lists(st.sampled_from(columns[t]), unique=True, max_size=3))
        if pk:
            parts.append(f"PRIMARY KEY ({', '.join(map(q, draw(st.permutations(pk))))})")
        for _ in range(draw(st.integers(0, 3))):
            target = draw(st.sampled_from(names + ["nowhere"]))
            src = draw(st.lists(st.sampled_from(columns[t]), min_size=1, max_size=2))
            dst = ""
            if draw(st.booleans()):  # explicit columns; else the target's primary key
                pool = columns.get(target, []) + ["missing"]
                dst = "(" + ", ".join(q(_respell(draw, draw(st.sampled_from(pool))))
                                      for _ in src) + ")"
            parts.append(f"FOREIGN KEY ({', '.join(map(q, src))}) "
                         f"REFERENCES {q(_respell(draw, target))}{dst}")
        statements.append(f"CREATE TABLE {q(t)} ({', '.join(parts)})")
    return statements


class TestIntrospectionMatchesPerTablePragmas:
    @pytest.mark.parametrize("build", [
        build_motorsport_db, build_finance_db, build_two_table_db, build_empty_db,
    ])
    def test_fixture_databases(self, tmp_path, build):
        db = build(tmp_path / "fixture.sqlite")
        assert introspect_database(db).to_json_dict() == (
            per_table_pragma_introspection(db).to_json_dict()
        )

    @settings(max_examples=150, deadline=None)
    @given(schemas())
    def test_drawn_schemas(self, statements):
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "drawn.sqlite"
            conn = sqlite3.connect(db)
            for statement in statements:
                conn.execute(statement)
            conn.close()
            assert introspect_database(db).to_json_dict() == (
                per_table_pragma_introspection(db).to_json_dict()
            )


class TestDescriptionIngestion:
    def test_expanded_name_attached(self, finance_db, finance_catalog):
        ingested = ingest_catalog_descriptions(
            finance_catalog, finance_db.parent / "database_description"
        )
        a11 = ingested.table("district").column("A11")
        assert a11.expanded_name == "average salary"
        assert "average salary" in a11.column_description
        # original catalog untouched
        assert finance_catalog.table("district").column("A11").expanded_name is None

    def test_missing_directory_unchanged(self, finance_catalog, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            out = ingest_catalog_descriptions(finance_catalog, tmp_path / "absent")
        assert out is finance_catalog
        assert any("not found" in r.message for r in caplog.records)

    def test_empty_directory_unchanged(self, finance_catalog, tmp_path):
        empty = tmp_path / "empty_desc"
        empty.mkdir()
        out = ingest_catalog_descriptions(finance_catalog, empty)
        assert out.to_json_dict() == finance_catalog.to_json_dict()

    def test_unknown_column_warns_once(self, finance_catalog, tmp_path, caplog):
        desc = tmp_path / "desc"
        desc.mkdir()
        (desc / "district.csv").write_text(
            "original_column_name,column_name,column_description,data_format,value_description\n"
            "NoSuchColumn,ghost,phantom column,text,\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            out = ingest_catalog_descriptions(finance_catalog, desc)
        warnings = [r for r in caplog.records if "unknown column" in r.message]
        assert len(warnings) == 1
        assert out.to_json_dict() == finance_catalog.to_json_dict()

    def test_case_insensitive_match(self, finance_catalog, tmp_path):
        desc = tmp_path / "desc_ci"
        desc.mkdir()
        (desc / "DISTRICT.csv").write_text(
            "original_column_name,column_name,column_description,data_format,value_description\n"
            "  a3  ,region name,region of the district,text,\n",
            encoding="utf-8",
        )
        out = ingest_catalog_descriptions(finance_catalog, desc)
        assert out.table("district").column("A3").expanded_name == "region name"

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_quoted_field_keeps_its_line_breaks(self, finance_catalog, tmp_path, eol):
        desc = tmp_path / "desc_multiline"
        desc.mkdir()
        lines = [
            "original_column_name,column_name,column_description,data_format,value_description",
            'A2,district name,"name of',
            'the district",text,"line one',
            'line two"',
            "A3,region,region of the district,text,",
        ]
        (desc / "district.csv").write_bytes(eol.join(lines).encode("utf-8") + eol.encode())
        district = ingest_catalog_descriptions(finance_catalog, desc).table("district")
        assert district.column("A2").column_description == "name of\nthe district"
        assert district.column("A2").value_description == "line one\nline two"
        assert district.column("A3").column_description == "region of the district"


class TestProjection:
    def test_pk_added(self, motorsport_catalog):
        sub = project(motorsport_catalog, {"drivers": ["forename"]})
        assert sub.selection == {"drivers": ["driverId", "forename"]}

    def test_fk_added_on_both_sides(self, motorsport_catalog):
        sub = project(
            motorsport_catalog, {"drivers": ["forename"], "results": ["points"]}
        )
        assert "driverId" in sub.selection["drivers"]
        assert "driverId" in sub.selection["results"]
        assert "resultId" in sub.selection["results"]
        # FK columns to unselected tables are not dragged in
        assert "constructorId" not in sub.selection["results"]

    def test_full_projection_identity(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        assert sub.n_tables() == 13
        assert sub.n_columns() == 96

    def test_unknown_table_named(self, motorsport_catalog):
        with pytest.raises(ProjectionError) as exc:
            project(motorsport_catalog, {"ghost": []})
        assert "ghost" in str(exc.value)

    def test_unknown_column_named(self, motorsport_catalog):
        with pytest.raises(ProjectionError) as exc:
            project(motorsport_catalog, {"drivers": ["no_such_col"]})
        assert "drivers.no_such_col" in str(exc.value)

    def test_idempotent(self, motorsport_catalog):
        sub = project(
            motorsport_catalog, {"results": ["fastestLapTime"], "drivers": ["surname"]}
        )
        again = project(motorsport_catalog, sub.as_requested())
        assert again.selection == sub.selection

    def test_composite_pk_fully_retained(self, motorsport_catalog):
        sub = project(motorsport_catalog, {"lapTimes": ["milliseconds"]})
        assert set(sub.selection["lapTimes"]) == {
            "raceId", "driverId", "lap", "milliseconds"
        }

    def test_idempotent_random_catalogs(self, motorsport_catalog, finance_catalog):
        import random

        rng = random.Random(7)
        for catalog in (motorsport_catalog, finance_catalog):
            for _ in range(25):
                tables = rng.sample(
                    catalog.table_names(), rng.randint(1, len(catalog.tables))
                )
                requested = {}
                for t in tables:
                    cols = catalog.table(t).column_names()
                    requested[t] = rng.sample(cols, rng.randint(0, len(cols)))
                sub = project(catalog, requested)
                again = project(catalog, sub.as_requested())
                assert again.selection == sub.selection
                for t in sub.table_names():
                    assert set(catalog.table(t).primary_key) <= set(sub.selection[t])


class TestRenderSchemaPrompt:
    def test_example_annotation(self, finance_catalog):
        sub = project(finance_catalog, {"customers": ["Currency"]})
        entities = [
            EntityMatch(
                keyword="Euro", value="EUR", table="customers", column="Currency",
                edit_distance=1, cosine=0.9,
            )
        ]
        text = render_schema_prompt(sub, entities, [])
        line = next(l for l in text.splitlines() if "Currency" in l)
        assert "-- examples: EUR" in line

    def test_no_annotations_without_context(self, finance_catalog):
        sub = project(finance_catalog, {"customers": ["Currency"]})
        text = render_schema_prompt(sub)
        assert "--" not in text
        assert "CREATE TABLE customers" in text

    def test_byte_identical(self, finance_catalog):
        sub = full_projection(finance_catalog)
        hits = [
            DescriptionHit(
                doc_id="district.A11.column_description",
                table="district", column="A11",
                text="average  salary in the district", cosine=0.8,
            )
        ]
        assert render_schema_prompt(sub, [], hits) == render_schema_prompt(sub, [], hits)

    def test_description_annotation_whitespace_flattened(self, finance_catalog):
        sub = project(finance_catalog, {"district": ["A11"]})
        hits = [
            DescriptionHit(
                doc_id="district.A11.column_description",
                table="district", column="A11",
                text="average\n salary", cosine=0.8,
            )
        ]
        text = render_schema_prompt(sub, [], hits)
        assert "-- description: average salary" in text

    def test_annotations_outside_sub_dropped(self, finance_catalog):
        sub = project(finance_catalog, {"district": ["A11"]})
        entities = [
            EntityMatch(
                keyword="Euro", value="EUR", table="customers", column="Currency",
                edit_distance=1, cosine=0.9,
            )
        ]
        text = render_schema_prompt(sub, entities, [])
        assert "EUR" not in text

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_annotations_outside_sub_change_nothing(self, finance_catalog, data):
        """Entities and description hits on any catalog column render as
        they do once restricted to the sub-schema's columns."""
        catalog = finance_catalog
        requested = {
            table: data.draw(st.lists(st.sampled_from(catalog.table(table).column_names()),
                                      unique=True))
            for table in data.draw(st.lists(st.sampled_from(catalog.table_names()),
                                            min_size=1, unique=True))
        }
        sub = project(catalog, requested)
        located = st.sampled_from([(t.name, c.name) for t in catalog.tables for c in t.columns])
        text = st.text(alphabet="ab ,\n", max_size=6)
        entities = [
            EntityMatch(keyword="k", value=value, table=t, column=c, edit_distance=0, cosine=1.0)
            for (t, c), value in data.draw(st.lists(st.tuples(located, text), max_size=10))
        ]
        hits = [
            DescriptionHit(doc_id=f"{t}.{c}.{kind}", table=t, column=c, text=body, cosine=cosine)
            for (t, c), kind, body, cosine in data.draw(st.lists(st.tuples(
                located, st.sampled_from(["expanded_name", "column_description"]), text,
                st.sampled_from([0.2, 0.5, 0.9]),
            ), max_size=10))
        ]
        inside = lambda a: sub.contains(a.table, a.column)  # noqa: E731
        assert render_schema_prompt(sub, entities, hits) == render_schema_prompt(
            sub, [e for e in entities if inside(e)], [h for h in hits if inside(h)]
        )

    def test_foreign_key_rendered_only_inside_selection(self, finance_catalog):
        sub = project(
            finance_catalog,
            {"transactions_1k": ["Price"], "customers": ["Currency"]},
        )
        text = render_schema_prompt(sub)
        assert "FOREIGN KEY (CustomerID) REFERENCES customers (CustomerID)" in text
        assert "gasstations" not in text

    def test_golden_block(self, two_table_db):
        catalog = introspect_database(two_table_db)
        sub = project(catalog, {"drivers": ["forename", "surname"]})
        expected = (
            "CREATE TABLE drivers\n"
            "(\n"
            "    driverId INTEGER PRIMARY KEY,\n"
            "    forename TEXT,\n"
            "    surname TEXT\n"
            ");"
        )
        assert render_schema_prompt(sub) == expected


def test_quote_identifier():
    assert quote_identifier("driverId") == "driverId"
    assert quote_identifier("Free Meal Count (K-12)") == "`Free Meal Count (K-12)`"


def test_catalog_invariant_validation():
    from querycrew.catalog import ColumnInfo, FkEdge, TableInfo

    with pytest.raises(CatalogError):
        SchemaCatalog(
            db_id="bad",
            tables=[
                TableInfo("t", [ColumnInfo("a"), ColumnInfo("a")], []),
            ],
        )
    with pytest.raises(CatalogError):
        SchemaCatalog(
            db_id="bad",
            tables=[TableInfo("t", [ColumnInfo("a")], [])],
            fk_edges=[FkEdge("t", "a", "ghost", "x")],
        )
