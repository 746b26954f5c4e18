"""Property tests: the catalog's lookups agree with linear scans over its lists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querycrew.catalog import (
    ColumnInfo,
    FkEdge,
    ProjectionError,
    SchemaCatalog,
    SubSchema,
    TableInfo,
    project,
)

# SQLite treats identifiers case-insensitively, so names in one scope are
# unique ignoring case.
NAMES = st.text(alphabet="abcABC_ ", min_size=1, max_size=4).map(str.strip).filter(bool)


@st.composite
def catalogs(draw) -> SchemaCatalog:
    tables = []
    for name in draw(st.lists(NAMES, min_size=1, max_size=5, unique_by=str.lower)):
        cols = draw(st.lists(NAMES, min_size=1, max_size=5, unique_by=str.lower))
        pk = draw(st.lists(st.sampled_from(cols), unique=True, max_size=2))
        columns = [ColumnInfo(c, is_pk=c in pk) for c in cols]
        tables.append(TableInfo(name, columns, pk))
    endpoints = [(t.name, c.name) for t in tables for c in t.columns]
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints)), max_size=6)
    )
    return SchemaCatalog("db", tables, [FkEdge(*src, *dst) for src, dst in pairs])


def probes(names: list[str]):
    """Known names in other cases and with padding, plus names that may be unknown."""
    known = st.sampled_from(names)
    respelled = st.tuples(known, st.sampled_from(["", " ", "\t"])).map(
        lambda p: p[1] + p[0].swapcase() + p[1]
    )
    return st.one_of(known, respelled, NAMES)


# -- the oracle: linear scans over the catalog's lists -------------------------


def scan_table(catalog, name):
    for t in catalog.tables:
        if t.name == name:
            return t
    raise KeyError(name)


def scan_has_column(catalog, table, column):
    return any(t.name == table and c.name == column for t in catalog.tables for c in t.columns)


def scan_linking(catalog, table):
    cols = set(scan_table(catalog, table).primary_key)
    for e in catalog.fk_edges:
        if e.src_table == table:
            cols.add(e.src_column)
        if e.dst_table == table:
            cols.add(e.dst_column)
    return cols


def scan_resolve(names, probe):
    matches = [n for n in names if n.lower() == probe.strip().lower()]
    assert len(matches) <= 1
    return matches[0] if matches else None


def scan_closure(catalog, requested):
    wanted = {
        t: set(cols) | set(scan_table(catalog, t).primary_key) for t, cols in requested.items()
    }
    for e in catalog.fk_edges:
        if e.src_table in wanted and e.dst_table in wanted:
            wanted[e.src_table].add(e.src_column)
            wanted[e.dst_table].add(e.dst_column)
    return {
        t.name: [c.name for c in t.columns if c.name in wanted[t.name]]
        for t in catalog.tables
        if t.name in wanted
    }


# -- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lookups_match_linear_scans(data):
    catalog = data.draw(catalogs())
    names = catalog.table_names()
    for _ in range(5):
        probe = data.draw(probes(names))
        if probe in names:
            assert catalog.table(probe) is scan_table(catalog, probe)
            assert catalog.linking_columns(probe) == scan_linking(catalog, probe)
            assert catalog.edges_from(probe) == [
                e for e in catalog.fk_edges if e.src_table == probe
            ]
        else:
            with pytest.raises(KeyError):
                catalog.table(probe)
            with pytest.raises(KeyError):
                catalog.linking_columns(probe)
        assert catalog.resolve_table(probe) == scan_resolve(names, probe)

        table = data.draw(st.sampled_from(names))
        columns = scan_table(catalog, table).column_names()
        column = data.draw(probes(columns))
        assert catalog.has_column(table, column) == scan_has_column(catalog, table, column)
        assert catalog.has_column(probe, column) == scan_has_column(catalog, probe, column)
        assert catalog.resolve_column(table, column) == scan_resolve(columns, column)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linking_columns_returns_a_fresh_set(data):
    catalog = data.draw(catalogs())
    table = data.draw(st.sampled_from(catalog.table_names()))
    catalog.linking_columns(table).add("not a column")
    assert catalog.linking_columns(table) == scan_linking(catalog, table)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_projection_closure_matches_scan_and_is_idempotent(data):
    catalog = data.draw(catalogs())
    chosen = data.draw(
        st.lists(st.sampled_from(catalog.tables), unique_by=lambda t: t.name, min_size=1)
    )
    requested = {
        t.name: data.draw(st.lists(st.sampled_from(t.column_names()), unique=True))
        for t in chosen
    }
    sub = project(catalog, requested)
    expected = scan_closure(catalog, requested)
    assert sub.selection == expected
    assert list(sub.selection) == list(expected)
    assert project(catalog, sub.as_requested()).selection == sub.selection

    # building a SubSchema closes it too: a column the closure needs comes back
    nonempty = [t for t, cols in expected.items() if cols]
    if nonempty:
        table = data.draw(st.sampled_from(nonempty))
        dropped = data.draw(st.sampled_from(expected[table]))
        smaller = {
            t: [c for c in cols if (t, c) != (table, dropped)] for t, cols in expected.items()
        }
        assert SubSchema(smaller, catalog).selection == scan_closure(catalog, smaller)

    # "ghost" cannot be drawn from NAMES' alphabet
    for unknown in ({**requested, "ghost": []}, {**requested, "ghost": ["a"]},
                    {**requested, chosen[0].name: ["ghost"]}):
        for build in (lambda r: project(catalog, r), lambda r: SubSchema(r, catalog)):
            with pytest.raises(ProjectionError):
                build(unknown)
