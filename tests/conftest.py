from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fixture_dbs import (
    build_empty_db,
    build_finance_db,
    build_finance_descriptions,
    build_motorsport_db,
    build_two_table_db,
)

from querycrew.catalog import introspect_database
from querycrew.gateway import ledger


@pytest.fixture
def calls():
    """The CallRecord of every gateway call the test makes, in call order."""
    with ledger() as records:
        yield records


@pytest.fixture(scope="session")
def motorsport_db(tmp_path_factory) -> Path:
    return build_motorsport_db(tmp_path_factory.mktemp("dbs") / "motorsport.sqlite")


@pytest.fixture(scope="session")
def finance_db(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("finance_root")
    db = build_finance_db(root / "finance.sqlite")
    build_finance_descriptions(root / "database_description")
    return db


@pytest.fixture(scope="session")
def two_table_db(tmp_path_factory) -> Path:
    return build_two_table_db(tmp_path_factory.mktemp("dbs") / "pair.sqlite")


@pytest.fixture(scope="session")
def empty_db(tmp_path_factory) -> Path:
    return build_empty_db(tmp_path_factory.mktemp("dbs") / "empty.sqlite")


@pytest.fixture(scope="session")
def motorsport_catalog(motorsport_db):
    return introspect_database(motorsport_db)


@pytest.fixture(scope="session")
def finance_catalog(finance_db):
    return introspect_database(finance_db)
