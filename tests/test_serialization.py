"""Each record's JSON shape comes from its dataclass.

Property round trips check that object -> JSON -> object is the identity.
The pinned strings are the exact bytes every written format had before
serialization was derived from the dataclasses; saved configs, predictions,
reports and catalogs must stay readable and byte-identical.
"""

from __future__ import annotations

import json
import string

import pytest
from e2e_fixtures import build_bench_root, build_suite_fixture_dir, suite_dataset
from hypothesis import given
from hypothesis import strategies as st

from querycrew.catalog import (
    ColumnInfo,
    FkEdge,
    SchemaCatalog,
    TableInfo,
    introspect_database,
    load_catalog,
    save_catalog,
)
from querycrew.harness import ItemOutcome, load_dataset, run_benchmark
from querycrew.pipeline import TEAMS, TOGGLEABLE_TOOLS, PipelineConfig
from querycrew.value_index import IndexConfig

CONFIG_JSON = """\
{
 "version": 1,
 "team": "IR_SS_CG",
 "n_candidates": 1,
 "n_unit_tests": 0,
 "max_revisions": 3,
 "compare_mode": "set",
 "execution_timeout_s": 30.0,
 "row_cap": 10000,
 "context_k": 10,
 "generation_temperature": 1.0,
 "max_tokens": 2048,
 "disabled_tools": [
  "filter_column",
  "revise"
 ],
 "index": {
  "ngram_size": 3,
  "num_permutations": 128,
  "lsh_bands": 32,
  "lsh_rows": 4,
  "max_value_length": 100,
  "permutation_seed": 7,
  "lsh_candidate_cap": 10,
  "cosine_threshold": 0.6,
  "embed_top_k": 10
 },
 "embedder": {
  "kind": "local",
  "dimension": 256
 },
 "models": {
  "default": {
   "kind": "mock"
  }
 },
 "db_root": "dbs",
 "seed": 3
}"""

# bytes saved before `order_sensitive` was removed; they must still load
CONFIG_JSON_WITH_ORDER_SENSITIVE = """\
{
 "version": 1,
 "team": "IR_SS_CG",
 "n_candidates": 1,
 "n_unit_tests": 0,
 "max_revisions": 3,
 "compare_mode": "set",
 "order_sensitive": false,
 "execution_timeout_s": 30.0,
 "row_cap": 10000,
 "context_k": 10,
 "generation_temperature": 1.0,
 "max_tokens": 2048,
 "disabled_tools": [
  "filter_column",
  "revise"
 ],
 "index": {
  "ngram_size": 3,
  "num_permutations": 128,
  "lsh_bands": 32,
  "lsh_rows": 4,
  "max_value_length": 100,
  "permutation_seed": 7,
  "lsh_candidate_cap": 10,
  "cosine_threshold": 0.6,
  "embed_top_k": 10
 },
 "embedder": {
  "kind": "local",
  "dimension": 256
 },
 "models": {
  "default": {
   "kind": "mock"
  }
 },
 "db_root": "dbs",
 "seed": 3
}"""

OUTCOME_LINE = """\
{"candidate_ex": [1, 0], "completion_tokens": 30, "db_id": "café", "difficulty": "simple", "error": "", "ex": 1, "llm_calls": 4, "predicted_sql": "SELECT 'é'", "prompt_tokens": 120, "question_id": "q1"}"""

CATALOG_JSON = """\
{
 "db_id": "shop",
 "tables": [
  {
   "name": "customers",
   "primary_key": [
    "id"
   ],
   "columns": [
    {
     "name": "id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": null,
     "is_pk": true
    },
    {
     "name": "name",
     "declared_type": "TEXT",
     "expanded_name": "customer name",
     "column_description": "full name",
     "value_description": null,
     "is_pk": false
    }
   ]
  },
  {
   "name": "orders",
   "primary_key": [
    "id"
   ],
   "columns": [
    {
     "name": "id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": null,
     "is_pk": true
    },
    {
     "name": "customer_id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": "ref",
     "is_pk": false
    }
   ]
  }
 ],
 "fk_edges": [
  [
   "orders",
   "customer_id",
   "customers",
   "id"
  ]
 ]
}"""

# bytes saved before `fk_targets` was removed; they must still load
CATALOG_JSON_WITH_FK_TARGETS = """\
{
 "db_id": "shop",
 "tables": [
  {
   "name": "customers",
   "primary_key": [
    "id"
   ],
   "columns": [
    {
     "name": "id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": null,
     "is_pk": true,
     "fk_targets": []
    },
    {
     "name": "name",
     "declared_type": "TEXT",
     "expanded_name": "customer name",
     "column_description": "full name",
     "value_description": null,
     "is_pk": false,
     "fk_targets": []
    }
   ]
  },
  {
   "name": "orders",
   "primary_key": [
    "id"
   ],
   "columns": [
    {
     "name": "id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": null,
     "is_pk": true,
     "fk_targets": []
    },
    {
     "name": "customer_id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": "ref",
     "is_pk": false,
     "fk_targets": [
      "customers.id"
     ]
    }
   ]
  }
 ],
 "fk_edges": [
  [
   "orders",
   "customer_id",
   "customers",
   "id"
  ]
 ]
}"""

# bytes saved before `sample_values` was removed; they must still load
CATALOG_JSON_WITH_SAMPLE_VALUES = """\
{
 "db_id": "shop",
 "tables": [
  {
   "name": "customers",
   "primary_key": [
    "id"
   ],
   "columns": [
    {
     "name": "id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": null,
     "is_pk": true,
     "fk_targets": [],
     "sample_values": []
    },
    {
     "name": "name",
     "declared_type": "TEXT",
     "expanded_name": "customer name",
     "column_description": "full name",
     "value_description": null,
     "is_pk": false,
     "fk_targets": [],
     "sample_values": [
      "Ada",
      "Grace"
     ]
    }
   ]
  },
  {
   "name": "orders",
   "primary_key": [
    "id"
   ],
   "columns": [
    {
     "name": "id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": null,
     "is_pk": true,
     "fk_targets": [],
     "sample_values": []
    },
    {
     "name": "customer_id",
     "declared_type": "INTEGER",
     "expanded_name": null,
     "column_description": null,
     "value_description": "ref",
     "is_pk": false,
     "fk_targets": [
      "customers.id"
     ],
     "sample_values": []
    }
   ]
  }
 ],
 "fk_edges": [
  [
   "orders",
   "customer_id",
   "customers",
   "id"
  ]
 ]
}"""

SWEEP_PREDICTIONS = """\
{"candidate_ex": [1], "completion_tokens": 1360, "db_id": "motorsport", "difficulty": "simple", "error": "", "ex": 1, "llm_calls": 68, "predicted_sql": "SELECT MIN(fastestLapTime) FROM results WHERE driverId = 1", "prompt_tokens": 54590, "question_id": "f1_0001"}
{"candidate_ex": [1], "completion_tokens": 363, "db_id": "finance", "difficulty": "moderate", "error": "", "ex": 1, "llm_calls": 17, "predicted_sql": "SELECT AVG(T1.Price) FROM transactions_1k AS T1 INNER JOIN customers AS T2 ON T1.CustomerID = T2.CustomerID WHERE T2.Currency = 'EUR'", "prompt_tokens": 13043, "question_id": "fin_0001"}
"""

SWEEP_REPORT = """\
{
 "n_items": 2,
 "ex_overall": 1.0,
 "ex_by_difficulty": {
  "simple": 1.0,
  "moderate": 1.0
 },
 "counts_by_difficulty": {
  "simple": 1,
  "moderate": 1,
  "challenging": 0
 },
 "pass_at": {
  "pass@1": 1.0
 },
 "mean_llm_calls": 42.5,
 "mean_prompt_tokens": 33816.5,
 "mean_completion_tokens": 861.5,
 "schema_pr_per_stage": {
  "initial": {
   "table_recall": 1.0,
   "table_precision": 0.23846153846153847,
   "column_recall": 1.0,
   "column_precision": 0.1056547619047619
  },
  "filter_column": {
   "table_recall": 1.0,
   "table_precision": 0.23846153846153847,
   "column_recall": 1.0,
   "column_precision": 0.2277777777777778
  },
  "select_tables": {
   "table_recall": 1.0,
   "table_precision": 0.75,
   "column_recall": 1.0,
   "column_precision": 0.5428571428571429
  },
  "select_columns": {
   "table_recall": 1.0,
   "table_precision": 0.75,
   "column_recall": 1.0,
   "column_precision": 0.6000000000000001
  }
 },
 "flagged_gold": []
}"""

# the summary line of traces/fin_0003.jsonl from an IR_CG_UT sweep, minus duration_s
TRACE_SUMMARY = """\
{"kind": "summary", "question_id": "fin_0003", "selected_sql": "SELECT A3 FROM district ORDER BY A11 DESC LIMIT 1", "selected_index": 0, "llm_calls": 7, "prompt_tokens": 4451, "completion_tokens": 212, "stages": [{"stage": "initial", "n_tables": 5, "n_columns": 21, "selection": {"district": ["DistrictID", "A2", "A3", "A11"], "customers": ["CustomerID", "Gender", "Currency"], "gasstations": ["GasStationID", "ChainID", "Country", "Segment"], "transactions_1k": ["TransactionID", "Date", "CustomerID", "GasStationID", "Amount", "Price"], "client": ["ClientID", "Gender", "Birthday", "DistrictID"]}}], "candidates": [{"generation_index": 0, "sql": "SELECT A3 FROM district ORDER BY A11 DESC LIMIT 1", "revision_count": 0, "status": "ok"}, {"generation_index": 1, "sql": "SELECT A3 FROM district ORDER BY A11 ASC LIMIT 1", "revision_count": 0, "status": "ok"}, {"generation_index": 2, "sql": "SELECT A3 FROM district WHERE A11 = (SELECT MAX(A11) FROM district)", "revision_count": 0, "status": "ok"}], "clusters": [{"fingerprint": "55ca6e2b046d21ee1ae05b203ad5a61f7f25cb0be710b704d9faefb5a1bdc981", "members": [0, 2], "representative": 0}, {"fingerprint": "fbf6763e3ee7e6ea75c94a04bb34bb8013e3050e04f4189c140324f5c59951b4", "members": [1], "representative": 1}], "scores": [2, 0, 2], "n_unit_tests": 2, "revisions_total": 0}"""

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def index_configs(draw) -> IndexConfig:
    bands, rows = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    return IndexConfig(
        ngram_size=draw(st.integers(1, 6)),
        num_permutations=bands * rows,
        lsh_bands=bands,
        lsh_rows=rows,
        max_value_length=draw(st.integers(1, 500)),
        permutation_seed=draw(st.integers(0, 2**32)),
        lsh_candidate_cap=draw(st.integers(1, 100)),
        cosine_threshold=draw(st.floats(0.0, 1.0)),
        embed_top_k=draw(st.integers(1, 50)),
    )


pipeline_configs = st.builds(
    PipelineConfig,
    team=st.sampled_from(sorted(TEAMS)),
    n_candidates=st.integers(2, 50),
    n_unit_tests=st.integers(0, 20),
    max_revisions=st.integers(0, 5),
    compare_mode=st.sampled_from(["set", "multiset"]),
    execution_timeout_s=st.floats(0.001, 1e4),
    row_cap=st.integers(1, 10**6),
    context_k=st.integers(0, 50),
    generation_temperature=st.floats(0.0, 2.0),
    max_tokens=st.integers(1, 10**5),
    disabled_tools=st.frozensets(st.sampled_from(TOGGLEABLE_TOOLS)),
    index=index_configs(),
    embedder=st.dictionaries(st.text(), json_values, max_size=3),
    models=st.dictionaries(st.text(), json_values, max_size=3),
    db_root=st.text(),
    seed=st.integers(),
)

outcomes = st.builds(
    ItemOutcome,
    question_id=st.text(),
    db_id=st.text(),
    difficulty=st.text(),
    predicted_sql=st.text(),
    ex=st.integers(0, 1),
    llm_calls=st.integers(0, 10**6),
    prompt_tokens=st.integers(0, 10**9),
    completion_tokens=st.integers(0, 10**9),
    candidate_ex=st.lists(st.integers(0, 1)),
    error=st.text(),
)

identifiers = st.text(string.ascii_letters + "_ é", min_size=1, max_size=8)
optional_text = st.none() | st.text(max_size=12)


@st.composite
def catalogs(draw) -> SchemaCatalog:
    tables = []
    for name in draw(st.lists(identifiers, min_size=1, max_size=4, unique=True)):
        column_names = draw(st.lists(identifiers, min_size=1, max_size=5, unique=True))
        pk = draw(st.lists(st.sampled_from(column_names), max_size=2, unique=True))
        columns = [
            ColumnInfo(
                name=column,
                declared_type=draw(st.sampled_from(["", "TEXT", "INTEGER", "REAL"])),
                expanded_name=draw(optional_text),
                column_description=draw(optional_text),
                value_description=draw(optional_text),
                is_pk=column in pk,
            )
            for column in column_names
        ]
        tables.append(TableInfo(name=name, columns=columns, primary_key=pk))
    endpoints = st.sampled_from([(t.name, c.name) for t in tables for c in t.columns])
    edges = [
        FkEdge(src[0], src[1], dst[0], dst[1])
        for src, dst in draw(st.lists(st.tuples(endpoints, endpoints), max_size=3))
    ]
    return SchemaCatalog(db_id=draw(identifiers), tables=tables, fk_edges=edges)


class TestRoundTrips:
    @given(pipeline_configs)
    def test_pipeline_config(self, config):
        text = json.dumps(config.to_dict(), indent=1)
        assert PipelineConfig.from_dict(json.loads(text)) == config

    @given(outcomes)
    def test_item_outcome(self, outcome):
        line = outcome.to_json_line()
        assert "\n" not in line
        assert ItemOutcome.from_json_line(line) == outcome

    @given(catalogs())
    def test_schema_catalog(self, catalog):
        text = json.dumps(catalog.to_json_dict(), indent=1)
        assert SchemaCatalog.from_json_dict(json.loads(text)) == catalog


class TestConfigDefaults:
    def test_missing_keys_take_dataclass_defaults(self):
        assert PipelineConfig.from_dict({"version": 1}) == PipelineConfig()
        partial = PipelineConfig.from_dict({"index": {"permutation_seed": 7}})
        assert partial.index == IndexConfig(permutation_seed=7)


class TestPinnedBytes:
    def test_config_json(self, tmp_path):
        config = PipelineConfig(
            team="IR_SS_CG",
            n_candidates=1,
            n_unit_tests=0,
            disabled_tools=frozenset({"revise", "filter_column"}),
            index=IndexConfig(permutation_seed=7),
            models={"default": {"kind": "mock"}},
            db_root="dbs",
            seed=3,
        )
        config.save(tmp_path / "config.json")
        assert (tmp_path / "config.json").read_text(encoding="utf-8") == CONFIG_JSON

    def test_prediction_line(self):
        outcome = ItemOutcome(
            question_id="q1",
            db_id="café",
            difficulty="simple",
            predicted_sql="SELECT 'é'",
            ex=1,
            llm_calls=4,
            prompt_tokens=120,
            completion_tokens=30,
            candidate_ex=[1, 0],
        )
        assert outcome.to_json_line() == OUTCOME_LINE

    def test_catalog_json(self, tmp_path):
        catalog = SchemaCatalog(
            db_id="shop",
            tables=[
                TableInfo(
                    name="customers",
                    primary_key=["id"],
                    columns=[
                        ColumnInfo(name="id", declared_type="INTEGER", is_pk=True),
                        ColumnInfo(
                            name="name",
                            declared_type="TEXT",
                            expanded_name="customer name",
                            column_description="full name",
                        ),
                    ],
                ),
                TableInfo(
                    name="orders",
                    primary_key=["id"],
                    columns=[
                        ColumnInfo(name="id", declared_type="INTEGER", is_pk=True),
                        ColumnInfo(
                            name="customer_id",
                            declared_type="INTEGER",
                            value_description="ref",
                        ),
                    ],
                ),
            ],
            fk_edges=[FkEdge("orders", "customer_id", "customers", "id")],
        )
        save_catalog(catalog, tmp_path / "catalog.json")
        assert (tmp_path / "catalog.json").read_text(encoding="utf-8") == CATALOG_JSON

    def test_config_json_with_order_sensitive_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(CONFIG_JSON_WITH_ORDER_SENSITIVE, encoding="utf-8")
        assert PipelineConfig.from_file(path) == PipelineConfig.from_dict(json.loads(CONFIG_JSON))
        misspelled = CONFIG_JSON_WITH_ORDER_SENSITIVE.replace("order_sensitive", "order_sensitve")
        with pytest.raises(ValueError, match="order_sensitve"):
            PipelineConfig.from_dict(json.loads(misspelled))

    def test_catalog_json_with_sample_values_loads(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(CATALOG_JSON_WITH_SAMPLE_VALUES, encoding="utf-8")
        assert load_catalog(path) == SchemaCatalog.from_json_dict(json.loads(CATALOG_JSON))
        misspelled = CATALOG_JSON_WITH_SAMPLE_VALUES.replace("sample_values", "sample_value")
        with pytest.raises(TypeError, match="sample_value"):
            SchemaCatalog.from_json_dict(json.loads(misspelled))

    def test_catalog_json_with_fk_targets_loads(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(CATALOG_JSON_WITH_FK_TARGETS, encoding="utf-8")
        assert load_catalog(path) == SchemaCatalog.from_json_dict(json.loads(CATALOG_JSON))
        misspelled = CATALOG_JSON_WITH_FK_TARGETS.replace("fk_targets", "fk_target")
        with pytest.raises(TypeError, match="fk_target"):
            SchemaCatalog.from_json_dict(json.loads(misspelled))

    def test_sweep_predictions_and_report(self, tmp_path):
        root = build_bench_root(tmp_path / "root")
        sources = {
            db: introspect_database(root / db / f"{db}.sqlite")
            for db in ("motorsport", "finance")
        }
        fixtures = build_suite_fixture_dir(tmp_path / "fixtures", sources)
        (root / "dataset.json").write_text(json.dumps(suite_dataset()), encoding="utf-8")
        items = load_dataset(root / "dataset.json")
        out = tmp_path / "out"
        run_benchmark(
            [items[0], items[5]],
            PipelineConfig(team="IR_SS_CG", n_candidates=1, n_unit_tests=2),
            out,
            root,
            mock_dir=fixtures,
        )
        assert (out / "predictions.jsonl").read_text(encoding="utf-8") == SWEEP_PREDICTIONS
        assert (out / "report.json").read_text(encoding="utf-8") == SWEEP_REPORT

    def test_trace_summary_line(self, tmp_path):
        root = build_bench_root(tmp_path / "root")
        sources = {
            db: introspect_database(root / db / f"{db}.sqlite")
            for db in ("motorsport", "finance")
        }
        fixtures = build_suite_fixture_dir(tmp_path / "fixtures", sources)
        (root / "dataset.json").write_text(json.dumps(suite_dataset()), encoding="utf-8")
        item = next(i for i in load_dataset(root / "dataset.json") if i.question_id == "fin_0003")
        out = tmp_path / "out"
        run_benchmark(
            [item],
            PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=2),
            out,
            root,
            mock_dir=fixtures,
        )
        trace = (out / "traces" / "fin_0003.jsonl").read_text(encoding="utf-8")
        summary = json.loads(trace.splitlines()[0])
        assert summary.pop("duration_s") >= 0
        assert json.dumps(summary, ensure_ascii=False) == TRACE_SUMMARY
