import json

import pytest

from e2e_fixtures import build_bench_root, build_suite_fixture_dir, suite_dataset

from querycrew.catalog import introspect_database, load_catalog
from querycrew.cli import main
from querycrew.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = build_bench_root(tmp_path_factory.mktemp("cli_root"))
    catalogs = {
        "motorsport": introspect_database(root / "motorsport" / "motorsport.sqlite"),
        "finance": introspect_database(root / "finance" / "finance.sqlite"),
    }
    fixtures = build_suite_fixture_dir(tmp_path_factory.mktemp("cli_fixtures"), catalogs)
    dataset = root / "dataset.json"
    dataset.write_text(json.dumps(suite_dataset()), encoding="utf-8")
    config_path = root / "config.json"
    PipelineConfig(team="IR_SS_CG", n_candidates=1, n_unit_tests=0,
                   db_root=str(root)).save(config_path)
    return {
        "root": root, "fixtures": fixtures, "dataset": dataset,
        "config": config_path,
    }

CACHES = [".catalog.qcx", ".context_store.qcx", ".value_index.qcx"]


def _written_beside(db_file):
    """The suffixes of the files named after `db_file` in its directory."""
    return sorted(
        p.name[len(db_file.stem):] for p in db_file.parent.glob(f"{db_file.stem}.*")
        if p != db_file
    )


def test_preprocess(cli_env, capsys):
    rc = main(["preprocess", "--db-root", str(cli_env["root"]),
               "--config", str(cli_env["config"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "motorsport" in out
    assert _written_beside(cli_env["root"] / "motorsport" / "motorsport.sqlite") == CACHES


def test_ask_prints_sql(cli_env, capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    rc = main([
        "ask", "--db", "finance",
        "--question", "How many male customers are there?",
        "--hint", "male refers to Gender = 'M'",
        "--config", str(cli_env["config"]),
        "--mock", str(cli_env["fixtures"]),
        "--qid", "fin_0002",
        "--trace", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.splitlines()[-1] == "SELECT COUNT(CustomerID) FROM customers WHERE Gender = 'M'"
    trace = json.loads(trace_path.read_text())
    assert trace["llm_calls"] > 0
    assert trace["selected_sql"].startswith("SELECT COUNT")


def test_bench_and_report(cli_env, capsys, tmp_path):
    out_dir = tmp_path / "bench_out"
    rc = main([
        "bench",
        "--dataset", str(cli_env["dataset"]),
        "--config", str(cli_env["config"]),
        "--out", str(out_dir),
        "--mock", str(cli_env["fixtures"]),
    ])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["ex_overall"] == 1.0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n_items"] == 10


def test_bench_disable_revise(cli_env, tmp_path):
    out_dir = tmp_path / "bench_ablate"
    rc = main([
        "bench",
        "--dataset", str(cli_env["dataset"]),
        "--config", str(cli_env["config"]),
        "--out", str(out_dir),
        "--mock", str(cli_env["fixtures"]),
        "--disable", "revise",
        "--subsample", "0.2", "--seed", "7",
    ])
    assert rc == 0
    traces = list((out_dir / "traces").glob("*.jsonl"))
    assert traces
    for trace_file in traces:
        lines = [json.loads(l) for l in trace_file.read_text().splitlines()]
        assert lines[0]["kind"] == "summary"
        calls = [l for l in lines if l["kind"] == "llm_call"]
        assert calls
        assert all(c["template_id"] != "revise" for c in calls)


def test_synth_schema(cli_env, tmp_path):
    out = tmp_path / "merged.json"
    rc = main([
        "synth-schema",
        "--sources", str(cli_env["root"] / "motorsport"), str(cli_env["root"] / "finance"),
        "--target-columns", "100",
        "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    merged = load_catalog(out)
    assert merged.column_count() == 100


def test_db_root_of_db_files(cli_env, tmp_path, capsys):
    """`.db` files resolve for `preprocess` and `synth-schema` as they do for
    `bench` and `ask`: one in a subdirectory of its name, one at the top."""
    root = tmp_path / "root"
    (root / "shop").mkdir(parents=True)
    (root / "shop" / "shop.db").write_bytes(
        (cli_env["root"] / "motorsport" / "motorsport.sqlite").read_bytes()
    )
    (root / "bank.db").write_bytes((cli_env["root"] / "finance" / "finance.sqlite").read_bytes())
    (root / "notes").mkdir()  # a subdirectory without a database is no database id
    assert main(["preprocess", "--db-root", str(root), "--config", str(cli_env["config"])]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "bank", "shop"
    ]
    assert _written_beside(root / "shop" / "shop.db") == CACHES
    assert _written_beside(root / "bank.db") == CACHES

    out = tmp_path / "merged.json"
    rc = main([
        "synth-schema", "--sources", str(root / "shop"), str(root / "bank.db"),
        "--target-columns", "20", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert load_catalog(out).column_count() == 20
