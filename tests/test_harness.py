import json
import logging
import math
import random
import shutil
from dataclasses import replace

import pytest

from e2e_fixtures import build_bench_root, build_suite_fixture_dir, suite_dataset

from querycrew import executor, harness, pipeline
from querycrew.catalog import introspect_database, project
from querycrew.gateway import Gateway, MockBackend
from querycrew.harness import (
    BenchmarkItem,
    DatasetError,
    SynthesisError,
    execution_accuracy,
    extract_gold_schema_items,
    load_dataset,
    pass_at_k,
    resolve_db_file,
    run_benchmark,
    schema_selection_pr,
    subsample_dev,
    synthesize_large_schema,
)
from querycrew.agents import CandidateQuery
from querycrew.pipeline import PipelineConfig, RunTrace, StageRecord


class TestExecutionAccuracy:
    def test_identical_text(self, finance_db):
        sql = "SELECT Currency FROM customers"
        assert execution_accuracy(sql, sql, finance_db) == 1

    def test_row_reorder_still_equal(self, finance_db):
        assert (
            execution_accuracy(
                "SELECT CustomerID FROM customers ORDER BY CustomerID DESC",
                "SELECT CustomerID FROM customers ORDER BY CustomerID ASC",
                finance_db,
            )
            == 1
        )

    def test_syntax_error_scores_zero(self, finance_db):
        assert execution_accuracy("SELEC 1", "SELECT 1", finance_db) == 0

    def test_mode_changes_duplicate_handling(self, finance_db):
        pred = "SELECT Currency FROM customers WHERE Currency = 'EUR'"
        gold = "SELECT DISTINCT Currency FROM customers WHERE Currency = 'EUR'"
        assert execution_accuracy(pred, gold, finance_db, "set") == 1
        assert execution_accuracy(pred, gold, finance_db, "multiset") == 0


class TestPassAtK:
    def test_half(self):
        assert pass_at_k([[1], [0]], 1) == 0.5

    def test_counts_item_once(self):
        assert pass_at_k([[1, 1, 1]], 3) == 1.0

    def test_late_hit_within_k(self):
        assert pass_at_k([[0, 0, 0, 0, 1]], 5) == 1.0
        assert pass_at_k([[0, 0, 0, 0, 1]], 4) == 0.0

    def test_short_list_raises(self):
        with pytest.raises(ValueError):
            pass_at_k([[1]], 2)

    def test_non_decreasing_in_k(self):
        rng = random.Random(3)
        lists = [[rng.randint(0, 1) for _ in range(6)] for _ in range(40)]
        rates = [pass_at_k(lists, k) for k in range(1, 7)]
        assert rates == sorted(rates)

    def test_failed_item_is_a_miss_in_the_report(self):
        def outcome(qid, candidate_ex):
            return harness.ItemOutcome(
                question_id=qid, db_id="d", difficulty="simple", predicted_sql="", ex=0,
                llm_calls=0, prompt_tokens=0, completion_tokens=0,
                candidate_ex=candidate_ex, error="" if candidate_ex else "no database",
            )

        scored = [outcome("a", [1, 0, 0]), outcome("b", [0, 1, 0])]
        report = harness._assemble_report(scored, {}, [])
        assert report.pass_at == {"pass@1": 0.5, "pass@3": 1.0}
        report = harness._assemble_report(scored + [outcome("c", [])], {}, [])
        assert report.pass_at == {"pass@1": 1 / 3, "pass@3": 2 / 3}


class TestGoldSchemaItems:
    def test_join_query(self, motorsport_catalog):
        tables, columns = extract_gold_schema_items(
            "SELECT T2.forename FROM results AS T1 "
            "INNER JOIN drivers AS T2 ON T1.driverId = T2.driverId",
            motorsport_catalog,
        )
        assert tables == {"results", "drivers"}
        assert columns == {
            ("drivers", "forename"),
            ("results", "driverId"),
            ("drivers", "driverId"),
        }

    def test_select_literal(self, motorsport_catalog):
        tables, columns = extract_gold_schema_items("SELECT 1", motorsport_catalog)
        assert tables == set() and columns == set()

    def test_star_counts_all(self, motorsport_catalog):
        tables, columns = extract_gold_schema_items(
            "SELECT * FROM status", motorsport_catalog
        )
        assert tables == {"status"}
        assert len(columns) == 2

    def test_unresolvable_raises(self, motorsport_catalog):
        with pytest.raises(DatasetError):
            extract_gold_schema_items("SELECT x FROM ghost", motorsport_catalog)


class TestSchemaPR:
    def test_funnel_final_stage(self, motorsport_catalog):
        selected = project(
            motorsport_catalog,
            {"drivers": ["forename"], "results": ["fastestLapTime"]},
        )
        gold_tables = {"results"}
        gold_columns = {("results", "fastestLapTime"), ("results", "driverId")}
        pr = schema_selection_pr(selected, gold_tables, gold_columns)
        assert pr.column_recall == 1.0
        assert pr.column_precision == pytest.approx(0.4)

    def test_exact_selection_all_ones(self, motorsport_catalog):
        gold_tables = {"drivers"}
        gold_columns = {("drivers", "driverId"), ("drivers", "forename")}
        selected = {"drivers": ["driverId", "forename"]}
        pr = schema_selection_pr(selected, gold_tables, gold_columns)
        assert pr.as_tuple() == (1.0, 1.0, 1.0, 1.0)

    def test_full_schema_recall_one(self, motorsport_catalog):
        from querycrew.catalog import full_projection

        sub = full_projection(motorsport_catalog)
        gold_tables = {"drivers", "results"}
        gold_columns = {("drivers", "forename"), ("results", "points")}
        pr = schema_selection_pr(sub, gold_tables, gold_columns)
        assert pr.table_recall == 1.0
        assert pr.column_recall == 1.0
        assert pr.column_precision == pytest.approx(2 / 96)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            schema_selection_pr({"t": ["c"]}, set(), set())


def _items(n_per_db: dict[str, int]) -> list[BenchmarkItem]:
    items = []
    for db_id, n in n_per_db.items():
        for i in range(n):
            items.append(
                BenchmarkItem(
                    question_id=f"{db_id}_{i:04d}",
                    db_id=db_id,
                    question=f"question {i}",
                    evidence="",
                    gold_sql="SELECT 1",
                )
            )
    return items


class TestSubsample:
    def test_fraction_one_full_set(self):
        items = _items({"a": 7})
        assert subsample_dev(items, 1.0, seed=1) == items

    def test_deterministic(self):
        items = _items({"a": 30, "b": 50})
        assert [i.question_id for i in subsample_dev(items, 0.1, 5)] == [
            i.question_id for i in subsample_dev(items, 0.1, 5)
        ]

    def test_per_db_ceil_counts(self):
        items = _items({"a": 30, "b": 55, "c": 4})
        sample = subsample_dev(items, 0.1, seed=2)
        by_db = {}
        for item in sample:
            by_db[item.db_id] = by_db.get(item.db_id, 0) + 1
        assert by_db == {"a": 3, "b": math.ceil(5.5), "c": 1}

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            subsample_dev(_items({"a": 3}), 0.0, 1)

    def test_different_seeds_differ(self):
        items = _items({"a": 200})
        a = [i.question_id for i in subsample_dev(items, 0.1, 1)]
        b = [i.question_id for i in subsample_dev(items, 0.1, 2)]
        assert a != b


class TestSynthesizeLargeSchema:
    def test_merge_all_is_total(self, motorsport_catalog, finance_catalog):
        total = motorsport_catalog.column_count() + finance_catalog.column_count()
        merged = synthesize_large_schema(
            [motorsport_catalog, finance_catalog], total, None, seed=1
        )
        assert merged.column_count() == total

    def test_required_closure_only(self, motorsport_catalog):
        required = project(motorsport_catalog, {"drivers": ["forename"]})
        merged = synthesize_large_schema([motorsport_catalog], 2, required, seed=3)
        assert merged.column_count() == 2
        table = merged.table("motorsport__drivers")
        assert set(table.column_names()) == {"driverId", "forename"}

    def test_deterministic_under_seed(self, motorsport_catalog, finance_catalog):
        a = synthesize_large_schema([motorsport_catalog, finance_catalog], 50, None, 9)
        b = synthesize_large_schema([motorsport_catalog, finance_catalog], 50, None, 9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_target_below_required_errors(self, motorsport_catalog):
        required = project(
            motorsport_catalog, {"results": ["fastestLapTime", "points", "laps"]}
        )
        with pytest.raises(SynthesisError):
            synthesize_large_schema([motorsport_catalog], 2, required, seed=1)

    def test_insufficient_sources_error(self, finance_catalog):
        with pytest.raises(SynthesisError):
            synthesize_large_schema([finance_catalog], 10_000, None, seed=1)

    def test_fk_survive_only_with_both_endpoints(self, finance_catalog):
        merged = synthesize_large_schema(
            [finance_catalog], finance_catalog.column_count(), None, seed=4
        )
        for edge in merged.fk_edges:
            assert merged.has_column(edge.src_table, edge.src_column)
            assert merged.has_column(edge.dst_table, edge.dst_column)


@pytest.fixture(scope="module")
def bench_env(tmp_path_factory):
    root = build_bench_root(tmp_path_factory.mktemp("bench_root"))
    catalogs = {
        "motorsport": introspect_database(root / "motorsport" / "motorsport.sqlite"),
        "finance": introspect_database(root / "finance" / "finance.sqlite"),
    }
    fixtures = build_suite_fixture_dir(
        tmp_path_factory.mktemp("fixtures"), catalogs
    )
    dataset_path = root / "dataset.json"
    dataset_path.write_text(json.dumps(suite_dataset()), encoding="utf-8")
    return {"root": root, "fixtures": fixtures, "dataset": dataset_path}


class TestLoadDataset:
    def test_bird(self, bench_env):
        items = load_dataset(bench_env["dataset"], "bird")
        assert len(items) == 10
        assert items[0].question_id == "f1_0001"
        assert items[0].gold_sql.startswith("SELECT MIN")

    def test_spider_mapping(self, tmp_path):
        path = tmp_path / "spider.json"
        path.write_text(
            json.dumps([{"db_id": "d", "question": "q", "query": "SELECT 1"}]),
            encoding="utf-8",
        )
        items = load_dataset(path, "spider")
        assert items[0].evidence == ""
        assert items[0].gold_sql == "SELECT 1"

    def test_unknown_format(self, bench_env):
        with pytest.raises(ValueError):
            load_dataset(bench_env["dataset"], "csv")

    def test_unknown_format_of_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError, match="csv"):
            load_dataset(path, "csv")

    @pytest.mark.parametrize("fmt", ["bird", "spider"])
    @pytest.mark.parametrize("missing", ["db_id", "question"])
    def test_row_without_a_required_field(self, tmp_path, fmt, missing):
        path = tmp_path / "rows.json"
        row = {"db_id": "d", "question": "q", "SQL": "SELECT 1"}
        del row[missing]
        path.write_text(json.dumps([dict(row, db_id="d", question="q"), row]), encoding="utf-8")
        with pytest.raises(DatasetError, match=f"row 1 of {path}"):
            load_dataset(path, fmt)

    @pytest.mark.parametrize("qid", ["", ".", "..", "../escaped", "/tmp/x", "a\\b", "a\0b"])
    def test_question_id_that_is_not_a_file_name(self, tmp_path, qid):
        """Each id names a trace file under the output directory."""
        path = tmp_path / "rows.json"
        rows = [{"db_id": "d", "question": "q", "question_id": ok} for ok in ("7", "q_1-2")]
        path.write_text(json.dumps(rows + [dict(rows[0], question_id=qid)]), encoding="utf-8")
        with pytest.raises(DatasetError, match=f"row 2 of {path}.*not a plain file name"):
            load_dataset(path, "bird")
        path.write_text(json.dumps(rows), encoding="utf-8")
        assert [it.question_id for it in load_dataset(path, "bird")] == ["7", "q_1-2"]


class TestResolveDbFile:
    def test_bird_layout(self, bench_env):
        path = resolve_db_file(bench_env["root"], "finance")
        assert path.name == "finance.sqlite"

    def test_missing(self, bench_env):
        with pytest.raises(DatasetError):
            resolve_db_file(bench_env["root"], "ghost")


class TestValidateGold:
    def test_gold_runs_under_the_row_cap(self, bench_env):
        item = BenchmarkItem("cap", "finance", "q", "", "SELECT CustomerID FROM customers")
        config = PipelineConfig(team="CG_only", n_candidates=1, row_cap=2)
        gold = harness.validate_gold(item, bench_env["root"], config)
        assert gold.is_ok() and gold.truncated and len(gold.rows) == 2

    def test_missing_database_is_a_failed_gold(self, bench_env, caplog):
        item = BenchmarkItem("ghost_0001", "ghost", "q", "", "SELECT 1")
        with pytest.raises(DatasetError) as missing:
            resolve_db_file(bench_env["root"], "ghost")
        with caplog.at_level(logging.WARNING, logger="querycrew.harness"):
            gold = harness.validate_gold(
                item, bench_env["root"], PipelineConfig(team="CG_only", n_candidates=1)
            )
        assert gold.status == executor.RUNTIME_ERROR
        assert gold.error_text == str(missing.value)
        assert [r.getMessage() for r in caplog.records] == [
            f"gold SQL for ghost_0001 fails: {missing.value}"
        ]


class TestRunBenchmark:
    def _config(self, team: str) -> PipelineConfig:
        return PipelineConfig(team=team, n_candidates=3 if "UT" in team else 1,
                              n_unit_tests=2)

    def test_ut_team_all_correct(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")
        report = run_benchmark(
            items,
            self._config("IR_CG_UT"),
            out_dir=tmp_path / "out_ut",
            db_root=bench_env["root"],
            mock_dir=bench_env["fixtures"],
        )
        assert report.ex_overall == 1.0
        assert sum(report.counts_by_difficulty.values()) == 10
        assert report.pass_at["pass@1"] == 1.0
        assert report.pass_at["pass@3"] == 1.0
        # 1 keywords + 3 candidates + 1 test gen + 2 evaluations
        assert report.mean_llm_calls == 7.0

    def test_ss_team_all_correct_with_stage_pr(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")
        report = run_benchmark(
            items,
            self._config("IR_SS_CG"),
            out_dir=tmp_path / "out_ss",
            db_root=bench_env["root"],
            mock_dir=bench_env["fixtures"],
        )
        assert report.ex_overall == 1.0
        stages = report.schema_pr_per_stage
        assert set(stages) == {"initial", "filter_column", "select_tables", "select_columns"}
        assert stages["initial"]["column_recall"] == 1.0
        assert (
            stages["select_columns"]["column_precision"]
            >= stages["initial"]["column_precision"]
        )

    def test_subquery_gold_keeps_its_schema_pr(self, bench_env, tmp_path, caplog):
        items = load_dataset(bench_env["dataset"], "bird")
        f1_0005 = next(i for i in items if i.question_id == "f1_0005")
        with caplog.at_level(logging.WARNING, logger="querycrew.harness"):
            run_benchmark(
                [f1_0005], self._config("IR_SS_CG"), tmp_path / "out", bench_env["root"],
                mock_dir=bench_env["fixtures"],
            )
        assert not [r for r in caplog.records if "schema PR skipped" in r.message]

    def test_outputs_written(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")[:2]
        out = tmp_path / "out_files"
        run_benchmark(
            items, self._config("IR_CG_UT"), out, bench_env["root"],
            mock_dir=bench_env["fixtures"],
        )
        assert (out / "report.json").is_file()
        assert (out / "predictions.jsonl").is_file()
        assert (out / "traces" / "f1_0001.jsonl").is_file()
        lines = (out / "predictions.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert row["ex"] == 1

    def test_resume_skips_completed(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")[:3]
        out = tmp_path / "out_resume"
        backend = MockBackend(fixture_dir=bench_env["fixtures"])
        gw = Gateway.single(backend)
        run_benchmark(items, self._config("IR_CG_UT"), out, bench_env["root"], gateway=gw)
        calls_first = backend.calls
        assert calls_first > 0
        report = run_benchmark(
            items, self._config("IR_CG_UT"), out, bench_env["root"], gateway=gw
        )
        assert backend.calls == calls_first  # zero new completions
        assert report.ex_overall == 1.0

    def test_item_failure_recorded_not_fatal(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")[:2]
        # second item gets no scripted responses at all
        responses_root = tmp_path / "partial_fixtures"
        catalogs = {
            "motorsport": introspect_database(
                bench_env["root"] / "motorsport" / "motorsport.sqlite"
            ),
        }
        from e2e_fixtures import suite_responses
        from mock_runs import write_fixture_dir

        selected = {
            k: v for k, v in suite_responses(
                {"motorsport": catalogs["motorsport"], "finance": catalogs["motorsport"]}
            ).items()
            if k[0].startswith("f1_0001")
        }
        write_fixture_dir(selected, responses_root)
        report = run_benchmark(
            items, self._config("IR_CG_UT"), tmp_path / "out_partial",
            bench_env["root"], mock_dir=responses_root,
        )
        assert len(report.outcomes) == 2
        assert report.outcomes[0].ex == 1
        assert report.outcomes[1].ex == 0
        assert report.outcomes[1].error

    def test_failed_item_records_its_calls(self, bench_env, tmp_path, calls):
        item = load_dataset(bench_env["dataset"], "bird")[0]
        # the only candidate does not parse, so the item fails after one call
        responses = {(f"{item.question_id}+generate_candidate+0", "generate_candidate"): ["{"]}
        gw = Gateway.single(MockBackend(responses=responses))
        report = run_benchmark(
            [item], self._config("CG_only"), tmp_path / "out_failed", bench_env["root"],
            gateway=gw,
        )
        outcome = report.outcomes[0]
        assert outcome.error
        assert outcome.llm_calls == 1
        assert outcome.prompt_tokens == calls[0].prompt_tokens > 0
        assert outcome.completion_tokens == calls[0].completion_tokens
        assert report.mean_llm_calls == 1.0

    def test_each_query_executed_once(self, bench_env, tmp_path, monkeypatch):
        from e2e_fixtures import SUITE, suite_responses
        from mock_runs import candidate_response

        catalogs = {
            db: introspect_database(bench_env["root"] / db / f"{db}.sqlite")
            for db in ("motorsport", "finance")
        }
        responses = suite_responses(catalogs)
        for q in SUITE:  # candidate #2 repeats candidate #0's SQL
            responses[(f"{q.question_id}+generate_candidate+2", "generate_candidate")] = [
                candidate_response(q.gold_sql)
            ]
        executed: dict[str, list[str]] = {"harness": [], "pipeline": []}

        class CountingExecutor:
            def __init__(self, side):
                self.side = side

            def __getattr__(self, name):
                return getattr(executor, name)

            def execute(self, db_file, sql, **kwargs):
                executed[self.side].append(sql)
                return executor.execute(db_file, sql, **kwargs)

        for side, module in (("harness", harness), ("pipeline", pipeline)):
            monkeypatch.setattr(module, "executor", CountingExecutor(side))
        items = load_dataset(bench_env["dataset"], "bird")[:3]
        report = run_benchmark(
            items, self._config("IR_CG_UT"), tmp_path / "out_once", bench_env["root"],
            gateway=Gateway.single(MockBackend(responses=responses)),
        )
        assert [o.candidate_ex for o in report.outcomes] == [[1, 0, 1]] * 3
        assert [o.ex for o in report.outcomes] == [1, 1, 1]
        # the harness runs each item's gold SQL once and no candidate
        assert executed["harness"] == [item.gold_sql for item in items]
        # the pipeline runs each distinct candidate SQL once; #2 shares #0's
        # result, and none is revised
        assert executed["pipeline"] == [
            sql for q in SUITE[:3] for sql in (q.gold_sql, q.wrong_sql)
        ]

    @pytest.mark.parametrize(
        ("team", "kept", "ghost", "tail"),
        [
            pytest.param("IR_CG_UT", 0.5, False, b"", id="0.5"),
            pytest.param("IR_CG_UT", 1.0, False, b"", id="1.0"),
            # stage selections of resumed items still count in schema_pr_per_stage
            pytest.param("IR_SS_CG", 0.5, False, b"", id="IR_SS_CG-0.5"),
            pytest.param("IR_SS_CG", 1.0, False, b"", id="IR_SS_CG-1.0"),
            # a row whose database does not exist, among the items that resume
            pytest.param("IR_CG_UT", 0.5, True, b"", id="ghost-0.5"),
            pytest.param("IR_SS_CG", 0.5, True, b"", id="ghost-IR_SS_CG-0.5"),
            # a torn last line that ends in a newline but does not parse
            pytest.param("IR_CG_UT", 0.5, False, b"\n", id="newline-0.5"),
        ],
    )
    def test_killed_and_resumed_matches_uninterrupted(
        self, bench_env, tmp_path, team, kept, ghost, tail
    ):
        items = load_dataset(bench_env["dataset"], "bird")
        if ghost:
            items.insert(1, replace(items[0], question_id="ghost_0001", db_id="ghost"))
        config = self._config(team)
        whole, resumed = tmp_path / "whole", tmp_path / "resumed"
        run_benchmark(items, config, whole, bench_env["root"], mock_dir=bench_env["fixtures"])
        run_benchmark(items[:4], config, resumed, bench_env["root"],
                      mock_dir=bench_env["fixtures"])
        # a kill mid-write leaves part of the fifth line, then `tail`
        fifth = (whole / "predictions.jsonl").read_bytes().split(b"\n")[4]
        with open(resumed / "predictions.jsonl", "ab") as fh:
            fh.write(fifth[: int(len(fifth) * kept)] + tail)
        run_benchmark(items, config, resumed, bench_env["root"], mock_dir=bench_env["fixtures"])
        for name in ("predictions.jsonl", "report.json"):
            assert (resumed / name).read_bytes() == (whole / name).read_bytes()

    def test_resume_introspects_each_database_once(self, bench_env, tmp_path, monkeypatch):
        """At most once, by the set-up that builds its catalog cache: a
        resumed sweep over warm caches introspects no database."""
        items = load_dataset(bench_env["dataset"], "bird")
        config, out = self._config("IR_SS_CG"), tmp_path / "out"
        first = run_benchmark(
            items, config, out, bench_env["root"], mock_dir=bench_env["fixtures"]
        )
        introspected: list[str] = []

        def counting_introspect(db_file):
            introspected.append(db_file.stem)
            return introspect_database(db_file)

        monkeypatch.setattr(pipeline, "introspect_database", counting_introspect)
        resumed = run_benchmark(
            items, config, out, bench_env["root"], mock_dir=bench_env["fixtures"]
        )
        assert introspected == []
        assert resumed.schema_pr_per_stage == first.schema_pr_per_stage != {}

    def test_corrupt_line_before_the_last_raises(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")[:2]
        out = tmp_path / "out_corrupt"
        run_benchmark(items, self._config("IR_CG_UT"), out, bench_env["root"],
                      mock_dir=bench_env["fixtures"])
        lines = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        (out / "predictions.jsonl").write_text(
            lines[0][:-5] + "\n" + lines[1] + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError):
            run_benchmark(items, self._config("IR_CG_UT"), out, bench_env["root"],
                          mock_dir=bench_env["fixtures"])

    def test_broken_database_recorded_not_fatal(self, bench_env, tmp_path):
        root = tmp_path / "root"
        shutil.copytree(bench_env["root"] / "finance", root / "finance")
        (root / "broken").mkdir()
        (root / "broken" / "broken.sqlite").write_bytes(b"not a database " * 100)
        finance = [
            it for it in load_dataset(bench_env["dataset"], "bird") if it.db_id == "finance"
        ]
        broken = BenchmarkItem(
            question_id="broken_0001", db_id="broken", question="q", evidence="",
            gold_sql="SELECT 1",
        )
        report = run_benchmark(
            [finance[0], broken, finance[1]], self._config("IR_CG_UT"), tmp_path / "out",
            root, mock_dir=bench_env["fixtures"],
        )
        assert [o.question_id for o in report.outcomes] == [
            finance[0].question_id, "broken_0001", finance[1].question_id
        ]
        assert [o.ex for o in report.outcomes] == [1, 0, 1]
        assert report.outcomes[1].error
        assert not report.outcomes[0].error and not report.outcomes[2].error

    def test_missing_database_fails_only_its_items(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")
        ghost = replace(items[0], question_id="ghost_0001", db_id="ghost")
        config, out = self._config("IR_SS_CG"), tmp_path / "out"
        without = run_benchmark(
            items, config, tmp_path / "without", bench_env["root"], mock_dir=bench_env["fixtures"]
        )
        with pytest.raises(DatasetError) as missing:
            resolve_db_file(bench_env["root"], "ghost")
        reports = [
            run_benchmark(
                items[:1] + [ghost] + items[1:], config, out, bench_env["root"],
                mock_dir=bench_env["fixtures"],
            )
            for _ in range(2)  # the second run resumes every item
        ]
        for report in reports:
            failed = report.outcomes.pop(1)
            assert (failed.question_id, failed.ex, failed.error) == (
                "ghost_0001", 0, str(missing.value)
            )
            assert report.outcomes == without.outcomes
            assert report.flagged_gold == ["ghost_0001"]
            assert report.schema_pr_per_stage == without.schema_pr_per_stage

    def test_unreadable_resumed_trace_costs_only_its_stage_pr(
        self, bench_env, tmp_path, caplog
    ):
        items = load_dataset(bench_env["dataset"], "bird")
        config, out = self._config("IR_SS_CG"), tmp_path / "out"
        first = run_benchmark(items, config, out, bench_env["root"], mock_dir=bench_env["fixtures"])
        rest = run_benchmark(
            items[1:], config, tmp_path / "rest", bench_env["root"],
            mock_dir=bench_env["fixtures"],
        )
        trace = out / "traces" / f"{items[0].question_id}.jsonl"
        trace.write_bytes(trace.read_bytes()[:40])
        with caplog.at_level(logging.WARNING, logger="querycrew.harness"):
            again = run_benchmark(
                items, config, out, bench_env["root"], mock_dir=bench_env["fixtures"]
            )
        assert again.outcomes == first.outcomes
        assert again.schema_pr_per_stage == rest.schema_pr_per_stage
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"schema PR skipped for {items[0].question_id}"
        ]

    def test_database_gone_before_resume_is_not_fatal(self, bench_env, tmp_path):
        root = tmp_path / "root"
        for db in ("motorsport", "finance"):
            shutil.copytree(bench_env["root"] / db, root / db)
        items = load_dataset(bench_env["dataset"], "bird")
        config, out = self._config("IR_SS_CG"), tmp_path / "out"
        first = run_benchmark(items, config, out, root, mock_dir=bench_env["fixtures"])
        shutil.rmtree(root / "finance")
        again = run_benchmark(items, config, out, root, mock_dir=bench_env["fixtures"])
        assert again.outcomes == first.outcomes
        assert again.flagged_gold == [it.question_id for it in items if it.db_id == "finance"]

    def test_overall_ex_is_mean(self, bench_env, tmp_path):
        items = load_dataset(bench_env["dataset"], "bird")
        report = run_benchmark(
            items, self._config("IR_CG_UT"), tmp_path / "out_mean",
            bench_env["root"], mock_dir=bench_env["fixtures"],
        )
        assert report.ex_overall == pytest.approx(
            sum(o.ex for o in report.outcomes) / len(report.outcomes)
        )


class TestExFromDigests:
    """A candidate's EX is its cluster's digest compared with the gold's."""

    @pytest.mark.parametrize("mode", ["set", "multiset"])
    @pytest.mark.parametrize("team", sorted(pipeline.TEAMS))
    def test_candidate_ex_is_results_match(self, bench_env, tmp_path, monkeypatch, team, mode):
        traces = {}
        run = pipeline.run

        def capture(*args, **kwargs):
            sql, trace = run(*args, **kwargs)
            traces[trace.question_id] = trace
            return sql, trace

        monkeypatch.setattr(pipeline, "run", capture)
        config = PipelineConfig(team=team, n_candidates=3, n_unit_tests=2, compare_mode=mode)
        items = load_dataset(bench_env["dataset"], "bird")
        report = run_benchmark(
            items, config, tmp_path / "out", bench_env["root"], mock_dir=bench_env["fixtures"]
        )
        assert len(traces) == len(items)
        for item, outcome in zip(items, report.outcomes):
            gold = harness.validate_gold(item, bench_env["root"], config)
            assert outcome.candidate_ex == [
                int(executor.results_match(c.exec_result, gold, mode))
                for c in traces[item.question_id].candidates
            ]

    @pytest.mark.parametrize(("mode", "expected"), [("set", [1, 1]), ("multiset", [1, 0])])
    def test_spelling_order_and_duplicates(self, bench_env, tmp_path, mode, expected):
        gold_sql = "SELECT CustomerID, Currency FROM customers WHERE Gender = 'M'"
        item = BenchmarkItem("spell", "finance", "q", "", gold_sql)
        from mock_runs import candidate_response

        candidates = [
            # the gold's rows in reverse order, with the ids spelled as floats
            "SELECT CustomerID * 1.0, Currency FROM customers WHERE Gender = 'M' "
            "ORDER BY CustomerID DESC",
            # the gold's rows plus a duplicate of one of them
            f"{gold_sql} UNION ALL SELECT 1, 'EUR'",
        ]
        responses = {
            (f"spell+generate_candidate+{i}", "generate_candidate"): [candidate_response(sql)]
            for i, sql in enumerate(candidates)
        }
        report = run_benchmark(
            [item], PipelineConfig(team="CG_only", n_candidates=2, compare_mode=mode),
            tmp_path / "out", bench_env["root"],
            gateway=Gateway.single(MockBackend(responses=responses)),
        )
        assert report.outcomes[0].error == ""
        assert report.outcomes[0].candidate_ex == expected

    def test_scoring_canonicalizes_only_the_gold(self, bench_env, tmp_path, monkeypatch):
        counts = {"clustering": 0, "elsewhere": 0}
        clustering = []
        canonicalize, cluster_by_result = executor.canonicalize, pipeline.cluster_by_result

        def counting_canonicalize(rows):
            counts["clustering" if clustering else "elsewhere"] += 1
            return canonicalize(rows)

        def counting_cluster_by_result(*args, **kwargs):
            clustering.append(True)
            try:
                return cluster_by_result(*args, **kwargs)
            finally:
                clustering.pop()

        monkeypatch.setattr(executor, "canonicalize", counting_canonicalize)
        monkeypatch.setattr(pipeline, "cluster_by_result", counting_cluster_by_result)
        items = load_dataset(bench_env["dataset"], "bird")
        report = run_benchmark(
            items, PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=2),
            tmp_path / "out", bench_env["root"], mock_dir=bench_env["fixtures"],
        )
        assert report.ex_overall == 1.0
        # clustering canonicalizes each ok candidate once; scoring adds the gold
        assert counts == {"clustering": 3 * len(items), "elsewhere": len(items)}


def test_broken_gold_flagged(bench_env, tmp_path):
    items = load_dataset(bench_env["dataset"], "bird")[:1]
    broken = BenchmarkItem(
        question_id="bad_gold",
        db_id="finance",
        question="q",
        evidence="",
        gold_sql="SELEC nothing",
    )
    report = run_benchmark(
        items + [broken],
        PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=2),
        out_dir=tmp_path / "out_flagged",
        db_root=bench_env["root"],
        mock_dir=bench_env["fixtures"],
    )
    assert report.flagged_gold == ["bad_gold"]
    bad = [o for o in report.outcomes if o.question_id == "bad_gold"][0]
    assert bad.ex == 0


def test_gold_over_row_cap_flagged(bench_env, tmp_path, caplog):
    gold_sql = "SELECT CustomerID FROM customers"
    item = BenchmarkItem("cap", "finance", "q", "", gold_sql)
    from mock_runs import candidate_response

    # the candidate is the gold itself, truncated the same way, and still
    # cannot score: no result over the cap matches
    responses = {("cap+generate_candidate+0", "generate_candidate"): [
        candidate_response(gold_sql)
    ]}
    with caplog.at_level(logging.WARNING, logger="querycrew.harness"):
        report = run_benchmark(
            [item], PipelineConfig(team="CG_only", n_candidates=1, row_cap=2),
            tmp_path / "out", bench_env["root"],
            gateway=Gateway.single(MockBackend(responses=responses)),
        )
    assert report.flagged_gold == ["cap"]
    assert report.outcomes[0].candidate_ex == [0]
    assert "gold SQL for cap returns over 2 rows" in [r.getMessage() for r in caplog.records]


def test_trace_lines_match_json_dumps(tmp_path):
    """The shared trace encoder writes what `json.dumps(..., ensure_ascii=False)` writes."""
    trace = RunTrace(
        question_id="q_é",
        selected_sql="SELECT name FROM t WHERE city = 'Zürich'",
        selected_index=1,
        llm_calls=2,
        prompt_tokens=17,
        completion_tokens=5,
        stages=[StageRecord("initial", 1, 2, {"t": ["name", "城市"]})],
        records=[
            {"template_id": "extract_keywords", "scenario_key": "q_é+extract_keywords+0",
             "prompt_tokens": 9, "completion_tokens": 3, "text": "naïve \"quoted\"\n\u2028"},
            {"template_id": "generate_candidate", "scenario_key": "q_é+generate_candidate+0",
             "prompt_tokens": 8, "completion_tokens": 2, "score": 0.1 + 0.2, "none": None},
        ],
        candidates=[
            CandidateQuery("SELEC 1", generation_index=0,
                           exec_result=executor.ExecutionResult(executor.SYNTAX_ERROR)),
            CandidateQuery("SELECT name FROM t WHERE city = 'Zürich'", generation_index=1,
                           revision_count=1,
                           exec_result=executor.ExecutionResult(executor.OK, rows=[("a",)])),
        ],
        clusters=[{"fingerprint": "ab", "members": [1], "representative": 1}],
        scores=[0, 2],
        duration_s=0.25,
    )
    path = tmp_path / "trace.jsonl"
    harness._write_trace_jsonl(path, trace)
    summary = trace.to_dict()
    records = summary.pop("records")
    expected = "".join(
        json.dumps(line, ensure_ascii=False) + "\n"
        for line in [{"kind": "summary", **summary}]
        + [{"kind": "llm_call", **record} for record in records]
    )
    assert path.read_bytes() == expected.encode("utf-8")
