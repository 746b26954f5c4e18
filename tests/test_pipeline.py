import dataclasses
import inspect
import itertools
import logging
import re
import sqlite3
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mock_runs import (
    FUNNEL_GOLD_SQL,
    FUNNEL_HINT,
    FUNNEL_QUESTION,
    FUNNEL_YES_COLUMNS,
    candidate_response,
    funnel_responses,
    keyword_response,
    revise_response,
    unit_tests_response,
    verdicts_response,
)

from querycrew import agents, executor, pipeline
from querycrew.agents import CandidateQuery, RetrievedContext, Verdict, build_column_profile
from querycrew.catalog import full_projection, introspect_database, project
from querycrew.context_store import HashingEmbedder, RemoteEmbedder
from querycrew.executor import OK, TIMEOUT, ExecutionResult, execute, fingerprint
from querycrew.gateway import (
    POOL_WIDTH,
    WINDOW,
    Completion,
    Gateway,
    GatewayError,
    HttpChatBackend,
    MockBackend,
    ParseError,
    SamplingParams,
    ledger,
)
from querycrew.pipeline import (
    PipelineConfig,
    PipelineError,
    RunEnv,
    _filter_columns_stage,
    _revise_in_waves,
    build_embedder,
    build_gateway,
    cluster_by_result,
    ensure_artifacts,
    revise_loop,
    run,
    score_and_select,
)
from querycrew.value_index import IndexConfig, _indexed_columns, retrieve_entities


def executed(sql: str, rows, index: int = 0) -> CandidateQuery:
    return CandidateQuery(
        sql=sql,
        generation_index=index,
        exec_result=ExecutionResult(OK, rows=rows),
    )


class TestClusterByResult:
    def test_partition_aab(self):
        cands = [
            executed("q0", [(1,)], 0),
            executed("q1", [(1,)], 1),
            executed("q2", [(2,)], 2),
        ]
        clusters = cluster_by_result(cands)
        assert [c.members for c in clusters] == [[0, 1], [2]]
        assert clusters[0].representative == 0

    def test_all_distinct_singletons(self):
        cands = [executed(f"q{i}", [(i,)], i) for i in range(4)]
        clusters = cluster_by_result(cands)
        assert all(len(c.members) == 1 for c in clusters)

    def test_faults_cluster_by_kind(self):
        cands = [
            CandidateQuery("a", generation_index=0,
                           exec_result=ExecutionResult("syntax_error", error_text="x")),
            CandidateQuery("b", generation_index=1,
                           exec_result=ExecutionResult("syntax_error", error_text="y")),
            CandidateQuery("c", generation_index=2,
                           exec_result=ExecutionResult("runtime_error", error_text="z")),
        ]
        clusters = cluster_by_result(cands)
        assert [sorted(c.members) for c in clusters] == [[0, 1], [2]]

    def test_requires_executed(self):
        with pytest.raises(ValueError):
            cluster_by_result([CandidateQuery("a")])

    def test_order_size_then_representative(self):
        cands = [
            executed("a", [(1,)], 0),
            executed("b", [(2,)], 1),
            executed("c", [(2,)], 2),
        ]
        clusters = cluster_by_result(cands)
        assert [c.members for c in clusters] == [[1, 2], [0]]


def oracle_score_and_select(candidates, verdicts, clusters):
    """Brute-force reference: argmax score, then largest cluster, then lowest
    generation index, scanning candidates exhaustively."""
    size_of = {}
    for c in clusters:
        for pos in c.member_positions:
            size_of[pos] = len(c.members)
    if not verdicts:
        return clusters[0].representative_position
    best = None
    for pos, cand in enumerate(candidates):
        score = sum(1 for row in verdicts if row[pos] is Verdict.PASSED)
        key = (score, size_of[pos], -cand.generation_index)
        if best is None or key > best[0]:
            best = (key, pos)
    return best[1]


class TestScoreAndSelect:
    def test_counting_example(self):
        # candidate-major [[P,P],[P,F],[F,F]] has scores [2,1,0]; transpose
        # to the test-major orientation the function takes
        cands = [executed(f"q{i}", [(i,)], i) for i in range(3)]
        clusters = cluster_by_result(cands)
        cand_major = [
            [Verdict.PASSED, Verdict.PASSED],
            [Verdict.PASSED, Verdict.FAILED],
            [Verdict.FAILED, Verdict.FAILED],
        ]
        test_major = [list(row) for row in zip(*cand_major)]
        assert score_and_select(cands, test_major, clusters) == 0

    def test_tie_breaks_to_largest_cluster(self):
        cands = [
            executed("a", [(1,)], 0),
            executed("b", [(1,)], 1),
            executed("c", [(1,)], 2),
            executed("d", [(9,)], 3),
        ]
        clusters = cluster_by_result(cands)
        verdicts = [[Verdict.PASSED, Verdict.PASSED, Verdict.PASSED, Verdict.PASSED]]
        # candidate 3 ties on score but sits in the singleton cluster
        assert score_and_select(cands, verdicts, clusters) == 0

    def test_zero_tests_largest_cluster_representative(self):
        cands = [
            executed("a", [(1,)], 0),
            executed("b", [(2,)], 1),
            executed("c", [(2,)], 2),
        ]
        clusters = cluster_by_result(cands)
        assert score_and_select(cands, [], clusters) == 1

    def test_dimension_mismatch(self):
        cands = [executed("a", [(1,)], 0)]
        clusters = cluster_by_result(cands)
        with pytest.raises(ValueError):
            score_and_select(cands, [[Verdict.PASSED, Verdict.FAILED]], clusters)

    def test_exhaustive_small_matrices_match_oracle(self):
        for n_cands in (1, 2, 3):
            base = [
                executed(f"q{i}", [(i % 2,)], i) for i in range(n_cands)
            ]
            clusters = cluster_by_result(base)
            for n_tests in (0, 1, 2):
                for bits in itertools.product(
                    [Verdict.PASSED, Verdict.FAILED], repeat=n_cands * n_tests
                ):
                    verdicts = [
                        list(bits[t * n_cands : (t + 1) * n_cands])
                        for t in range(n_tests)
                    ]
                    assert score_and_select(base, verdicts, clusters) == (
                        oracle_score_and_select(base, verdicts, clusters)
                    )


@pytest.fixture()
def funnel_config():
    return PipelineConfig(team="IR_SS_CG", n_candidates=1, n_unit_tests=0)


@pytest.fixture(scope="module")
def motorsport_artifacts(motorsport_db):
    config = PipelineConfig(team="IR_SS_CG", n_candidates=1, n_unit_tests=0)
    return ensure_artifacts(motorsport_db, config)


class TestRevise_loop:
    def _env(self, artifacts, gateway, qid="q"):
        from querycrew.agents import RetrievedContext
        from querycrew.catalog import full_projection

        return RunEnv(
            question=FUNNEL_QUESTION,
            hint=FUNNEL_HINT,
            sub=full_projection(artifacts.catalog),
            context=RetrievedContext(),
            db_file=artifacts.db_file,
            gateway=gateway,
            qid=qid,
        )

    def test_fixed_on_first_attempt(self, motorsport_artifacts, funnel_config):
        gw = Gateway.single(
            MockBackend(
                responses={
                    ("q+revise+0.1", "revise"): [
                        revise_response("SELECT forename FROM drivers")
                    ]
                }
            )
        )
        candidate = CandidateQuery(sql="SELEC forename FROM drivers", generation_index=0)
        candidate.exec_result = execute(motorsport_artifacts.db_file, candidate.sql)
        out = revise_loop(candidate, self._env(motorsport_artifacts, gw), funnel_config)
        assert out.revision_count == 1
        assert out.exec_result.status == OK

    def test_never_fixed_stops_at_cap(self, motorsport_artifacts, funnel_config, calls):
        responses = {
            (f"q+revise+0.{r}", "revise"): [revise_response("SELEC still broken")]
            for r in (1, 2, 3)
        }
        gw = Gateway.single(MockBackend(responses=responses))
        candidate = CandidateQuery(sql="SELEC 1", generation_index=0)
        candidate.exec_result = execute(motorsport_artifacts.db_file, candidate.sql)
        out = revise_loop(candidate, self._env(motorsport_artifacts, gw), funnel_config)
        assert out.revision_count == 3
        assert out.exec_result.status == "syntax_error"
        assert len(calls) == 3

    def test_ok_nonempty_untouched(self, motorsport_artifacts, funnel_config, calls):
        gw = Gateway.single(MockBackend(responses={}))
        candidate = CandidateQuery(sql="SELECT forename FROM drivers", generation_index=0)
        candidate.exec_result = execute(motorsport_artifacts.db_file, candidate.sql)
        out = revise_loop(candidate, self._env(motorsport_artifacts, gw), funnel_config)
        assert out is candidate
        assert out.revision_count == 0
        assert calls == []

    def test_empty_result_triggers_revision(self, motorsport_artifacts, funnel_config):
        gw = Gateway.single(
            MockBackend(
                responses={
                    ("q+revise+0.1", "revise"): [
                        revise_response("SELECT forename FROM drivers")
                    ]
                }
            )
        )
        candidate = CandidateQuery(
            sql="SELECT forename FROM drivers WHERE surname = 'Nobody'",
            generation_index=0,
        )
        candidate.exec_result = execute(motorsport_artifacts.db_file, candidate.sql)
        out = revise_loop(candidate, self._env(motorsport_artifacts, gw), funnel_config)
        assert out.revision_count == 1
        assert out.exec_result.rows


    def test_unparseable_revision_leaves_the_waves(
        self, motorsport_artifacts, funnel_config, calls
    ):
        responses = {
            ("q+revise+0.1", "revise"): ["not json"],
            ("q+revise+1.1", "revise"): [revise_response("SELEC still broken")],
            ("q+revise+1.2", "revise"): [revise_response("SELECT forename FROM drivers")],
        }
        gw = Gateway.single(MockBackend(responses=responses))
        candidates = [CandidateQuery(sql="SELEC 0", generation_index=0),
                      CandidateQuery(sql="SELEC 1", generation_index=1)]
        for candidate in candidates:
            candidate.exec_result = execute(motorsport_artifacts.db_file, candidate.sql)
        first_result = candidates[0].exec_result
        out = _revise_in_waves(candidates, self._env(motorsport_artifacts, gw), funnel_config, {})
        # the unparseable revision keeps its candidate as it was, not executed again
        assert out[0] is candidates[0]
        assert (out[0].sql, out[0].revision_count) == ("SELEC 0", 0)
        assert out[0].exec_result is first_result
        # the other candidate of the same wave goes on until it is fixed
        assert (out[1].revision_count, out[1].exec_result.status) == (2, OK)
        assert [c.scenario_key for c in calls] == ["q+revise+0.1", "q+revise+1.1", "q+revise+1.2"]


class TestRunFunnel:
    def test_stage_sizes_and_selection(self, motorsport_artifacts, funnel_config):
        qid = "f1_0001"
        gw = Gateway.single(
            MockBackend(responses=funnel_responses(motorsport_artifacts.catalog, qid))
        )
        sql, trace = run(
            FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, funnel_config, gw, qid=qid
        )
        assert sql == FUNNEL_GOLD_SQL
        sizes = [(s.stage, s.n_tables, s.n_columns) for s in trace.stages]
        assert sizes == [
            ("initial", 13, 96),
            ("filter_column", 13, 36),
            ("select_tables", 2, 7),
            ("select_columns", 2, 5),
        ]
        final = trace.stages[-1].selection
        assert final == {
            "drivers": ["driverId", "forename"],
            "results": ["resultId", "driverId", "fastestLapTime"],
        }

    def test_call_accounting_ir_ss_cg(self, motorsport_artifacts, funnel_config):
        qid = "f1_0002"
        gw = Gateway.single(
            MockBackend(responses=funnel_responses(motorsport_artifacts.catalog, qid))
        )
        _, trace = run(
            FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, funnel_config, gw, qid=qid
        )
        non_linking = sum(
            len(
                [
                    c
                    for c in t.columns
                    if c.name not in motorsport_artifacts.catalog.linking_columns(t.name)
                ]
            )
            for t in motorsport_artifacts.catalog.tables
        )
        assert non_linking == 64
        # keywords + one filter call per non-linking column + tables + columns + 1 generation
        assert trace.llm_calls == 1 + non_linking + 1 + 1 + 1
        assert trace.llm_calls == len(trace.records)
        assert trace.prompt_tokens == sum(r["prompt_tokens"] for r in trace.records)
        assert trace.revisions_total == 0

    def test_trace_token_totals(self, motorsport_artifacts, funnel_config):
        qid = "f1_0003"
        gw = Gateway.single(
            MockBackend(responses=funnel_responses(motorsport_artifacts.catalog, qid))
        )
        _, trace = run(
            FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, funnel_config, gw, qid=qid
        )
        assert trace.completion_tokens == sum(
            r["completion_tokens"] for r in trace.records
        )


class TestEntityRetrievalWithoutDescriptions:
    def test_cosine_stage_applies(self, motorsport_artifacts, monkeypatch):
        """A database with no description CSVs has an empty context store, and
        entity retrieval still runs the cosine filter with its embedder: the
        LSH candidate "british" scores under a 0.99 threshold for 'Brittish'.
        Their Jaccard is 0.73, so they collide unless all 32 bands miss
        (probability 3e-5), whichever way the gram hash falls."""
        assert len(motorsport_artifacts.context_store) == 0
        found = []

        def recording(*args, **kwargs):
            found.append(retrieve_entities(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(pipeline, "retrieve_entities", recording)
        config = PipelineConfig(
            team="IR_CG_UT", n_candidates=1, n_unit_tests=0,
            disabled_tools=frozenset({"retrieve_context"}),
            index=IndexConfig(cosine_threshold=0.99),
        )
        qid = "ir_0001"
        gw = Gateway.single(MockBackend(responses={
            (f"{qid}+extract_keywords+0", "extract_keywords"): [
                keyword_response(["Brittish"])
            ],
            (f"{qid}+generate_candidate+0", "generate_candidate"): [
                candidate_response("SELECT COUNT(*) FROM drivers")
            ],
        }))
        run("q", "", motorsport_artifacts, config, gw, qid=qid)
        index = motorsport_artifacts.value_index
        unfiltered = retrieve_entities(index, ["Brittish"], cfg=config.index)
        assert "british" in [m.value for m in unfiltered]
        assert found == [[]]


class TestEmbedderFailureAtQueryTime:
    def test_question_completes_without_descriptions(self, tmp_path, monkeypatch, caplog):
        """A remote embedder that fails at query time degrades both retrieval
        stages, each with one warning, and the question still gets its SQL."""
        from fixture_dbs import build_finance_db, build_finance_descriptions
        from test_context_store import EchoSession

        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="IR_CG_UT", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        assert len(built.context_store) > 0
        monkeypatch.setattr(time, "sleep", lambda s: None)
        offline = RemoteEmbedder("http://x", "m", session=EchoSession(fail_first=10**9))
        artifacts = dataclasses.replace(built, context_store=dataclasses.replace(
            built.context_store, embedder=offline))
        qid, sql = "emb_0001", "SELECT COUNT(*) FROM customers WHERE Currency = 'EUR'"
        gw = Gateway.single(MockBackend(responses={
            (f"{qid}+extract_keywords+0", "extract_keywords"): [keyword_response(["EUR"])],
            (f"{qid}+generate_candidate+0", "generate_candidate"): [candidate_response(sql)],
        }))
        with caplog.at_level(logging.WARNING):
            got, trace = run("How many customers pay in euro?", "", artifacts, config, gw, qid=qid)
        assert got == sql and trace.llm_calls == 2
        failed = [r.name for r in caplog.records if "embedder failed" in r.getMessage()]
        assert failed == ["querycrew.value_index", "querycrew.context_store"]


class TestRunUnitTesterTeam:
    def _responses(self, qid):
        correct = "SELECT MIN(fastestLapTime) FROM results WHERE driverId = 1"
        variant = (
            "SELECT MIN(results.fastestLapTime) FROM results WHERE results.driverId = 1"
        )
        wrong = "SELECT MAX(fastestLapTime) FROM results WHERE driverId = 1"
        return {
            (f"{qid}+extract_keywords+0", "extract_keywords"): [
                keyword_response(["Lewis Hamilton", "fastest lap time"])
            ],
            (f"{qid}+generate_candidate+0", "generate_candidate"): [
                candidate_response(correct)
            ],
            (f"{qid}+generate_candidate+1", "generate_candidate"): [
                candidate_response(wrong)
            ],
            (f"{qid}+generate_candidate+2", "generate_candidate"): [
                candidate_response(variant)
            ],
            (f"{qid}+generate_unit_tests+0", "generate_unit_tests"): [
                unit_tests_response(
                    [
                        "The answer SQL query should use MIN to find the fastest lap",
                        "The answer SQL query should filter on the driver id",
                    ]
                )
            ],
            (f"{qid}+evaluate+0", "evaluate_unit_test"): [
                verdicts_response(["Passed", "Failed", "Passed"])
            ],
            (f"{qid}+evaluate+1", "evaluate_unit_test"): [
                verdicts_response(["Passed", "Failed", "Passed"])
            ],
        }

    def test_winner_and_accounting(self, motorsport_artifacts):
        config = PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=2)
        qid = "ut_0001"
        gw = Gateway.single(MockBackend(responses=self._responses(qid)))
        sql, trace = run(
            FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, config, gw, qid=qid
        )
        assert sql == "SELECT MIN(fastestLapTime) FROM results WHERE driverId = 1"
        # 1 keywords + 3 candidates + 1 test generation + 2 evaluations
        assert trace.llm_calls == 1 + 3 + 1 + 2
        assert trace.scores == [2, 0, 2]
        assert trace.selected_index == 0
        assert trace.n_unit_tests == 2
        # full schema is used: no SS stages recorded
        assert [s.stage for s in trace.stages] == ["initial"]

    def test_revisions_recorded_wave_by_wave(self, motorsport_artifacts):
        config = PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=2)
        qid = "ut_0003"
        responses = self._responses(qid)
        # candidate 1 is fixed by its second revision; candidate 2 stays empty
        responses[(f"{qid}+generate_candidate+1", "generate_candidate")] = [
            candidate_response("SELEC 1")
        ]
        responses[(f"{qid}+revise+1.1", "revise")] = [revise_response("SELECT nosuch")]
        responses[(f"{qid}+revise+1.2", "revise")] = [
            revise_response("SELECT MAX(fastestLapTime) FROM results WHERE driverId = 1")
        ]
        responses[(f"{qid}+generate_candidate+2", "generate_candidate")] = [
            candidate_response("SELECT 1 WHERE 0")
        ]
        for r in (1, 2, 3):
            responses[(f"{qid}+revise+2.{r}", "revise")] = [
                revise_response(f"SELECT {r} WHERE 0")
            ]
        gw = Gateway.single(MockBackend(responses=responses))
        _, trace = run(FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, config, gw, qid=qid)
        assert [r["scenario_key"] for r in trace.records] == [
            f"{qid}+extract_keywords+0",
            *[f"{qid}+generate_candidate+{i}" for i in range(3)],
            f"{qid}+revise+1.1",
            f"{qid}+revise+2.1",
            f"{qid}+revise+1.2",
            f"{qid}+revise+2.2",
            f"{qid}+revise+2.3",
            f"{qid}+generate_unit_tests+0",
            f"{qid}+evaluate+0",
            f"{qid}+evaluate+1",
        ]
        assert [c.revision_count for c in trace.candidates] == [0, 2, 3]
        assert trace.revisions_total == 5

    @pytest.mark.parametrize("n_unit_tests, tests", [(0, None), (2, [])])
    def test_no_tests_picks_the_largest_cluster(self, motorsport_artifacts, n_unit_tests, tests):
        """Zero tests asked for, or none returned: the largest cluster's
        representative wins, and no verdict is asked for."""
        qid = "ut_0004"
        responses = self._responses(qid)
        if tests is not None:
            responses[(f"{qid}+generate_unit_tests+0", "generate_unit_tests")] = [
                unit_tests_response(tests)
            ]
        config = PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=n_unit_tests)
        gw = Gateway.single(MockBackend(responses=responses))
        sql, trace = run(FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, config, gw, qid=qid)
        assert sql == "SELECT MIN(fastestLapTime) FROM results WHERE driverId = 1"
        assert trace.selected_index == 0  # clusters {0, 2} and {1}
        assert trace.n_unit_tests == 0
        assert trace.scores == [0, 0, 0]
        assert trace.llm_calls == 1 + 3 + (tests is not None)

    def test_degenerate_single_cluster_skips_ut(self, motorsport_artifacts):
        config = PipelineConfig(team="IR_CG_UT", n_candidates=2, n_unit_tests=5)
        qid = "ut_0002"
        correct = "SELECT MIN(fastestLapTime) FROM results WHERE driverId = 1"
        responses = {
            (f"{qid}+extract_keywords+0", "extract_keywords"): [keyword_response([])],
            (f"{qid}+generate_candidate+0", "generate_candidate"): [
                candidate_response(correct)
            ],
            (f"{qid}+generate_candidate+1", "generate_candidate"): [
                candidate_response(correct + " ")
            ],
        }
        gw = Gateway.single(MockBackend(responses=responses))
        sql, trace = run(
            FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, config, gw, qid=qid
        )
        assert sql.strip() == correct
        assert trace.n_unit_tests == 0
        # keywords + 2 generations only: no test generation, no evaluation
        assert trace.llm_calls == 3
        assert trace.selected_index == 0


class TestRunNonUtSelection:
    def test_first_ok_nonempty_wins(self, motorsport_artifacts):
        config = PipelineConfig(
            team="IR_SS_CG", n_candidates=3, n_unit_tests=0,
            disabled_tools=frozenset(
                {"filter_column", "select_tables", "select_columns", "revise"}
            ),
        )
        qid = "sel_0001"
        responses = {
            (f"{qid}+extract_keywords+0", "extract_keywords"): [keyword_response([])],
            (f"{qid}+generate_candidate+0", "generate_candidate"): [
                candidate_response("SELECT forename FROM drivers WHERE 1 = 0")
            ],
            (f"{qid}+generate_candidate+1", "generate_candidate"): [
                candidate_response("SELECT forename FROM drivers")
            ],
            (f"{qid}+generate_candidate+2", "generate_candidate"): [
                candidate_response("SELECT surname FROM drivers")
            ],
        }
        gw = Gateway.single(MockBackend(responses=responses))
        sql, trace = run("q", "", motorsport_artifacts, config, gw, qid=qid)
        assert sql == "SELECT forename FROM drivers"
        assert trace.selected_index == 1

    def test_all_faulty_returns_first(self, motorsport_artifacts):
        config = PipelineConfig(
            team="CG_only", n_candidates=2, n_unit_tests=0,
            disabled_tools=frozenset({"revise"}),
        )
        qid = "sel_0002"
        responses = {
            (f"{qid}+generate_candidate+0", "generate_candidate"): [
                candidate_response("SELEC broken")
            ],
            (f"{qid}+generate_candidate+1", "generate_candidate"): [
                candidate_response("SELEC also broken")
            ],
        }
        gw = Gateway.single(MockBackend(responses=responses))
        sql, trace = run("q", "", motorsport_artifacts, config, gw, qid=qid)
        assert sql == "SELEC broken"
        assert trace.selected_index == 0


# SQL texts over the motorsport fixture: ok (two spellings of one query),
# empty, syntax error and runtime error
_MEMO_POOL = (
    "SELECT forename FROM drivers WHERE driverId = 1",
    "select forename from drivers where driverId = 1",
    "SELECT MIN(fastestLapTime) FROM results WHERE driverId = 1",
    "SELECT forename FROM drivers WHERE surname = 'Nobody'",
    "SELEC 1",
    "SELECT nosuch FROM drivers",
)


class _CountingExecutor:
    """Stands in for the `executor` module in `pipeline`, recording each SQL
    text it is asked to execute."""

    def __init__(self):
        self.calls: list[str] = []

    def __getattr__(self, name):
        return getattr(executor, name)

    def execute(self, db_file, sql, **kwargs):
        self.calls.append(sql)
        return executor.execute(db_file, sql, **kwargs)


def _run_counted(artifacts, config, responses, qid):
    counter = _CountingExecutor()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "executor", counter)
        gw = Gateway.single(MockBackend(responses=responses))
        _, trace = run("q", "", artifacts, config, gw, qid=qid)
    return counter.calls, trace


class TestExecutionMemo:
    @settings(max_examples=40, deadline=None)
    @given(
        sqls=st.lists(st.sampled_from(_MEMO_POOL), min_size=1, max_size=6),
        script=st.lists(
            st.lists(st.sampled_from(_MEMO_POOL), min_size=3, max_size=3),
            min_size=6, max_size=6,
        ),
    )
    def test_each_distinct_text_executes_once(self, motorsport_artifacts, sqls, script):
        """`script[i][r - 1]` is candidate i's revision r."""
        qid = "memo"
        config = PipelineConfig(team="CG_only", n_candidates=len(sqls), n_unit_tests=0)
        responses = {
            (f"{qid}+generate_candidate+{i}", "generate_candidate"): [candidate_response(sql)]
            for i, sql in enumerate(sqls)
        }
        for i, revisions in enumerate(script):
            for r, sql in enumerate(revisions, start=1):
                responses[(f"{qid}+revise+{i}.{r}", "revise")] = [revise_response(sql)]
        calls, trace = _run_counted(motorsport_artifacts, config, responses, qid)

        # first occurrences run in order: the candidates, then each revision wave
        revised = []
        for record in trace.records:
            if record["template_id"] == "revise":
                i, r = record["scenario_key"].rsplit("+", 1)[1].split(".")
                revised.append(script[int(i)][int(r) - 1])
        assert calls == list(dict.fromkeys(sqls + revised))

        db = motorsport_artifacts.db_file
        fresh = [
            CandidateQuery(sql=c.sql, generation_index=c.generation_index,
                           exec_result=execute(db, c.sql))
            for c in trace.candidates
        ]
        for shared, own in zip(trace.candidates, fresh):
            assert fingerprint(shared.exec_result) == fingerprint(own.exec_result)
        assert trace.clusters == [
            {"fingerprint": c.fingerprint, "members": c.members,
             "representative": c.representative}
            for c in cluster_by_result(fresh, config.compare_mode)
        ]

    def test_copies_of_a_timed_out_query_share_one_timeout(self, motorsport_artifacts):
        qid = "memo_timeout"
        endless = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT count(*) FROM r"
        )
        config = PipelineConfig(
            team="CG_only", n_candidates=3, n_unit_tests=0, execution_timeout_s=0.2,
            disabled_tools=frozenset({"revise"}),
        )
        responses = {
            (f"{qid}+generate_candidate+{i}", "generate_candidate"): [candidate_response(endless)]
            for i in range(3)
        }
        calls, trace = _run_counted(motorsport_artifacts, config, responses, qid)
        assert calls == [endless]
        assert [c.exec_result.status for c in trace.candidates] == [TIMEOUT] * 3
        assert len(trace.clusters) == 1

    def test_revise_loop_shares_the_candidate_result(
        self, motorsport_artifacts, funnel_config, monkeypatch
    ):
        """A revision back to the candidate's own text is not executed again."""
        broken = "SELEC 1"
        gw = Gateway.single(MockBackend(responses={
            ("q+revise+0.1", "revise"): [revise_response(broken)],
            ("q+revise+0.2", "revise"): [revise_response("SELECT nosuch FROM drivers")],
            ("q+revise+0.3", "revise"): [revise_response(broken)],
        }))
        candidate = CandidateQuery(sql=broken, generation_index=0)
        candidate.exec_result = execute(motorsport_artifacts.db_file, broken)
        counter = _CountingExecutor()
        monkeypatch.setattr(pipeline, "executor", counter)
        env = RunEnv(
            FUNNEL_QUESTION, FUNNEL_HINT, full_projection(motorsport_artifacts.catalog),
            RetrievedContext(), motorsport_artifacts.db_file, gw, "q",
        )
        out = revise_loop(candidate, env, funnel_config)
        assert out.revision_count == 3
        assert out.exec_result is candidate.exec_result
        assert counter.calls == ["SELECT nosuch FROM drivers"]


class TestAblationToggles:
    def test_disable_revise_means_zero_revise_calls(self, motorsport_artifacts):
        config = PipelineConfig(
            team="CG_only", n_candidates=1, n_unit_tests=0,
            disabled_tools=frozenset({"revise"}),
        )
        qid = "abl_0001"
        gw = Gateway.single(
            MockBackend(
                responses={
                    (f"{qid}+generate_candidate+0", "generate_candidate"): [
                        candidate_response("SELEC broken")
                    ]
                }
            )
        )
        _, trace = run("q", "", motorsport_artifacts, config, gw, qid=qid)
        assert all(r["template_id"] != "revise" for r in trace.records)
        assert trace.revisions_total == 0

    def test_disable_retrieve_entity(self, motorsport_artifacts):
        config = PipelineConfig(
            team="IR_SS_CG", n_candidates=1, n_unit_tests=0,
            disabled_tools=frozenset(
                {"retrieve_entity", "retrieve_context", "filter_column",
                 "select_tables", "select_columns"}
            ),
        )
        qid = "abl_0002"
        gw = Gateway.single(
            MockBackend(
                responses={
                    (f"{qid}+extract_keywords+0", "extract_keywords"): [
                        keyword_response(["Lewis Hamilton"])
                    ],
                    (f"{qid}+generate_candidate+0", "generate_candidate"): [
                        candidate_response("SELECT forename FROM drivers")
                    ],
                }
            )
        )
        _, trace = run("q", "", motorsport_artifacts, config, gw, qid=qid)
        assert trace.llm_calls == 2

    def test_unknown_toggle_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(disabled_tools=frozenset({"no_such_tool"}))


class TestPipelineConfig:
    def test_roundtrip(self, tmp_path):
        config = PipelineConfig(
            team="IR_SS_CG", n_candidates=1, n_unit_tests=0,
            disabled_tools=frozenset({"revise"}), db_root="/data/dbs",
        )
        path = tmp_path / "config.json"
        config.save(path)
        loaded = PipelineConfig.from_file(path)
        assert loaded.to_dict() == config.to_dict()

    def test_unknown_team(self):
        with pytest.raises(ValueError):
            PipelineConfig(team="UT_only")

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text('{"version": 1, "n_candidate": 5, "team": "IR_CG_UT"}', encoding="utf-8")
        with pytest.raises(ValueError, match="n_candidate"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize("section, value, key", [
        ("embedder", {"kind": "local", "dimenson": 64}, "dimenson"),
        ("embedder", {"kind": "remote", "base_url": "http://e", "modle": "m"}, "modle"),
        ("models", {"default": {"kind": "http", "base_url": "http://m", "modle": "m"}}, "modle"),
        ("models", {"default": {"kind": "mock", "fixture": "fx"}}, "fixture"),
        ("index", {"lsh_band": 4}, "lsh_band"),
        ("disabled_tools", "revise", "disabled_tools"),
    ])
    def test_nested_keys_are_checked_like_top_level_ones(self, section, value, key):
        """A misspelled nested key is an error naming it, not a silent default."""
        payload = {**PipelineConfig().to_dict(), section: value}
        with pytest.raises(ValueError, match=key):
            config = PipelineConfig.from_dict(payload)
            build_embedder(config)
            build_gateway(config)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ValueError):
            PipelineConfig.from_file(path)

    def test_unknown_compare_mode_rejected(self):
        with pytest.raises(ValueError, match="bag"):
            PipelineConfig(compare_mode="bag")
        with pytest.raises(ValueError, match="bag"):
            PipelineConfig.from_dict({**PipelineConfig().to_dict(), "compare_mode": "bag"})

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError, match="n_candidates must be >= 1"):
            PipelineConfig(n_candidates=0)
        with pytest.raises(ValueError, match="n_candidates must be >= 1"):
            PipelineConfig.from_dict({**PipelineConfig().to_dict(), "n_candidates": 0})

    @pytest.mark.parametrize("name, value", [
        ("row_cap", 0), ("row_cap", -1), ("execution_timeout_s", 0.0),
        ("execution_timeout_s", -1.0), ("execution_timeout_s", float("nan")),
        ("generation_temperature", -0.5), ("generation_temperature", float("nan")),
        ("max_tokens", 0), ("n_unit_tests", -1), ("max_revisions", -1), ("context_k", -1),
        ("context_k", float("nan")),
    ])
    def test_values_that_cannot_run_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            PipelineConfig.from_dict({**PipelineConfig().to_dict(), name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    @pytest.mark.parametrize("section, name", [
        (None, "n_candidates"), (None, "row_cap"), ("index", "embed_top_k"),
        ("index", "ngram_size"), ("embedder", "dimension"),
    ])
    def test_integer_fields_take_only_ints(self, section, name, value):
        """3.0 and True pass every bound, but `fetchmany`, `range` and
        `np.zeros` would refuse them later, inside every query or build."""
        build = {None: PipelineConfig, "index": IndexConfig, "embedder": HashingEmbedder}[section]
        with pytest.raises(ValueError, match=name):
            build(**{name: value})
        payload = PipelineConfig().to_dict()
        if section is None:
            payload[name] = value
        else:
            payload[section] = {**payload[section], name: value}
        with pytest.raises(ValueError, match=name):
            build_embedder(PipelineConfig.from_dict(payload))

    def test_ut_with_one_candidate_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            PipelineConfig(team="IR_CG_UT", n_candidates=1)
        assert any("cannot differentiate" in r.message for r in caplog.records)


def _unit_tests(value, catalog):
    cluster = agents.Cluster("f", [0], 0, "SQL: SELECT 1\nResult: 1 rows", [0], 0)
    gw = Gateway.single(MockBackend(responses={
        ("q+generate_unit_tests+0", "generate_unit_tests"): [unit_tests_response(["t"])],
    }))
    env = RunEnv("q", "h", full_projection(catalog), RetrievedContext(), Path(), gw, "q")
    return agents.generate_unit_tests(env, [cluster], value)


# site -> (build it with one integer setting, that setting's name, its lowest value)
INTEGER_SITES = {
    "PipelineConfig": (lambda v, _: PipelineConfig(n_candidates=v), "n_candidates", 1),
    "IndexConfig": (lambda v, _: IndexConfig(embed_top_k=v), "embed_top_k", 0),
    "IndexConfig.permutation_seed": (
        lambda v, _: PipelineConfig.from_dict({"index": {"permutation_seed": v}}),
        "permutation_seed", 0,
    ),
    "embedder": (lambda v, _: HashingEmbedder(dimension=v), "embedding dimension", 1),
    "SamplingParams": (lambda v, _: SamplingParams(n_samples=v), "n_samples", 1),
    "generate_unit_tests": (_unit_tests, "k", 1),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_every_integer_setting_is_checked_alike(site, motorsport_catalog):
    """A non-integral number, a bool and a value below the bound are refused
    with one message wherever an integer setting is taken."""
    build, name, low = INTEGER_SITES[site]
    for value in (2.5, True, low - 1):
        message = f"{name} must be >= {low} and an int, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(value, motorsport_catalog)
    build(low, motorsport_catalog)


@pytest.mark.parametrize("value", [None, "13", -5])
def test_permutation_seed_that_would_alias_or_draw_entropy_is_refused(value):
    """`random.Random` seeds from the OS on None and takes abs() of an int,
    so either would load a cached index under salts it was not built with."""
    message = f"permutation_seed must be >= 0 and an int, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig.from_dict({"index": {"permutation_seed": value}})


class TestBuildBackends:
    def test_mock_responses_read_from_a_config_file_are_refused(self, tmp_path):
        models = {"default": {"kind": "mock", "responses": {"k": ["x"]}}}
        PipelineConfig(models=models).save(tmp_path / "config.json")
        config = PipelineConfig.from_file(tmp_path / "config.json")
        with pytest.raises(TypeError, match="pair of strings"):
            build_gateway(config)

    def test_models_bind_a_mock_backend_per_tool(self, tmp_path):
        config = PipelineConfig(models={
            "filter_column": {"kind": "mock", "fixture_dir": str(tmp_path)},
            "default": {"kind": "mock"},
        })
        gw = build_gateway(config)
        cheap, default = gw.backends["filter_column"], gw.backends["default"]
        assert isinstance(cheap, MockBackend) and isinstance(default, MockBackend)
        assert cheap.fixture_dir == tmp_path and default.fixture_dir is None
        assert gw.backend_for("filter_column") is cheap
        assert gw.backend_for("select_tables") is default

    def test_http_spec(self):
        config = PipelineConfig(models={"default": {
            "kind": "http", "base_url": "http://llm.local/v1/", "model": "m",
            "api_key_env": "MY_KEY",
        }})
        backend = build_gateway(config).backend_for("revise")
        assert isinstance(backend, HttpChatBackend)
        assert (backend.base_url, backend.model, backend.api_key_env) == (
            "http://llm.local/v1", "m", "MY_KEY"
        )

    def test_unknown_backend_kind(self):
        with pytest.raises(ValueError, match="unknown backend kind 'grpc'"):
            build_gateway(PipelineConfig(models={"default": {"kind": "grpc"}}))

    def test_remote_embedder(self):
        config = PipelineConfig(embedder={
            "kind": "remote", "base_url": "http://emb.local/", "model": "e",
            "dimension": 8, "api_key_env": "EMB_KEY",
        })
        embedder = build_embedder(config)
        assert isinstance(embedder, RemoteEmbedder)
        assert (embedder.base_url, embedder.model, embedder.dimension, embedder.api_key_env) == (
            "http://emb.local", "e", 8, "EMB_KEY"
        )

    def test_unknown_embedder_kind(self):
        with pytest.raises(ValueError, match="unknown embedder kind 'magic'"):
            build_embedder(PipelineConfig(embedder={"kind": "magic"}))

    def test_unset_keys_keep_the_constructor_defaults(self):
        def default(cls, name):
            return inspect.signature(cls).parameters[name].default

        http = PipelineConfig(models={"default": {"kind": "http", "base_url": "http://llm.local"}})
        backend = build_gateway(http).backend_for("revise")
        assert backend.api_key_env == default(HttpChatBackend, "api_key_env")
        local = build_embedder(PipelineConfig(embedder={"kind": "local"}))
        assert local.dimension == default(HashingEmbedder, "dimension")
        remote = build_embedder(
            PipelineConfig(embedder={"kind": "remote", "base_url": "http://emb.local"})
        )
        assert (remote.dimension, remote.api_key_env) == (
            default(RemoteEmbedder, "dimension"), default(RemoteEmbedder, "api_key_env")
        )


class TestGenerationFailure:
    def test_all_unparseable_is_pipeline_error(self, motorsport_artifacts):
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        gw = Gateway.single(
            MockBackend(responses={("pe+generate_candidate+0", "generate_candidate"): ["junk"]})
        )
        with pytest.raises(PipelineError):
            run("q", "", motorsport_artifacts, config, gw, qid="pe")


class TestArtifactCaching:
    def test_cache_hit_and_invalidation(self, tmp_path):
        import sys

        sys.path.insert(0, "tests")
        from fixture_dbs import build_finance_db

        db = build_finance_db(tmp_path / "finance.sqlite")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        ensure_artifacts(db, config)
        index_cache = tmp_path / "finance.value_index.qcx"
        store_cache = tmp_path / "finance.context_store.qcx"
        assert index_cache.is_file() and store_cache.is_file()
        stamp = index_cache.stat().st_mtime_ns

        again = ensure_artifacts(db, config)
        assert index_cache.stat().st_mtime_ns == stamp  # cache hit, no rewrite
        assert len(again.value_index) > 0

        other = PipelineConfig.from_dict(
            {**config.to_dict(), "index": {"permutation_seed": 99}}
        )
        rebuilt = ensure_artifacts(db, other)
        assert index_cache.stat().st_mtime_ns != stamp  # config change invalidates
        assert rebuilt.value_index.config.permutation_seed == 99

    def test_truncated_cache_loads_as_none_and_rebuilds(self, tmp_path):
        import json

        from fixture_dbs import build_finance_db

        from querycrew.caching import VALUE_INDEX_MAGIC, load_envelope

        db = build_finance_db(tmp_path / "finance.sqlite")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        index_cache = tmp_path / "finance.value_index.qcx"
        whole = index_cache.read_bytes()
        size_at = len(VALUE_INDEX_MAGIC) + 1  # magic line, then an 8-byte header size
        header_end = size_at + 8 + int.from_bytes(whole[size_at : size_at + 8], "big")
        header = json.loads(whole[size_at + 8 : header_end])["key"]
        cuts = [0, 4, size_at, size_at + 3, header_end - 3, header_end, header_end + 1,
                (header_end + len(whole)) // 2, len(whole) - 1]
        for cut in cuts:
            index_cache.write_bytes(whole[:cut])
            assert load_envelope(index_cache, VALUE_INDEX_MAGIC, header) is None, cut
            again = ensure_artifacts(db, config)
            assert index_cache.read_bytes() == whole, cut
            assert again.value_index.values == built.value_index.values

    @pytest.mark.parametrize("kind", ["value_index", "context_store", "catalog"])
    def test_payload_that_does_not_decode_is_rebuilt(self, tmp_path, kind):
        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        cache = tmp_path / f"finance.{kind}.qcx"
        whole = cache.read_bytes()
        size_at = whole.index(b"\n") + 1
        header_end = size_at + 8 + int.from_bytes(whole[size_at : size_at + 8], "big")
        # a payload whose header still matches, but that is neither JSON nor the arrays
        cache.write_bytes(whole[:header_end] + b"cquerycrew.value_index\nNoSuchClass\n.")
        again = ensure_artifacts(db, config)
        assert cache.read_bytes() == whole
        assert again.value_index.values == built.value_index.values
        assert again.context_store.items == built.context_store.items != []

    def test_catalog_payload_that_does_not_validate_is_rebuilt(self, tmp_path):
        import json

        from fixture_dbs import build_finance_db

        db = build_finance_db(tmp_path / "finance.sqlite")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        cache = tmp_path / "finance.catalog.qcx"
        whole = cache.read_bytes()
        size_at = whole.index(b"\n") + 1
        header_end = size_at + 8 + int.from_bytes(whole[size_at : size_at + 8], "big")
        payload = json.loads(whole[header_end:])
        payload["tables"][0]["columns"][0]["is_pk"] = not payload["tables"][0]["columns"][0]["is_pk"]
        cache.write_bytes(whole[:header_end] + json.dumps(payload).encode())
        again = ensure_artifacts(db, config)
        assert cache.read_bytes() == whole
        assert again.catalog.to_json_dict() == built.catalog.to_json_dict()

    def test_save_leaves_no_temporary_file(self, tmp_path):
        from fixture_dbs import build_finance_db

        db = build_finance_db(tmp_path / "finance.sqlite")
        ensure_artifacts(db, PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "finance.catalog.qcx", "finance.context_store.qcx", "finance.sqlite",
            "finance.value_index.qcx",
        ]

    def test_edited_description_reaches_the_context_store(self, tmp_path):
        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        desc = build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        ensure_artifacts(db, config)
        district = desc / "district.csv"
        district.write_text(
            district.read_text(encoding="utf-8").replace("name of the district", "EDITED TEXT"),
            encoding="utf-8",
        )
        again = ensure_artifacts(db, config)
        assert again.catalog.column("district", "A2").column_description == "EDITED TEXT"
        texts = [item.text for item in again.context_store.items]
        assert any("EDITED TEXT" in t for t in texts)
        assert not any("name of the district" in t for t in texts)

    @pytest.mark.parametrize("change", ["add", "remove"])
    def test_description_file_set_rebuilds_catalog_and_store_only(self, tmp_path, change):
        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        desc = build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        stamps = {
            kind: (tmp_path / f"finance.{kind}.qcx").stat().st_mtime_ns
            for kind in ("catalog", "context_store", "value_index")
        }
        if change == "add":
            (desc / "client.csv").write_text(
                "original_column_name,column_name,column_description,data_format,"
                "value_description\nClientID,client id,identifier of the client,integer,\n",
                encoding="utf-8",
            )
        else:
            (desc / "customers.csv").unlink()
        time.sleep(0.01)  # a rewrite within the clock's resolution would keep its stamp
        again = ensure_artifacts(db, config)
        for kind in ("catalog", "context_store"):
            assert (tmp_path / f"finance.{kind}.qcx").stat().st_mtime_ns != stamps[kind], kind
        assert (tmp_path / "finance.value_index.qcx").stat().st_mtime_ns == stamps["value_index"]
        assert again.value_index.values == built.value_index.values
        assert again.catalog.to_json_dict() != built.catalog.to_json_dict()

    def test_unreadable_description_file_is_skipped(self, tmp_path, caplog):
        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        desc = build_finance_descriptions(tmp_path / "database_description")
        (desc / "customers.csv").unlink()
        (desc / "customers.csv").mkdir()  # matches a table, but cannot be read
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        with caplog.at_level(logging.WARNING):
            built = ensure_artifacts(db, config)
        assert any("cannot read" in r.message for r in caplog.records)
        assert built.catalog.column("district", "A11").expanded_name == "average salary"
        assert built.catalog.column("customers", "Gender").expanded_name is None

    def test_warm_call_introspects_nothing(self, tmp_path, monkeypatch):
        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        calls = []

        def counting(db_file):
            calls.append(db_file)
            return introspect_database(db_file)

        monkeypatch.setattr(pipeline, "introspect_database", counting)
        built = ensure_artifacts(db, config)
        assert len(calls) == 1
        again = ensure_artifacts(db, config)
        assert len(calls) == 1
        assert again.catalog.to_json_dict() == built.catalog.to_json_dict()
        assert again.catalog.column("district", "A11").expanded_name == "average salary"

    def test_catalog_cache_with_sample_values_loads(self, tmp_path, monkeypatch):
        """A catalog cache whose columns still hold `"sample_values": []`, as
        every one did before that field was removed, is a hit."""
        import json

        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        cache = tmp_path / "finance.catalog.qcx"
        whole = cache.read_bytes()
        size_at = whole.index(b"\n") + 1
        header_end = size_at + 8 + int.from_bytes(whole[size_at : size_at + 8], "big")
        payload = json.loads(whole[header_end:])
        for table in payload["tables"]:
            for column in table["columns"]:
                column["sample_values"] = []
        cache.write_bytes(whole[:header_end] + json.dumps(payload).encode())
        stamp = cache.stat().st_mtime_ns
        calls = []

        def counting(db_file):
            calls.append(db_file)
            return introspect_database(db_file)

        monkeypatch.setattr(pipeline, "introspect_database", counting)
        again = ensure_artifacts(db, config)
        assert calls == []
        assert cache.stat().st_mtime_ns == stamp
        assert again.catalog == built.catalog

    def test_catalog_cache_with_fk_targets_loads(self, tmp_path, monkeypatch):
        """A catalog cache whose columns still hold `fk_targets`, each FK
        column's "table.column" targets, as every one did before that field
        was removed, is a hit."""
        import json

        from fixture_dbs import build_finance_db, build_finance_descriptions

        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        assert built.catalog.fk_edges
        cache = tmp_path / "finance.catalog.qcx"
        whole = cache.read_bytes()
        size_at = whole.index(b"\n") + 1
        header_end = size_at + 8 + int.from_bytes(whole[size_at : size_at + 8], "big")
        payload = json.loads(whole[header_end:])
        for table in payload["tables"]:
            for column in table["columns"]:
                column["fk_targets"] = [
                    f"{edge.dst_table}.{edge.dst_column}"
                    for edge in built.catalog.edges_from(table["name"])
                    if edge.src_column == column["name"]
                ]
        cache.write_bytes(whole[:header_end] + json.dumps(payload, indent=1).encode())
        stamp = cache.stat().st_mtime_ns
        calls = []

        def counting(db_file):
            calls.append(db_file)
            return introspect_database(db_file)

        monkeypatch.setattr(pipeline, "introspect_database", counting)
        again = ensure_artifacts(db, config)
        assert calls == []
        assert cache.stat().st_mtime_ns == stamp
        assert again.catalog == built.catalog

    def test_store_cache_with_the_old_header_is_rebuilt_once(self, tmp_path):
        from fixture_dbs import build_finance_db, build_finance_descriptions

        from querycrew.caching import (
            CONTEXT_STORE_MAGIC, VALUE_INDEX_MAGIC, config_hash, file_sha256, load_envelope,
            save_envelope,
        )

        db = build_finance_db(tmp_path / "finance.sqlite")
        build_finance_descriptions(tmp_path / "database_description")
        config = PipelineConfig(team="CG_only", n_candidates=1, n_unit_tests=0)
        built = ensure_artifacts(db, config)
        index_cache = tmp_path / "finance.value_index.qcx"
        store_cache = tmp_path / "finance.context_store.qcx"
        # the index's key, and the store's header from before descriptions
        # were part of its key
        db_hash = file_sha256(db)
        index_key = {"db": db_hash, "config": config_hash(config.index.build_dict()),
                     "columns": config_hash(_indexed_columns(built.catalog))}
        old_store = {"db": db_hash, "config": config_hash({"embedder": config.embedder,
                                                           "k": "context"})}
        assert load_envelope(index_cache, VALUE_INDEX_MAGIC, index_key) is not None
        stale = dataclasses.replace(built.context_store, items=[],
                                    vectors=built.context_store.vectors[:0])
        save_envelope(store_cache, CONTEXT_STORE_MAGIC, old_store, *stale.to_parts())
        index_stamp = index_cache.stat().st_mtime_ns

        again = ensure_artifacts(db, config)
        assert again.context_store.items == built.context_store.items != []
        assert load_envelope(store_cache, CONTEXT_STORE_MAGIC, old_store) is None
        store_stamp = store_cache.stat().st_mtime_ns
        ensure_artifacts(db, config)
        assert store_cache.stat().st_mtime_ns == store_stamp  # rebuilt once, then a hit
        assert index_cache.stat().st_mtime_ns == index_stamp

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        from querycrew.caching import load_envelope, save_envelope

        path = tmp_path / "x.qcx"
        save_envelope(path, b"MAGIC", {"v": 1}, [1, 2, 3])
        with pytest.raises(RuntimeError, match="refused"):  # after the header is written
            save_envelope(path, b"MAGIC", {"v": 2}, [4], {"a": _Unwritable()})
        assert load_envelope(path, b"MAGIC", {"v": 1}) == ([1, 2, 3], {})
        assert [p.name for p in tmp_path.iterdir()] == ["x.qcx"]


class _Unwritable:
    """Looks like an array to the table of contents, but refuses to be written."""
    dtype, shape, nbytes = np.dtype(np.uint8), (4,), 4

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("refused")


class TestFunnelMonotonicityAdversarialMock:
    def test_column_counts_never_grow(self, motorsport_artifacts):
        import random as _random

        from mock_runs import filter_responses, json_payload

        rng = _random.Random(31)
        catalog = motorsport_artifacts.catalog
        config = PipelineConfig(team="IR_SS_CG", n_candidates=1, n_unit_tests=0)
        all_cols = [
            (t.name, c.name) for t in catalog.tables for c in t.columns
        ]
        for trial in range(10):
            qid = f"adv_{trial:02d}"
            yes = {
                pair for pair in all_cols if rng.random() < 0.4
            }
            tables = [t.name for t in catalog.tables if rng.random() < 0.5]
            col_request = {}
            for t in tables:
                cols = catalog.table(t).column_names()
                col_request[t] = [c for c in cols if rng.random() < 0.3] + (
                    ["made_up_column"] if rng.random() < 0.5 else []
                )
            responses = {
                (f"{qid}+extract_keywords+0", "extract_keywords"): ["[]"],
                (f"{qid}+select_tables+0", "select_tables"): [
                    json_payload(table_names=tables + ["ghost_table"])
                ],
                (f"{qid}+select_columns+0", "select_columns"): [
                    json_payload(**col_request)
                ],
                (f"{qid}+generate_candidate+0", "generate_candidate"): [
                    candidate_response("SELECT 1")
                ],
            }
            responses.update(filter_responses(catalog, qid, yes))
            gw = Gateway.single(MockBackend(responses=responses))
            _, trace = run("q", "h", motorsport_artifacts, config, gw, qid=qid)
            counts = [s.n_columns for s in trace.stages]
            assert counts == sorted(counts, reverse=True), counts
            assert trace.stages[0].n_columns == 96


class TestFullTeam:
    def test_ir_ss_cg_ut_combined(self, motorsport_artifacts):
        from mock_runs import (
            FUNNEL_GOLD_SQL,
            funnel_responses,
            unit_tests_response,
            verdicts_response,
        )

        config = PipelineConfig(team="IR_SS_CG_UT", n_candidates=2, n_unit_tests=1)
        qid = "full_0001"
        wrong = "SELECT MAX(fastestLapTime) FROM results WHERE driverId = 1"
        responses = funnel_responses(motorsport_artifacts.catalog, qid)
        responses[(f"{qid}+generate_candidate+1", "generate_candidate")] = [
            candidate_response(wrong)
        ]
        responses[(f"{qid}+generate_unit_tests+0", "generate_unit_tests")] = [
            unit_tests_response(["The answer SQL query should use MIN"])
        ]
        responses[(f"{qid}+evaluate+0", "evaluate_unit_test")] = [
            verdicts_response(["Passed", "Failed"])
        ]
        gw = Gateway.single(MockBackend(responses=responses))
        sql, trace = run(
            FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, config, gw, qid=qid
        )
        assert sql == FUNNEL_GOLD_SQL
        assert [s.stage for s in trace.stages] == [
            "initial", "filter_column", "select_tables", "select_columns",
        ]
        # keywords + 64 filters + tables + columns + 2 candidates + 1 testgen + 1 eval
        assert trace.llm_calls == 1 + 64 + 1 + 1 + 2 + 1 + 1


class _BarrierMock(MockBackend):
    """A mock whose keyword calls wait until `parties` of them are out."""

    def __init__(self, responses, parties: int):
        super().__init__(responses=responses)
        self.barrier = threading.Barrier(parties, timeout=5)

    def complete(self, prompt, params, template_id, scenario_key):
        if template_id == "extract_keywords":
            self.barrier.wait()
        return super().complete(prompt, params, template_id, scenario_key)


class TestSharedGateway:
    def test_concurrent_runs_trace_as_if_solo(self, motorsport_artifacts):
        """Two questions run at once on one gateway, from two threads: each
        trace holds exactly the calls and tokens of the same run alone."""
        config = PipelineConfig(team="IR_SS_CG_UT", n_candidates=2, n_unit_tests=1)
        responses = {}
        for qid in ("c_0001", "c_0002"):
            responses.update(funnel_responses(motorsport_artifacts.catalog, qid))
            responses[(f"{qid}+generate_candidate+1", "generate_candidate")] = [
                candidate_response("SELECT MAX(fastestLapTime) FROM results WHERE driverId = 1")
            ]
            responses[(f"{qid}+generate_unit_tests+0", "generate_unit_tests")] = [
                unit_tests_response(["The answer SQL query should use MIN"])
            ]
            responses[(f"{qid}+evaluate+0", "evaluate_unit_test")] = [
                verdicts_response(["Passed", "Failed"])
            ]

        def accounting(gw, qid):
            _, trace = run(FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, config, gw, qid=qid)
            return (trace.records, trace.llm_calls, trace.prompt_tokens, trace.completion_tokens)

        solo = [accounting(Gateway.single(_BarrierMock(responses, 1)), q) for q in ("c_0001", "c_0002")]
        shared = Gateway.single(_BarrierMock(responses, 2))
        with ThreadPoolExecutor(max_workers=2) as pool:
            both = [pool.submit(accounting, shared, q) for q in ("c_0001", "c_0002")]
            assert [f.result() for f in both] == solo
        assert solo[0][1] == 1 + 64 + 1 + 1 + 2 + 1 + 1


class _FilterSession:
    """Fake HTTP session for a cheap filter model: answers Yes for the funnel's
    relevant columns and No otherwise, and counts requests in flight."""

    def __init__(self, yes_columns):
        self.yes = yes_columns
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def post(self, url, json, **kwargs):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        prompt = json["messages"][0]["content"]
        # the profile follows the few-shot examples, which have profiles too
        column = (
            re.findall(r"Table name: (\w+)", prompt)[-1],
            re.findall(r"Original column name: (\w+)", prompt)[-1],
        )
        answer = "Yes" if column in self.yes else "No"
        time.sleep(0.002)
        with self.lock:
            self.in_flight -= 1
        return _FilterResponse(f'{{"is_column_information_relevant": "{answer}"}}')


class _FilterResponse:
    status_code = 200

    def __init__(self, content):
        self.content = content

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


def _non_linking(catalog, sub):
    return [
        (table, column)
        for table in sub.table_names()
        for column in sub.selection[table]
        if column not in catalog.linking_columns(table)
    ]


class TestFilterFanOut:
    def test_http_filter_backend_pool_bound_and_record_order(
        self, motorsport_artifacts, funnel_config, calls
    ):
        qid = "f1_0009"
        catalog = motorsport_artifacts.catalog
        session = _FilterSession(FUNNEL_YES_COLUMNS)
        gw = Gateway(
            backends={
                "filter_column": HttpChatBackend("http://x", "m", session=session),
                "default": MockBackend(responses=funnel_responses(catalog, qid)),
            }
        )
        sql, trace = run(FUNNEL_QUESTION, FUNNEL_HINT, motorsport_artifacts, funnel_config, gw, qid=qid)
        assert 1 < session.peak <= POOL_WIDTH
        assert [r.scenario_key for r in calls if r.template_id == "filter_column"] == [
            f"{qid}+filter_column+{t}.{c}" for t, c in _non_linking(catalog, full_projection(catalog))
        ]
        assert sql == FUNNEL_GOLD_SQL
        assert (trace.stages[1].n_tables, trace.stages[1].n_columns) == (13, 36)


    def test_profiles_are_built_a_window_ahead_of_the_calls(self, wide_catalog, monkeypatch):
        """The stage sends its columns as one batch, and a column's profile is
        built only when the gateway reads its window: a call of window k runs
        after window k is read and before window k + 2 is."""
        built = []

        def counting_profile(*args):
            built.append(args[1:3])
            return build_column_profile(*args)

        class SeesProfiles:
            backend_id = "sees-profiles"

            def __init__(self):
                self.seen = {}

            def complete(self, prompt, params, template_id, scenario_key):
                self.seen[scenario_key] = len(built)
                return [Completion('{"is_column_information_relevant": "No"}', 1, 1, "x")]

        monkeypatch.setattr(agents, "build_column_profile", counting_profile)
        backend = SeesProfiles()
        sub = full_projection(wide_catalog)
        env = RunEnv("q", "h", sub, RetrievedContext(), Path(), Gateway.single(backend), "w")
        assert _filter_columns_stage(env) == {t: [] for t in sub.table_names()}
        n = len(_non_linking(wide_catalog, sub))
        assert n > 2 * WINDOW
        assert built == _non_linking(wide_catalog, sub)
        assert len(backend.seen) == n
        for i, (t, c) in enumerate(built):
            k = i // WINDOW
            seen = backend.seen[f"w+filter_column+{t}.{c}"]
            assert min(n, (k + 1) * WINDOW) <= seen <= min(n, (k + 2) * WINDOW)


WIDE_TABLES, WIDE_COLUMNS = 3, 100
FILTER_ANSWERS = {
    "Yes": '{"chain_of_thought_reasoning": "r", "is_column_information_relevant": "Yes"}',
    "No": '{"is_column_information_relevant": "No"}',
    "garbled": "the column might matter",
    "error": None,  # no scripted response: the mock raises a GatewayError
}


@pytest.fixture(scope="module")
def wide_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide") / "wide.sqlite"
    conn = sqlite3.connect(path)
    columns = ", ".join(f"c{i} TEXT" for i in range(WIDE_COLUMNS))
    for t in range(WIDE_TABLES):
        conn.execute(f"CREATE TABLE t{t} (id INTEGER PRIMARY KEY, {columns})")
    conn.close()
    return introspect_database(path)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append((record.name, record.levelno, record.getMessage()))


def _filter_one_by_one(catalog, sub, gw, qid):
    """The column filter as one call after another, each raising its own
    parse failure: the stage's behaviour before its calls were batched."""
    requested = {}
    for table in sub.table_names():
        kept = []
        for column in sub.selection[table]:
            if column in catalog.linking_columns(table):
                continue
            bindings = {
                "COLUMN_PROFILE": build_column_profile(catalog, table, column, RetrievedContext()),
                "QUESTION": FUNNEL_QUESTION,
                "HINT": FUNNEL_HINT,
            }
            try:
                payload = gw.structured(
                    "filter_column", bindings, SamplingParams(temperature=0.0),
                    f"{qid}+filter_column+{table}.{column}",
                )
            except ParseError:
                logging.getLogger("querycrew.agents").warning(
                    "filter_column unparseable for %s.%s; keeping column", table, column
                )
                kept.append(column)
                continue
            if str(payload.get("is_column_information_relevant", "Yes")).strip().lower() != "no":
                kept.append(column)
        requested[table] = kept
    return requested


class TestFilterStageMatchesOneByOne:
    @settings(max_examples=60, deadline=None)
    @given(
        n_columns=st.integers(0, WIDE_TABLES * WIDE_COLUMNS),
        special=st.dictionaries(
            st.integers(0, WIDE_TABLES * WIDE_COLUMNS - 1),
            st.sampled_from(["Yes", "garbled", "error"]),
            max_size=8,
        ),
    )
    @example(n_columns=WINDOW + 1, special={WINDOW: "error", 3: "garbled"})
    @example(n_columns=WINDOW + 40, special={WINDOW + 1: "garbled", WINDOW + 30: "error"})
    @example(n_columns=2 * WINDOW, special={WINDOW - 1: "garbled", 2 * WINDOW - 1: "error"})
    @example(n_columns=2 * WINDOW + 1, special={2 * WINDOW: "Yes", WINDOW + 9: "error"})
    def test_chunked_stage_matches_one_by_one(self, wide_catalog, n_columns, special):
        """Kept columns, call records, the prompt log, WARNING records and a
        raised backend error are those of a one-by-one filter, whatever the
        column count and wherever the answers fall among windows and chunks."""
        everything = _non_linking(wide_catalog, full_projection(wide_catalog))
        chosen = everything[:n_columns]
        requested = {t.name: [c for tt, c in chosen if tt == t.name] for t in wide_catalog.tables}
        sub = project(wide_catalog, requested)
        qid = "w_0001"
        responses = {}
        for i, (table, column) in enumerate(chosen):
            text = FILTER_ANSWERS[special.get(i, "No")]
            if text is not None:
                responses[(f"{qid}+filter_column+{table}.{column}", "filter_column")] = [text]

        handler = _Records()
        agents_logger = logging.getLogger("querycrew.agents")
        agents_logger.addHandler(handler)
        outcomes = []
        try:
            with tempfile.TemporaryDirectory() as tmp:
                for name, stage in (
                    ("one_by_one", lambda gw: _filter_one_by_one(wide_catalog, sub, gw, qid)),
                    ("chunked", lambda gw: _filter_columns_stage(RunEnv(
                        FUNNEL_QUESTION, FUNNEL_HINT, sub, RetrievedContext(), Path(), gw, qid,
                    ))),
                ):
                    log = Path(tmp) / f"{name}.jsonl"
                    gw = Gateway.single(MockBackend(responses=responses), log_path=log)
                    handler.records = []
                    with ledger() as records:
                        try:
                            result = stage(gw)
                        except GatewayError as exc:
                            result = ("GatewayError", str(exc))
                    outcomes.append((
                        result,
                        [(r.template_id, r.scenario_key, r.backend_id, r.n_samples,
                          r.prompt_tokens, r.completion_tokens) for r in records],
                        log.read_bytes() if log.exists() else b"",
                        handler.records,
                    ))
        finally:
            agents_logger.removeHandler(handler)
        assert outcomes[1] == outcomes[0]
