import json
import logging
from pathlib import Path

import pytest

from querycrew.agents import (
    CandidateQuery,
    Cluster,
    GenerationError,
    RetrievedContext,
    RunEnv,
    UnitTest,
    Verdict,
    build_column_profile,
    evaluate_against_test,
    extract_keywords,
    filter_column,
    generate_candidate,
    generate_unit_tests,
    revise,
    select_columns,
    select_tables,
)
from querycrew.catalog import full_projection, project
from querycrew.executor import FaultReport
from querycrew.gateway import Gateway, MockBackend, SamplingParams
from querycrew.value_index import EntityMatch


def gw_with(responses):
    return Gateway.single(MockBackend(responses=responses))


QUESTION = "What's the fastest lap time ever in a race for Lewis Hamilton?"
HINT = "fastest lap time ever refers to min(fastestLapTime)"


def _env(gw, sub=None, qid="k", question=QUESTION, hint=HINT):
    return RunEnv(question, hint, sub, RetrievedContext(), Path("unused.sqlite"), gw, qid)


class TestExtractKeywords:
    def test_two_keywords(self):
        gw = gw_with(
            {("q+extract_keywords+0", "extract_keywords"): ['["Lewis Hamilton", "fastest lap time"]']}
        )
        keywords = extract_keywords(_env(gw, qid="q"))
        assert [k.text for k in keywords] == ["Lewis Hamilton", "fastest lap time"]

    def test_duplicates_removed(self):
        gw = gw_with(
            {("k+extract_keywords+0", "extract_keywords"): ['["a", "b", "a", "B"]']}
        )
        keywords = extract_keywords(_env(gw, question="a b question", hint=""))
        assert [k.text for k in keywords] == ["a", "b"]

    def test_empty_list_ok(self):
        gw = gw_with({("k+extract_keywords+0", "extract_keywords"): ["[]"]})
        assert extract_keywords(_env(gw, question="q", hint="")) == []

    def test_unparseable_after_retry_empty(self, caplog):
        gw = gw_with(
            {
                ("k+extract_keywords+0", "extract_keywords"): ["nonsense"],
                ("k+extract_keywords+0#retry1", "extract_keywords"): ["still nonsense"],
            }
        )
        with caplog.at_level(logging.WARNING):
            assert extract_keywords(_env(gw, question="q", hint="")) == []


class TestFilterColumn:
    """The filter votes on the non-linking columns of `env.sub`; a sub of
    `results` alone has one, `fastestLapTime`, beside its primary key."""

    REQUEST = {"results": ["fastestLapTime"]}
    KEY = "k+filter_column+results.fastestLapTime"

    @pytest.fixture
    def env_of(self, motorsport_catalog):
        return lambda gw, request=self.REQUEST, **kw: _env(
            gw, project(motorsport_catalog, request), **kw
        )

    def test_yes(self, env_of):
        gw = gw_with(
            {(self.KEY, "filter_column"): ['{"chain_of_thought_reasoning": "r", "is_column_information_relevant": "Yes"}']}
        )
        assert filter_column(env_of(gw), self.REQUEST) == {"results": ["fastestLapTime"]}

    def test_no(self, env_of):
        gw = gw_with(
            {(self.KEY, "filter_column"): ['{"is_column_information_relevant": "No"}']}
        )
        assert filter_column(env_of(gw), self.REQUEST) == {"results": []}

    def test_too_deep_answer_keeps_column(self, env_of, caplog):
        deep = '{"is_column_information_relevant": ' + "[" * 100_000 + "]" * 100_000 + "}"
        gw = gw_with({(self.KEY, "filter_column"): [deep]})
        with caplog.at_level(logging.WARNING):
            assert filter_column(env_of(gw), self.REQUEST) == {"results": ["fastestLapTime"]}
        assert any("keeping column" in r.message for r in caplog.records)

    def test_parse_failure_keeps_column(self, env_of, caplog, calls):
        gw = gw_with({(self.KEY, "filter_column"): ["garbled"]})
        with caplog.at_level(logging.WARNING):
            assert filter_column(env_of(gw), self.REQUEST) == {"results": ["fastestLapTime"]}
        assert len(calls) == 1  # no retry for this tool

    def test_profile_rendered_into_prompt(self, finance_db, finance_catalog, tmp_path, calls):
        from querycrew.catalog import ingest_catalog_descriptions

        catalog = ingest_catalog_descriptions(
            finance_catalog, finance_db.parent / "database_description"
        )
        backend = MockBackend(
            responses={("k+filter_column+district.A11", "filter_column"): ['{"is_column_information_relevant": "Yes"}']}
        )
        gw = Gateway.single(backend, log_path=tmp_path / "calls.jsonl")
        request = {"district": ["A11"]}
        env = _env(gw, project(catalog, request), question="q", hint="h")
        env.context.entities = [EntityMatch("average salary", "8968", "district", "A11", 0, 0.9)]
        assert filter_column(env, request) == request
        # prompt token count reflects the profile text making it in
        assert calls[0].prompt_tokens > 0
        (logged,) = (tmp_path / "calls.jsonl").read_text(encoding="utf-8").splitlines()
        prompt = json.loads(logged)["prompt"]
        assert build_column_profile(catalog, "district", "A11", env.context) in prompt
        assert "Description: expanded column name: average salary" in prompt
        assert "Value examples: 8968" in prompt

    def test_votes_in_profile_order(self, env_of, calls):
        """Columns are voted on, and kept, in the sub-schema's table order,
        whatever order the request that built it named them in."""
        answers = {"time": "Yes", "positionText": "No", "fastestLapTime": "garbled",
                   "fastestLapSpeed": "No"}
        gw = gw_with({
            (f"k+filter_column+results.{c}", "filter_column"): [
                a if a == "garbled" else f'{{"is_column_information_relevant": "{a}"}}'
            ]
            for c, a in answers.items()
        })
        request = {"results": list(answers)}
        assert filter_column(env_of(gw, request), request) == {
            "results": ["time", "fastestLapTime"]
        }
        assert [r.scenario_key for r in calls] == [
            f"k+filter_column+results.{c}"
            for c in ("positionText", "time", "fastestLapTime", "fastestLapSpeed")
        ]


class TestSelectTables:
    """The tool narrows the request it is given to the chosen tables, and
    returns it unchanged where it falls back."""

    REQUEST = {"drivers": ["forename"], "races": ["name"], "results": ["fastestLapTime"]}

    def test_two_tables(self, motorsport_catalog):
        sub = project(motorsport_catalog, self.REQUEST)
        gw = gw_with(
            {("k+select_tables+0", "select_tables"): ['{"chain_of_thought_reasoning": "r", "table_names": ["drivers", "results"]}']}
        )
        assert select_tables(_env(gw, sub), self.REQUEST) == {
            "drivers": ["forename"], "results": ["fastestLapTime"]
        }

    def test_hallucinated_name_dropped(self, motorsport_catalog, caplog):
        sub = project(motorsport_catalog, self.REQUEST)
        gw = gw_with(
            {("k+select_tables+0", "select_tables"): ['{"table_names": ["drivers", "ghost"]}']}
        )
        with caplog.at_level(logging.WARNING):
            assert select_tables(_env(gw, sub), self.REQUEST) == {"drivers": ["forename"]}

    def test_empty_intersection_falls_back(self, motorsport_catalog, caplog):
        sub = project(motorsport_catalog, self.REQUEST)
        gw = gw_with({("k+select_tables+0", "select_tables"): ['{"table_names": ["ghost"]}']})
        with caplog.at_level(logging.WARNING):
            out = select_tables(_env(gw, sub), self.REQUEST)
        assert out == self.REQUEST

    def test_parse_failure_falls_back(self, motorsport_catalog):
        sub = project(motorsport_catalog, self.REQUEST)
        gw = gw_with(
            {
                ("k+select_tables+0", "select_tables"): ["junk"],
                ("k+select_tables+0#retry1", "select_tables"): ["junk again"],
            }
        )
        assert select_tables(_env(gw, sub), self.REQUEST) == self.REQUEST

    def test_case_insensitive_resolution(self, motorsport_catalog):
        sub = project(motorsport_catalog, self.REQUEST)
        gw = gw_with({("k+select_tables+0", "select_tables"): ['{"table_names": ["DRIVERS"]}']})
        assert select_tables(_env(gw, sub), self.REQUEST) == {"drivers": ["forename"]}

    def test_table_names_not_a_list_keeps_all(self, motorsport_catalog, caplog):
        sub = project(motorsport_catalog, self.REQUEST)
        gw = gw_with({("k+select_tables+0", "select_tables"): ['{"table_names": "drivers"}']})
        with caplog.at_level(logging.WARNING):
            assert select_tables(_env(gw, sub), self.REQUEST) == self.REQUEST
        assert "no table list" in caplog.text


class TestSelectColumns:
    def test_retention_reapplied(self, motorsport_catalog):
        request = {"drivers": ["forename", "surname"], "results": ["fastestLapTime", "laps"]}
        sub = project(motorsport_catalog, request)
        gw = gw_with(
            {
                ("k+select_columns+0", "select_columns"): [
                    '{"chain_of_thought_reasoning": "r",'
                    ' "drivers": ["forename"], "results": ["fastestLapTime"]}'
                ]
            }
        )
        out = select_columns(_env(gw, sub), request)
        assert out == {"drivers": ["forename"], "results": ["fastestLapTime"]}
        assert project(motorsport_catalog, out).selection == {
            "drivers": ["driverId", "forename"],
            "results": ["resultId", "driverId", "fastestLapTime"],
        }

    def test_zero_columns_keeps_pk(self, motorsport_catalog):
        request = {"drivers": ["forename"]}
        sub = project(motorsport_catalog, request)
        gw = gw_with({("k+select_columns+0", "select_columns"): ['{"drivers": []}']})
        out = select_columns(_env(gw, sub), request)
        assert out == {"drivers": []}
        assert project(motorsport_catalog, out).selection == {"drivers": ["driverId"]}

    def test_unknown_columns_dropped_with_warning(self, motorsport_catalog, caplog):
        request = {"drivers": ["forename"]}
        sub = project(motorsport_catalog, request)
        gw = gw_with(
            {("k+select_columns+0", "select_columns"): ['{"drivers": ["forename", "ghost_col"]}']}
        )
        with caplog.at_level(logging.WARNING):
            out = select_columns(_env(gw, sub), request)
        assert out == {"drivers": ["forename"]}
        assert project(motorsport_catalog, out).selection == {"drivers": ["driverId", "forename"]}
        assert any("ghost_col" in r.message for r in caplog.records)

    def test_parse_failure_returns_sub_unchanged(self, motorsport_catalog):
        request = {"drivers": ["forename"]}
        sub = project(motorsport_catalog, request)
        gw = gw_with(
            {
                ("k+select_columns+0", "select_columns"): ["junk"],
                ("k+select_columns+0#retry1", "select_columns"): ["junk"],
            }
        )
        out = select_columns(_env(gw, sub), request)
        assert out == request
        assert project(motorsport_catalog, out).selection == sub.selection

    def test_unknown_table_dropped(self, motorsport_catalog, caplog):
        request = {"drivers": ["forename"]}
        sub = project(motorsport_catalog, request)
        gw = gw_with(
            {("k+select_columns+0", "select_columns"): ['{"ghost": ["a"], "drivers": []}']}
        )
        with caplog.at_level(logging.WARNING):
            out = select_columns(_env(gw, sub), request)
        assert out == {"drivers": []}
        assert project(motorsport_catalog, out).selection == {"drivers": ["driverId"]}
        assert "unknown table 'ghost'" in caplog.text

    def test_no_known_table_keeps_sub(self, motorsport_catalog, caplog):
        request = {"drivers": ["forename"]}
        sub = project(motorsport_catalog, request)
        gw = gw_with({("k+select_columns+0", "select_columns"): ['{"ghost": ["a"]}']})
        with caplog.at_level(logging.WARNING):
            out = select_columns(_env(gw, sub), request)
        assert out == request
        assert project(motorsport_catalog, out).selection == sub.selection
        assert "selected nothing that exists" in caplog.text


class TestGenerateCandidate:
    def test_n_samples(self, motorsport_catalog, calls):
        sub = full_projection(motorsport_catalog)
        responses = {
            (f"q+generate_candidate+{i}", "generate_candidate"): [
                f'{{"chain_of_thought_reasoning": "r{i}", "SQL": "SELECT {i}"}}'
            ]
            for i in range(3)
        }
        gw = gw_with(responses)
        candidates = generate_candidate(
            _env(gw, sub, qid="q"), SamplingParams(temperature=1.0, n_samples=3)
        )
        assert [c.generation_index for c in candidates] == [0, 1, 2]
        assert [c.sql for c in candidates] == ["SELECT 0", "SELECT 1", "SELECT 2"]
        assert len(calls) == 3

    def test_single_sample(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {("q+generate_candidate+0", "generate_candidate"): ['{"SQL": "SELECT 1"}']}
        )
        out = generate_candidate(_env(gw, sub, qid="q"), SamplingParams())
        assert len(out) == 1

    def test_identical_sql_distinct_indices(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        responses = {
            (f"q+generate_candidate+{i}", "generate_candidate"): ['{"SQL": "SELECT 1"}']
            for i in range(2)
        }
        gw = gw_with(responses)
        out = generate_candidate(_env(gw, sub, qid="q"), SamplingParams(n_samples=2))
        assert [c.generation_index for c in out] == [0, 1]

    def test_bad_sample_dropped_index_preserved(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("q+generate_candidate+0", "generate_candidate"): ["garbage"],
                ("q+generate_candidate+1", "generate_candidate"): ['{"SQL": "SELECT 2"}'],
            }
        )
        with caplog.at_level(logging.WARNING):
            out = generate_candidate(_env(gw, sub, qid="q"), SamplingParams(n_samples=2))
        assert len(out) == 1
        assert out[0].generation_index == 1

    def test_empty_sql_dropped(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("q+generate_candidate+0", "generate_candidate"): ['{"SQL": "SELECT 1"}'],
                ("q+generate_candidate+1", "generate_candidate"): ['{"SQL": "  "}'],
            }
        )
        with caplog.at_level(logging.WARNING):
            out = generate_candidate(_env(gw, sub, qid="q"), SamplingParams(n_samples=2))
        assert [c.generation_index for c in out] == [0]
        assert "sample 1 has empty SQL" in caplog.text

    def test_all_dropped_raises(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {("q+generate_candidate+0", "generate_candidate"): ["junk"]}
        )
        with pytest.raises(GenerationError):
            generate_candidate(_env(gw, sub, qid="q"), SamplingParams())


class TestRevise:
    def test_revision_increments_count(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        candidate = CandidateQuery(sql="SELEC 1", generation_index=0)
        gw = gw_with(
            {("k+revise+0.1", "revise"): ['{"revised_SQL": "SELECT 1"}']}
        )
        (out,) = revise(
            _env(gw, sub), [candidate],
            [FaultReport("syntax_error", 'near "SELEC": syntax error')],
        )
        assert out.sql == "SELECT 1"
        assert out.revision_count == 1
        assert out.generation_index == 0

    def test_parse_failure_returns_original(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        candidate = CandidateQuery(sql="SELECT x", generation_index=2, revision_count=1)
        gw = gw_with({("k+revise+2.2", "revise"): ["junk"]})
        with caplog.at_level(logging.WARNING):
            (out,) = revise(
                _env(gw, sub), [candidate],
                [FaultReport("empty_result", "query returned 0 rows")],
            )
        assert out is candidate
        assert out.revision_count == 1

    def test_issue_detail_lands_in_prompt(self, motorsport_catalog, calls):
        sub = project(motorsport_catalog, {"drivers": ["forename"]})
        candidate = CandidateQuery(sql="SELECT 1")
        backend = MockBackend(
            responses={("k+revise+0.1", "revise"): ['{"revised_SQL": "SELECT 2"}']}
        )
        gw = Gateway.single(backend)
        revise(
            _env(gw, sub), [candidate],
            [FaultReport("runtime_error", "no such column: ghost")],
        )
        assert len(calls) == 1


class TestUnitTests:
    def _clusters(self):
        return [
            Cluster(
                fingerprint="a", members=[0, 2], representative=0,
                preview="SQL: SELECT MIN(fastestLapTime) FROM results\nResult: 1 rows",
                member_positions=[0, 2], representative_position=0,
            ),
            Cluster(
                fingerprint="b", members=[1], representative=1,
                preview="SQL: SELECT MAX(fastestLapTime) FROM results\nResult: 1 rows",
                member_positions=[1], representative_position=1,
            ),
        ]

    def test_k_tests(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        statements = [f"The answer SQL query should check aspect {i}" for i in range(10)]
        gw = gw_with(
            {("k+generate_unit_tests+0", "generate_unit_tests"): [f"<Answer>\n{statements!r}\n</Answer>"]}
        )
        tests = generate_unit_tests(_env(gw, sub), self._clusters(), 10)
        assert len(tests) == 10
        assert [t.index for t in tests] == list(range(10))

    def test_prose_after_closing_tag(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        statements = ["The answer SQL query should use MIN", "The answer SQL query should filter"]
        answer = f"<Answer>\n{statements!r}\n</Answer>\nThese two tests split the clusters."
        gw = gw_with({("k+generate_unit_tests+0", "generate_unit_tests"): [answer]})
        with caplog.at_level(logging.WARNING):
            tests = generate_unit_tests(_env(gw, sub), self._clusters(), 2)
        assert [t.statement for t in tests] == statements
        assert caplog.records == []

    def test_overlong_list_truncated(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        statements = [f"test {i}" for i in range(12)]
        gw = gw_with(
            {("k+generate_unit_tests+0", "generate_unit_tests"): [f"<Answer>\n{statements!r}\n</Answer>"]}
        )
        tests = generate_unit_tests(_env(gw, sub), self._clusters(), 10)
        assert len(tests) == 10

    def test_parse_failure_empty(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("k+generate_unit_tests+0", "generate_unit_tests"): ["junk"],
                ("k+generate_unit_tests+0#retry1", "generate_unit_tests"): ["junk"],
            }
        )
        with caplog.at_level(logging.WARNING):
            tests = generate_unit_tests(_env(gw, sub), self._clusters(), 5)
        assert tests == []

    def test_requires_clusters_and_positive_k(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with({})
        with pytest.raises(ValueError):
            generate_unit_tests(_env(gw, sub), [], 5)
        with pytest.raises(ValueError):
            generate_unit_tests(_env(gw, sub), self._clusters(), 0)


class TestEvaluate:
    CANDS = [
        CandidateQuery(sql="SELECT 1", generation_index=0),
        CandidateQuery(sql="SELECT 2", generation_index=1),
        CandidateQuery(sql="SELECT 3", generation_index=2),
    ]
    TEST = UnitTest("The answer SQL query should use MIN", 0)

    def test_verdicts_in_order(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("k+evaluate+0", "evaluate_unit_test"): [
                    "<Answer>\nCandidate Response #1: Passed\n"
                    "Candidate Response #2: Failed\n"
                    "Candidate Response #3: Passed\n</Answer>"
                ]
            }
        )
        (verdicts,) = evaluate_against_test(_env(gw, sub), self.CANDS, [self.TEST])
        assert verdicts == [Verdict.PASSED, Verdict.FAILED, Verdict.PASSED]

    def test_short_verdicts_padded_failed(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("k+evaluate+0", "evaluate_unit_test"): [
                    "<Answer>\nCandidate Response #1: Passed\n"
                    "Candidate Response #2: Passed\n</Answer>"
                ]
            }
        )
        with caplog.at_level(logging.WARNING):
            (verdicts,) = evaluate_against_test(_env(gw, sub), self.CANDS, [self.TEST])
        assert verdicts == [Verdict.PASSED, Verdict.PASSED, Verdict.FAILED]

    def test_skipped_number_is_failed(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("k+evaluate+0", "evaluate_unit_test"): [
                    "<Answer>\nCandidate Response #1: Failed\n"
                    "Candidate Response #3: Passed\n</Answer>"
                ]
            }
        )
        with caplog.at_level(logging.WARNING):
            (verdicts,) = evaluate_against_test(_env(gw, sub), self.CANDS, [self.TEST])
        assert verdicts == [Verdict.FAILED, Verdict.FAILED, Verdict.PASSED]
        assert [r.levelno for r in caplog.records] == [logging.WARNING]

    def test_reordered_numbers(self, motorsport_catalog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("k+evaluate+0", "evaluate_unit_test"): [
                    "<Answer>\nCandidate Response #2: Passed\n"
                    "Candidate Response #1: Failed\n</Answer>"
                ]
            }
        )
        (verdicts,) = evaluate_against_test(_env(gw, sub), self.CANDS[:2], [self.TEST])
        assert verdicts == [Verdict.FAILED, Verdict.PASSED]

    def test_parse_failure_all_failed(self, motorsport_catalog, caplog):
        sub = full_projection(motorsport_catalog)
        gw = gw_with(
            {
                ("k+evaluate+0", "evaluate_unit_test"): ["junk"],
                ("k+evaluate+0#retry1", "evaluate_unit_test"): ["junk"],
            }
        )
        with caplog.at_level(logging.WARNING):
            (verdicts,) = evaluate_against_test(_env(gw, sub), self.CANDS, [self.TEST])
        assert verdicts == [Verdict.FAILED] * 3


class TestColumnProfile:
    def test_built_from_catalog_and_context(self, finance_db, finance_catalog):
        from querycrew.catalog import ingest_catalog_descriptions

        catalog = ingest_catalog_descriptions(
            finance_catalog, finance_db.parent / "database_description"
        )
        context = RetrievedContext(
            entities=[
                EntityMatch("average salary", "8968", "district", "A11", 0, 0.9)
            ]
        )
        profile = build_column_profile(catalog, "district", "A11", context)
        assert profile == (
            "Table name: district\n"
            "Original column name: A11\n"
            "Data type: INTEGER\n"
            "Description: expanded column name: average salary\n"
            "Description: average salary in the district\n"
            "Value examples: 8968"
        )

    def test_without_descriptions_or_matches(self, finance_catalog):
        profile = build_column_profile(finance_catalog, "district", "A2", RetrievedContext())
        assert profile == "Table name: district\nOriginal column name: A2\nData type: TEXT"
