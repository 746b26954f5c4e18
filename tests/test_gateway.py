import contextlib
import contextvars
import gc
import json
import re
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from querycrew.agents import (
    CandidateQuery,
    RetrievedContext,
    RunEnv,
    UnitTest,
    Verdict,
    evaluate_against_test,
    generate_candidate,
)
from querycrew.catalog import full_projection
from querycrew.context_store import ContextStoreError, RemoteEmbedder
from querycrew import gateway
from querycrew.gateway import (
    POOL_WIDTH,
    WINDOW,
    CallRecord,
    Completion,
    Gateway,
    GatewayError,
    HttpChatBackend,
    MockBackend,
    MockLookupError,
    ParseError,
    SamplingParams,
    _balanced_block,
    _strip_fences,
    complete,
    ledger,
    parse_structured,
    sanitize_scenario_key,
)
from querycrew.pipeline import PipelineConfig
from querycrew.templates import (
    JSON_OBJECT,
    PYTHON_LIST,
    TAGGED_ANSWER_BLOCK,
    TEMPLATES,
    VERDICT_LINES,
    RenderError,
    render_template,
)


class TestRenderTemplate:
    def test_extract_keywords_binds_verbatim(self):
        prompt = render_template(
            "extract_keywords",
            {
                "QUESTION": "What is the fastest lap time for Lewis Hamilton?",
                "HINT": "fastest lap time refers to min(fastestLapTime)",
            },
        )
        assert "What is the fastest lap time for Lewis Hamilton?" in prompt
        assert "min(fastestLapTime)" in prompt
        assert "{" not in prompt.replace("{'", "").split("Task:")[0] or True

    def test_missing_binding_names_placeholder(self):
        with pytest.raises(RenderError) as exc:
            render_template(
                "select_tables", {"QUESTION": "q", "HINT": "h"}
            )
        assert "DATABASE_SCHEMA" in str(exc.value)

    def test_unit_test_cap_substituted(self):
        prompt = render_template(
            "generate_unit_tests",
            {
                "UNIT_TEST_CAP": 10,
                "DATABASE_SCHEMA": "s",
                "CANDIDATE_QUERIES": "c",
                "QUESTION": "q",
                "HINT": "h",
            },
        )
        assert "generate a set of 10 unit tests" in prompt

    def test_json_braces_survive(self):
        prompt = render_template(
            "select_tables",
            {"DATABASE_SCHEMA": "s", "QUESTION": "q", "HINT": "h"},
        )
        assert '"table_names": ["Table1", "Table2", "Table3", ...]' in prompt

    def test_unknown_template(self):
        with pytest.raises(RenderError):
            render_template("no_such_tool", {})

    def test_byte_stable(self):
        bindings = {"DATABASE_SCHEMA": "s", "QUESTION": "q", "HINT": "h"}
        assert render_template("select_columns", bindings) == render_template(
            "select_columns", bindings
        )

    def test_every_template_placeholders_consistent(self):
        expected = {
            "extract_keywords": {"QUESTION", "HINT"},
            "filter_column": {"COLUMN_PROFILE", "QUESTION", "HINT"},
            "select_tables": {"DATABASE_SCHEMA", "QUESTION", "HINT"},
            "select_columns": {"DATABASE_SCHEMA", "QUESTION", "HINT"},
            "generate_candidate": {"DATABASE_SCHEMA", "QUESTION", "HINT"},
            "revise": {
                "DATABASE_SCHEMA", "MISSING_ENTITIES", "QUESTION", "HINT",
                "SQL", "QUERY_RESULT",
            },
            "generate_unit_tests": {
                "UNIT_TEST_CAP", "DATABASE_SCHEMA", "CANDIDATE_QUERIES",
                "QUESTION", "HINT",
            },
            "evaluate_unit_test": {
                "DATABASE_SCHEMA", "CANDIDATE_QUERIES", "QUESTION", "HINT",
                "UNIT_TEST",
            },
        }
        assert set(TEMPLATES) == set(expected)
        for tid, placeholders in expected.items():
            assert set(TEMPLATES[tid].placeholders()) == placeholders, tid

    @settings(max_examples=200, deadline=None)
    @given(
        tid=st.sampled_from(sorted(TEMPLATES)),
        values=st.lists(
            st.one_of(st.text(alphabet="ab{}\\$\n\u00e9QUESTION_0", max_size=12), st.integers()),
            min_size=8, max_size=8,
        ),
        drop=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
        extra=st.booleans(),
    )
    def test_render_matches_substitution_oracle(self, tid, values, drop, extra):
        """The split-once render gives the bytes, and raises for the same name,
        as one `re.sub` over the body."""
        names = TEMPLATES[tid].placeholders()
        bindings = {n: v for i, (n, v) in enumerate(zip(names, values)) if i not in drop}
        if extra:
            bindings["NOT_A_PLACEHOLDER"] = "x"

        def oracle_sub(match):
            if match.group(1) not in bindings:
                raise RenderError(match.group(1))
            return str(bindings[match.group(1)])

        try:
            want = re.sub(r"\{([A-Z][A-Z0-9_]*)\}", oracle_sub, TEMPLATES[tid].body)
        except RenderError as exc:
            with pytest.raises(RenderError) as got:
                render_template(tid, bindings)
            assert got.value.args == exc.args
        else:
            assert render_template(tid, bindings) == want


def _scan_only_json_object(text: str) -> dict:
    """JSON-object parsing by the balanced-block scan alone."""
    block = _balanced_block(_strip_fences(text), "{", "}")
    if block is not None:
        try:
            value = json.loads(block)
            if isinstance(value, dict):
                return value
        except json.JSONDecodeError:
            pass
    raise ParseError("no parseable JSON object in response", raw=text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.raw)


TRICKY = st.text(alphabet="ab \"\\'{}[]:,\n`\u00e9", max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TRICKY,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRICKY, inner, max_size=3),
    max_leaves=8,
)
JSON_OBJECTS = st.builds(
    json.dumps,
    st.dictionaries(TRICKY, JSON_VALUES, max_size=4),
    ensure_ascii=st.booleans(),
    indent=st.sampled_from([None, 1]),
)
MODEL_TEXTS = st.one_of(
    JSON_OBJECTS,
    st.builds(lambda obj, lang: f"```{lang}\n{obj}\n```", JSON_OBJECTS, st.sampled_from(["", "json"])),
    st.builds(lambda prose, obj, tail: f"{prose}{obj}{tail}", TRICKY, JSON_OBJECTS, TRICKY),
    st.builds(lambda obj, value: f"[{value}, {obj}]", JSON_OBJECTS, JSON_VALUES.map(json.dumps)),
    JSON_VALUES.map(json.dumps),
    TRICKY,
    st.text(max_size=40),
)


class TestParseJsonFastPath:
    """A text that is a whole JSON object is parsed directly; every other
    text goes to the balanced-block scan. The two must agree everywhere."""

    @settings(max_examples=600, deadline=None)
    @given(text=MODEL_TEXTS)
    @example(text='{"is_column_information_relevant": "Yes"}')
    @example(text=' {"a": "it\'s \\"quoted\\" {x}"} ')
    @example(text='```json\n{"a": 1}\n```')
    @example(text='Sure: {"a": 1}')
    @example(text='[1, {"a": 1}]')
    @example(text='"{\\"a\\": 1}"')
    @example(text="[" * 100_000 + '{"a": 1}')  # too deep for json.loads
    @example(text="{'a': 1}")
    def test_matches_scan_only(self, text):
        assert _outcome(lambda t: parse_structured(t, JSON_OBJECT), text) == _outcome(
            _scan_only_json_object, text
        )


def quadratic_balanced_block(text: str, open_ch: str, close_ch: str) -> str | None:
    """The scan that restarted at every opener, kept as the oracle."""
    start = text.find(open_ch)
    while start != -1:
        depth = 0
        in_string: str | None = None
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == in_string:
                    in_string = None
                continue
            if ch in "\"'":
                in_string = ch
            elif ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    return text[start : i + 1]
        start = text.find(open_ch, start + 1)
    return None


class CountingText(str):
    """A str that counts the characters read from it by index or iteration."""

    visits = 0

    def __getitem__(self, key):
        CountingText.visits += 1
        return str.__getitem__(self, key)

    def __iter__(self):
        for ch in str.__iter__(self):
            CountingText.visits += 1
            yield ch


def _visits(text: str, open_ch: str, close_ch: str) -> tuple[str | None, int]:
    CountingText.visits = 0
    block = _balanced_block(CountingText(text), open_ch, close_ch)
    return block, CountingText.visits


# texts for the scan: characters of the TRICKY alphabet that steer it, also
# in runs that open and close strings, behind an opener that may never close
SCAN_TEXTS = st.builds(
    lambda head, body: head + "".join(body),
    st.sampled_from(["", "{ ", "[ ", "{[ "]),
    st.lists(
        st.sampled_from(list("ab \"\\'{}[]") + ['{"', '"}', "['", "']", '\\"', "\\\\"]),
        max_size=40,
    ),
)


class TestBalancedBlockIsLinear:
    """The scan finds the block the restarting scan found, reading each
    character a bounded number of times."""

    @settings(max_examples=1500, deadline=None)
    @given(text=SCAN_TEXTS | st.text(alphabet="ab \"\\'{}[]", max_size=80),
           brackets=st.sampled_from(["{}", "[]"]))
    @example(text='{"}{" {}', brackets="{}")
    @example(text="{'\\'}' {} }", brackets="{}")
    @example(text='{ {"\\a"}', brackets="{}")
    @example(text="[ ['\\]'] ", brackets="[]")
    def test_matches_the_restarting_scan(self, text, brackets):
        block, visits = _visits(text, *brackets)
        assert block == quadratic_balanced_block(text, *brackets)
        assert visits <= 3 * len(text) + 1

    @pytest.mark.parametrize("text", [
        "{" * 4000,
        "{" * 4000 + "}",
        '{"' * 2000,
        "{" * 2000 + '"' + "}" * 1999,
        "{\\\"" * 1000 + "}",
        ("{ '" + "}" * 3) * 1000,
    ], ids=["openers", "one_closer", "quoted", "closers_in_a_string", "escapes", "mixed"])
    def test_unbalanced_openers_cost_linear_visits(self, text):
        block, visits = _visits(text, "{", "}")
        assert block == quadratic_balanced_block(text, "{", "}")
        assert visits <= 3 * len(text) + 1


class TestParseStructured:
    def test_json_object(self):
        payload = parse_structured(
            '{"chain_of_thought_reasoning":"because","table_names":["drivers","results"]}',
            JSON_OBJECT,
        )
        assert payload["table_names"] == ["drivers", "results"]

    def test_json_with_fences(self):
        text = 'Sure!\n```json\n{"SQL": "SELECT 1"}\n```\nDone.'
        assert parse_structured(text, JSON_OBJECT)["SQL"] == "SELECT 1"

    def test_json_with_surrounding_prose(self):
        text = 'Here you go: {"a": 1, "nested": {"b": 2}} hope that helps'
        assert parse_structured(text, JSON_OBJECT) == {"a": 1, "nested": {"b": 2}}

    def test_json_braces_in_strings(self):
        text = '{"SQL": "SELECT \'{weird}\' FROM t"}'
        assert parse_structured(text, JSON_OBJECT)["SQL"] == "SELECT '{weird}' FROM t"

    def test_json_failure_carries_raw(self):
        with pytest.raises(ParseError) as exc:
            parse_structured("no json here at all", JSON_OBJECT)
        assert exc.value.raw == "no json here at all"

    def test_python_list(self):
        out = parse_structured('["Lewis Hamilton", "fastest lap time"]', PYTHON_LIST)
        assert out == ["Lewis Hamilton", "fastest lap time"]

    def test_python_list_single_quotes(self):
        assert parse_structured("['a', 'b']", PYTHON_LIST) == ["a", "b"]

    def test_tagged_answer_block(self):
        text = (
            "<Thinking> compare the clusters </Thinking>\n"
            "<Answer>\n['The answer SQL query should use MIN', "
            "'The answer SQL query should mention fastestLapTime']\n</Answer>"
        )
        out = parse_structured(text, TAGGED_ANSWER_BLOCK)
        assert len(out) == 2
        assert out[0] == "The answer SQL query should use MIN"

    def test_tagged_answer_last_block_wins(self):
        text = "<Answer>['old']</Answer> then <Answer>['new']</Answer>"
        assert parse_structured(text, TAGGED_ANSWER_BLOCK) == ["new"]

    def test_tagged_answer_unclosed_tags(self):
        text = "<Answer>\n['only one']\n<Answer>"
        assert parse_structured(text, TAGGED_ANSWER_BLOCK) == ["only one"]

    def test_verdict_lines(self):
        text = (
            "<Thinking>hmm</Thinking>\n<Answer>\n"
            "Candidate Response #1: Passed\n"
            "Candidate Response #2: Failed\n"
            "</Answer>"
        )
        assert parse_structured(text, VERDICT_LINES) == ["Passed", "Failed"]

    def test_verdict_lines_without_tags(self):
        text = "Candidate Response #1: passed\nCandidate Response #2: FAILED"
        assert parse_structured(text, VERDICT_LINES) == ["Passed", "Failed"]

    def test_verdict_none_raises(self):
        with pytest.raises(ParseError):
            parse_structured("nothing to see", VERDICT_LINES)

    def test_roundtrip_fixture_payloads(self):
        for shape, fixture in [
            (JSON_OBJECT, '{"is_column_information_relevant": "Yes"}'),
            (PYTHON_LIST, "['keyword one', 'keyword two']"),
        ]:
            parsed = parse_structured(fixture, shape)
            assert parsed


def _verdict_block(numbered: list[tuple[object, str]]) -> str:
    lines = "".join(f"Candidate Response #{n}: {verdict}\n" for n, verdict in numbered)
    return f"<Thinking>check each one</Thinking>\n<Answer>\n{lines}</Answer>"


# prose a model may write around its answer: no tag, so no "<"
PROSE = st.text(alphabet=st.characters(blacklist_characters="<"), max_size=40)


class TestAnswerBlockAndVerdictNumbers:
    """Both tagged shapes read one answer block, and each verdict lands on
    the candidate its line names."""

    def test_prose_after_closing_tag_is_ignored(self):
        text = "<Thinking>two</Thinking>\n<Answer>\n['a', 'b']\n</Answer>\nHope this helps!"
        assert parse_structured(text, TAGGED_ANSWER_BLOCK) == ["a", "b"]

    def test_verdicts_after_closing_tag_are_ignored(self):
        text = _verdict_block([(1, "Failed")]) + "\nCandidate Response #2: Passed"
        assert parse_structured(text, VERDICT_LINES) == ["Failed"]

    def test_verdicts_after_a_lone_tag(self):
        text = "Draft: Candidate Response #1: Failed\n<Answer>\nCandidate Response #1: Passed"
        assert parse_structured(text, VERDICT_LINES) == ["Passed"]

    def test_skipped_number_reads_failed_with_a_warning(self, caplog):
        text = _verdict_block([(1, "Failed"), (3, "Passed")])
        with caplog.at_level("WARNING", logger="querycrew.gateway"):
            assert parse_structured(text, VERDICT_LINES) == ["Failed", "Failed", "Passed"]
        assert "1 candidates have no verdict" in caplog.text

    def test_reordered_numbers_land_on_their_candidates(self):
        text = _verdict_block([(2, "Passed"), (1, "Failed")])
        assert parse_structured(text, VERDICT_LINES) == ["Failed", "Passed"]

    def test_first_of_two_lines_with_one_number_wins(self):
        text = _verdict_block([(1, "Passed"), (2, "Failed"), (1, "Failed")])
        assert parse_structured(text, VERDICT_LINES) == ["Passed", "Failed"]

    @pytest.mark.parametrize(
        "number", ["9" * 5_000, "1000000000", "0", "000"], ids=["5000-digits", "1e9", "0", "000"]
    )
    def test_number_out_of_range_is_ignored(self, number):
        text = _verdict_block([(number, "Passed")])
        with pytest.raises(ParseError):
            parse_structured(text, VERDICT_LINES)
        text = _verdict_block([(number, "Passed"), ("02", "Passed")])
        assert parse_structured(text, VERDICT_LINES) == ["Failed", "Passed"]

    @settings(max_examples=200, deadline=None)
    @given(
        before=PROSE,
        after=PROSE,
        items=st.lists(st.text(alphabet=st.characters(blacklist_characters="<")), max_size=5),
    )
    def test_tagged_list_between_prose(self, before, after, items):
        text = f"{before}<Answer>{items!r}</Answer>{after}"
        assert parse_structured(text, TAGGED_ANSWER_BLOCK) == items

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        verdicts=st.lists(st.sampled_from(["Passed", "Failed"]), min_size=1, max_size=8),
    )
    def test_each_verdict_names_its_candidate(self, data, verdicts):
        named = data.draw(st.sets(st.integers(1, len(verdicts)), min_size=1))
        numbered = data.draw(st.permutations([(n, verdicts[n - 1]) for n in named]))
        row = parse_structured(_verdict_block(numbered), VERDICT_LINES)
        assert len(row) == max(named)
        for n, verdict in enumerate(row, start=1):
            assert verdict == (verdicts[n - 1] if n in named else "Failed")


DEEP_JSON = 'x {"a": ' + "[" * 100_000 + "]" * 100_000 + "}"
LONG_INT_JSON = '{"a": ' + "7" * 5_000 + "}"  # past Python's int-string limit
UNHASHABLE_LISTS = ["[{[1]}]", "[{{}: 1}]"]  # literal_eval raises TypeError
BRACKETED_TEXTS = st.lists(
    st.sampled_from(
        ["[", "]", "{", "}", '"', "'", "\\", ":", ",", " ", "\n", "0", "7", "a", "Z",
         "<Answer>", "</Answer>"]
    ),
    max_size=30,
).map("".join)


def _has_shape(value, shape) -> bool:
    if shape == JSON_OBJECT:
        return isinstance(value, dict)
    if shape == VERDICT_LINES:
        return isinstance(value, list) and set(value) <= {"Passed", "Failed"}
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


class TestParseStructuredTotal:
    """Every parser returns its shape or raises ParseError, whatever the text."""

    @settings(max_examples=400, deadline=None)
    @given(text=BRACKETED_TEXTS, shape=st.sampled_from(
        [JSON_OBJECT, PYTHON_LIST, TAGGED_ANSWER_BLOCK, VERDICT_LINES]
    ))
    @example(text=UNHASHABLE_LISTS[0], shape=PYTHON_LIST)
    @example(text=f"<Answer>{UNHASHABLE_LISTS[1]}</Answer>", shape=TAGGED_ANSWER_BLOCK)
    @example(text=LONG_INT_JSON, shape=JSON_OBJECT)
    def test_shape_or_parse_error(self, text, shape):
        try:
            value = parse_structured(text, shape)
        except ParseError:
            return
        assert _has_shape(value, shape), value

    def test_too_deep_json_block(self):
        with pytest.raises(ParseError):
            parse_structured(DEEP_JSON, JSON_OBJECT)

    @pytest.mark.parametrize(
        "text", [LONG_INT_JSON, "Sure: " + LONG_INT_JSON], ids=["whole", "block"]
    )
    def test_too_long_json_integer(self, text):
        with pytest.raises(ParseError):
            parse_structured(text, JSON_OBJECT)

    @pytest.mark.parametrize("text", UNHASHABLE_LISTS)
    def test_unhashable_literal(self, text):
        with pytest.raises(ParseError):
            parse_structured(text, PYTHON_LIST)
        with pytest.raises(ParseError):
            parse_structured(f"<Answer>{text}</Answer>", TAGGED_ANSWER_BLOCK)


class TestMockBackend:
    def test_scripted_fixture_verbatim(self):
        backend = MockBackend(responses={("q1", "extract_keywords"): ['["a"]']})
        out = complete(
            backend, "prompt", SamplingParams(), "extract_keywords", "q1"
        )
        assert out[0].text == '["a"]'

    def test_three_variants_in_order(self):
        backend = MockBackend(
            responses={("q1", "generate_candidate"): ["v0", "v1", "v2"]}
        )
        out = complete(
            backend, "p", SamplingParams(n_samples=3), "generate_candidate", "q1"
        )
        assert [c.text for c in out] == ["v0", "v1", "v2"]

    @pytest.mark.parametrize("responses", [
        {("k", "t"): "hello"},
        {("k", "t"): []},
        {"k": ["x"]},
        {("k",): ["x"]},
        {("k", "t", "u"): ["x"]},
        {("k", 1): ["x"]},
    ])
    def test_responses_it_cannot_answer_from_are_refused(self, responses):
        with pytest.raises(TypeError):
            MockBackend(responses=responses)

    def test_missing_fixture_raises(self):
        backend = MockBackend(responses={})
        with pytest.raises(MockLookupError):
            backend.complete("p", SamplingParams(), "revise", "unknown")

    def test_fixture_directory_layout(self, tmp_path):
        scenario = tmp_path / "q7+generate_candidate+0"
        scenario.mkdir()
        (scenario / "generate_candidate.txt").write_text('{"SQL": "SELECT 1"}')
        defaults = tmp_path / "defaults"
        defaults.mkdir()
        (defaults / "filter_column.txt").write_text(
            '{"is_column_information_relevant": "No"}'
        )
        backend = MockBackend(fixture_dir=tmp_path)
        out = backend.complete("p", SamplingParams(), "generate_candidate", "q7+generate_candidate+0")
        assert "SELECT 1" in out[0].text
        fallback = backend.complete("p", SamplingParams(), "filter_column", "q7+filter_column+t.c")
        assert "No" in fallback[0].text

    def test_numbered_variant_files(self, tmp_path):
        scenario = tmp_path / "q1+generate_candidate+0"
        scenario.mkdir()
        (scenario / "generate_candidate.0.txt").write_text("first")
        (scenario / "generate_candidate.1.txt").write_text("second")
        backend = MockBackend(fixture_dir=tmp_path)
        out = backend.complete(
            "p", SamplingParams(n_samples=2), "generate_candidate", "q1+generate_candidate+0"
        )
        assert [c.text for c in out] == ["first", "second"]

    def test_unnumbered_files_are_ignored(self, tmp_path):
        scenario = tmp_path / "q1+revise+0"
        scenario.mkdir()
        (scenario / "revise.notes.txt").write_text("not a variant")
        backend = MockBackend(fixture_dir=tmp_path)
        with pytest.raises(MockLookupError):
            backend.complete("p", SamplingParams(), "revise", "q1+revise+0")
        (scenario / "revise.1.txt").write_text("second")
        (scenario / "revise.0.txt").write_text("first")
        out = backend.complete("p", SamplingParams(n_samples=3), "revise", "q1+revise+0")
        assert [c.text for c in out] == ["first", "second", "second"]
        (tmp_path / "defaults").mkdir()
        (tmp_path / "defaults" / "revise.txt").write_text("default")
        (scenario / "revise.0.txt").unlink()
        (scenario / "revise.1.txt").unlink()
        assert backend.complete("p", SamplingParams(), "revise", "q1+revise+0")[0].text == "default"

    def test_pure_lookup(self):
        backend = MockBackend(responses={("k", "revise"): ["same"]})
        a = backend.complete("p", SamplingParams(), "revise", "k")
        b = backend.complete("p", SamplingParams(), "revise", "k")
        assert a[0].text == b[0].text

    def test_token_estimate(self):
        backend = MockBackend(responses={("k", "revise"): ["x" * 40]})
        out = backend.complete("p" * 80, SamplingParams(), "revise", "k")
        assert out[0].completion_tokens == 10
        assert out[0].prompt_tokens == 20

    def test_calls_counted_across_threads(self):
        backend = MockBackend(responses={("k", "revise"): ["x"]})

        def work():
            for _ in range(200):
                backend.complete("p", SamplingParams(), "revise", "k")

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert backend.calls == 1600


class TestHttpBackend:
    def test_retries_then_fails(self, monkeypatch):
        import requests

        calls = {"n": 0}

        class FakeSession:
            def post(self, *a, **k):
                calls["n"] += 1
                raise requests.ConnectionError("unreachable")

        monkeypatch.setattr(time, "sleep", lambda _s: None)
        backend = HttpChatBackend("http://localhost:1", "m", session=FakeSession())
        with pytest.raises(GatewayError) as exc:
            backend.complete("p", SamplingParams(), "t", "s")
        assert calls["n"] == 1 + gateway.RETRIES
        assert "retries" in str(exc.value)

    def test_non_200_immediate_error_with_excerpt(self):
        class FakeResponse:
            status_code = 400
            text = "bad request body excerpt"

        class FakeSession:
            def post(self, *a, **k):
                return FakeResponse()

        backend = HttpChatBackend("http://x", "m", session=FakeSession())
        with pytest.raises(GatewayError) as exc:
            backend.complete("p", SamplingParams(), "t", "s")
        assert "400" in str(exc.value)
        assert "excerpt" in str(exc.value)

    def test_success_with_usage(self):
        class FakeResponse:
            status_code = 200

            def json(self):
                return {
                    "choices": [{"message": {"content": "hello"}}],
                    "usage": {"prompt_tokens": 12, "completion_tokens": 5},
                }

        class FakeSession:
            def post(self, *a, **k):
                return FakeResponse()

        backend = HttpChatBackend("http://x", "m", session=FakeSession())
        out = backend.complete("p", SamplingParams(), "t", "s")
        assert out[0].text == "hello"
        assert out[0].prompt_tokens == 12
        assert out[0].completion_tokens == 5


    def test_pool_width_bounds_calls_in_flight(self, motorsport_catalog, calls):
        """A batch wider than the pool has exactly POOL_WIDTH calls out, and
        its answers and records keep request order."""
        n = POOL_WIDTH + 5
        session = CountingSession('{"SQL": "SELECT 1"}', hold=POOL_WIDTH)
        candidates = generate_candidate(
            _http_env(session, motorsport_catalog), SamplingParams(temperature=1.0, n_samples=n)
        )
        assert session.peak == POOL_WIDTH
        assert [c.generation_index for c in candidates] == list(range(n))
        assert [r.scenario_key for r in calls] == [f"q+generate_candidate+{i}" for i in range(n)]

    def test_default_sample_batch_is_one_round(self, motorsport_catalog):
        n = PipelineConfig().n_candidates
        session = CountingSession('{"SQL": "SELECT 1"}', hold=n)
        generate_candidate(
            _http_env(session, motorsport_catalog), SamplingParams(temperature=1.0, n_samples=n)
        )
        assert session.peak == n

    def test_default_config_batches_fit_in_one_round(self, motorsport_catalog):
        """Every batch a default question sends (its samples and its
        verdicts) fits in the pool, so each takes one backend round trip."""
        config = PipelineConfig()
        assert max(config.n_candidates, config.n_unit_tests) <= POOL_WIDTH
        n = config.n_unit_tests
        session = CountingSession("<Answer>\nCandidate Response #1: Passed\n</Answer>", hold=n)
        tests = [UnitTest(f"test {i}", i) for i in range(n)]
        rows = evaluate_against_test(
            _http_env(session, motorsport_catalog), [CandidateQuery("SELECT 1")], tests
        )
        assert session.peak == n
        assert rows == [[Verdict.PASSED]] * n

    def test_own_session_keeps_a_connection_per_call_out(self):
        for url in ("http://x", "https://x"):
            session = HttpChatBackend(url, "m").session
            pool_kw = session.get_adapter(url).poolmanager.connection_pool_kw
            assert pool_kw["maxsize"] >= POOL_WIDTH + 1

    def test_given_session_is_used_as_given(self):
        session = requests.Session()
        adapters = dict(session.adapters)
        backend = HttpChatBackend("http://x", "m", session=session)
        assert backend.session is session
        assert session.adapters == adapters


class CountingSession:
    """Answers every post with one completion of `content` and counts the
    calls out at once. Each call waits (up to 2 s) until `hold` calls have
    been out together, so the peak does not hang on thread start-up."""

    def __init__(self, content, hold):
        self.content = content
        self.hold = hold
        self.cond = threading.Condition()
        self.in_flight = 0
        self.peak = 0

    def post(self, *a, **k):
        with self.cond:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.cond.notify_all()
            self.cond.wait_for(lambda: self.peak >= self.hold, timeout=2)
        time.sleep(0.01)
        with self.cond:
            self.in_flight -= 1
        return FakeResponse(body={"choices": [{"message": {"content": self.content}}]})


def _http_env(session, catalog):
    gw = Gateway.single(HttpChatBackend("http://x", "m", session=session))
    return RunEnv("q", "h", full_projection(catalog), RetrievedContext(), Path(), gw, "q")


class FakeResponse:
    """A response with a status, a text and, if `body` is given, a JSON body."""

    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self.body = body
        self.text = text

    def json(self):
        if self.body is None:
            raise requests.JSONDecodeError("Expecting value", self.text, 0)
        return self.body


class ScriptedSession:
    """Records each post's headers and answers with its outcomes in turn,
    repeating the last one; an exception outcome is raised."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.headers = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.headers.append(headers)
        outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


# name -> (client on a session, its call, its key variable, its error class,
#          its retries, its first wait, a body it accepts)
HTTP_CLIENTS = {
    "chat": (
        lambda s: HttpChatBackend("http://x", "m", session=s),
        lambda client: client.complete("p", SamplingParams(), "t", "s"),
        "LLM_API_KEY", GatewayError, gateway.RETRIES, gateway.BACKOFF_S,
        {"choices": [{"message": {"content": "hi"}}]},
    ),
    "embeddings": (
        lambda s: RemoteEmbedder("http://x", "m", dimension=2, session=s),
        lambda client: client.embed(["a"]),
        "EMBEDDINGS_API_KEY", ContextStoreError, gateway.RETRIES, gateway.BACKOFF_S,
        {"data": [{"embedding": [3.0, 4.0]}]},
    ),
}


@pytest.mark.parametrize("name", sorted(HTTP_CLIENTS))
class TestPostJson:
    """Both HTTP clients go through `post_json`, and so behave alike."""

    def test_bearer_header_from_own_variable(self, name, monkeypatch):
        make, call, variable, _error, _retries, _wait, body = HTTP_CLIENTS[name]
        for other in {c[2] for c in HTTP_CLIENTS.values()} - {variable}:
            monkeypatch.setenv(other, "someone-elses-key")
        session = ScriptedSession(FakeResponse(body=body))
        client = make(session)
        monkeypatch.setenv(variable, "k3y")
        call(client)
        monkeypatch.delenv(variable)
        call(client)
        assert session.headers == [{"Authorization": "Bearer k3y"}, {}]

    def test_transport_failures_retried_with_doubling_waits(self, name, monkeypatch):
        make, call, _variable, error, retries, wait, _body = HTTP_CLIENTS[name]
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)
        session = ScriptedSession(requests.ConnectionError("connection reset"))
        with pytest.raises(error, match="unreachable"):
            call(make(session))
        assert len(session.headers) == 1 + retries
        assert waits == [wait * 2**i for i in range(retries)]

    def test_non_200_raises_with_status_and_excerpt(self, name):
        make, call, _variable, error, _retries, _wait, _body = HTTP_CLIENTS[name]
        text = "overloaded " + "z" * 400
        session = ScriptedSession(FakeResponse(503, text=text))
        with pytest.raises(error) as exc:
            call(make(session))
        assert "503" in str(exc.value) and text[:200] in str(exc.value)
        assert text[:201] not in str(exc.value)
        assert len(session.headers) == 1

    def test_body_that_is_not_json_raises(self, name):
        make, call, _variable, error, _retries, _wait, _body = HTTP_CLIENTS[name]
        session = ScriptedSession(FakeResponse(200, text="<html>gateway timeout</html>"))
        with pytest.raises(error, match="not JSON"):
            call(make(session))



# (client, a 200 JSON body it cannot read); the clients send one text and
# ask for one sample
WRONG_SHAPES = [
    pytest.param("chat", [1], id="chat-list"),
    pytest.param("chat", {"choices": "x"}, id="chat-choices-text"),
    pytest.param("chat", {"choices": [{}]}, id="chat-no-message"),
    pytest.param("chat", {"choices": [{"message": {"content": 5}}]}, id="chat-content-number"),
    pytest.param(
        "chat", {"choices": [{"message": {"content": "hi"}}], "usage": []}, id="chat-usage-list"
    ),
    pytest.param(
        "chat",
        {"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": "12"}},
        id="chat-token-count-text",
    ),
    pytest.param("embeddings", [1], id="embeddings-list"),
    pytest.param("embeddings", {"data": "x"}, id="embeddings-data-text"),
    pytest.param("embeddings", {"data": [{}]}, id="embeddings-no-embedding"),
    pytest.param("embeddings", {"data": []}, id="embeddings-no-vector"),
    pytest.param("embeddings", {"data": [{"embedding": "ab"}]}, id="embeddings-vector-text"),
    pytest.param(
        "embeddings", {"data": [{"embedding": [3.0, 4.0]}] * 2}, id="embeddings-two-vectors"
    ),
    pytest.param(
        "embeddings", {"data": [{"embedding": [3.0, 4.0, 5.0]}]}, id="embeddings-too-wide"
    ),
    pytest.param(
        "embeddings", {"data": [{"embedding": [None, 4.0]}]}, id="embeddings-not-finite"
    ),
]


@pytest.mark.parametrize(("name", "body"), WRONG_SHAPES)
def test_body_of_the_wrong_shape_raises(name, body):
    """A 200 JSON body the client cannot read raises its documented error,
    naming the URL, and no bare AttributeError, KeyError or TypeError."""
    make, call, _variable, error, _retries, _wait, _body = HTTP_CLIENTS[name]
    with pytest.raises(error, match="^http://x/.* wrong shape"):
        call(make(ScriptedSession(FakeResponse(body=body))))

class TestGatewayStructured:
    def test_counts_calls(self, calls):
        backend = MockBackend(
            responses={("q1+select_tables+0", "select_tables"): ['{"table_names": ["t"]}']}
        )
        gw = Gateway.single(backend)
        payload = gw.structured(
            "select_tables",
            {"DATABASE_SCHEMA": "s", "QUESTION": "q", "HINT": "h"},
            SamplingParams(),
            "q1+select_tables+0",
        )
        assert payload["table_names"] == ["t"]
        assert len(calls) == 1
        assert calls[0].template_id == "select_tables"

    def test_retry_on_parse_failure_uses_retry_key(self, calls):
        backend = MockBackend(
            responses={
                ("q1+select_tables+0", "select_tables"): ["garbage"],
                ("q1+select_tables+0#retry1", "select_tables"): ['{"table_names": []}'],
            }
        )
        gw = Gateway.single(backend)
        payload = gw.structured(
            "select_tables",
            {"DATABASE_SCHEMA": "s", "QUESTION": "q", "HINT": "h"},
            SamplingParams(),
            "q1+select_tables+0",
        )
        assert payload == {"table_names": []}
        assert len(calls) == 2

    def test_second_failure_propagates(self):
        backend = MockBackend(
            responses={
                ("k", "select_tables"): ["junk"],
                ("k#retry1", "select_tables"): ["more junk"],
            }
        )
        gw = Gateway.single(backend)
        with pytest.raises(ParseError):
            gw.structured(
                "select_tables",
                {"DATABASE_SCHEMA": "s", "QUESTION": "q", "HINT": "h"},
                SamplingParams(),
                "k",
            )

    def test_no_retry_mode(self, calls):
        backend = MockBackend(responses={("k", "revise"): ["junk"]})
        gw = Gateway.single(backend)
        with pytest.raises(ParseError):
            gw.structured(
                "revise",
                {
                    "DATABASE_SCHEMA": "s", "MISSING_ENTITIES": "", "QUESTION": "q",
                    "HINT": "h", "SQL": "SELECT 1", "QUERY_RESULT": "r",
                },
                SamplingParams(),
                "k",
            )
        assert len(calls) == 1

    def test_parse_failure_frees_callers_locals(self):
        """The raised ParseError ties no frame into a reference cycle, so a
        caller's locals die with the caller even with the collector off."""
        junk = {("k", "select_tables"): ["junk"], ("k#retry1", "select_tables"): ["junk"]}
        gw = Gateway.single(MockBackend(responses=junk))

        class Buffer:
            pass

        def caller():
            buffer = Buffer()
            try:
                gw.structured("select_tables", SELECT_BINDINGS, SamplingParams(), "k")
            except ParseError:
                pass
            return weakref.ref(buffer)

        gc.disable()
        try:
            assert caller()() is None
        finally:
            gc.enable()

    def test_per_tool_backend_binding(self):
        cheap = MockBackend(responses={("k", "filter_column"): ['{"is_column_information_relevant": "No"}']})
        strong = MockBackend(responses={("k", "select_tables"): ['{"table_names": []}']})
        gw = Gateway(backends={"filter_column": cheap, "default": strong})
        gw.structured(
            "filter_column",
            {"COLUMN_PROFILE": "c", "QUESTION": "q", "HINT": "h"},
            SamplingParams(),
            "k",
        )
        assert cheap.calls == 1
        assert strong.calls == 0


def _reask_prompts(template_id: str, log_path: Path) -> tuple[str, str]:
    """The first prompt and the re-ask of a call whose two answers do not parse."""
    junk = {("k", template_id): ["junk"], ("k#retry1", template_id): ["junk"]}
    backend = MockBackend(responses=junk)
    bindings = {name: "x" for name in TEMPLATES[template_id].placeholders()}
    with pytest.raises(ParseError):
        Gateway.single(backend, log_path).structured(template_id, bindings, SamplingParams(), "k")
    first, reask = (json.loads(line)["prompt"] for line in _read(log_path).splitlines())
    assert reask.startswith(first)
    return first, reask


# the tools whose parse failure costs only its own answer: a column vote, one
# candidate sample, one revision
NOT_REASKED = {"filter_column", "generate_candidate", "revise"}


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_template_table_decides_the_reask(template_id, calls):
    """A junk first answer is asked again under `#retry1` iff the template re-asks."""
    junk = {("k", template_id): ["junk"], ("k#retry1", template_id): ["junk"]}
    bindings = {name: "x" for name in TEMPLATES[template_id].placeholders()}
    gw = Gateway.single(MockBackend(responses=junk))
    (answer,) = gw.structured_many(template_id, [("k", bindings)], SamplingParams())
    assert isinstance(answer, ParseError)
    expected = ["k"] if template_id in NOT_REASKED else ["k", "k#retry1"]
    assert [r.scenario_key for r in calls] == expected


class TestReaskInstruction:
    """A parse re-ask appends the instruction of the shape that failed."""

    @pytest.mark.parametrize(
        ("template_id", "asks_for"),
        [
            ("extract_keywords", "Python list"),
            ("generate_unit_tests", "<Answer>"),
            ("evaluate_unit_test", "Candidate Response #<n>: Passed"),
        ],
        ids=[PYTHON_LIST, TAGGED_ANSWER_BLOCK, VERDICT_LINES],
    )
    def test_non_json_shapes_ask_for_their_own(self, template_id, asks_for, tmp_path):
        first, reask = _reask_prompts(template_id, tmp_path / "log.jsonl")
        instruction = reask[len(first):]
        assert instruction.startswith("\n\nRespond with ")
        assert asks_for in instruction
        assert "JSON" not in instruction

    def test_json_reask_is_unchanged(self, tmp_path):
        first, reask = _reask_prompts("select_tables", tmp_path / "log.jsonl")
        assert reask == first + "\n\nRespond with valid JSON only."


class TestLedger:
    def _call(self, gw, key):
        gw.complete_prompt("revise", "p", SamplingParams(), key)

    def test_nested_records_reach_the_outer_ledger(self):
        gw = Gateway.single(MockBackend(responses={(k, "revise"): ["r"] for k in "abc"}))
        self._call(gw, "a")  # outside any ledger: recorded nowhere
        with ledger() as outer:
            self._call(gw, "b")
            with ledger() as inner:
                self._call(gw, "c")
            assert [r.scenario_key for r in inner] == ["c"]
        assert [r.scenario_key for r in outer] == ["b", "c"]

    def test_contexts_on_one_thread_keep_their_own(self):
        """Runs stepped in turn on one thread, each in a context of its own,
        each see only their own calls."""
        gw = Gateway.single(MockBackend(responses={(k, "revise"): ["r"] for k in "abcd"}))

        def run(keys):
            with ledger() as records:
                for key in keys:
                    self._call(gw, key)
                    yield
            yield [r.scenario_key for r in records]

        runs = [run("ac"), run("bd")]
        contexts = [contextvars.copy_context() for _ in runs]
        results = [[], []]
        for _ in range(3):
            for i, steps in enumerate(runs):
                results[i].append(contexts[i].run(next, steps))
        assert results[0][-1] == ["a", "c"]
        assert results[1][-1] == ["b", "d"]


def test_sanitize_scenario_key():
    assert sanitize_scenario_key("q1+filter_column+t.c") == "q1+filter_column+t.c"
    assert sanitize_scenario_key("weird/key with spaces") == "weird_key_with_spaces"


def test_sampling_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(n_samples=0)
    with pytest.raises(ValueError):
        SamplingParams(temperature=-1)
    with pytest.raises(ValueError, match="temperature must be >= 0, got nan"):
        SamplingParams(temperature=float("nan"))
    with pytest.raises(ValueError, match="max_tokens must be >= 1 and an int, got 0"):
        SamplingParams(max_tokens=0)


def test_completion_count_enforced():
    class ShortBackend:
        backend_id = "short"

        def complete(self, prompt, params, template_id, scenario_key):
            return [Completion("only one", 1, 1, "short")]

    with pytest.raises(GatewayError):
        complete(ShortBackend(), "p", SamplingParams(n_samples=3), "t", "s")


def test_request_response_jsonl_log(tmp_path):
    import json as _json

    log = tmp_path / "calls.jsonl"
    backend = MockBackend(responses={("k", "revise"): ["scripted response"]})
    gw = Gateway.single(backend, log_path=log)
    gw.complete_prompt("revise", "the prompt", SamplingParams(), "k")
    lines = [_json.loads(l) for l in log.read_text().splitlines()]
    assert lines[0]["prompt"] == "the prompt"
    assert lines[0]["responses"] == ["scripted response"]
    assert lines[0]["scenario_key"] == "k"


SELECT_BINDINGS = {"DATABASE_SCHEMA": "s", "QUESTION": "q", "HINT": "h"}
# a template that re-asks a parse failure and one that does not, with their bindings
BINDINGS = {
    "select_tables": SELECT_BINDINGS,
    "revise": {**SELECT_BINDINGS, "MISSING_ENTITIES": "", "SQL": "SELECT 1", "QUERY_RESULT": "r"},
}

# what the backend does for one request: its first answer, then its re-ask;
# None is no scripted response, which the mock raises as a GatewayError
OUTCOMES = {
    "ok": ['{"ok": 1}'],
    "bad_then_good": ["junk", '{"fixed": 1}'],
    "bad_then_bad": ["junk", "more junk"],
    "bad_then_error": ["junk", None],
    "error": [None],
}


def _scripted(outcomes: list[str], template_id: str = "select_tables") -> MockBackend:
    responses = {}
    for i, outcome in enumerate(outcomes):
        for key, text in zip((f"k{i}", f"k{i}#retry1"), OUTCOMES[outcome]):
            if text is not None:
                responses[(key, template_id)] = [text]
    return MockBackend(responses=responses)


def _answer(value):
    if isinstance(value, ParseError):
        return ("ParseError", str(value), value.raw)
    return value


def _records(calls: list[CallRecord]) -> list[tuple]:
    return [
        (r.template_id, r.scenario_key, r.backend_id, r.n_samples, r.prompt_tokens,
         r.completion_tokens)
        for r in calls
    ]


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


class Unreadable(Exception):
    """What a request iterator of the tests below raises."""


def _requests(keys, bindings, fault):
    """`(key, bindings)` pairs of `keys`; a `fault` of `(i, "iterator")`
    raises Unreadable in place of request i, and one of `(i, "binding")`
    hands request i bindings that lack a placeholder."""
    for i in range(len(keys) + 1):
        if fault == (i, "iterator"):
            raise Unreadable(f"request {i}")
        if fault == (i, "binding"):
            yield f"k{i}", {}
        elif i < len(keys):
            yield keys[i], bindings


def _error(exc: Exception) -> tuple[str, str]:
    return type(exc).__name__, str(exc)


class TestStructuredMany:
    @settings(max_examples=200, deadline=None)
    @given(
        outcomes=st.lists(st.sampled_from(sorted(OUTCOMES)), max_size=12),
        template_id=st.sampled_from(sorted(BINDINGS)),
        window=st.integers(1, 4),
        data=st.data(),
    )
    def test_batch_matches_one_by_one(self, outcomes, template_id, window, data):
        """Across window seams (WINDOW of 1 to 4, so a window is out behind
        the one being read) and with the request iterator failing at a drawn
        request, the batch hands out the answers, records, log lines and
        error of a one-by-one run."""
        fault = data.draw(st.none() | st.tuples(
            st.integers(0, len(outcomes)), st.sampled_from(["iterator", "binding"])
        ))
        keys = [f"k{i}" for i in range(len(outcomes))]
        bindings = BINDINGS[template_id]
        with tempfile.TemporaryDirectory() as tmp:
            one_by_one = Gateway.single(
                _scripted(outcomes, template_id), log_path=Path(tmp) / "a.jsonl"
            )
            expected, expected_error = [], None
            with ledger() as one_by_one_calls:
                try:
                    for key, request in _requests(keys, bindings, fault):
                        try:
                            expected.append(
                                one_by_one.structured(template_id, request, SamplingParams(), key)
                            )
                        except ParseError as exc:
                            expected.append(_answer(exc))
                except (GatewayError, RenderError, Unreadable) as exc:
                    expected_error = _error(exc)

            batch = Gateway.single(
                _scripted(outcomes, template_id), log_path=Path(tmp) / "b.jsonl"
            )
            answers, error = [], None
            with ledger() as batch_calls, pytest.MonkeyPatch.context() as patch:
                patch.setattr(gateway, "WINDOW", window)
                try:
                    for answer in batch.structured_many(
                        template_id, _requests(keys, bindings, fault), SamplingParams()
                    ):
                        answers.append(_answer(answer))
                except (GatewayError, RenderError, Unreadable) as exc:
                    error = _error(exc)
            assert answers == expected
            assert error == expected_error
            assert _records(batch_calls) == _records(one_by_one_calls)
            assert _read(Path(tmp) / "b.jsonl") == _read(Path(tmp) / "a.jsonl")

    def test_samples_in_flight_together(self, motorsport_catalog, calls):
        class BarrierBackend:
            backend_id = "barrier"

            def __init__(self):
                self.barrier = threading.Barrier(8, timeout=5)

            def complete(self, prompt, params, template_id, scenario_key):
                self.barrier.wait()  # breaks unless all 8 calls are out at once
                return [Completion('{"SQL": "SELECT 1"}', 1, 1, self.backend_id)]

        gw = Gateway.single(BarrierBackend())
        env = RunEnv(
            "q", "h", full_projection(motorsport_catalog), RetrievedContext(), Path(), gw, "q"
        )
        candidates = generate_candidate(env, SamplingParams(temperature=1.0, n_samples=8))
        assert len(candidates) == 8
        assert [r.scenario_key for r in calls] == [
            f"q+generate_candidate+{i}" for i in range(8)
        ]


class TestStructuredManyWindows:
    def test_requests_are_read_a_window_at_a_time(self, calls):
        """A generator of requests is advanced at most two windows ahead of
        the answers: the first answer comes after 2 * WINDOW pulls."""
        n = 2 * WINDOW + 5
        backend = MockBackend(
            responses={(f"k{i}", "select_tables"): [f'{{"i": {i}}}'] for i in range(n)}
        )
        pulled = []

        def requests():
            for i in range(n):
                pulled.append(i)
                yield f"k{i}", SELECT_BINDINGS

        answers = Gateway.single(backend).structured_many(
            "select_tables", requests(), SamplingParams()
        )
        assert pulled == []
        assert next(answers) == {"i": 0}
        assert len(pulled) == 2 * WINDOW
        assert backend.calls <= 2 * WINDOW  # no call of a third window is out
        assert list(answers) == [{"i": i} for i in range(1, n)]
        assert len(pulled) == n
        assert [r.scenario_key for r in calls] == [f"k{i}" for i in range(n)]

    def test_at_most_pool_width_tasks_per_window(self, monkeypatch, calls):
        n = 2 * WINDOW + 5
        keys = [f"k{i}" for i in range(n)]
        backend = MockBackend(responses={(k, "select_tables"): [f'{{"i": {i}}}'] for i, k in enumerate(keys)})
        submitted: list[list[str]] = []
        submit = gateway._POOL.submit

        def counting_submit(fn, *args):
            submitted.append(list(args[-1]))  # the chunk's scenario keys
            return submit(fn, *args)

        monkeypatch.setattr(gateway._POOL, "submit", counting_submit)
        gw = Gateway.single(backend)
        answers = list(
            gw.structured_many(
                "select_tables", [(key, SELECT_BINDINGS) for key in keys], SamplingParams()
            )
        )
        assert answers == [{"i": i} for i in range(n)]
        assert [r.scenario_key for r in calls] == keys
        # each window's chunks are consecutive runs of its keys, at most POOL_WIDTH of them
        windows = [keys[i : i + WINDOW] for i in range(0, n, WINDOW)]
        per_window, chunks = [], iter(submitted)
        for window in windows:
            covered: list[str] = []
            count = 0
            while covered != window:
                covered += next(chunks)
                count += 1
            per_window.append(count)
        assert next(chunks, None) is None
        assert per_window == [POOL_WIDTH, POOL_WIDTH, 5]

    def test_unparseable_answer_carries_no_traceback(self):
        """A ParseError kept in the answer list holds no frames, so it ties
        no caller's locals into a reference cycle."""
        gw = Gateway.single(_scripted(["bad_then_bad", "ok"]))
        answers = list(gw.structured_many(
            "select_tables", [("k0", SELECT_BINDINGS), ("k1", SELECT_BINDINGS)],
            SamplingParams(),
        ))
        assert isinstance(answers[0], ParseError)
        assert answers[0].__traceback__ is None

    @pytest.mark.parametrize("fault", ["iterator", "binding", "backend"])
    def test_held_error_frees_callers_locals(self, monkeypatch, fault):
        """An error held from the read-ahead window, or one the backend
        raises in a pool chunk (a batch of two whose second call has no
        scripted response), ties no frame into a reference cycle once it is
        raised, so a caller's locals die with the caller even with the
        collector off."""
        monkeypatch.setattr(gateway, "WINDOW", 2)
        keys = ["k0", "k1"] if fault == "backend" else ["k0", "k1", "k2"]
        answered = keys[:-1] if fault == "backend" else keys
        gw = Gateway.single(MockBackend(
            responses={(key, "select_tables"): ['{"ok": 1}'] for key in answered}
        ))

        class Buffer:
            pass

        def caller():
            buffer = Buffer()
            try:
                list(gw.structured_many(
                    "select_tables", _requests(keys, SELECT_BINDINGS, (3, fault)),
                    SamplingParams(),
                ))
            except (Unreadable, RenderError, GatewayError):
                return weakref.ref(buffer)
            raise AssertionError("the batch raised nothing")

        gc.disable()
        try:
            assert caller()() is None
        finally:
            gc.enable()


class GatedBackend:
    """Counts the calls started and the calls out. A call whose key is in
    `held` waits for `gate`; the call keyed `failing` waits until every held
    call has started and then raises a GatewayError."""

    backend_id = "gated"

    def __init__(self, held, failing=None):
        self.held, self.failing = set(held), failing
        self.gate, self.held_out = threading.Event(), threading.Event()
        self.lock = threading.Lock()
        self.started = self.in_flight = self.held_started = 0

    def complete(self, prompt, params, template_id, scenario_key):
        with self.lock:
            self.started += 1
            self.in_flight += 1
            self.held_started += scenario_key in self.held
            if self.held_started == len(self.held):
                self.held_out.set()
        try:
            if scenario_key in self.held:
                assert self.gate.wait(5)
            if scenario_key == self.failing:
                assert self.held_out.wait(5)
                raise GatewayError("backend down")
            return [Completion('{"ok": 1}', 1, 1, self.backend_id)]
        finally:
            with self.lock:
                self.in_flight -= 1


class TestStructuredManyEnds:
    """However a batch ends, no call of it is out and none starts later,
    the read-ahead window's included. Windows of 4 requests, one request a
    chunk; the held calls wait for a gate that opens 0.2 s after the batch
    is told to end."""

    KEYS = [f"k{i}" for i in range(12)]

    @pytest.fixture(autouse=True)
    def small_windows(self, monkeypatch):
        monkeypatch.setattr(gateway, "WINDOW", 4)

    @staticmethod
    def _batch(backend, keys=KEYS):
        return Gateway.single(backend).structured_many(
            "select_tables", [(key, SELECT_BINDINGS) for key in keys], SamplingParams()
        )

    @staticmethod
    @contextlib.contextmanager
    def _ending(backend):
        """Opens the gate 0.2 s after the block starts; once the block has
        ended the batch, no call is out and none starts later."""
        timer = threading.Timer(0.2, backend.gate.set)
        timer.start()
        yield
        assert backend.in_flight == 0
        timer.join(5)
        assert not timer.is_alive()
        started = backend.started
        time.sleep(0.05)
        assert backend.started == started
        assert backend.in_flight == 0

    def test_exhausted(self, calls):
        backend = GatedBackend(held=self.KEYS[4:8])
        with self._ending(backend):
            assert list(self._batch(backend)) == [{"ok": 1}] * 12
        assert backend.started == 12
        assert [r.scenario_key for r in calls] == self.KEYS

    def test_backend_error_with_the_next_window_out(self, calls):
        backend = GatedBackend(held=self.KEYS[4:8], failing="k1")
        answers = self._batch(backend)
        assert next(answers) == {"ok": 1}
        with self._ending(backend), pytest.raises(GatewayError, match="backend down"):
            next(answers)
        assert backend.started == 8  # the third window is never read
        assert [r.scenario_key for r in calls] == ["k0"]

    def test_closed_mid_window(self, calls):
        backend = GatedBackend(held=self.KEYS[4:8])
        answers = self._batch(backend)
        assert next(answers) == {"ok": 1}
        assert backend.held_out.wait(5)
        with self._ending(backend):
            answers.close()
        assert backend.started == 8
        assert [r.scenario_key for r in calls] == ["k0"]

    def test_queued_chunks_never_start(self, calls, monkeypatch):
        """With windows of POOL_WIDTH requests, the first window fills the
        pool and the read-ahead window waits in its queue; a batch closed
        then cancels what has not started."""
        monkeypatch.setattr(gateway, "WINDOW", POOL_WIDTH)
        keys = [f"k{i}" for i in range(2 * POOL_WIDTH)]
        backend = GatedBackend(held=keys[1:POOL_WIDTH + 1])
        answers = self._batch(backend, keys)
        assert next(answers) == {"ok": 1}
        assert backend.held_out.wait(5)  # k0's worker took k8; the rest of window 2 is queued
        with self._ending(backend):
            answers.close()
        assert backend.started == POOL_WIDTH + 1
        assert [r.scenario_key for r in calls] == ["k0"]
