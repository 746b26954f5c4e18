"""Chat-completion access: HTTP backend with bounded retry, a deterministic
mock backend for offline runs, structured-output parsing, and per-call
accounting into run-scoped ledgers.

The mock backend is a pure lookup: (scenario_key, template_id) maps to a
scripted response, either from an in-memory mapping or from a fixture
directory laid out as `<root>/<scenario_key>/<template_id>[.n].txt` with
optional per-template fallbacks in `<root>/defaults/<template_id>.txt`.
Identical keys always produce identical responses, which keeps end-to-end
runs reproducible byte for byte.
"""

from __future__ import annotations

import ast
import contextlib
import contextvars
import itertools
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import requests

from . import templates
from .templates import (
    JSON_OBJECT,
    PYTHON_LIST,
    TAGGED_ANSWER_BLOCK,
    VERDICT_LINES,
    render_template,
)
from .textutils import check_int, estimate_tokens

logger = logging.getLogger(__name__)

_VERDICT_RE = re.compile(
    r"candidate\s+response\s*#?\s*(\d+)\s*:\s*(passed|failed)", re.IGNORECASE
)
_ANSWER_TAG_RE = re.compile(r"</?\s*Answer\s*>", re.IGNORECASE)
_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)


class GatewayError(Exception):
    """Transport-level or protocol-level completion failure."""


class ParseError(Exception):
    """Model output did not match the expected shape; carries the raw text."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


@dataclass
class SamplingParams:
    temperature: float = 0.0
    max_tokens: int = 2048
    n_samples: int = 1

    def __post_init__(self) -> None:
        check_int("max_tokens", self.max_tokens, 1)
        check_int("n_samples", self.n_samples, 1)
        if not self.temperature >= 0:  # written so that NaN fails too
            raise ValueError(f"temperature must be >= 0, got {self.temperature!r}")


@dataclass
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int
    backend_id: str


@dataclass
class CallRecord:
    template_id: str
    scenario_key: str
    backend_id: str
    n_samples: int
    prompt_tokens: int
    completion_tokens: int
    elapsed: float


_LEDGER = contextvars.ContextVar("querycrew_ledger", default=None)


@contextlib.contextmanager
def ledger() -> Iterator[list[CallRecord]]:
    """The CallRecord of every gateway call made in this context, in order.

    On exit the records also reach the enclosing ledger, if any. Runs on
    threads or in contexts of their own keep their own ledgers. A call made
    outside any ledger is recorded nowhere.
    """
    outer = _LEDGER.get()
    records: list[CallRecord] = []
    token = _LEDGER.set(records)
    try:
        yield records
    finally:
        _LEDGER.reset(token)
        if outer is not None:
            outer.extend(records)


def tally(records: Sequence[CallRecord]) -> tuple[int, int, int]:
    """A ledger's calls, prompt tokens and completion tokens."""
    prompt = sum(r.prompt_tokens for r in records)
    return len(records), prompt, sum(r.completion_tokens for r in records)


class Backend(Protocol):
    backend_id: str

    def complete(
        self, prompt: str, params: SamplingParams, template_id: str, scenario_key: str
    ) -> list[Completion]: ...


# The transport retries of every HTTP client (`post_json`): up to RETRIES, the
# waits doubling from BACKOFF_S seconds.
RETRIES = 3
BACKOFF_S = 0.5


class HttpChatBackend:
    """Client for a chat-completions-compatible HTTP endpoint.

    Requests go through `post_json`, which retries on its one schedule; its
    failures, and a body of the wrong shape, raise GatewayError.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = "LLM_API_KEY",
        timeout: float = 120.0,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.backend_id = f"http:{model}"
        self.session = session or requests.Session()

    def complete(
        self, prompt: str, params: SamplingParams, template_id: str, scenario_key: str
    ) -> list[Completion]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
            "n": params.n_samples,
        }
        url = f"{self.base_url}/chat/completions"
        body = post_json(self.session, url, payload, self.api_key_env, self.timeout, GatewayError)
        try:
            usage = body.get("usage", {})
            texts = [choice["message"]["content"] or "" for choice in body.get("choices", [])]
            prompt_tokens = usage.get("prompt_tokens", estimate_tokens(prompt))
            total_completion = usage.get("completion_tokens")
            if not all(isinstance(text, str) for text in texts):
                raise TypeError("a choice's content is not a string")
            if not isinstance(prompt_tokens, int) or not isinstance(total_completion, int | None):
                raise TypeError("a token count is not an integer")
        except (AttributeError, LookupError, TypeError) as exc:
            raise GatewayError(f"{url} returned a body of the wrong shape: {exc!r}") from exc
        if len(texts) != params.n_samples:
            raise GatewayError(
                f"backend returned {len(texts)} choices, expected {params.n_samples}"
            )
        completions = []
        for text in texts:
            per_sample = (
                total_completion // len(texts)
                if total_completion is not None
                else estimate_tokens(text)
            )
            completions.append(Completion(text, prompt_tokens, per_sample, self.backend_id))
        return completions


def post_json(
    session: requests.Session,
    url: str,
    payload: object,
    api_key_env: str,
    timeout: float,
    error: type[Exception],
):
    """POST `payload` as JSON and return the decoded body of the response.

    This is the one HTTP client of the package, and it alone holds the retry
    schedule. The bearer header comes from the environment variable
    `api_key_env` when it is set. A transport failure is retried up to
    RETRIES times, the waits doubling from BACKOFF_S seconds; both are read
    at call time. Exhausted retries, a non-200 response (with a body excerpt)
    and a body that is not JSON each raise `error`.
    """
    api_key = os.environ.get(api_key_env, "")
    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    for attempt in range(RETRIES + 1):
        try:
            resp = session.post(url, json=payload, headers=headers, timeout=timeout)
            break
        except requests.RequestException as exc:
            if attempt == RETRIES:
                raise error(f"{url} unreachable after {RETRIES} retries: {exc}") from exc
            time.sleep(BACKOFF_S * 2**attempt)
    if resp.status_code != 200:
        raise error(f"{url} returned {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise error(f"{url} returned a body that is not JSON: {exc}") from exc


class MockLookupError(GatewayError):
    """No scripted response exists for (scenario_key, template_id)."""


class MockBackend:
    """Deterministic scripted backend for offline tests and benchmarks.

    `responses` maps `(scenario_key, template_id)` pairs of strings to
    nonempty sequences of variants; any other key could never match and a
    string would be split into one-character variants, so both raise
    TypeError.
    """

    backend_id = "mock"

    def __init__(
        self,
        fixture_dir: str | Path | None = None,
        responses: Mapping[tuple[str, str], Sequence[str]] | None = None,
    ):
        self.fixture_dir = Path(fixture_dir) if fixture_dir else None
        self.responses = {}
        for key, variants in (responses or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(part, str) for part in key)):
                raise TypeError(f"mock response key {key!r} is not a "
                                "(scenario_key, template_id) pair of strings")
            if isinstance(variants, str) or not variants:
                raise TypeError(f"mock responses for {key!r} are not a nonempty "
                                f"sequence of variants: {variants!r}")
            self.responses[key] = list(variants)
        self.calls = 0
        self._lock = threading.Lock()

    def complete(
        self, prompt: str, params: SamplingParams, template_id: str, scenario_key: str
    ) -> list[Completion]:
        with self._lock:
            self.calls += 1
        variants = self._lookup(scenario_key, template_id)
        out = []
        for i in range(params.n_samples):
            text = variants[i] if i < len(variants) else variants[-1]
            out.append(
                Completion(
                    text=text,
                    prompt_tokens=estimate_tokens(prompt),
                    completion_tokens=estimate_tokens(text),
                    backend_id=self.backend_id,
                )
            )
        return out

    def _lookup(self, scenario_key: str, template_id: str) -> list[str]:
        key = (scenario_key, template_id)
        if key in self.responses:
            return self.responses[key]
        if self.fixture_dir is not None:
            scenario_dir = self.fixture_dir / sanitize_scenario_key(scenario_key)
            single = scenario_dir / f"{template_id}.txt"
            if single.is_file():
                return [single.read_text(encoding="utf-8")]
            numbered = re.compile(re.escape(template_id) + r"\.([0-9]+)\.txt")
            variants = sorted(
                (int(m[1]), p)
                for p in scenario_dir.glob(f"{template_id}.*.txt")
                if (m := numbered.fullmatch(p.name))
            )
            if variants:
                return [p.read_text(encoding="utf-8") for _, p in variants]
            fallback = self.fixture_dir / "defaults" / f"{template_id}.txt"
            if fallback.is_file():
                return [fallback.read_text(encoding="utf-8")]
        raise MockLookupError(
            f"no scripted response for scenario {scenario_key!r} / {template_id!r}"
        )


_SCENARIO_SAFE = re.compile(r"[^A-Za-z0-9._+#-]")


def sanitize_scenario_key(key: str) -> str:
    return _SCENARIO_SAFE.sub("_", key)


def complete(
    backend: Backend,
    prompt: str,
    params: SamplingParams,
    template_id: str = "",
    scenario_key: str = "",
) -> list[Completion]:
    """Request n_samples completions from a backend."""
    completions = backend.complete(prompt, params, template_id, scenario_key)
    if len(completions) != params.n_samples:
        raise GatewayError(
            f"backend produced {len(completions)} completions, expected {params.n_samples}"
        )
    return completions


# How many backend calls of batches can be out at once: the one bound on calls
# in flight. A parse re-ask runs on the calling thread beside the pool, so one
# caller has at most POOL_WIDTH + 1 calls out. The pool's threads start only
# when a batch of two or more requests first needs them.
POOL_WIDTH = 8
# How many requests of a batch `structured_many` reads, renders and sends at a
# time, which bounds the requests and prompts a batch holds. On the bench's
# 4,337-column schema (2,893 filter calls a question, 0.1 ms each; 2-core
# Linux host) the median question took about 190, 180 and 170 ms with windows
# of 64, 128 and 256, against 490 ms one call at a time; peak RSS rose 0.4%,
# 0.5% and 1%, and one 256 run rose 11%. 128 keeps most of the gain at a
# steady memory cost.
WINDOW = 128
_POOL = ThreadPoolExecutor(max_workers=POOL_WIDTH, thread_name_prefix="querycrew-backend")

Sent = tuple[list[Completion], float]


def _timed_complete(
    backend: Backend, prompt: str, params: SamplingParams, template_id: str, scenario_key: str
) -> Sent:
    start = time.perf_counter()
    completions = complete(backend, prompt, params, template_id, scenario_key)
    return completions, time.perf_counter() - start


def _complete_chunk(
    backend: Backend,
    prompts: Sequence[str],
    params: SamplingParams,
    template_id: str,
    scenario_keys: Sequence[str],
) -> tuple[list[Sent], Exception | None]:
    """Backend calls of consecutive requests, one after another. Stops at
    the first call that raises and returns the answers before it with that
    error."""
    done = []
    for prompt, key in zip(prompts, scenario_keys):
        try:
            done.append(_timed_complete(backend, prompt, params, template_id, key))
        except Exception as exc:
            return done, exc
    return done, None


def _chunk_answers(chunks: Sequence[Future]):
    """Each request's backend answer in request order; a chunk's error is
    raised in place of the first request it did not answer."""
    for chunk in chunks:
        done, error = chunk.result()
        yield from done
        if error is not None:
            raise error


def parse_structured(completion: Completion | str, expected_shape: str):
    """Parse a completion into the declared output shape.

    json_object -> dict, python_list -> list of str, tagged_answer_block ->
    list of str read from `_answer_block`, verdict_lines -> list of
    "Passed"/"Failed" strings whose entry n-1 is on `Candidate Response #n`.
    Raises ParseError carrying the raw text.
    """
    text = completion.text if isinstance(completion, Completion) else completion
    if expected_shape not in SHAPES:
        raise ValueError(f"unknown expected_shape {expected_shape!r}")
    return SHAPES[expected_shape][0](text)


def _parse_or_error(completion: Completion, expected_shape: str):
    """The parsed completion, or the ParseError that parsing raised.

    The error is returned without its traceback. Its frames would link to
    every caller's frame, and the caller that collects the answers holds the
    error in turn: a reference cycle that keeps a whole sweep batch alive
    until the cyclic collector runs.
    """
    try:
        return parse_structured(completion, expected_shape)
    except ParseError as exc:
        return exc.with_traceback(None)


def _strip_fences(text: str) -> str:
    m = _FENCE_RE.search(text)
    return m.group(1) if m else text


def _balanced_block(text: str, open_ch: str, close_ch: str) -> str | None:
    """First balanced open..close block, string-literal aware: the block of
    the first opener whose scan returns to depth 0, where a quote opens a
    string that only its own quote closes and a backslash in a string escapes
    the next character.

    Linear in len(text). When the first opener's scan runs off the end, one
    backward pass finds the first opener whose scan closes, and only that
    one is scanned again.
    """
    start = text.find(open_ch)
    if start == -1:
        return None
    end = _block_end(text, start, open_ch, close_ch)
    if end is None:
        start = _first_closing_opener(text, start, open_ch, close_ch)
        if start is None:
            return None
        end = _block_end(text, start, open_ch, close_ch)
    return text[start : end + 1]


def _block_end(text: str, start: int, open_ch: str, close_ch: str) -> int | None:
    """Where the scan from the opener at `start` returns to depth 0, if it does."""
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
                return i
    return None


def _first_closing_opener(text: str, first: int, open_ch: str, close_ch: str) -> int | None:
    """The first opener at or after `first` whose scan returns to depth 0.

    Scans from different openers that reach one position in the same string
    state go on alike, up to their depth. So a pass from the end keeps, for
    each of the five string states (outside; inside either quote, escaped or
    not), how far the depth falls at most from here to the end; the scan from
    an opener at i closes iff that fall outside strings from i + 1 is >= 1.
    """
    out = dq = dq_esc = sq = sq_esc = 0
    found = None
    for i in range(len(text) - 1, first - 1, -1):
        ch = text[i]
        if ch == open_ch and out >= 1:
            found = i
        out, dq, dq_esc, sq, sq_esc = (
            max(out - 1, 0) if ch == open_ch else out + 1 if ch == close_ch
            else dq if ch == '"' else sq if ch == "'" else out,
            dq_esc if ch == "\\" else out if ch == '"' else dq,
            dq,
            sq_esc if ch == "\\" else out if ch == "'" else sq,
            sq,
        )
    return found


def _parse_json_object(text: str) -> dict:
    body = _strip_fences(text)
    try:  # a whole JSON object is the block the scan below would find
        value = json.loads(body)
    except (ValueError, RecursionError):  # bad JSON, too long an integer, too deep
        value = None
    if isinstance(value, dict):
        return value
    block = _balanced_block(body, "{", "}")
    if block is not None:
        try:
            value = json.loads(block)
            if isinstance(value, dict):
                return value
        except (ValueError, RecursionError):
            pass
    raise ParseError("no parseable JSON object in response", raw=text)


def _parse_python_list(text: str) -> list[str]:
    block = _balanced_block(_strip_fences(text), "[", "]")
    if block is not None:
        try:
            value = ast.literal_eval(block)
            if isinstance(value, (list, tuple)):
                return [str(item) for item in value]
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            pass  # what literal_eval documents it raises on malformed input
    raise ParseError("no parseable Python list in response", raw=text)


def _answer_block(text: str, untagged_ok: bool) -> str:
    """The last nonempty text between two <Answer> tags, or the text after a
    lone tag, but never the text after the last of several tags. Where
    `untagged_ok`, a text without tags is its own block."""
    segments = _ANSWER_TAG_RE.split(text)
    if len(segments) < 2 and not untagged_ok:
        raise ParseError("no <Answer> block in response", raw=text)
    blocks = [seg for seg in segments[1:-1] or segments[1:] or segments if seg.strip()]
    if not blocks:
        raise ParseError("empty answer in response", raw=text)
    return blocks[-1]


def _parse_tagged_answer(text: str) -> list[str]:
    return _parse_python_list(_answer_block(text, untagged_ok=False))


def _parse_verdicts(text: str) -> list[str]:
    """Entry n-1 is the first verdict on candidate n, and a number no line
    names reads Failed. A number of 0 or past len(text) is dropped before any
    int conversion, so the list is never longer than the text."""
    verdicts: dict[int, str] = {}
    for number, verdict in _VERDICT_RE.findall(_answer_block(text, untagged_ok=True)):
        number = number.lstrip("0")
        if number and len(number) <= len(str(len(text))) and int(number) <= len(text):
            verdicts.setdefault(int(number), verdict.capitalize())
    if not verdicts:
        raise ParseError("no verdict lines in response", raw=text)
    row = [verdicts.get(n, "Failed") for n in range(1, max(verdicts) + 1)]
    if len(verdicts) < len(row):
        logger.warning("%d candidates have no verdict; read as Failed", len(row) - len(verdicts))
    return row


# Each shape's parser, and the instruction a re-ask after a parse failure
# appends to the prompt.
SHAPES = {
    JSON_OBJECT: (_parse_json_object, "Respond with valid JSON only."),
    PYTHON_LIST: (_parse_python_list, "Respond with a Python list of strings only."),
    TAGGED_ANSWER_BLOCK: (_parse_tagged_answer, "Respond with a Python list in <Answer> tags."),
    VERDICT_LINES: (_parse_verdicts, "Respond with `Candidate Response #<n>: Passed` or "
                    "`Candidate Response #<n>: Failed` lines in <Answer> tags."),
}


@dataclass
class Gateway:
    """Routes tool calls to backends and records per-call accounting.

    `backends` maps a template_id to its backend; the "default" entry covers
    everything unbound. Every backend call appends one CallRecord to the
    current `ledger`, which is what pipeline traces count as an LLM call.
    With `log_path` set, full request/response pairs are appended there as
    JSONL for replay.
    """

    backends: dict[str, Backend]
    log_path: Path | None = None

    @classmethod
    def single(cls, backend: Backend, log_path: Path | None = None) -> "Gateway":
        return cls(backends={"default": backend}, log_path=log_path)

    def backend_for(self, template_id: str) -> Backend:
        backend = self.backends.get(template_id) or self.backends.get("default")
        if backend is None:
            raise GatewayError(f"no backend bound for {template_id!r}")
        return backend

    def complete_rendered(
        self,
        template_id: str,
        bindings: dict[str, object],
        params: SamplingParams,
        scenario_key: str,
    ) -> list[Completion]:
        prompt = render_template(template_id, bindings)
        return self.complete_prompt(template_id, prompt, params, scenario_key)

    def complete_prompt(
        self,
        template_id: str,
        prompt: str,
        params: SamplingParams,
        scenario_key: str,
        sent: Sent | None = None,
    ) -> list[Completion]:
        """One backend call, recorded and logged.

        `sent` is the answer, with its elapsed time, that a pool worker of
        `structured_many` already got for this request; without it the
        backend is called here.
        """
        backend = self.backend_for(template_id)
        completions, elapsed = sent or _timed_complete(
            backend, prompt, params, template_id, scenario_key
        )
        records = _LEDGER.get()
        if records is not None:
            records.append(
                CallRecord(
                    template_id=template_id,
                    scenario_key=scenario_key,
                    backend_id=getattr(backend, "backend_id", "?"),
                    n_samples=params.n_samples,
                    prompt_tokens=completions[0].prompt_tokens,
                    completion_tokens=sum(c.completion_tokens for c in completions),
                    elapsed=elapsed,
                )
            )
        if self.log_path is not None:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {
                            "template_id": template_id,
                            "scenario_key": scenario_key,
                            "prompt": prompt,
                            "responses": [c.text for c in completions],
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        return completions

    def structured_many(
        self,
        template_id: str,
        requests: Iterable[tuple[str, dict[str, object]]],
        params: SamplingParams,
    ) -> Iterator:
        """Render, complete, and parse a batch of independent calls, each
        request a `(scenario_key, bindings)` pair; the answers come back as
        an iterator, in request order.

        `requests` is read WINDOW pairs at a time, so the batch never holds
        more than one window's requests and prompts, and a generator of
        requests is advanced only when its window is due. A window's prompts
        are rendered on the calling thread and split into at most POOL_WIDTH
        chunks of consecutive requests. Each chunk is one pool task, run in a
        copy of the caller's context, whose worker makes the chunk's backend
        calls one after another; a one-request window calls the backend
        inline. Each answer is then recorded, logged and parsed on the
        calling thread at its turn, so the ledger, the log and whatever the
        caller does with an answer happen as if the requests had run one
        after another.

        Where the template re-asks, a parse failure is re-asked once at its
        own request's turn, as in `structured`; an answer that does not parse
        in the end comes back as its ParseError. A chunk stops at its first
        backend error: the requests before that error are recorded and handed
        out, the window's other chunks are waited for, and the error is raised
        in place of its request's answer.
        """
        requests = iter(requests)
        while True:
            keys, prompts = [], []  # the last window's prompts go before the next is read
            for key, bindings in itertools.islice(requests, WINDOW):
                keys.append(key)
                prompts.append(render_template(template_id, bindings))
            if not prompts:
                return
            if len(prompts) == 1:
                yield self._answer(template_id, prompts[0], params, keys[0], None)
                continue
            backend = self.backend_for(template_id)
            width = min(len(prompts), POOL_WIDTH)
            bounds = [len(prompts) * i // width for i in range(width + 1)]
            chunks = [
                _POOL.submit(
                    contextvars.copy_context().run,
                    _complete_chunk, backend, prompts[a:b], params, template_id, keys[a:b],
                )
                for a, b in zip(bounds, bounds[1:])
            ]
            try:
                for prompt, key, sent in zip(prompts, keys, _chunk_answers(chunks)):
                    yield self._answer(template_id, prompt, params, key, sent)
            finally:
                wait(chunks)

    def structured(
        self,
        template_id: str,
        bindings: dict[str, object],
        params: SamplingParams,
        scenario_key: str,
    ):
        """Render, complete, and parse one single-sample call.

        On a parse failure, a template whose `reask` is set (see
        `templates.TEMPLATES`) asks once more with the failed shape's
        instruction from SHAPES appended, under scenario key `<key>#retry1`
        so scripted runs can stage both responses. The failure that ends the
        call propagates. This is the one-request case of `structured_many`.
        """
        (answer,) = self.structured_many(template_id, [(scenario_key, bindings)], params)
        try:
            if isinstance(answer, ParseError):
                raise answer
            return answer
        finally:
            del answer  # a raised error held here would tie its traceback into a cycle

    def _answer(
        self,
        template_id: str,
        prompt: str,
        params: SamplingParams,
        scenario_key: str,
        sent: Sent | None,
    ):
        """One request's turn: record its call, parse the answer and, if its
        template re-asks, re-ask once; returns the parsed answer or its
        ParseError."""
        template = templates.TEMPLATES[template_id]
        shape = template.expected_shape
        completion = self.complete_prompt(template_id, prompt, params, scenario_key, sent)
        answer = _parse_or_error(completion[0], shape)
        if isinstance(answer, ParseError) and template.reask:
            retry = self.complete_prompt(
                template_id, f"{prompt}\n\n{SHAPES[shape][1]}", params, f"{scenario_key}#retry1"
            )
            answer = _parse_or_error(retry[0], shape)
        return answer
