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
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import ContextManager, Iterator, Mapping, Protocol, Sequence

import requests

from . import templates
from .templates import (
    JSON_OBJECT,
    PYTHON_LIST,
    TAGGED_ANSWER_BLOCK,
    VERDICT_LINES,
    render_template,
)
from .textutils import estimate_tokens

logger = logging.getLogger(__name__)

_RETRY_SUFFIX = "\n\nRespond with valid JSON only."
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
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


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


class HttpChatBackend:
    """Client for a chat-completions-compatible HTTP endpoint.

    Requests go through `post_json`, with `max_retries` and `backoff_s`; its
    failures, and a body of the wrong shape, raise GatewayError. At most
    `max_in_flight` requests run concurrently against one backend.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = "LLM_API_KEY",
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        max_in_flight: int = 8,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backend_id = f"http:{model}"
        self.session = session or requests.Session()
        self._gate = threading.BoundedSemaphore(max_in_flight)

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
        body = post_json(
            self.session, url, payload, self.api_key_env,
            self.timeout, self.max_retries, self.backoff_s, GatewayError, gate=self._gate,
        )
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
    max_retries: int,
    backoff_s: float,
    error: type[Exception],
    gate: ContextManager = contextlib.nullcontext(),
):
    """POST `payload` as JSON and return the decoded body of the response.

    This is the one HTTP client of the package. The bearer header comes from
    the environment variable `api_key_env` when it is set. A transport
    failure is retried up to `max_retries` times, the waits doubling from
    `backoff_s`; each attempt holds `gate` while the request is out, never
    while it waits. Exhausted retries, a non-200 response (with a body
    excerpt) and a body that is not JSON each raise `error`.
    """
    api_key = os.environ.get(api_key_env, "")
    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    for attempt in range(max_retries + 1):
        try:
            with gate:
                resp = session.post(url, json=payload, headers=headers, timeout=timeout)
            break
        except requests.RequestException as exc:
            if attempt == max_retries:
                raise error(f"{url} unreachable after {max_retries} retries: {exc}") from exc
            time.sleep(backoff_s * 2**attempt)
    if resp.status_code != 200:
        raise error(f"{url} returned {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise error(f"{url} returned a body that is not JSON: {exc}") from exc


class MockLookupError(GatewayError):
    """No scripted response exists for (scenario_key, template_id)."""


class MockBackend:
    """Deterministic scripted backend for offline tests and benchmarks."""

    backend_id = "mock"

    def __init__(
        self,
        fixture_dir: str | Path | None = None,
        responses: Mapping[tuple[str, str], Sequence[str]] | None = None,
    ):
        self.fixture_dir = Path(fixture_dir) if fixture_dir else None
        self.responses = {k: list(v) for k, v in (responses or {}).items()}
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
            variants = sorted(
                scenario_dir.glob(f"{template_id}.*.txt"),
                key=lambda p: int(p.suffixes[-2].lstrip(".")),
            )
            if variants:
                return [p.read_text(encoding="utf-8") for p in variants]
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


# How many backend calls of one batch can be out at once; it matches
# HttpChatBackend's default max_in_flight. The pool's threads start only when
# a batch of two or more requests first needs them.
POOL_WIDTH = 8
# How many requests of a batch `structured_many` renders, sends and reads at a
# time, which bounds the prompts a batch holds. On the bench's 4,337-column
# schema (2,893 filter calls a question, 0.1 ms each; 2-core Linux host) the
# median question took about 190, 180 and 170 ms with windows of 64, 128 and
# 256, against 490 ms one call at a time; peak RSS rose 0.4%, 0.5% and 1%,
# and one 256 run rose 11%. 128 keeps most of the gain at a steady memory cost.
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
    list of str from the last <Answer> block, verdict_lines -> list of
    "Passed"/"Failed" strings. Raises ParseError carrying the raw text.
    """
    text = completion.text if isinstance(completion, Completion) else completion
    if expected_shape == JSON_OBJECT:
        return _parse_json_object(text)
    if expected_shape == PYTHON_LIST:
        return _parse_python_list(text)
    if expected_shape == TAGGED_ANSWER_BLOCK:
        return _parse_tagged_answer(text)
    if expected_shape == VERDICT_LINES:
        return _parse_verdicts(text)
    raise ValueError(f"unknown expected_shape {expected_shape!r}")


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
    """First balanced open..close block, string-literal aware."""
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


def _parse_tagged_answer(text: str) -> list[str]:
    segments = _ANSWER_TAG_RE.split(text)
    if len(segments) < 2:
        raise ParseError("no <Answer> block in response", raw=text)
    # content between consecutive tags, last nonempty one wins
    for segment in reversed(segments[1:]):
        if segment.strip():
            return _parse_python_list(segment)
    raise ParseError("empty <Answer> block in response", raw=text)


def _parse_verdicts(text: str) -> list[str]:
    segments = _ANSWER_TAG_RE.split(text)
    scope = segments[-2] if len(segments) >= 3 and segments[-2].strip() else text
    matches = _VERDICT_RE.findall(scope)
    if not matches:
        matches = _VERDICT_RE.findall(text)
    if not matches:
        raise ParseError("no verdict lines in response", raw=text)
    return [verdict.capitalize() for _idx, verdict in matches]


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
        bindings_list: Sequence[dict[str, object]],
        params: SamplingParams,
        scenario_keys: Sequence[str],
        retry_on_parse_failure: bool = True,
    ) -> Iterator:
        """Render, complete, and parse a batch of independent calls; the
        answers come back as an iterator, in request order.

        The batch goes through in windows of WINDOW requests, so it never
        holds more than one window's prompts. A window's prompts are
        rendered on the calling thread and split into at most POOL_WIDTH
        chunks of consecutive requests. Each chunk is one pool task, run in a
        copy of the caller's context, whose worker makes the chunk's backend
        calls one after another; a one-request window calls the backend
        inline. Each answer is then recorded, logged and parsed on the
        calling thread at its turn, so the ledger, the log and whatever the
        caller does with an answer happen as if the requests had run one
        after another.

        A parse failure is re-asked once at its own request's turn, as in
        `structured`; an answer that still does not parse comes back as its
        ParseError. A chunk stops at its first backend error: the requests
        before that error are recorded and handed out, the window's other
        chunks are waited for, and the error is raised in place of its
        request's answer.
        """
        if len(bindings_list) != len(scenario_keys):
            raise ValueError(
                f"{len(bindings_list)} bindings but {len(scenario_keys)} scenario keys"
            )
        return self._answers(
            template_id, bindings_list, params, scenario_keys, retry_on_parse_failure
        )

    def _answers(
        self,
        template_id: str,
        bindings_list: Sequence[dict[str, object]],
        params: SamplingParams,
        scenario_keys: Sequence[str],
        retry: bool,
    ) -> Iterator:
        for start in range(0, len(scenario_keys), WINDOW):
            keys = scenario_keys[start : start + WINDOW]
            prompts = [
                render_template(template_id, bindings)
                for bindings in bindings_list[start : start + WINDOW]
            ]
            if len(prompts) == 1:
                yield self._answer(template_id, prompts[0], params, keys[0], None, retry)
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
                    yield self._answer(template_id, prompt, params, key, sent, retry)
            finally:
                wait(chunks)

    def structured(
        self,
        template_id: str,
        bindings: dict[str, object],
        params: SamplingParams,
        scenario_key: str,
        retry_on_parse_failure: bool = True,
    ):
        """Render, complete, and parse one single-sample call.

        On a parse failure and when retries are allowed, the prompt is
        re-asked once with an appended instruction to emit valid output; the
        second failure propagates. The re-ask uses scenario key
        `<key>#retry1` so scripted runs can stage both responses. This is
        the one-request case of `structured_many`.
        """
        (answer,) = self._answers(
            template_id, [bindings], params, [scenario_key], retry_on_parse_failure
        )
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
        retry_on_parse_failure: bool,
    ):
        """One request's turn: record its call, parse the answer and, if
        allowed, re-ask once; returns the parsed answer or its ParseError."""
        shape = templates.TEMPLATES[template_id].expected_shape
        completion = self.complete_prompt(template_id, prompt, params, scenario_key, sent)
        answer = _parse_or_error(completion[0], shape)
        if isinstance(answer, ParseError) and retry_on_parse_failure:
            retry = self.complete_prompt(
                template_id, prompt + _RETRY_SUFFIX, params, f"{scenario_key}#retry1"
            )
            answer = _parse_or_error(retry[0], shape)
        return answer
