"""The nine tool behaviors of the four agent roles: information retrieval
(keyword extraction), schema selection (column filter, table select, column
select), candidate generation and revision, and unit-test generation and
evaluation.

Each tool takes the question's `RunEnv` first, plus only its own inputs, and
is a pure orchestration over the gateway plus the structural modules.
`RunEnv.key` formats every scenario key. Failure policy is asymmetric on
purpose: schema-selection tools fail open (keep everything) because
over-pruning makes questions unanswerable, while scoring tools fail closed
(a candidate whose verdict cannot be parsed counts as Failed).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .catalog import SchemaCatalog, SubSchema, render_schema_prompt
from .context_store import DescriptionHit
from .executor import ExecutionResult, FaultReport
from .gateway import Gateway, ParseError, SamplingParams
from .textutils import check_int
from .value_index import EntityMatch

logger = logging.getLogger(__name__)


@dataclass
class Keyword:
    text: str


@dataclass
class CandidateQuery:
    sql: str
    generation_index: int = 0
    revision_count: int = 0
    exec_result: ExecutionResult | None = None


@dataclass
class UnitTest:
    statement: str
    index: int


class Verdict(enum.Enum):
    PASSED = "Passed"
    FAILED = "Failed"


@dataclass
class Cluster:
    """Candidates sharing one execution-result fingerprint.

    `members` and `representative` are generation indices (the representative
    is the lowest one); the `*_position` fields locate the same candidates in
    the candidate list, which can differ when unparseable samples were
    dropped. The preview (SQL plus a short result excerpt) is what unit-test
    prompts see.
    """

    fingerprint: str
    members: list[int]
    representative: int
    preview: str = ""
    member_positions: list[int] = field(default_factory=list)
    representative_position: int = 0


@dataclass
class RetrievedContext:
    """What the IR stage found: value matches and catalog descriptions."""

    entities: list[EntityMatch] = field(default_factory=list)
    descriptions: list[DescriptionHit] = field(default_factory=list)

    def entity_lines(self) -> str:
        if not self.entities:
            return ""
        lines = ["Similar values found in the database:"]
        for e in self.entities:
            lines.append(f"- {e.keyword!r} matches {e.table}.{e.column} = {e.value!r}")
        return "\n".join(lines)


@dataclass
class RunEnv:
    """One question's run, which every tool takes first.

    The pipeline builds it before IR; IR fills `context` in place, and schema
    selection narrows `sub` stage by stage.
    """

    question: str
    hint: str
    sub: SubSchema
    context: RetrievedContext
    db_file: Path
    gateway: Gateway
    qid: str

    def key(self, tool: str, attempt: object = 0) -> str:
        """The scenario key of one call: `<qid>+<tool>+<attempt>`."""
        return f"{self.qid}+{tool}+{attempt}"

    def bindings(self, **extra: object) -> dict[str, object]:
        return {"QUESTION": self.question, "HINT": self.hint or "none", **extra}

    def schema(self) -> str:
        """The sub-schema prompt, annotated with the retrieved context."""
        return render_schema_prompt(self.sub, self.context.entities, self.context.descriptions)


def extract_keywords(env: RunEnv) -> list[Keyword]:
    """Keyword and keyphrase extraction from the question and hint.

    The output list is deduplicated and order-preserving. A parse failure
    after the retry yields an empty list so the pipeline can proceed without
    entity retrieval.
    """
    try:
        items = env.gateway.structured(
            "extract_keywords", env.bindings(), SamplingParams(temperature=0.0),
            env.key("extract_keywords"),
        )
    except ParseError:
        logger.warning("keyword extraction unparseable; continuing without keywords")
        return []
    keywords: list[Keyword] = []
    seen: set[str] = set()
    for item in items:
        text = str(item).strip()
        if not text or text.lower() in seen:
            continue
        seen.add(text.lower())
        keywords.append(Keyword(text=text))
    return keywords


def filter_column(env: RunEnv, columns: Sequence[tuple[str, str]]) -> list[bool]:
    """Relevance votes for `(table, column)` pairs of `env.sub`, in their
    order: one call per column, all sent as one batch, with attempt
    `<table>.<column>` in `RunEnv.key`. A column's profile is built when the
    gateway reads its window, so the batch holds one window of profiles at a
    time. A vote that does not parse keeps its column."""
    base = env.bindings()
    catalog = env.sub.parent
    requests = (
        (
            env.key("filter_column", f"{t}.{c}"),
            {**base, "COLUMN_PROFILE": build_column_profile(catalog, t, c, env.context)},
        )
        for t, c in columns
    )
    payloads = env.gateway.structured_many(
        "filter_column", requests, SamplingParams(temperature=0.0)
    )
    votes = []
    for (table, column), payload in zip(columns, payloads):
        if isinstance(payload, ParseError):
            logger.warning("filter_column unparseable for %s.%s; keeping column", table, column)
            votes.append(True)
            continue
        answer = str(payload.get("is_column_information_relevant", "Yes")).strip().lower()
        votes.append(answer != "no")
    return votes


def select_tables(env: RunEnv) -> list[str]:
    """Tables needed for the query, filtered to names that exist in `env.sub`.

    An empty intersection or a parse failure falls back to every table of
    the sub-schema: schema selection must not make a question unanswerable.
    """
    sub = env.sub
    all_tables = sub.table_names()
    try:
        payload = env.gateway.structured(
            "select_tables", env.bindings(DATABASE_SCHEMA=env.schema()),
            SamplingParams(temperature=0.0), env.key("select_tables"),
        )
    except ParseError:
        logger.warning("select_tables unparseable; keeping all tables")
        return all_tables
    raw_names = payload.get("table_names", [])
    if not isinstance(raw_names, list):
        logger.warning("select_tables returned no table list; keeping all tables")
        return all_tables
    chosen: list[str] = []
    for name in raw_names:
        resolved = sub.parent.resolve_table(str(name))
        if resolved not in sub.selection:
            logger.warning("select_tables produced unknown table %r; dropped", name)
        elif resolved not in chosen:
            chosen.append(resolved)
    if not chosen:
        logger.warning("select_tables selected nothing that exists; keeping all tables")
        return all_tables
    return chosen


def select_columns(env: RunEnv) -> dict[str, list[str]]:
    """The model's table->columns request for the query, before projection.

    The map is intersected with `env.sub`; unknown names are dropped with a
    warning and a parse failure returns the sub-schema unchanged. Projecting
    the request re-adds its linking columns.
    """
    sub = env.sub
    try:
        payload = env.gateway.structured(
            "select_columns", env.bindings(DATABASE_SCHEMA=env.schema()),
            SamplingParams(temperature=0.0), env.key("select_columns"),
        )
    except ParseError:
        logger.warning("select_columns unparseable; keeping sub-schema unchanged")
        return sub.as_requested()
    requested: dict[str, list[str]] = {}
    for raw_table, raw_cols in payload.items():
        if raw_table == "chain_of_thought_reasoning" or not isinstance(raw_cols, list):
            continue
        table = sub.parent.resolve_table(str(raw_table))
        if table not in sub.selection:
            logger.warning("select_columns produced unknown table %r; dropped", raw_table)
            continue
        kept: list[str] = []
        for raw_col in raw_cols:
            col = sub.parent.resolve_column(table, str(raw_col))
            if not sub.contains(table, col):
                logger.warning(
                    "select_columns produced unknown column %s.%r; dropped",
                    table,
                    raw_col,
                )
            elif col not in kept:
                kept.append(col)
        requested[table] = kept
    if not requested:
        logger.warning("select_columns selected nothing that exists; keeping sub-schema")
        return sub.as_requested()
    return requested


def generate_candidate(env: RunEnv, params: SamplingParams) -> list[CandidateQuery]:
    """Sample params.n_samples candidate queries, one completion call each,
    sent to the backend as one batch, with the sample index as attempt.

    Samples whose JSON cannot be parsed are dropped; their generation index
    is not reused. If every sample drops, GenerationError is raised.
    """
    bindings = env.bindings(DATABASE_SCHEMA=env.schema())
    payloads = env.gateway.structured_many(
        "generate_candidate",
        [(env.key("generate_candidate", i), bindings) for i in range(params.n_samples)],
        replace(params, n_samples=1),
    )
    candidates: list[CandidateQuery] = []
    for i, payload in enumerate(payloads):
        if isinstance(payload, ParseError):
            logger.warning("candidate sample %d unparseable; dropped", i)
            continue
        sql = str(payload.get("SQL", "")).strip()
        if not sql:
            logger.warning("candidate sample %d has empty SQL; dropped", i)
            continue
        candidates.append(CandidateQuery(sql=sql, generation_index=i))
    if not candidates:
        raise GenerationError(f"all {params.n_samples} candidate samples failed to parse")
    return candidates


class GenerationError(Exception):
    """No candidate query could be parsed from any sample."""


def revise(
    env: RunEnv, candidates: Sequence[CandidateQuery], issues: Sequence[FaultReport]
) -> list[CandidateQuery]:
    """One revision attempt for each faulty candidate, sent as one batch.

    Each prompt carries its candidate's executed result or error text
    (`issues` pairs with `candidates`), with attempt
    `<generation index>.<revision number>` in `RunEnv.key`. A parse failure
    returns that candidate unchanged (with a warning) rather than losing it.
    """
    base = env.bindings(DATABASE_SCHEMA=env.schema(), MISSING_ENTITIES=env.context.entity_lines())
    payloads = env.gateway.structured_many(
        "revise",
        [
            (
                env.key("revise", f"{c.generation_index}.{c.revision_count + 1}"),
                {**base, "SQL": c.sql, "QUERY_RESULT": issue.detail},
            )
            for c, issue in zip(candidates, issues)
        ],
        SamplingParams(temperature=0.0),
    )
    revised = []
    for candidate, payload in zip(candidates, payloads):
        if isinstance(payload, ParseError):
            logger.warning("revise output unparseable; keeping candidate as is")
            revised.append(candidate)
            continue
        sql = str(payload.get("revised_SQL", "")).strip() or candidate.sql
        revised.append(
            CandidateQuery(
                sql=sql,
                generation_index=candidate.generation_index,
                revision_count=candidate.revision_count + 1,
            )
        )
    return revised


def generate_unit_tests(env: RunEnv, clusters: Sequence[Cluster], k: int) -> list[UnitTest]:
    """Up to k natural-language unit tests that tell the clusters apart."""
    if not clusters:
        raise ValueError("generate_unit_tests requires at least one cluster")
    check_int("k", k, 1)
    bindings = env.bindings(
        UNIT_TEST_CAP=k,
        DATABASE_SCHEMA=render_schema_prompt(env.sub),
        CANDIDATE_QUERIES=render_clusters(clusters),
    )
    try:
        statements = env.gateway.structured(
            "generate_unit_tests", bindings, SamplingParams(temperature=0.0),
            env.key("generate_unit_tests"),
        )
    except ParseError:
        logger.warning("unit test generation unparseable; no tests produced")
        return []
    statements = [s.strip() for s in statements if s and s.strip()]
    if len(statements) > k:
        statements = statements[:k]
    elif len(statements) < k:
        logger.warning("model produced %d unit tests, asked for %d", len(statements), k)
    return [UnitTest(statement=s, index=i) for i, s in enumerate(statements)]


def evaluate_against_test(
    env: RunEnv, candidates: Sequence[CandidateQuery], tests: Sequence[UnitTest]
) -> list[list[Verdict]]:
    """Verdicts of every candidate against each unit test: one call per
    test, all tests sent as one batch, under `RunEnv.key` with tool
    `evaluate` and the test index as attempt.

    Each verdict row has one entry per candidate. A verdict lands on the
    candidate whose number its line names; a candidate no line names scores
    Failed, and an unparseable response fails every candidate for that test.
    """
    if not candidates:
        raise ValueError("evaluate_against_test requires at least one candidate")
    base = env.bindings(
        DATABASE_SCHEMA=render_schema_prompt(env.sub),
        CANDIDATE_QUERIES="\n\n".join(
            f"Candidate Response #{i + 1}:\n{c.sql}" for i, c in enumerate(candidates)
        ),
    )
    answers = env.gateway.structured_many(
        "evaluate_unit_test",
        [(env.key("evaluate", t.index), {**base, "UNIT_TEST": t.statement}) for t in tests],
        SamplingParams(temperature=0.0),
    )
    return [_verdict_row(words, test, len(candidates)) for words, test in zip(answers, tests)]


def _verdict_row(words: list[str] | ParseError, test: UnitTest, n: int) -> list[Verdict]:
    if isinstance(words, ParseError):
        logger.warning("verdicts unparseable for test %d; all candidates Failed", test.index)
        return [Verdict.FAILED] * n
    verdicts = [Verdict.PASSED if w == "Passed" else Verdict.FAILED for w in words]
    if len(verdicts) < n:
        logger.warning("only %d verdicts for %d candidates; padding with Failed", len(verdicts), n)
        verdicts.extend([Verdict.FAILED] * (n - len(verdicts)))
    return verdicts[:n]


def render_clusters(clusters: Sequence[Cluster]) -> str:
    return "\n\n".join(
        f"Cluster #{i + 1} ({len(c.members)} candidates):\n{c.preview}"
        for i, c in enumerate(clusters)
    )


def build_column_profile(
    catalog: SchemaCatalog,
    table: str,
    column: str,
    context: RetrievedContext,
) -> str:
    """The column's profile for the filter prompt: its table, name and type,
    one line per description, and the values IR matched in it, sorted."""
    col = catalog.column(table, column)
    lines = [
        f"Table name: {table}",
        f"Original column name: {column}",
        f"Data type: {col.declared_type or 'unknown'}",
    ]
    if col.expanded_name:
        lines.append(f"Description: expanded column name: {col.expanded_name}")
    if col.column_description:
        lines.append(f"Description: {col.column_description}")
    if col.value_description:
        lines.append(f"Description: value description: {col.value_description}")
    matched = sorted(
        {e.value for e in context.entities if e.table == table and e.column == column}
    )
    if matched:
        lines.append("Value examples: " + ", ".join(matched))
    return "\n".join(lines)
