"""Team assembly and the question-to-SQL run loop.

A run walks the configured stages: information retrieval (keywords, value
matches, catalog descriptions), optional schema-selection funnel (column
filter, table select, column select, with linking columns always retained),
candidate generation with execution-guided revision, result clustering, and
optional unit-test scoring. Each run records its completion calls in a
ledger of its own (`gateway.ledger`), so its trace accounts for LLM usage
exactly, even while other runs share the gateway.

A run builds one `agents.RunEnv` before IR and hands it to every agent tool:
IR fills its context in place and schema selection narrows its sub-schema
stage by stage. Scenario keys passed to the gateway are deterministic and
come from `RunEnv.key`: `<qid>+<tool>+<attempt>`, where attempt is the sample
index for generation, `<table>.<column>` for column filtering,
`<candidate>.<revision>` for revision, the test index for evaluation and 0
otherwise.

Independent model calls go to the backend together (`Gateway.structured_many`):
a question's column-filter votes form one batch, its candidate samples
another, each revision wave another, and its unit-test verdicts one more.
The gateway reads a batch 128 requests at a time and splits each window into
at most `POOL_WIDTH` chunks of consecutive calls, one pool task each; the
filter's column profiles are built as their window is read. Everything else,
rendering, parsing and SQL execution included, runs on the calling thread,
which is where the call records are appended. They keep the order of a
one-by-one run with one exception: revisions are recorded wave by wave
(every candidate's first revision, then every second revision, and so on),
not candidate by candidate.

Each distinct SQL text runs once per question. A run keeps one dict from
SQL text to `ExecutionResult`, and a candidate or revision whose exact text
already ran in the question shares that result object; first occurrences
run in candidate order, on the calling thread. A copy of a query that timed
out shares its TIMEOUT instead of waiting out the budget again, and copies
of non-deterministic SQL (`random()`, `'now'`) share one result, so they
land in one cluster. The dict lives for one `run` call, so nothing is
cached across questions.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

from . import agents, caching, executor
from .agents import CandidateQuery, Cluster, RetrievedContext, RunEnv, Verdict
from .catalog import (
    SchemaCatalog,
    SubSchema,
    _ingest_descriptions,
    full_projection,
    introspect_database,
    project,
)
from .context_store import (
    ContextStore,
    HashingEmbedder,
    RemoteEmbedder,
    build_context_store,
    retrieve_context,
)
from .gateway import CallRecord, Gateway, HttpChatBackend, MockBackend, SamplingParams
from .gateway import ledger, tally
from .textutils import check_int
from .value_index import IndexConfig, ValueIndex, _indexed_columns, build_value_index
from .value_index import retrieve_entities

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1

TEAMS = {
    "IR_CG_UT": frozenset({"IR", "CG", "UT"}),
    "IR_SS_CG": frozenset({"IR", "SS", "CG"}),
    "IR_SS_CG_UT": frozenset({"IR", "SS", "CG", "UT"}),
    "CG_only": frozenset({"CG"}),
}

TOGGLEABLE_TOOLS = (
    "retrieve_entity",
    "retrieve_context",
    "filter_column",
    "select_tables",
    "select_columns",
    "revise",
)

# every CallRecord field but elapsed goes into a trace's records
_TRACED_CALL_FIELDS = tuple(f.name for f in fields(CallRecord) if f.name != "elapsed")

REVISABLE_FAULTS = {
    executor.SYNTAX_ERROR,
    executor.RUNTIME_ERROR,
    executor.TIMEOUT,
    executor.EMPTY_RESULT,
}


class PipelineError(Exception):
    """The run could not produce any SQL at all."""


@dataclass
class PipelineConfig:
    team: str = "IR_CG_UT"
    n_candidates: int = 20
    n_unit_tests: int = 10
    max_revisions: int = 3
    compare_mode: str = "set"
    execution_timeout_s: float = executor.DEFAULT_TIMEOUT_S
    row_cap: int = executor.DEFAULT_ROW_CAP
    context_k: int = 10
    generation_temperature: float = 1.0
    max_tokens: int = 2048
    disabled_tools: frozenset[str] = frozenset()
    index: IndexConfig = field(default_factory=IndexConfig)
    embedder: dict = field(default_factory=lambda: {"kind": "local", "dimension": 256})
    models: dict = field(default_factory=dict)
    db_root: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        if self.team not in TEAMS:
            raise ValueError(f"unknown team {self.team!r}; expected one of {sorted(TEAMS)}")
        unknown = set(self.disabled_tools) - set(TOGGLEABLE_TOOLS)
        if unknown:
            raise ValueError(f"unknown tool toggles: {sorted(unknown)}")
        executor._check_mode(self.compare_mode)
        for name, low in (
            ("n_candidates", 1), ("row_cap", 1), ("max_tokens", 1), ("n_unit_tests", 0),
            ("max_revisions", 0), ("context_k", 0),
        ):
            check_int(name, getattr(self, name), low)
        if not self.generation_temperature >= 0:  # written so that NaN fails too
            raise ValueError(
                f"generation_temperature must be >= 0, got {self.generation_temperature!r}"
            )
        if not self.execution_timeout_s > 0:
            raise ValueError(f"execution_timeout_s must be > 0, got {self.execution_timeout_s!r}")
        if "UT" in TEAMS[self.team] and self.n_candidates < 2:
            logger.warning(
                "unit testing with n_candidates=%d cannot differentiate candidates",
                self.n_candidates,
            )

    @property
    def roles(self) -> frozenset[str]:
        return TEAMS[self.team]

    def tool_enabled(self, tool: str) -> bool:
        return tool not in self.disabled_tools

    def to_dict(self) -> dict:
        payload = {"version": CONFIG_VERSION, **asdict(self)}
        payload["disabled_tools"] = sorted(self.disabled_tools)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        payload = dict(payload)
        version = payload.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {version}")
        payload.pop("order_sensitive", None)  # older files hold it; it never had an effect
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "index" in payload:
            unknown = set(payload["index"]) - {f.name for f in fields(IndexConfig)}
            if unknown:
                raise ValueError(f"unknown index config keys: {sorted(unknown)}")
            payload["index"] = IndexConfig(**payload["index"])
        if "disabled_tools" in payload:
            if isinstance(payload["disabled_tools"], str):
                raise ValueError(
                    "disabled_tools must be a list of tool names, "
                    f"not the string {payload['disabled_tools']!r}"
                )
            payload["disabled_tools"] = frozenset(payload["disabled_tools"])
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1), encoding="utf-8")


def _given(spec: dict, *keys: str) -> dict:
    """The keys a spec sets, so an unset one keeps its constructor default.

    `keys` are all that the spec's kind reads; any other key but "kind"
    raises ValueError, as an unknown top-level config key does.
    """
    unknown = set(spec) - {"kind", *keys}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in spec {spec!r}")
    return {key: spec[key] for key in keys if key in spec}


def build_embedder(config: PipelineConfig):
    spec = config.embedder
    kind = spec.get("kind", "local")
    if kind in ("local", "deterministic-local"):
        return HashingEmbedder(**_given(spec, "dimension"))
    if kind == "remote":
        given = _given(spec, "base_url", "model", "dimension", "api_key_env")
        return RemoteEmbedder(**{"model": "text-embedding-3-small", **given})
    raise ValueError(f"unknown embedder kind {kind!r}")


def build_gateway(config: PipelineConfig, mock_dir: str | Path | None = None) -> Gateway:
    """Backends per tool from config; a mock fixture dir overrides them all."""
    if mock_dir is not None:
        return Gateway.single(MockBackend(fixture_dir=mock_dir))
    backends = {}
    models = config.models or {"default": {"kind": "mock"}}
    for name, spec in models.items():
        kind = spec.get("kind", "http")
        if kind == "mock":
            backends[name] = MockBackend(**_given(spec, "fixture_dir", "responses"))
        elif kind == "http":
            given = _given(spec, "base_url", "model", "api_key_env")
            backends[name] = HttpChatBackend(**{"model": "gpt-4o-mini", **given})
        else:
            raise ValueError(f"unknown backend kind {kind!r}")
    return Gateway(backends=backends)


@dataclass
class DbArtifacts:
    """Per-database preprocessing products the pipeline consumes."""

    db_file: Path
    catalog: SchemaCatalog
    value_index: ValueIndex
    context_store: ContextStore


def ensure_artifacts(
    db_file: str | Path,
    config: PipelineConfig,
    cache_dir: str | Path | None = None,
    description_dir: str | Path | None = None,
) -> DbArtifacts:
    """Load cached preprocessing artifacts, rebuilding any that is stale or
    does not load.

    Each header holds the database hash plus the description CSVs' digest
    (described catalog), the index's build fields and the indexed column
    list (value index), or the embedder config and that digest (context
    store). A warm call parses no CSV and maps the index's and the store's
    arrays in place (see `caching`), so ingest warnings are logged only when
    the catalog is built.
    """
    db_file = Path(db_file)
    if description_dir is None:
        default_desc = db_file.parent / "database_description"
        description_dir = default_desc if default_desc.is_dir() else None
    db_hash = caching.file_sha256(db_file)
    descriptions = caching.description_digest(description_dir)
    cache_dir = Path(cache_dir) if cache_dir else db_file.parent

    def load_or_build(kind: str, magic: bytes, build, to_parts, from_parts, **key):
        path = cache_dir / f"{db_file.stem}.{kind}.qcx"
        header = {"db": db_hash, **key}
        artifact = caching.load_envelope(path, magic, header, from_parts)
        if artifact is None:
            artifact = build()
            try:
                cache_dir.mkdir(parents=True, exist_ok=True)
                caching.save_envelope(path, magic, header, *to_parts(artifact))
            except OSError as exc:
                logger.warning("could not persist %s cache: %s", kind, exc)
        return artifact

    catalog = load_or_build(
        "catalog", caching.CATALOG_MAGIC,
        lambda: _ingest_descriptions(introspect_database(db_file), description_dir, copy=False),
        lambda catalog: (catalog.to_json_dict(), None),
        lambda document, _arrays: SchemaCatalog.from_json_dict(document),
        descriptions=descriptions,
    )
    locations = _indexed_columns(catalog)
    value_index = load_or_build(
        "value_index", caching.VALUE_INDEX_MAGIC,
        lambda: build_value_index(catalog, db_file, config.index),
        ValueIndex.to_parts, functools.partial(ValueIndex.from_parts, locations, config.index),
        config=caching.config_hash(config.index.build_dict()),
        columns=caching.config_hash(locations),
    )
    embedder = build_embedder(config)
    store = load_or_build(
        "context_store", caching.CONTEXT_STORE_MAGIC,
        lambda: build_context_store(catalog, embedder),
        ContextStore.to_parts, lambda _document, arrays: ContextStore.from_parts(catalog, arrays),
        config=caching.config_hash({"embedder": config.embedder, "k": "context"}),
        descriptions=descriptions,
    )
    store.embedder = embedder

    return DbArtifacts(
        db_file=db_file, catalog=catalog, value_index=value_index, context_store=store
    )


@dataclass
class StageRecord:
    stage: str
    n_tables: int
    n_columns: int
    selection: dict[str, list[str]]


@dataclass
class RunTrace:
    question_id: str
    selected_sql: str = ""
    selected_index: int = -1
    llm_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    stages: list[StageRecord] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    # the executed candidates; selected_index is a position in this list
    candidates: list[CandidateQuery] = field(default_factory=list)
    clusters: list[dict] = field(default_factory=list)
    scores: list[int] = field(default_factory=list)
    n_unit_tests: int = 0
    revisions_total: int = 0
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            **_field_values(self),
            "stages": [_field_values(s) for s in self.stages],
            "candidates": [
                {"generation_index": c.generation_index, "sql": c.sql,
                 "revision_count": c.revision_count, "status": c.exec_result.status}
                for c in self.candidates
            ],
        }


def _field_values(obj) -> dict:
    """A dataclass's fields as a dict, one level deep.

    `dataclasses.asdict` deep-copies every value. A trace on a wide schema
    holds thousands of call records and column selections, and that copy
    would cost a large share of the run's own CPU time.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def run(
    question: str,
    hint: str,
    db: str | Path | DbArtifacts,
    config: PipelineConfig,
    gateway: Gateway,
    qid: str = "q",
) -> tuple[str, RunTrace]:
    """Convert one question to SQL under the configured team.

    Returns the selected SQL plus a trace whose llm_calls equals the number
    of completion invocations made during this run.
    """
    start = time.perf_counter()
    if isinstance(db, DbArtifacts):
        artifacts = db
    else:
        artifacts = ensure_artifacts(db, config)
    catalog = artifacts.catalog
    roles = config.roles
    trace = RunTrace(question_id=qid)

    with ledger() as records:
        env = RunEnv(
            question, hint, full_projection(catalog), RetrievedContext(),
            artifacts.db_file, gateway, qid,
        )
        # --- information retrieval --------------------------------------
        if "IR" in roles:
            keywords = agents.extract_keywords(env)
            if keywords and config.tool_enabled("retrieve_entity"):
                env.context.entities = retrieve_entities(
                    artifacts.value_index, [k.text for k in keywords],
                    embedder=artifacts.context_store.embedder, cfg=config.index,
                )
            if config.tool_enabled("retrieve_context"):
                query_text = f"{question} {hint}".strip()
                env.context.descriptions = retrieve_context(
                    artifacts.context_store, query_text, config.context_k
                )
        trace.stages.append(_stage_record("initial", env.sub))

        # --- schema selection funnel ------------------------------------
        # `requested` carries only the semantically chosen columns; the projected
        # sub re-adds linking columns each stage. Tracking the two separately lets
        # FK columns drop out once their counterpart table leaves the selection.
        if "SS" in roles:
            requested = env.sub.as_requested()
            if config.tool_enabled("filter_column"):
                requested = _filter_columns_stage(env)
                env.sub = project(catalog, requested)
                trace.stages.append(_stage_record("filter_column", env.sub))
            if config.tool_enabled("select_tables"):
                tables = agents.select_tables(env)
                requested = {t: requested[t] for t in tables}
                env.sub = project(catalog, requested)
                trace.stages.append(_stage_record("select_tables", env.sub))
            if config.tool_enabled("select_columns"):
                requested = agents.select_columns(env)
                env.sub = project(catalog, requested)
                trace.stages.append(_stage_record("select_columns", env.sub))

        # --- candidate generation and revision --------------------------
        temperature = config.generation_temperature if config.n_candidates > 1 else 0.0
        params = SamplingParams(
            temperature=temperature, max_tokens=config.max_tokens, n_samples=config.n_candidates
        )
        try:
            candidates = agents.generate_candidate(env, params)
        except agents.GenerationError as exc:
            raise PipelineError(str(exc)) from exc

        executed: dict[str, executor.ExecutionResult] = {}
        for candidate in candidates:
            candidate.exec_result = _execute(env, candidate.sql, config, executed)
        if config.tool_enabled("revise"):
            candidates = _revise_in_waves(candidates, env, config, executed)
        trace.revisions_total = sum(c.revision_count for c in candidates)

        clusters = cluster_by_result(candidates, config.compare_mode)

        # --- selection ---------------------------------------------------
        verdict_matrix: list[list[Verdict]] = []
        tests: list = []
        if "UT" in roles:
            if len(clusters) > 1 and config.n_unit_tests > 0:
                tests = agents.generate_unit_tests(env, clusters, config.n_unit_tests)
                verdict_matrix = agents.evaluate_against_test(env, candidates, tests)
            winner = score_and_select(candidates, verdict_matrix, clusters)
        else:
            winner = _first_reasonable(candidates)

    trace.n_unit_tests = len(tests)
    trace.scores = [
        sum(1 for row in verdict_matrix if row[i] is Verdict.PASSED)
        for i in range(len(candidates))
    ]
    trace.selected_index = winner
    trace.selected_sql = candidates[winner].sql
    trace.candidates = candidates
    trace.clusters = [
        {
            "fingerprint": c.fingerprint,
            "members": list(c.members),
            "representative": c.representative,
        }
        for c in clusters
    ]
    trace.records = [{f: getattr(r, f) for f in _TRACED_CALL_FIELDS} for r in records]
    trace.llm_calls, trace.prompt_tokens, trace.completion_tokens = tally(records)
    trace.duration_s = time.perf_counter() - start
    return trace.selected_sql, trace


def _stage_record(stage: str, sub: SubSchema) -> StageRecord:
    return StageRecord(
        stage=stage,
        n_tables=sub.n_tables(),
        n_columns=sub.n_columns(),
        selection=sub.as_requested(),
    )


def _filter_columns_stage(env: RunEnv) -> dict[str, list[str]]:
    """Per-column relevance votes; linking columns bypass the model call.

    The non-linking columns go to the filter as one batch. Returns only the
    Yes-voted non-linking columns per table (projection re-adds the linking
    columns). Every table keeps an entry so no table leaves the schema at
    this stage.
    """
    catalog = env.sub.parent
    requested: dict[str, list[str]] = {table: [] for table in env.sub.table_names()}
    columns: list[tuple[str, str]] = []
    for table in requested:
        linking = catalog.linking_columns(table)
        columns += [(table, c) for c in env.sub.selection[table] if c not in linking]
    for (table, column), relevant in zip(columns, agents.filter_column(env, columns)):
        if relevant:
            requested[table].append(column)
    return requested


def revise_loop(
    candidate: CandidateQuery, env: RunEnv, config: PipelineConfig
) -> CandidateQuery:
    """Revise and re-execute until the fault clears or revisions run out.

    The last version is returned even if still faulty; an ok-and-nonempty
    candidate comes back untouched. This is the one-candidate case of the
    pipeline's revision waves, with a memo of its own: a revision whose SQL
    text was already executed in this call, the candidate's own included,
    shares that `ExecutionResult` instead of running again.
    """
    return _revise_in_waves([candidate], env, config, {candidate.sql: candidate.exec_result})[0]


def _revise_in_waves(
    candidates: Sequence[CandidateQuery],
    env: RunEnv,
    config: PipelineConfig,
    executed: dict[str, executor.ExecutionResult],
) -> list[CandidateQuery]:
    """Revise executed candidates wave by wave.

    Each wave sends one revise call for every candidate that still has a
    revisable fault and revisions left, as one batch, then executes the
    revised SQL. A candidate leaves the waves once its fault clears, its
    revisions run out, or its revision does not parse (that would only burn
    budget). Revised SQL runs through `executed`, the question's memo.
    Returns the candidates' last versions in their input order.
    """
    current = list(candidates)
    active = range(len(current))
    while True:
        due = []
        for pos in active:
            if current[pos].revision_count >= config.max_revisions:
                continue
            fault = executor.classify_fault(current[pos].exec_result)
            if fault is not None and fault.kind in REVISABLE_FAULTS:
                due.append((pos, fault))
        if not due:
            return current
        revised = agents.revise(
            env, [current[pos] for pos, _ in due], [fault for _, fault in due]
        )
        active = []
        for (pos, _), new in zip(due, revised):
            if new is current[pos]:
                continue  # unparseable revision
            new.exec_result = _execute(env, new.sql, config, executed)
            current[pos] = new
            active.append(pos)


def _execute(
    env: RunEnv, sql: str, config: PipelineConfig, executed: dict[str, executor.ExecutionResult]
) -> executor.ExecutionResult:
    """`sql`'s result, executed only if its exact text is not in `executed`.

    The key is the text as written: case and whitespace are not normalized,
    since string literals are case-sensitive.
    """
    if sql not in executed:
        executed[sql] = executor.execute(
            env.db_file, sql, timeout=config.execution_timeout_s, row_cap=config.row_cap
        )
    return executed[sql]


def cluster_by_result(
    candidates: Sequence[CandidateQuery], mode: str = "set"
) -> list[Cluster]:
    """Partition executed candidates by result fingerprint, with rows
    counted as `executor.results_match` counts them in `mode`.

    Clusters are ordered by size descending, then by their representative
    (the member with the lowest generation index).
    """
    groups: dict[str, list[int]] = {}
    for pos, candidate in enumerate(candidates):
        if candidate.exec_result is None:
            raise ValueError("cluster_by_result requires executed candidates")
        digest = executor.fingerprint(candidate.exec_result, mode).digest
        groups.setdefault(digest, []).append(pos)
    clusters = []
    for digest, members in groups.items():
        rep_pos = min(members, key=lambda p: candidates[p].generation_index)
        rep = candidates[rep_pos]
        preview = f"SQL: {rep.sql}\nResult: {executor.preview_rows(rep.exec_result)}"
        clusters.append(
            Cluster(
                fingerprint=digest,
                members=[candidates[p].generation_index for p in members],
                representative=rep.generation_index,
                preview=preview,
                member_positions=list(members),
                representative_position=rep_pos,
            )
        )
    clusters.sort(key=lambda c: (-len(c.members), c.representative))
    return clusters


def score_and_select(
    candidates: Sequence[CandidateQuery],
    verdicts: Sequence[Sequence[Verdict]],
    clusters: Sequence[Cluster],
) -> int:
    """Winner position by unit-test score.

    score(c) = number of Passed verdicts across tests. Ties prefer the
    candidate in the largest cluster, then the lowest generation index. With
    no tests at all the representative of the largest cluster wins.
    """
    for row in verdicts:
        if len(row) != len(candidates):
            raise ValueError(
                f"verdict row has {len(row)} entries for {len(candidates)} candidates"
            )
    if not verdicts:
        return clusters[0].representative_position
    cluster_size_of: dict[int, int] = {}
    for cluster in clusters:
        for pos in cluster.member_positions:
            cluster_size_of[pos] = len(cluster.members)
    best_pos = 0
    best_key: tuple | None = None
    for pos, candidate in enumerate(candidates):
        score = sum(1 for row in verdicts if row[pos] is Verdict.PASSED)
        key = (-score, -cluster_size_of.get(pos, 1), candidate.generation_index)
        if best_key is None or key < best_key:
            best_key = key
            best_pos = pos
    return best_pos


def _first_reasonable(candidates: Sequence[CandidateQuery]) -> int:
    """First ok-and-nonempty candidate, else first ok, else the first."""
    for pos, c in enumerate(candidates):
        if c.exec_result is not None and c.exec_result.is_ok() and c.exec_result.rows:
            return pos
    for pos, c in enumerate(candidates):
        if c.exec_result is not None and c.exec_result.is_ok():
            return pos
    return 0
