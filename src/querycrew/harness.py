"""Benchmark harness: dataset loading, execution accuracy, Pass@k, schema
selection precision/recall, stratified subsampling, synthetic large-schema
construction, and resumable benchmark sweeps with report emission.

Sweeps write three artifacts under the output directory: `predictions.jsonl`
(one deterministic line per question, reruns skip completed ids),
`report.json` (aggregate metrics), and `traces/<qid>.jsonl` (full per-question
run traces including timings).
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from . import executor, pipeline
from .agents import CandidateQuery
from .catalog import FkEdge, SchemaCatalog, SubSchema, TableInfo
from .gateway import Gateway, ledger, tally
from .pipeline import DbArtifacts, PipelineConfig, RunTrace, StageRecord
from .sql_items import extract_sql_items

logger = logging.getLogger(__name__)

DIFFICULTIES = ("simple", "moderate", "challenging")


class DatasetError(Exception):
    """Dataset file missing fields or referencing unusable databases."""


class SynthesisError(Exception):
    """Large-schema synthesis could not satisfy its constraints."""


@dataclass
class BenchmarkItem:
    question_id: str
    db_id: str
    question: str
    evidence: str
    gold_sql: str
    difficulty: str = "simple"


@dataclass
class SchemaPR:
    table_recall: float
    table_precision: float
    column_recall: float
    column_precision: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return astuple(self)


# dataset format -> (gold SQL fields in order of preference, evidence field,
# difficulty field); a format without one of the last two reads its default
_FIELDS = {
    "bird": (("SQL", "sql"), "evidence", "difficulty"),
    "spider": (("query", "SQL"), None, None),
}


def load_dataset(path: str | Path, fmt: str = "bird") -> list[BenchmarkItem]:
    """Load a benchmark JSON array.

    The bird format carries question/evidence/SQL/db_id/difficulty; the
    spider format maps query->gold_sql with empty evidence (spider databases
    ship no catalog descriptions, so context retrieval should be disabled
    for those runs). A row without `db_id` or `question`, or whose question
    id is not a plain file name (each names its trace file), raises
    DatasetError.
    """
    if fmt not in _FIELDS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    (sql_key, alt_sql_key), evidence_key, difficulty_key = _FIELDS[fmt]
    items: list[BenchmarkItem] = []
    for i, row in enumerate(json.loads(Path(path).read_text(encoding="utf-8"))):
        if not isinstance(row, dict) or not {"db_id", "question"} <= row.keys():
            raise DatasetError(f"row {i} of {path} is not an object with db_id and question")
        question_id = str(row.get("question_id", i))
        if question_id in ("", ".", "..") or any(ch in question_id for ch in "/\\\0"):
            raise DatasetError(
                f"row {i} of {path} has question_id {question_id!r}, not a plain file name"
            )
        items.append(
            BenchmarkItem(
                question_id=question_id,
                db_id=row["db_id"],
                question=row["question"],
                evidence=row.get(evidence_key, "") or "",
                gold_sql=row.get(sql_key) or row.get(alt_sql_key) or "",
                difficulty=row.get(difficulty_key, "simple"),
            )
        )
    return items


def validate_gold(
    item: BenchmarkItem,
    db_root: str | Path,
    config: PipelineConfig,
    ran: Sequence[CandidateQuery] = (),
) -> executor.ExecutionResult:
    """The item's gold SQL run on its database under `config.row_cap` and
    `config.execution_timeout_s`. A failure or a result over `row_cap` is
    logged; a missing database is a runtime_error with the DatasetError text.

    `ran` are candidates the pipeline executed on the item's database under
    the same `config`: the result of one whose SQL is the gold's exact text
    is the gold's, and the gold does not run again.
    """
    gold = next((c.exec_result for c in ran if c.sql == item.gold_sql), None)
    if gold is None:
        try:
            db_file = resolve_db_file(db_root, item.db_id)
        except DatasetError as exc:
            gold = executor.ExecutionResult(executor.RUNTIME_ERROR, error_text=str(exc))
        else:
            gold = executor.execute(
                db_file, item.gold_sql, timeout=config.execution_timeout_s,
                row_cap=config.row_cap,
            )
    if not gold.is_ok():
        logger.warning("gold SQL for %s fails: %s", item.question_id, gold.error_text)
    elif gold.truncated:
        logger.warning("gold SQL for %s returns over %d rows", item.question_id, config.row_cap)
    return gold


def execution_accuracy(
    pred_sql: str,
    gold_sql: str,
    db_file: str | Path,
    compare_mode: str = "set",
    timeout: float = executor.DEFAULT_TIMEOUT_S,
) -> int:
    """1 iff the predicted query's result matches the gold query's result."""
    gold = executor.execute(db_file, gold_sql, timeout=timeout)
    pred = executor.execute(db_file, pred_sql, timeout=timeout)
    return 1 if executor.results_match(pred, gold, mode=compare_mode) else 0


def pass_at_k(candidate_ex_lists: Sequence[Sequence[int]], k: int) -> float:
    """Fraction of items whose first k candidates contain a correct one."""
    if not candidate_ex_lists:
        return 0.0
    hits = 0
    for ex_list in candidate_ex_lists:
        if len(ex_list) < k:
            raise ValueError(f"candidate list of length {len(ex_list)} is shorter than k={k}")
        if any(ex_list[:k]):
            hits += 1
    return hits / len(candidate_ex_lists)


def extract_gold_schema_items(
    gold_sql: str, catalog: SchemaCatalog
) -> tuple[set[str], set[tuple[str, str]]]:
    """Tables and columns a gold query reads, as SQLite resolves its names.

    The query is prepared, never run, against an empty copy of the schema;
    the `EXPLAIN` program adds the `USING`/`NATURAL` join keys the authorizer
    does not report (see `sql_items`). A query that does not prepare raises
    DatasetError so the item can be excluded from precision/recall
    aggregates instead of skewing them.
    """
    items = extract_sql_items(gold_sql, catalog)
    if items.unresolved:
        raise DatasetError(f"unresolved references {items.unresolved} in {gold_sql!r}")
    return items.tables, items.columns


def schema_selection_pr(
    selected: SubSchema | dict[str, list[str]],
    gold_tables: set[str],
    gold_columns: set[tuple[str, str]],
) -> SchemaPR:
    """Precision and recall of a selection against gold tables/columns."""
    if not gold_tables or not gold_columns:
        raise ValueError("schema PR needs nonempty gold items")
    selection = selected.selection if isinstance(selected, SubSchema) else selected
    sel_tables = set(selection)
    sel_columns = {(t, c) for t, cols in selection.items() for c in cols}
    t_hit = len(sel_tables & gold_tables)
    c_hit = len(sel_columns & gold_columns)
    return SchemaPR(
        table_recall=t_hit / len(gold_tables),
        table_precision=t_hit / len(sel_tables) if sel_tables else 0.0,
        column_recall=c_hit / len(gold_columns),
        column_precision=c_hit / len(sel_columns) if sel_columns else 0.0,
    )


def subsample_dev(
    items: Sequence[BenchmarkItem], fraction: float, seed: int
) -> list[BenchmarkItem]:
    """Per-database stratified sample of ceil(fraction * n_db) items.

    Deterministic under the seed; fraction 1.0 returns the full set in
    original order.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return list(items)
    by_db: dict[str, list[BenchmarkItem]] = {}
    for item in items:
        by_db.setdefault(item.db_id, []).append(item)
    chosen_ids: set[str] = set()
    for db_id in sorted(by_db):
        rows = sorted(by_db[db_id], key=lambda it: it.question_id)
        take = math.ceil(fraction * len(rows))
        rng = random.Random(f"{seed}:{db_id}")
        rng.shuffle(rows)
        chosen_ids.update(it.question_id for it in rows[:take])
    return [it for it in items if it.question_id in chosen_ids]


def synthesize_large_schema(
    catalogs: Sequence[SchemaCatalog],
    target_columns: int,
    required: SubSchema | None,
    seed: int,
    merged_db_id: str = "synthetic_merge",
) -> SchemaCatalog:
    """Merge catalogs into one schema with exactly target_columns columns.

    Table names are prefixed with their source db id to avoid collisions.
    The required sub-schema, closed over its PK/FK columns, is always retained;
    remaining columns are drawn deterministically under the seed. FK edges
    and PK markers survive only where both endpoints survive.
    """
    total = sum(c.column_count() for c in catalogs)
    if total < target_columns:
        raise SynthesisError(
            f"sources provide {total} columns, target is {target_columns}"
        )

    required_cols: set[tuple[str, str, str]] = set()  # (db_id, table, column)
    if required is not None:
        source = required.parent
        for table, cols in required.selection.items():
            for col in cols:
                required_cols.add((source.db_id, table, col))
    if len(required_cols) > target_columns:
        raise SynthesisError(
            f"required sub-schema needs {len(required_cols)} columns, "
            f"target is only {target_columns}"
        )

    pool: list[tuple[str, str, str]] = []
    for catalog in catalogs:
        for tinfo in catalog.tables:
            for col in tinfo.columns:
                key = (catalog.db_id, tinfo.name, col.name)
                if key not in required_cols:
                    pool.append(key)
    rng = random.Random(seed)
    rng.shuffle(pool)
    chosen = set(required_cols)
    for key in pool:
        if len(chosen) >= target_columns:
            break
        chosen.add(key)

    tables: list[TableInfo] = []
    edges: list[FkEdge] = []
    for catalog in catalogs:
        for tinfo in catalog.tables:
            kept_cols = [
                col for col in tinfo.columns if (catalog.db_id, tinfo.name, col.name) in chosen
            ]
            if not kept_cols:
                continue
            prefix = f"{catalog.db_id}__{tinfo.name}"
            kept_names = {c.name for c in kept_cols}
            new_pk = [c for c in tinfo.primary_key if c in kept_names]
            columns = [replace(col, is_pk=col.name in new_pk) for col in kept_cols]
            tables.append(TableInfo(name=prefix, columns=columns, primary_key=new_pk))
        for edge in catalog.fk_edges:
            src = (catalog.db_id, edge.src_table, edge.src_column)
            dst = (catalog.db_id, edge.dst_table, edge.dst_column)
            if src in chosen and dst in chosen:
                edges.append(
                    FkEdge(
                        f"{catalog.db_id}__{edge.src_table}",
                        edge.src_column,
                        f"{catalog.db_id}__{edge.dst_table}",
                        edge.dst_column,
                    )
                )
    merged = SchemaCatalog(db_id=merged_db_id, tables=tables, fk_edges=edges)
    if merged.column_count() != target_columns:
        raise SynthesisError(
            f"merge produced {merged.column_count()} columns, wanted {target_columns}"
        )
    return merged


@dataclass
class ItemOutcome:
    question_id: str
    db_id: str
    difficulty: str
    predicted_sql: str
    ex: int
    llm_calls: int
    prompt_tokens: int
    completion_tokens: int
    candidate_ex: list[int] = field(default_factory=list)
    error: str = ""

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json_line(cls, line: str) -> "ItemOutcome":
        return cls(**json.loads(line))


@dataclass
class Report:
    outcomes: list[ItemOutcome]
    ex_overall: float
    ex_by_difficulty: dict[str, float]
    counts_by_difficulty: dict[str, int]
    pass_at: dict[str, float]
    mean_llm_calls: float
    mean_prompt_tokens: float
    mean_completion_tokens: float
    schema_pr_per_stage: dict[str, dict[str, float]] = field(default_factory=dict)
    flagged_gold: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_items": len(self.outcomes),
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "outcomes"},
        }


def resolve_db_file(db_root: str | Path, db_id: str) -> Path:
    """Database file under a BIRD-style root: <root>/<db_id>/<db_id>.sqlite."""
    root = Path(db_root)
    for candidate in (
        root / db_id / f"{db_id}.sqlite",
        root / db_id / f"{db_id}.db",
        root / f"{db_id}.sqlite",
        root / f"{db_id}.db",
    ):
        if candidate.is_file():
            return candidate
    raise DatasetError(f"no database file for {db_id!r} under {root}")


def run_benchmark(
    items: Sequence[BenchmarkItem],
    config: PipelineConfig,
    out_dir: str | Path,
    db_root: str | Path | None = None,
    gateway: Gateway | None = None,
    mock_dir: str | Path | None = None,
) -> Report:
    """Run the pipeline over a dataset and write report artifacts.

    Resumable: question ids already present in predictions.jsonl are loaded,
    not re-run, and their schema PRs read the catalog from the same
    per-database `ensure_artifacts` entry as fresh items; a torn last line
    left by a killed sweep is dropped and its item runs again. Per-item
    failures are recorded as EX=0 with an error note and never abort the
    sweep: a broken database, or a missing one (its DatasetError text is the
    error), fails only its own items, and flags their gold.

    EX is read from the cluster fingerprints of the pipeline's trace: a
    candidate scores 1 iff its cluster's digest equals the gold's. The only
    SQL run here is the gold's, at most once per item, in `validate_gold`,
    after the pipeline's run: a final candidate with the gold's exact text
    already ran it on the same file under the same limits, so its result is
    the gold's (no gold data reaches the pipeline). A resumed item, one whose
    pipeline raised, and one that no candidate repeats run the gold.
    `config.row_cap` and `config.execution_timeout_s` bound every execution,
    and a gold that fails or exceeds `row_cap` cannot score and is flagged.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    predictions_path = out / "predictions.jsonl"
    done = _load_outcomes(predictions_path)

    db_root = Path(db_root) if db_root is not None else Path(config.db_root)
    gateway = gateway or pipeline.build_gateway(config, mock_dir=mock_dir)

    artifacts_cache: dict[str, DbArtifacts] = {}

    def artifacts_of(db_id: str) -> DbArtifacts:
        if db_id not in artifacts_cache:
            db_file = resolve_db_file(db_root, db_id)
            artifacts_cache[db_id] = pipeline.ensure_artifacts(db_file, config)
        return artifacts_cache[db_id]

    outcomes: list[ItemOutcome] = []
    flagged: list[str] = []
    stage_prs: dict[str, list[SchemaPR]] = {}
    with open(predictions_path, "a", encoding="utf-8") as pred_fh:
        for item in items:
            if item.question_id in done:
                if not _scorable(validate_gold(item, db_root, config)):
                    flagged.append(item.question_id)
                outcomes.append(done[item.question_id])
                try:  # an unreadable trace or database costs only the stage PR
                    stages = _resumed_stages(traces_dir / f"{item.question_id}.jsonl")
                    if len(stages) >= 2:
                        catalog = artifacts_of(item.db_id).catalog
                        _collect_stage_pr(stage_prs, stages, item, catalog)
                except Exception as exc:
                    logger.warning("schema PR skipped for %s: %s", item.question_id, exc)
                continue
            gold = None
            with ledger() as spent:
                try:
                    artifacts = artifacts_of(item.db_id)
                    sql, trace = pipeline.run(
                        item.question, item.evidence, artifacts, config, gateway,
                        qid=item.question_id,
                    )
                    gold = validate_gold(item, db_root, config, trace.candidates)
                    gold_digest = (
                        executor.fingerprint(gold, config.compare_mode).digest
                        if _scorable(gold) else None
                    )
                    digest_of = {g: c["fingerprint"] for c in trace.clusters for g in c["members"]}
                    candidate_ex = [
                        int(digest_of[c.generation_index] == gold_digest) for c in trace.candidates
                    ]
                    ex, error = candidate_ex[trace.selected_index], ""
                    _collect_stage_pr(stage_prs, trace.stages, item, artifacts.catalog)
                    _write_trace_jsonl(traces_dir / f"{item.question_id}.jsonl", trace)
                except Exception as exc:
                    logger.warning("item %s failed: %s", item.question_id, exc)
                    sql, ex, candidate_ex, error = "", 0, [], str(exc)
            if gold is None:  # the pipeline raised, so no candidate stands in
                gold = validate_gold(item, db_root, config)
            if not _scorable(gold):
                flagged.append(item.question_id)
            llm_calls, prompt_tokens, completion_tokens = tally(spent)
            outcome = ItemOutcome(
                question_id=item.question_id,
                db_id=item.db_id,
                difficulty=item.difficulty,
                predicted_sql=sql,
                ex=ex,
                llm_calls=llm_calls,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                candidate_ex=candidate_ex,
                error=error,
            )
            pred_fh.write(outcome.to_json_line() + "\n")
            outcomes.append(outcome)

    report = _assemble_report(outcomes, stage_prs, flagged)
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=1, ensure_ascii=False), encoding="utf-8"
    )
    return report


def _scorable(gold: executor.ExecutionResult) -> bool:
    """A gold that failed or exceeded `row_cap` cannot score: its item is flagged."""
    return gold.is_ok() and not gold.truncated


# `json.dumps` with a keyword argument builds a new encoder per call
_TRACE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _write_trace_jsonl(path: Path, trace: RunTrace) -> None:
    """One summary line followed by one line per completion call."""
    summary = trace.to_dict()
    records = summary.pop("records")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACE_ENCODER.encode({"kind": "summary", **summary}) + "\n")
        for record in records:
            fh.write(_TRACE_ENCODER.encode({"kind": "llm_call", **record}) + "\n")


def _load_outcomes(path: Path) -> dict[str, ItemOutcome]:
    """Outcomes already in predictions.jsonl, keyed by question id.

    A sweep killed mid-write leaves a last line without its newline, or one
    that does not parse. That line is cut off the file, so that its item runs
    again and the next append starts on a fresh line. A bad line before the
    last one raises.
    """
    if not path.is_file():
        return {}
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    lines = data[:end].split(b"\n")[:-1]
    done: dict[str, ItemOutcome] = {}
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            outcome = ItemOutcome.from_json_line(line.decode("utf-8"))
        except (ValueError, TypeError):
            if i < len(lines) - 1 or end < len(data):
                raise
            end -= len(line) + 1
            break
        done[outcome.question_id] = outcome
    if end < len(data):
        logger.warning("dropping the torn last line of %s; its item runs again", path)
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return done


def _resumed_stages(trace_path: Path) -> list[StageRecord]:
    """Stage selections from a trace's summary line; a failed item wrote no trace."""
    if not trace_path.is_file():
        return []
    with open(trace_path, encoding="utf-8") as fh:
        return [StageRecord(**stage) for stage in json.loads(fh.readline())["stages"]]


def _collect_stage_pr(
    stage_prs: dict[str, list[SchemaPR]],
    stages: Sequence[StageRecord],
    item: BenchmarkItem,
    catalog: SchemaCatalog,
) -> None:
    if len(stages) < 2:
        return
    try:
        gold_tables, gold_columns = extract_gold_schema_items(item.gold_sql, catalog)
    except DatasetError as exc:
        logger.warning("schema PR skipped for %s: %s", item.question_id, exc)
        return
    if not gold_tables or not gold_columns:
        return
    for stage in stages:
        pr = schema_selection_pr(stage.selection, gold_tables, gold_columns)
        stage_prs.setdefault(stage.stage, []).append(pr)


def _assemble_report(
    outcomes: list[ItemOutcome], stage_prs: dict[str, list[SchemaPR]], flagged: list[str]
) -> Report:
    n = len(outcomes)
    ex_overall = sum(o.ex for o in outcomes) / n if n else 0.0
    ex_by_diff: dict[str, float] = {}
    counts: dict[str, int] = {}
    for diff in DIFFICULTIES:
        rows = [o for o in outcomes if o.difficulty == diff]
        counts[diff] = len(rows)
        if rows:
            ex_by_diff[diff] = sum(o.ex for o in rows) / len(rows)
    pass_at: dict[str, float] = {}
    lists = [o.candidate_ex for o in outcomes if o.candidate_ex]
    if lists:
        min_len = min(len(lst) for lst in lists)
        # a failed item has no candidates: it is a miss at every k
        lists += [[0] * min_len] * (n - len(lists))
        for k in (1, min_len):
            pass_at[f"pass@{k}"] = pass_at_k(lists, k)
    mean_prs = {
        stage: {f.name: sum(getattr(p, f.name) for p in prs) / len(prs) for f in fields(SchemaPR)}
        for stage, prs in stage_prs.items()
    }
    return Report(
        outcomes=outcomes,
        ex_overall=ex_overall,
        ex_by_difficulty=ex_by_diff,
        counts_by_difficulty=counts,
        pass_at=pass_at,
        mean_llm_calls=sum(o.llm_calls for o in outcomes) / n if n else 0.0,
        mean_prompt_tokens=sum(o.prompt_tokens for o in outcomes) / n if n else 0.0,
        mean_completion_tokens=sum(o.completion_tokens for o in outcomes) / n if n else 0.0,
        schema_pr_per_stage=mean_prs,
        flagged_gold=flagged,
    )
