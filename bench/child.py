"""One set-up or one sweep of the benchmark, in a process of its own.

`run.py` starts this script once per job so that every set-up starts cold
(no in-process memo tables) and every process's peak RSS is its own:

    python3 bench/child.py <job.json>

The job file names the workload, the input directory, the output directory,
whether to trace, and for a sweep either a time budget or a batch count to
replay. The result is written as JSON to the path the job names.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import resource
import socket
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import querycrew
from querycrew import harness, pipeline
from querycrew.gateway import Gateway
from querycrew.pipeline import PipelineConfig

from scripted_backend import ScriptedBackend
from tracing import AGENT_TOOLS, DEGRADED_MODULES, STATUSES, Tracer, percentile
from workloads import ROUND_SEP, WORKLOADS, Workload

CACHE_SUFFIXES = (".value_index.qcx", ".context_store.qcx")


class SocketGuard:
    """Refuses and counts every socket the program tries to open."""

    def __init__(self) -> None:
        self.attempts = 0

    def __enter__(self):
        self._real = socket.socket
        guard = self

        def refuse(*args, **kwargs):
            guard.attempts += 1
            raise OSError("network access attempted during the offline benchmark")

        socket.socket = refuse
        return self

    def __exit__(self, *exc):
        socket.socket = self._real


class WarningCounter(logging.Handler):
    """Counts WARNING records per querycrew module (the degradation log)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name.rsplit(".", 1)[-1]] += 1


def _config(wl: Workload, inputs: Path) -> PipelineConfig:
    return PipelineConfig(db_root=str(inputs), **wl.config_dict())


def _db_files(wl: Workload, inputs: Path) -> list[Path]:
    return [inputs / db / f"{db}.sqlite" for db in wl.db_ids]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- set-up ---------------------------------------------------------------------


def setup(job: dict, wl: Workload, tracer: Tracer | None, warnings: WarningCounter) -> dict:
    inputs = Path(job["inputs"])
    config = _config(wl, inputs)
    db_files = _db_files(wl, inputs)
    for db_file in db_files:
        for suffix in CACHE_SUFFIXES:
            (db_file.parent / f"{db_file.stem}{suffix}").unlink(missing_ok=True)
    with SocketGuard() as guard, tracer.root("bench.setup") if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for db_file in db_files:
            pipeline.ensure_artifacts(db_file, config)
        setup_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "rss_mb": _rss_mb(),
        "sockets": guard.attempts,
        "warnings": dict(warnings.counts),
    }
    if tracer is not None:
        result["layers"] = _setup_layers(tracer, db_files)
    return result


def _setup_layers(tracer: Tracer, db_files: list[Path]) -> dict:
    by_name = _by_name(tracer)
    build_s = sum(s.duration for s in by_name["value_index.build"])
    values = sum(tracer.values["value_index.build"])

    def cache_bytes(suffix: str) -> int:
        return sum((f.parent / f"{f.stem}{suffix}").stat().st_size for f in db_files)

    return {
        "catalog.introspect_database.total_ms":
            sum(s.self_s for s in by_name["catalog.introspect_database"]) * 1000,
        "value_index.build.s": build_s,
        "value_index.values": values,
        "value_index.build.values_per_s": values / build_s if build_s else 0.0,
        "context_store.build.s": sum(s.duration for s in by_name["context_store.build"]),
        "context_store.items": sum(tracer.values["context_store.build"]),
        "caching.save.s": sum(s.duration for s in by_name["caching.save"]),
        "caching.value_index_bytes": cache_bytes(CACHE_SUFFIXES[0]),
        "caching.context_store_bytes": cache_bytes(CACHE_SUFFIXES[1]),
    }


def layers_seen(tracer: Tracer) -> list[str]:
    return sorted({s.layer for s in tracer.spans} - {"bench"})


# -- sweep ----------------------------------------------------------------------


def sweep(job: dict, wl: Workload, tracer: Tracer | None, warnings: WarningCounter) -> dict:
    inputs = Path(job["inputs"])
    out = Path(job["out"])
    config = _config(wl, inputs)
    pool = harness.load_dataset(inputs / "dataset.json")
    script = json.loads((inputs / "script.json").read_text(encoding="utf-8"))
    expect = json.loads((inputs / "expect.json").read_text(encoding="utf-8"))
    backend = ScriptedBackend(script, {q: e["planted"] for q, e in expect.items()}, wl.delay_s)

    samples: list[float] = []
    unseen: dict[str, int] = {}
    untimed_run = pipeline.run

    def timed_run(*args, **kwargs):
        qid = kwargs["qid"]
        if tracer is not None:
            tracer.qid = qid
        backend.begin_question(qid)
        start = time.perf_counter()
        try:
            return untimed_run(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)
            unseen[qid] = backend.end_question(qid)

    pipeline.run = timed_run

    walls: list[float] = []
    cpus: list[float] = []
    outcomes: list[list] = []
    reports: list[list] = []
    deadline = time.perf_counter() + job["seconds"]
    with SocketGuard() as guard:
        while True:
            n = len(walls)
            batch = [
                dataclasses.replace(item, question_id=f"{item.question_id}{ROUND_SEP}{k // len(pool)}")
                for k in range(n * wl.batch, (n + 1) * wl.batch)
                for item in [pool[k % len(pool)]]
            ]
            gateway = Gateway.single(backend)
            root = tracer.root("bench.sweep") if tracer else contextlib.nullcontext()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with root:
                report = harness.run_benchmark(
                    batch, config, out / f"batch{n:03d}", db_root=inputs, gateway=gateway
                )
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
            reports.append(
                [len(report.outcomes), report.ex_overall, report.mean_llm_calls,
                 report.mean_prompt_tokens]
            )
            outcomes += [
                [o.question_id, o.ex, o.llm_calls, o.predicted_sql, o.error]
                for o in report.outcomes
            ]
            if job.get("batches") is not None:
                if len(walls) >= job["batches"]:
                    break
            elif time.perf_counter() >= deadline:
                break
    pipeline.run = untimed_run

    result = {
        "walls": walls,
        "cpus": cpus,
        "samples": samples,
        "outcomes": outcomes,
        "reports": reports,
        "unseen": unseen,
        "rss_mb": _rss_mb(),
        "sockets": guard.attempts,
        "warnings": dict(warnings.counts),
    }
    if tracer is not None:
        result["layers"] = _sweep_layers(tracer, backend, len(outcomes), len(walls), warnings)
    return result


def _by_name(tracer: Tracer) -> dict:
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    return by_name


def _sweep_layers(
    tracer: Tracer, backend, n_q: int, n_batches: int, warnings: WarningCounter
) -> dict:
    """Per-layer numbers of a traced sweep: counts and self time per question,
    per-call percentiles, and per-sweep seconds for the once-per-sweep work."""
    by_name = _by_name(tracer)
    counts, values = tracer.counts, tracer.values

    def calls(name):
        return len(by_name[name]) / n_q

    def total_ms(*names):
        return sum(s.self_s for n in names for s in by_name[n]) * 1000 / n_q

    def pct_ms(name, q):
        return percentile([s.duration for s in by_name[name]], q) * 1000

    def per_sweep_s(name):
        return sum(s.duration for s in by_name[name]) / n_batches

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def under_harness(span) -> bool:
        parent = span.parent
        while parent is not None and parent.layer == "executor":
            parent = parent.parent
        return parent is not None and parent.layer == "harness"

    wait_s = sum(s.duration for s in by_name["gateway.backend"])
    run_s = sum(s.duration for s in by_name["pipeline.run"])
    harness_names = [n for n in by_name if n.startswith("harness.")]
    m = {
        "catalog.render_schema_prompt.calls": calls("catalog.render_schema_prompt"),
        "catalog.render_schema_prompt.p50_ms": pct_ms("catalog.render_schema_prompt", 0.5),
        "catalog.render_schema_prompt.total_ms": total_ms("catalog.render_schema_prompt"),
        "catalog.render_schema_prompt.chars_p50":
            percentile(values["catalog.render_schema_prompt"], 0.5),
        "catalog.project.calls": calls("catalog.project"),
        "catalog.project.total_ms": total_ms("catalog.project"),
        "catalog.linking_columns.calls": calls("catalog.linking_columns"),
        "catalog.linking_columns.total_ms": total_ms("catalog.linking_columns"),
        "value_index.retrieve_entities.calls": calls("value_index.retrieve_entities"),
        "value_index.retrieve_entities.p50_ms": pct_ms("value_index.retrieve_entities", 0.5),
        "value_index.retrieve_entities.p90_ms": pct_ms("value_index.retrieve_entities", 0.9),
        "value_index.lsh_query.calls": calls("value_index.lsh_query"),
        "value_index.lsh_query.p50_ms": pct_ms("value_index.lsh_query", 0.5),
        "value_index.lsh_query.p90_ms": pct_ms("value_index.lsh_query", 0.9),
        "value_index.lsh_query.results_mean": mean(values["value_index.lsh_query"]),
        "value_index.edit_distance.calls": counts["value_index.edit_distance"] / n_q,
        "value_index.entities_per_keyword":
            counts["value_index.entities"] / max(1, counts["value_index.keywords"]),
        "context_store.retrieve_context.calls": calls("context_store.retrieve_context"),
        "context_store.retrieve_context.p50_ms": pct_ms("context_store.retrieve_context", 0.5),
        "context_store.embed.calls": calls("context_store.embed"),
        "context_store.embed.total_ms": total_ms("context_store.embed"),
        "caching.load.s": per_sweep_s("caching.load"),
        "templates.render_template.calls": calls("templates.render_template"),
        "templates.render_template.total_ms": total_ms("templates.render_template"),
        "templates.prompt_chars_mean": mean(values["templates.render_template"]),
        "gateway.calls": calls("gateway.complete_prompt"),
        "gateway.backend_wait_s": wait_s / n_q,
        "gateway.backend_wait_share": wait_s / run_s if run_s else 0.0,
        "gateway.peak_in_flight": backend.peak_in_flight,
        "gateway.self_ms": total_ms(
            "gateway.complete_prompt", "gateway.complete_rendered", "gateway.structured"
        ),
        "gateway.parse_structured.calls": calls("gateway.parse_structured"),
        "gateway.parse_structured.total_ms": total_ms("gateway.parse_structured"),
        "gateway.parse_retries": backend.retries / n_q,
        "executor.execute.calls": calls("executor.execute"),
        "executor.execute.p50_ms": pct_ms("executor.execute", 0.5),
        "executor.execute.p90_ms": pct_ms("executor.execute", 0.9),
        "executor.execute.total_ms": total_ms("executor.execute"),
        "pipeline.run.self_ms": total_ms("pipeline.run"),
        "pipeline.ensure_artifacts.s": per_sweep_s("pipeline.ensure_artifacts"),
        "pipeline.revise_loop.calls": calls("pipeline.revise_loop"),
        "pipeline.revisions": counts["pipeline.revisions"] / n_q,
        "pipeline.revision_fix_ratio":
            counts["pipeline.revise_cleared"] / max(1, counts["pipeline.revise_entered"]),
        "pipeline.cluster_by_result.total_ms": total_ms("pipeline.cluster_by_result"),
        "pipeline.clusters_per_q": mean(values["pipeline.cluster_by_result"]),
        "pipeline.score_and_select.total_ms": total_ms("pipeline.score_and_select"),
        "harness.validate_gold.s": per_sweep_s("harness.validate_gold"),
        "harness.execution_accuracy.calls": calls("harness.execution_accuracy"),
        "harness.execution_accuracy.total_ms": total_ms("harness.execution_accuracy"),
        "harness.executes_per_item":
            sum(1 for s in by_name["executor.execute"] if under_harness(s)) / n_q,
        "harness.self_ms": total_ms(*harness_names),
        "sql_items.extract_sql_items.calls": calls("sql_items.extract_sql_items"),
        "sql_items.extract_sql_items.total_ms": total_ms("sql_items.extract_sql_items"),
        "trace.orphan_spans": len(tracer.orphans),
    }
    for tool in AGENT_TOOLS:
        m[f"agents.{tool}.calls"] = calls(f"agents.{tool}")
        m[f"agents.{tool}.total_ms"] = total_ms(f"agents.{tool}")
    for status in STATUSES:
        m[f"executor.status.{status}"] = counts[f"executor.status.{status}"] / n_q
    for name in ("fingerprint", "results_match", "canonicalize"):
        m[f"executor.{name}.calls"] = calls(f"executor.{name}")
        m[f"executor.{name}.total_ms"] = total_ms(f"executor.{name}")
    for module in DEGRADED_MODULES:
        m[f"degraded.{module}"] = warnings.counts[module] / n_q
    return m


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(job["root"])
    if Path(querycrew.__file__).resolve().parent != (root / "src" / "querycrew").resolve():
        raise RuntimeError(f"imported querycrew from {querycrew.__file__}, not the checkout")
    wl = WORKLOADS[job["workload"]]
    warnings = WarningCounter()
    qc_logger = logging.getLogger("querycrew")
    qc_logger.addHandler(warnings)
    qc_logger.propagate = False
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    result = (setup if job["kind"] == "setup" else sweep)(job, wl, tracer, warnings)
    if tracer is not None:
        tracer.uninstall()
        result["layers_seen"] = layers_seen(tracer)
        tracer.write(Path(job["result"]).with_suffix(".spans.jsonl"))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
