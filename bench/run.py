"""Offline, seeded benchmark of the querycrew pipeline.

    python3 bench/run.py --workload ut_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The benchmark generates its inputs from the seed (once per seed,
before anything is timed), then drives the public entry points the way
`querycrew bench` does, against a scripted model backend that sleeps a fixed
delay on every call. The load is a closed loop with one client: questions run
one after another.

With `--trace 0` it measures the end-to-end metrics: several cold set-ups
(`pipeline.ensure_artifacts` on every database, each in a fresh process, the
median reported), then sweeps (`harness.run_benchmark` over batches of
questions) for `--seconds`. With `--trace 1` it sets up once under the
tracer, sweeps untraced for `--seconds`, replays the same batches traced, and
reports per-layer metrics plus the tracing overhead.

Either way it checks the program's outputs against what the script implies
and prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it records the
environment. Scratch files live under `.bench_work/` in the checkout; the
last run's outputs (and, for a traced run, its spans) stay there until the next
run of the same workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy

from tracing import AGENT_TOOLS, DEGRADED_MODULES, STATUSES, percentile
from workloads import WORKLOADS, generate, pool_id

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150

# name -> unit; the order and units match BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "question_p50_ms": "ms",
    "question_p90_ms": "ms",
    "sweep_qps": "questions/s",
    "cpu_ms_per_q": "ms",
    "peak_rss_mb": "MB",
    "ex_overall": "ratio",
    "llm_calls_per_q": "calls",
    "prompt_tokens_per_q": "tokens",
    "entity_recall": "ratio",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name. Counts and self times are
    per question; percentiles are per call; seconds are per set-up (build,
    save) or per sweep batch (load, validation)."""
    if name.endswith(".calls") or name == "gateway.calls":
        return "calls/q"
    if name.endswith("total_ms") and name.startswith("catalog.introspect"):
        return "ms"
    if name.endswith(("total_ms", "self_ms")):
        return "ms/q"
    if name.endswith(("p50_ms", "p90_ms")):
        return "ms"
    if name.endswith("_wait_s"):
        return "s/q"
    if name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith(("executor.status.", "degraded.")) or name in (
        "pipeline.revisions", "gateway.parse_retries", "harness.executes_per_item"
    ):
        return "count/q"
    if name.endswith(("_frac", "_share", "_ratio")):
        return "ratio"
    if "chars" in name:
        return "chars"
    return "count"


PER_LAYER = [
    "catalog.introspect_database.total_ms",
    "catalog.render_schema_prompt.calls",
    "catalog.render_schema_prompt.p50_ms",
    "catalog.render_schema_prompt.total_ms",
    "catalog.render_schema_prompt.chars_p50",
    "catalog.project.calls",
    "catalog.project.total_ms",
    "catalog.linking_columns.calls",
    "catalog.linking_columns.total_ms",
    "value_index.build.s",
    "value_index.values",
    "value_index.build.values_per_s",
    "value_index.retrieve_entities.calls",
    "value_index.retrieve_entities.p50_ms",
    "value_index.retrieve_entities.p90_ms",
    "value_index.lsh_query.calls",
    "value_index.lsh_query.p50_ms",
    "value_index.lsh_query.p90_ms",
    "value_index.lsh_query.results_mean",
    "value_index.edit_distance.calls",
    "value_index.entities_per_keyword",
    "context_store.build.s",
    "context_store.items",
    "context_store.retrieve_context.calls",
    "context_store.retrieve_context.p50_ms",
    "context_store.embed.calls",
    "context_store.embed.total_ms",
    "caching.save.s",
    "caching.load.s",
    "caching.value_index_bytes",
    "caching.context_store_bytes",
    "templates.render_template.calls",
    "templates.render_template.total_ms",
    "templates.prompt_chars_mean",
    "gateway.calls",
    "gateway.backend_wait_s",
    "gateway.backend_wait_share",
    "gateway.peak_in_flight",
    "gateway.self_ms",
    "gateway.parse_structured.calls",
    "gateway.parse_structured.total_ms",
    "gateway.parse_retries",
    *[f"agents.{tool}.{kind}" for tool in AGENT_TOOLS for kind in ("calls", "total_ms")],
    "executor.execute.calls",
    "executor.execute.p50_ms",
    "executor.execute.p90_ms",
    "executor.execute.total_ms",
    *[f"executor.status.{s}" for s in STATUSES],
    *[
        f"executor.{fn}.{kind}"
        for fn in ("fingerprint", "results_match", "canonicalize")
        for kind in ("calls", "total_ms")
    ],
    "pipeline.run.self_ms",
    "pipeline.ensure_artifacts.s",
    "pipeline.revise_loop.calls",
    "pipeline.revisions",
    "pipeline.revision_fix_ratio",
    "pipeline.cluster_by_result.total_ms",
    "pipeline.clusters_per_q",
    "pipeline.score_and_select.total_ms",
    "harness.validate_gold.s",
    "harness.execution_accuracy.calls",
    "harness.execution_accuracy.total_ms",
    "harness.executes_per_item",
    "harness.self_ms",
    "sql_items.extract_sql_items.calls",
    "sql_items.extract_sql_items.total_ms",
    *[f"degraded.{m}" for m in DEGRADED_MODULES],
    "failed_frac",
    "question.samples",
    "trace.overhead_frac",
    "trace.orphan_spans",
]


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def _child(job: dict, run_dir: Path, tag: str) -> dict:
    """Run one set-up or sweep job in a fresh interpreter and read its result."""
    job = dict(job, root=str(ROOT), result=str(run_dir / f"{tag}.json"))
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    tmp = WORK / "tmp"  # keeps SQLite's and Python's temporary files in the checkout
    tmp.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        TMPDIR=str(tmp),
        SQLITE_TMPDIR=str(tmp),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(job_path)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{tag} failed (exit {proc.returncode}):\n{proc.stderr[-6000:]}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def _inputs(workload: str, seed: int) -> Path:
    """Generated inputs for (workload, seed); other seeds' inputs are removed."""
    base = WORK / workload
    inputs = base / f"seed-{seed}"
    done = inputs / ".complete"
    if not done.is_file():
        if base.is_dir():
            for old in base.glob("seed-*"):
                shutil.rmtree(old)
        generate(workload, seed, inputs)
        done.touch()
    return inputs


def _check(sweep: dict, setups: list[dict], expect: dict) -> list[str]:
    """Every way the program's outputs can disagree with the script."""
    failures = []
    outcomes = sweep["outcomes"]
    if len(sweep["samples"]) != len(outcomes):
        failures.append(
            f"pipeline.run timer has {len(sweep['samples'])} samples "
            f"for {len(outcomes)} questions"
        )
    want_warnings: Counter = Counter()
    for qid, ex, calls, sql, error in outcomes:
        want = expect[pool_id(qid)]
        want_warnings.update(want["degraded"])
        if error:
            failures.append(f"{qid}: failed: {error}")
        if calls != want["llm_calls"]:
            failures.append(f"{qid}: {calls} LLM calls, script implies {want['llm_calls']}")
        if ex != want["ex"]:
            failures.append(f"{qid}: EX {ex}, script implies {want['ex']}")
        if sql != want["predicted_sql"]:
            failures.append(f"{qid}: predicted {sql!r}, script implies {want['predicted_sql']!r}")
    n = sum(r[0] for r in sweep["reports"])
    ex_overall = sum(r[0] * r[1] for r in sweep["reports"]) / n
    ex_expected = sum(expect[pool_id(o[0])]["ex"] for o in outcomes) / len(outcomes)
    if abs(ex_overall - ex_expected) > 1e-12:
        failures.append(f"ex_overall {ex_overall}, script implies {ex_expected}")
    if Counter(sweep["warnings"]) != want_warnings:
        failures.append(f"WARNING records {sweep['warnings']}, script implies {dict(want_warnings)}")
    for result in setups:
        if result["warnings"]:
            failures.append(f"set-up logged WARNING records {result['warnings']}")
    sockets = sweep["sockets"] + sum(r["sockets"] for r in setups)
    if sockets:
        failures.append(f"{sockets} socket(s) opened")
    return failures


def _end_to_end(sweep: dict, setups: list[dict], expect: dict) -> dict:
    n = len(sweep["outcomes"])
    reports = sweep["reports"]
    planted = sum(len(expect[pool_id(o[0])]["planted"]) for o in sweep["outcomes"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "question_p50_ms": statistics.median(sweep["samples"]) * 1000,
        "question_p90_ms": percentile(sweep["samples"], 0.9) * 1000,
        # medians over the sweep batches, so that a burst of load from
        # outside the benchmark moves one batch and not the run
        "sweep_qps": statistics.median(r[0] / w for r, w in zip(reports, sweep["walls"])),
        "cpu_ms_per_q": statistics.median(
            c * 1000 / r[0] for r, c in zip(reports, sweep["cpus"])
        ),
        "peak_rss_mb": max([sweep["rss_mb"]] + [r["rss_mb"] for r in setups]),
        "ex_overall": sum(r[0] * r[1] for r in reports) / n,
        "llm_calls_per_q": sum(r[0] * r[2] for r in reports) / n,
        "prompt_tokens_per_q": sum(r[0] * r[3] for r in reports) / n,
        "entity_recall": 1 - sum(sweep["unseen"].values()) / planted,
    }


def _predictions_differ(plain: Path, traced: Path, n_batches: int) -> list[str]:
    diffs = []
    for b in range(n_batches):
        name = f"batch{b:03d}/predictions.jsonl"
        if (plain / name).read_bytes() != (traced / name).read_bytes():
            diffs.append(f"{name} differs between the untraced and the traced sweep")
    return diffs


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def measure(args, wl, inputs: Path, run_dir: Path) -> tuple[dict, list[str], int, int]:
    expect = json.loads((inputs / "expect.json").read_text(encoding="utf-8"))
    base = {"workload": wl.name, "inputs": str(inputs), "seconds": args.seconds}
    if not args.trace:
        # half the set-ups before the sweep and half after, so that the
        # median does not hang on the host's load during one short stretch
        setups = [
            _child(dict(base, kind="setup", trace=False), run_dir, f"setup{i}")
            for i in range((wl.n_setups + 1) // 2)
        ]
        sweep = _child(
            dict(base, kind="sweep", trace=False, out=str(run_dir / "sweep")), run_dir, "sweep"
        )
        setups += [
            _child(dict(base, kind="setup", trace=False), run_dir, f"setup{i}")
            for i in range(len(setups), wl.n_setups)
        ]
        metrics = _end_to_end(sweep, setups, expect)
        units = END_TO_END
        failures = _check(sweep, setups, expect)
    else:
        setup = _child(dict(base, kind="setup", trace=True), run_dir, "setup")
        sweep = _child(
            dict(base, kind="sweep", trace=False, out=str(run_dir / "plain")), run_dir, "plain"
        )
        traced = _child(
            dict(base, kind="sweep", trace=True, out=str(run_dir / "traced"),
                 batches=len(sweep["walls"])),
            run_dir, "traced",
        )
        seen = set(setup["layers_seen"]) | set(traced["layers_seen"])
        missing = [layer for layer in wl.layers if layer not in seen]
        if missing:
            raise BenchError(f"layers with no spans on {wl.name}: {missing}")
        failures = _check(sweep, [setup], expect) + _check(traced, [], expect)
        failures += _predictions_differ(run_dir / "plain", run_dir / "traced", len(sweep["walls"]))
        metrics = {**setup["layers"], **traced["layers"]}
        metrics["failed_frac"] = sum(1 for o in sweep["outcomes"] if o[4]) / len(sweep["outcomes"])
        metrics["question.samples"] = len(sweep["samples"])
        metrics["trace.overhead_frac"] = sum(traced["walls"]) / sum(sweep["walls"]) - 1
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = {name: per_layer_unit(name) for name in PER_LAYER}
    attempted = len(sweep["outcomes"])
    failed = sum(1 for o in sweep["outcomes"] if o[4])
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, failures, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "querycrew" / "__init__.py").is_file():
        print(f"no querycrew sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = _inputs(args.workload, args.seed)
    run_dir = WORK / args.workload / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        metrics, failures, attempted, failed = measure(args, wl, inputs, run_dir)
    finally:
        # the caches are large and rebuilt cold by every run anyway
        for cache in inputs.glob("*/*.qcx"):
            cache.unlink()

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "workload": wl.name,
        "seed": args.seed,
        "delay_s": wl.delay_s,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (WORK / args.workload / "result.json").write_text(
        json.dumps({"env": env, "failures": failures, **result}, indent=1), encoding="utf-8"
    )
    for failure in failures[:50]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
