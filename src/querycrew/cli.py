"""Command-line entry points.

    querycrew preprocess --db-root <dir> [--config <file>]
    querycrew ask --db <id> --question <text> [--hint <text>] --config <file>
    querycrew bench --dataset <json> --config <file> --out <dir>
                    [--mock <fixture-dir>] [--disable <tool> ...]
                    [--subsample <frac> --seed <n>] [--db-root <dir>]
    querycrew synth-schema --sources <db-dir> ... --target-columns <n>
                    --seed <n> --out <catalog.json>
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, pipeline
from .catalog import introspect_database, save_catalog
from .pipeline import PipelineConfig
from .value_index import attach_sample_values


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="querycrew")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build value index and context store caches")
    p.add_argument("--db-root", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("ask", help="answer one question against one database")
    p.add_argument("--db", required=True, help="database id under the db root")
    p.add_argument("--question", required=True)
    p.add_argument("--hint", default="")
    p.add_argument("--config", required=True)
    p.add_argument("--db-root", default=None)
    p.add_argument("--mock", default=None, help="mock fixture directory (offline run)")
    p.add_argument("--qid", default="ask", help="question id used in scenario keys")
    p.add_argument("--trace", default=None, help="write the run trace to this file")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--db-root", default=None)
    p.add_argument("--format", default="bird", choices=("bird", "spider"))
    p.add_argument("--mock", default=None, help="mock fixture directory (offline run)")
    p.add_argument(
        "--disable",
        action="append",
        default=[],
        choices=pipeline.TOGGLEABLE_TOOLS,
        help="ablation: disable one tool (repeatable)",
    )
    p.add_argument("--max-revisions", type=int, default=None)
    p.add_argument("--subsample", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth-schema", help="merge databases into one large schema")
    p.add_argument("--sources", nargs="+", required=True, help="SQLite files or db dirs")
    p.add_argument("--target-columns", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="merged catalog JSON path")
    p.set_defaults(func=cmd_synth_schema)
    return parser


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig(team="IR_SS_CG", n_candidates=1)
    return PipelineConfig.from_file(path)


def cmd_preprocess(args) -> int:
    config = _load_config(args.config)
    root = Path(args.db_root)
    db_files = _db_files(root)
    if not db_files:
        print(f"no SQLite databases under {root}", file=sys.stderr)
        return 1
    for db_file in db_files:
        artifacts = pipeline.ensure_artifacts(db_file, config)
        attach_sample_values(artifacts.catalog, artifacts.value_index)
        catalog_path = db_file.with_suffix(".catalog.json")
        save_catalog(artifacts.catalog, catalog_path)
        print(
            f"{db_file.stem}: {len(artifacts.value_index)} indexed values, "
            f"{len(artifacts.context_store or [])} descriptions"
        )
    return 0


def _db_files(root: Path) -> list[Path]:
    """Each database under `root` as `harness.resolve_db_file` finds it, one
    per id: a subdirectory, or a top-level `.sqlite` or `.db` file."""
    entries = list(root.glob("*"))
    ids = {p.name for p in entries if p.is_dir()}
    ids |= {p.stem for p in entries if p.suffix in (".sqlite", ".db")}
    files = []
    for db_id in sorted(ids):
        try:
            files.append(harness.resolve_db_file(root, db_id))
        except harness.DatasetError:
            pass  # a subdirectory without a database of its name
    return files


def cmd_ask(args) -> int:
    config = _load_config(args.config)
    db_root = args.db_root or config.db_root
    db_file = harness.resolve_db_file(db_root, args.db)
    gateway = pipeline.build_gateway(config, mock_dir=args.mock)
    sql, trace = pipeline.run(
        args.question, args.hint, db_file, config, gateway, qid=args.qid
    )
    print(sql)
    if args.trace:
        Path(args.trace).write_text(
            json.dumps(trace.to_dict(), indent=1, ensure_ascii=False), encoding="utf-8"
        )
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    if args.disable:
        config = replace(config, disabled_tools=frozenset(args.disable))
    if args.max_revisions is not None:
        config = replace(config, max_revisions=args.max_revisions)
    items = harness.load_dataset(args.dataset, fmt=args.format)
    if args.format == "spider":
        config = replace(config, disabled_tools=config.disabled_tools | {"retrieve_context"})
    if args.subsample is not None:
        items = harness.subsample_dev(items, args.subsample, args.seed)
    report = harness.run_benchmark(
        items,
        config,
        out_dir=args.out,
        db_root=args.db_root or config.db_root,
        mock_dir=args.mock,
    )
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def cmd_synth_schema(args) -> int:
    catalogs = []
    for source in args.sources:
        path = Path(source).resolve()
        if path.is_dir():
            try:
                path = harness.resolve_db_file(path.parent, path.name)
            except harness.DatasetError as exc:
                print(exc, file=sys.stderr)
                return 1
        catalogs.append(introspect_database(path))
    merged = harness.synthesize_large_schema(
        catalogs, target_columns=args.target_columns, required=None, seed=args.seed
    )
    save_catalog(merged, args.out)
    print(f"wrote {merged.column_count()} columns across {len(merged.tables)} tables to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
