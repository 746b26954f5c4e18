"""Golden mock sweeps: every output byte of the ten-question e2e suite is pinned.

Each case sweeps all ten questions (3 candidates, 2 unit tests) once cold,
building the catalog, value-index and context-store caches, and once warm on
the same caches. Both sweeps must give the pinned sha256 of
`predictions.jsonl`, of `report.json`, of each `traces/*.jsonl`, whose
summary line is hashed without its `duration_s`, and of the gateway's call
log, which holds every prompt sent and answer read. The cases are the four
teams, each toggleable tool disabled on its own under `IR_SS_CG_UT`, and,
under the same team, each pair of schema-selection tools and all three
disabled together.

A change that alters output on purpose re-pins here and names each changed
digest, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from e2e_fixtures import build_bench_root, build_suite_fixture_dir, suite_dataset

from querycrew.catalog import introspect_database
from querycrew.gateway import Gateway, MockBackend
from querycrew.harness import load_dataset, run_benchmark
from querycrew.pipeline import SS_TOOLS, TEAMS, TOGGLEABLE_TOOLS, PipelineConfig

SS_DISABLED = [set(SS_TOOLS) - {tool} for tool in SS_TOOLS] + [set(SS_TOOLS)]

CASES = {
    **{team: PipelineConfig(team=team, n_candidates=3, n_unit_tests=2) for team in TEAMS},
    **{
        f"IR_SS_CG_UT-{tool}": PipelineConfig(
            team="IR_SS_CG_UT", n_candidates=3, n_unit_tests=2,
            disabled_tools=frozenset({tool}),
        )
        for tool in TOGGLEABLE_TOOLS
    },
    **{
        "IR_SS_CG_UT-" + "+".join(t for t in SS_TOOLS if t in tools): PipelineConfig(
            team="IR_SS_CG_UT", n_candidates=3, n_unit_tests=2,
            disabled_tools=frozenset(tools),
        )
        for tools in SS_DISABLED
    },
}

GOLDEN = json.loads((Path(__file__).parent / "golden_runs.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory) -> Path:
    root = build_bench_root(tmp_path_factory.mktemp("sources"))
    sources = {
        db: introspect_database(root / db / f"{db}.sqlite") for db in ("motorsport", "finance")
    }
    return build_suite_fixture_dir(tmp_path_factory.mktemp("fixtures"), sources)


def sweep_digests(out: Path) -> dict[str, str]:
    """The sha256 of each file a sweep wrote, keyed by its path under `out`."""
    digests = {}
    for name in ("calls.jsonl", "predictions.jsonl", "report.json"):
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    for path in sorted((out / "traces").glob("*.jsonl")):
        summary, rest = path.read_text(encoding="utf-8").split("\n", 1)
        fields = json.loads(summary)
        assert fields.pop("duration_s") >= 0
        data = json.dumps(fields, ensure_ascii=False) + "\n" + rest
        digests[f"traces/{path.name}"] = hashlib.sha256(data.encode("utf-8")).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_then_warm_sweep_matches_golden(case, fixtures, tmp_path):
    root = build_bench_root(tmp_path / "root")
    (root / "dataset.json").write_text(json.dumps(suite_dataset()), encoding="utf-8")
    items = load_dataset(root / "dataset.json")
    runs = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        out.mkdir()
        gateway = Gateway.single(MockBackend(fixture_dir=fixtures), log_path=out / "calls.jsonl")
        run_benchmark(items, CASES[case], out, root, gateway=gateway)
        runs.append(sweep_digests(out))
    assert runs[0] == GOLDEN[case]
    assert runs[1] == GOLDEN[case]
