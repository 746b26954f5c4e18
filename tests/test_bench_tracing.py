"""The benchmark's tracer still finds every boundary it wraps, and puts each back.

`bench/tracing.py` names querycrew functions and methods by string. Renaming
or dropping one of them breaks only the traced benchmark run, so this test
installs and uninstalls the tracer against the current package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "querycrew" or name.startswith("querycrew.")
    }


def test_install_then_uninstall_restores_every_boundary(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    wrapped = [(name, module, attr, cls) for name, module, attr, cls, _ in tracing.BOUNDARIES]
    wrapped += [(name, module, attr, None) for name, module, attr in tracing.COUNTED]
    for _, module, _, _ in wrapped:
        importlib.import_module(f"querycrew.{module}")

    def current(module, attr, cls):
        owner = sys.modules[f"querycrew.{module}"]
        return getattr(owner, cls).__dict__[attr] if cls else getattr(owner, attr)

    before = _namespaces()
    originals = {name: current(module, attr, cls) for name, module, attr, cls in wrapped}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.originals == originals
        for name, module, attr, cls in wrapped:
            assert current(module, attr, cls) is not originals[name], name
    finally:
        tracer.uninstall()

    after = _namespaces()
    assert after.keys() == before.keys()
    for module, names in before.items():
        for key, value in names.items():
            assert after[module][key] is value, f"{module}.{key}"
    for name, module, attr, cls in wrapped:
        assert current(module, attr, cls) is originals[name], name


def test_pooled_backend_spans_keep_their_parent(monkeypatch, tmp_path):
    """Backend calls made on the gateway's pool are charged to the span that
    sent them, so a traced run has no orphan spans."""
    from e2e_fixtures import build_bench_root, suite_responses

    from querycrew import pipeline
    from querycrew.catalog import introspect_database
    from querycrew.gateway import Gateway, MockBackend

    root = build_bench_root(tmp_path / "root")
    dbs = {db: root / db / f"{db}.sqlite" for db in ("motorsport", "finance")}
    responses = suite_responses({db: introspect_database(path) for db, path in dbs.items()})
    artifacts = pipeline.ensure_artifacts(
        dbs["motorsport"], pipeline.PipelineConfig(), cache_dir=tmp_path
    )
    config = pipeline.PipelineConfig(team="IR_CG_UT", n_candidates=3, n_unit_tests=2)

    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("test"):
            pipeline.run(
                "What's the fastest lap time ever in a race for Lewis Hamilton?", "",
                artifacts, config, Gateway.single(MockBackend(responses=responses)),
                qid="f1_0001",
            )
    finally:
        tracer.uninstall()

    assert tracer.orphans == []
    backend = [s for s in tracer.spans if s.name == "gateway.backend"]
    # 1 keywords + 3 samples + 1 test generation + 2 verdicts
    assert len(backend) == 7
    parents = [s.parent.name for s in backend]
    assert parents.count("agents.generate_candidate") == 3
    assert parents.count("agents.evaluate_against_test") == 2


def test_chunked_filter_spans_keep_their_parent(monkeypatch, tmp_path, motorsport_db):
    """The column filter's backend calls run in chunks on the pool; each is
    charged to the `agents.filter_column` span of its window."""
    from mock_runs import FUNNEL_GOLD_SQL, FUNNEL_HINT, FUNNEL_QUESTION, funnel_responses

    from querycrew import pipeline
    from querycrew.gateway import Gateway, MockBackend

    config = pipeline.PipelineConfig(team="IR_SS_CG", n_candidates=1)
    artifacts = pipeline.ensure_artifacts(motorsport_db, config, cache_dir=tmp_path)
    gw = Gateway.single(MockBackend(responses=funnel_responses(artifacts.catalog, "f1_0001")))

    tracing = _load_tracing(monkeypatch)
    names = {name for name, *_ in tracing.BOUNDARIES}
    assert {
        "agents.filter_column", "gateway.structured", "gateway.complete_rendered",
        "pipeline.revise_loop", "harness.validate_gold",
    } <= names
    tracer = tracing.Tracer()
    tracer.install()  # raises if a boundary no longer resolves
    try:
        with tracer.root("test"):
            sql, _ = pipeline.run(
                FUNNEL_QUESTION, FUNNEL_HINT, artifacts, config, gw, qid="f1_0001"
            )
    finally:
        tracer.uninstall()

    assert sql == FUNNEL_GOLD_SQL
    assert tracer.orphans == []
    filters = [s for s in tracer.spans if s.name == "agents.filter_column"]
    assert len(filters) == 1  # the 64 non-linking columns fill one window
    backend = [s for s in tracer.spans if s.name == "gateway.backend"]
    under_filter = [s for s in backend if s.parent is filters[0]]
    assert len(under_filter) == 64
    # keywords, table selection, column selection and the one sample
    assert len(backend) == 64 + 4
