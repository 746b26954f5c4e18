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
