"""Spans recorded from outside the program, at its layer boundaries.

`Tracer.install` replaces each public boundary function of `querycrew` with
a recording wrapper in every `querycrew` module namespace that binds the
same object (modules import some functions by name, e.g. `pipeline` binds
`retrieve_entities` and `agents` binds `render_schema_prompt`), and wraps
boundary methods on their class. `uninstall` puts the originals back.

Each span records its name, start, end, parent span and the question id.
The parent comes from a context variable, so a span opened where no parent
is visible (for instance in a worker thread that does not copy the context)
is counted as an orphan instead of being charged to an unrelated span. Self
time is a span's duration minus the time its children cover. Spans stay in
memory until `write` saves them. Very hot helpers are counted, not timed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


class Span:
    __slots__ = ("sid", "name", "parent", "qid", "start", "end", "child_s")

    def __init__(self, sid: int, name: str, parent: "Span | None", qid: str | None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.qid = qid
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _size(tracer, name, args, kwargs, result):
    tracer.values[name].append(len(result))


def _entities(tracer, name, args, kwargs, result):
    keywords = args[1] if len(args) > 1 else kwargs["keywords"]
    tracer.counts["value_index.keywords"] += len(keywords)
    tracer.counts["value_index.entities"] += len(result)


def _status(tracer, name, args, kwargs, result):
    status = "empty" if result.status == "ok" and not result.rows else result.status
    tracer.counts[f"executor.status.{status}"] += 1


def _revision(tracer, name, args, kwargs, result):
    from querycrew import pipeline

    classify = tracer.originals["executor.classify_fault"]
    before = classify(args[0].exec_result)
    tracer.counts["pipeline.revisions"] += result.revision_count - args[0].revision_count
    if before is not None and before.kind in pipeline.REVISABLE_FAULTS:
        tracer.counts["pipeline.revise_entered"] += 1
        if classify(result.exec_result) is None:
            tracer.counts["pipeline.revise_cleared"] += 1


AGENT_TOOLS = (
    "extract_keywords", "filter_column", "select_tables", "select_columns",
    "generate_candidate", "revise", "generate_unit_tests", "evaluate_against_test",
    "build_column_profile",
)
STATUSES = ("ok", "empty", "syntax_error", "runtime_error", "timeout")
# the querycrew modules that log a WARNING when they degrade
DEGRADED_MODULES = ("agents", "catalog", "harness", "pipeline", "value_index")

# (span name, module, attribute, class or None, measure or None); a span name
# is "<layer>.<function>" with the layer named after the querycrew module.
BOUNDARIES = [
    ("catalog.introspect_database", "catalog", "introspect_database", None, None),
    ("catalog.ingest_catalog_descriptions", "catalog", "ingest_catalog_descriptions", None, None),
    ("catalog.project", "catalog", "project", None, None),
    ("catalog.full_projection", "catalog", "full_projection", None, None),
    ("catalog.render_schema_prompt", "catalog", "render_schema_prompt", None, _size),
    ("catalog.linking_columns", "catalog", "linking_columns", "SchemaCatalog", None),
    ("value_index.build", "value_index", "build_value_index", None, _size),
    ("value_index.retrieve_entities", "value_index", "retrieve_entities", None, _entities),
    ("value_index.lsh_query", "value_index", "lsh_query", None, _size),
    ("context_store.build", "context_store", "build_context_store", None, _size),
    ("context_store.retrieve_context", "context_store", "retrieve_context", None, None),
    ("context_store.embed", "context_store", "embed", "HashingEmbedder", None),
    ("caching.save", "caching", "save_envelope", None, None),
    ("caching.load", "caching", "load_envelope", None, None),
    ("caching.file_sha256", "caching", "file_sha256", None, None),
    ("templates.render_template", "templates", "render_template", None, _size),
    ("gateway.complete_prompt", "gateway", "complete_prompt", "Gateway", None),
    ("gateway.complete_rendered", "gateway", "complete_rendered", "Gateway", None),
    ("gateway.structured", "gateway", "structured", "Gateway", None),
    ("gateway.backend", "gateway", "complete", None, None),
    ("gateway.parse_structured", "gateway", "parse_structured", None, None),
    *[(f"agents.{tool}", "agents", tool, None, None) for tool in AGENT_TOOLS],
    ("executor.execute", "executor", "execute", None, _status),
    ("executor.fingerprint", "executor", "fingerprint", None, None),
    ("executor.results_match", "executor", "results_match", None, None),
    ("executor.canonicalize", "executor", "canonicalize", None, None),
    ("executor.classify_fault", "executor", "classify_fault", None, None),
    ("pipeline.run", "pipeline", "run", None, None),
    ("pipeline.ensure_artifacts", "pipeline", "ensure_artifacts", None, None),
    ("pipeline.revise_loop", "pipeline", "revise_loop", None, _revision),
    ("pipeline.cluster_by_result", "pipeline", "cluster_by_result", None, _size),
    ("pipeline.score_and_select", "pipeline", "score_and_select", None, None),
    ("harness.run_benchmark", "harness", "run_benchmark", None, None),
    ("harness.validate_gold", "harness", "validate_gold", None, None),
    ("harness.execution_accuracy", "harness", "execution_accuracy", None, None),
    ("harness.extract_gold_schema_items", "harness", "extract_gold_schema_items", None, None),
    ("harness.schema_selection_pr", "harness", "schema_selection_pr", None, None),
    ("sql_items.extract_sql_items", "sql_items", "extract_sql_items", None, None),
]

# Called thousands of times per question: counted only, so that timing them
# does not swamp the spans around them.
COUNTED = [("value_index.edit_distance", "value_index", "edit_distance")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.orphans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, list[int]] = defaultdict(list)
        self.originals: dict[str, object] = {}
        self.qid: str | None = None
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = _CURRENT.get()
        self._next += 1
        span = Span(self._next, name, parent, self.qid)
        if parent is None:
            self.orphans.append(span)
        token = _CURRENT.set(span)
        span.start = time.perf_counter()
        return span, token

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str):
        """The benchmark's own top span, under which the program's spans nest."""
        self._next += 1
        span = Span(self._next, name, None, None)
        token = _CURRENT.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span, token)

    def _span_wrapper(self, name: str, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, token)
            if measure is not None:
                measure(tracer, name, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "querycrew" or n.startswith("querycrew.")
        ]
        for name, module, attr, cls, measure in BOUNDARIES:
            owner = importlib.import_module(f"querycrew.{module}")
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self.originals[name] = original
                self._undo.append((klass, attr, original))
                setattr(klass, attr, self._span_wrapper(name, original, measure))
                continue
            original = getattr(owner, attr)
            self.originals[name] = original
            self._rebind(modules, original, self._span_wrapper(name, original, measure))
        for name, module, attr in COUNTED:
            original = getattr(importlib.import_module(f"querycrew.{module}"), attr)
            self.originals[name] = original
            self._rebind(modules, original, self._count_wrapper(name, original))

    def _rebind(self, modules, original, wrapper) -> None:
        """Replace `original` wherever a querycrew namespace binds it."""
        bound = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original!r} is bound in no querycrew namespace")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [s.sid, s.name, s.parent.sid if s.parent else None, s.qid,
                         round(s.start, 7), round(s.end, 7)]
                    )
                    + "\n"
                )
