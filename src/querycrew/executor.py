"""Read-only SQL execution against SQLite with timeouts, result
canonicalization, fault classification, result-set comparison, and result
fingerprints used to cluster candidate queries.

Execution never mutates the database: connections are opened in read-only
mode (`connect_read_only`) and an authorizer rejects anything that is not a
read. Faults are reported as statuses, never raised past this module's
boundary.
"""

from __future__ import annotations

import hashlib
import math
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

OK = "ok"
SYNTAX_ERROR = "syntax_error"
RUNTIME_ERROR = "runtime_error"
TIMEOUT = "timeout"
EMPTY_RESULT = "empty_result"

DEFAULT_TIMEOUT_S = 30.0
DEFAULT_ROW_CAP = 10_000

_NUMERIC_QUANTUM = 1e-6
_NUMERIC_SCALE = round(1 / _NUMERIC_QUANTUM)

_SYNTAX_MARKERS = ("syntax error", "incomplete input", "unrecognized token")

_ALLOWED_ACTIONS = {
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    sqlite3.SQLITE_RECURSIVE,
}
# PRAGMA optimize may run ANALYZE, so its table-valued form is no plain read
_WRITING_PRAGMAS = {"optimize"}


@dataclass
class ExecutionResult:
    """One statement's outcome. A pipeline run shares one result among all
    its candidates with the same SQL text, so a result must not be mutated."""

    status: str
    rows: list[tuple] | None = None
    error_text: str | None = None
    elapsed: float = 0.0
    truncated: bool = False

    def is_ok(self) -> bool:
        return self.status == OK


@dataclass
class FaultReport:
    kind: str  # syntax_error | runtime_error | timeout | empty_result
    detail: str


@dataclass(frozen=True)
class ResultFingerprint:
    digest: str


def connect_read_only(db_file: str | Path) -> sqlite3.Connection:
    """A read-only connection to `db_file`, through a percent-encoded `file:`
    URI, so a `#`, `?` or `%` in the path cannot start the URI's query or
    fragment."""
    return sqlite3.connect(Path(db_file).resolve().as_uri() + "?mode=ro", uri=True)


def execute(
    db_file: str | Path,
    sql: str,
    timeout: float = DEFAULT_TIMEOUT_S,
    row_cap: int = DEFAULT_ROW_CAP,
) -> ExecutionResult:
    """Run one statement read-only and materialize up to row_cap rows.

    Write statements and DDL are rejected (runtime_error); statements that
    exceed the time budget are interrupted (timeout).
    """
    start = time.perf_counter()
    timed_out = False
    try:
        conn = connect_read_only(db_file)
    except sqlite3.Error as exc:
        return ExecutionResult(RUNTIME_ERROR, error_text=str(exc), elapsed=0.0)
    try:
        deadline = start + timeout
        in_select = False

        def authorize(action, arg1, *_args):
            # Inside a SELECT, building an eponymous virtual table (json_each,
            # pragma_table_info, ...) reports updates of sqlite_master's
            # columns, and a pragma table-valued function reports its pragma.
            # A PRAGMA statement reports no SELECT, so it stays denied.
            nonlocal in_select
            in_select = in_select or action == sqlite3.SQLITE_SELECT
            select_part = in_select and (
                (action == sqlite3.SQLITE_UPDATE and arg1 == "sqlite_master")
                or (action == sqlite3.SQLITE_PRAGMA and arg1 not in _WRITING_PRAGMAS)
            )
            if action in _ALLOWED_ACTIONS or select_part:
                return sqlite3.SQLITE_OK
            return sqlite3.SQLITE_DENY

        def on_progress():
            nonlocal timed_out
            if time.perf_counter() > deadline:
                timed_out = True
                return 1
            return 0

        conn.set_authorizer(authorize)
        conn.set_progress_handler(on_progress, 10_000)
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchmany(row_cap + 1)
        except (sqlite3.Error, sqlite3.Warning) as exc:  # 3.10 warns on a second statement
            elapsed = time.perf_counter() - start
            message = str(exc)
            if timed_out:
                return ExecutionResult(TIMEOUT, error_text="query timed out", elapsed=elapsed)
            lowered = message.lower()
            if any(marker in lowered for marker in _SYNTAX_MARKERS):
                return ExecutionResult(SYNTAX_ERROR, error_text=message, elapsed=elapsed)
            return ExecutionResult(RUNTIME_ERROR, error_text=message, elapsed=elapsed)
        truncated = len(rows) > row_cap
        if truncated:
            rows = rows[:row_cap]
        return ExecutionResult(
            OK,
            rows=[tuple(r) for r in rows],
            elapsed=time.perf_counter() - start,
            truncated=truncated,
        )
    finally:
        conn.close()


def canonicalize(rows: Iterable[Sequence]) -> list[tuple]:
    """Normalize cells and sort rows so equal result sets compare equal.

    A number maps to the multiple of 1e-6 it rounds to, round(x / 1e-6),
    so two numbers match when they round to the same multiple: 1 and 1.0
    unify, while numbers under 1e-6 apart with a rounding boundary between
    them (2.5e-7 and 7.5e-7) stay distinct. Text stays exact, NULL is its
    own sentinel. Rows come back sorted lexicographically on the canonical
    cells.
    """
    canon = [tuple(_canonical_cell(cell) for cell in row) for row in rows]
    canon.sort()
    return canon


def _canonical_cell(cell) -> tuple:
    if cell is None:
        return (0, "")
    if isinstance(cell, int):
        return (1, cell * _NUMERIC_SCALE)
    if isinstance(cell, float):
        if cell.is_integer():  # exact, like an int; cell / quantum rounds or overflows
            return (1, int(cell) * _NUMERIC_SCALE)
        if math.isfinite(cell):
            return (1, round(cell / _NUMERIC_QUANTUM))
        return (4, repr(cell))
    if isinstance(cell, bytes):
        return (3, cell.hex())
    return (2, str(cell))


def results_match(a: ExecutionResult, b: ExecutionResult, mode: str = "set") -> bool:
    """Compare two ok results by their `fingerprint` in `mode`; any fault or
    row-cap overflow compares False."""
    _check_mode(mode)
    if not (a.is_ok() and b.is_ok()):
        return False
    if a.truncated or b.truncated:
        return False
    return fingerprint(a, mode) == fingerprint(b, mode)


def _check_mode(mode: str) -> None:
    if mode not in ("set", "multiset"):
        raise ValueError(f"unknown comparison mode {mode!r}")


def fingerprint(result: ExecutionResult, mode: str = "set") -> ResultFingerprint:
    """Digest of the canonical rows (ok) or the fault kind (non-ok), the one
    rule for "same result" that clustering and EX share: `set` hashes the
    distinct rows, `multiset` every row. An ok digest records truncation, so
    neither a fault nor a truncated result matches a complete one.
    """
    _check_mode(mode)
    h = hashlib.sha256()
    if result.is_ok():
        h.update(b"ok/")
        h.update(b"truncated/" if result.truncated else b"complete/")
        rows = canonicalize(result.rows or [])
        for row in sorted(set(rows)) if mode == "set" else rows:
            h.update(repr(row).encode("utf-8"))
            h.update(b"\x1e")
    else:
        h.update(b"fault/")
        h.update(result.status.encode("utf-8"))
    return ResultFingerprint(h.hexdigest())


def classify_fault(result: ExecutionResult) -> FaultReport | None:
    """Map an execution result to the fault the revise step should fix."""
    if result.status == OK:
        if not result.rows:
            return FaultReport(EMPTY_RESULT, "query returned 0 rows")
        return None
    if result.status == TIMEOUT:
        return FaultReport(TIMEOUT, result.error_text or "query timed out")
    return FaultReport(result.status, result.error_text or result.status)


def preview_rows(result: ExecutionResult, limit: int = 5) -> str:
    """Human-readable preview of a result for prompts and traces."""
    if not result.is_ok():
        return f"{result.status}: {result.error_text or ''}".strip()
    rows = result.rows or []
    shown = ", ".join(repr(r) for r in rows[:limit])
    suffix = ", ..." if len(rows) > limit else ""
    return f"{len(rows)} rows: [{shown}{suffix}]"
