"""Scripted model backend with a fixed per-call delay.

Implements the `gateway.Backend` protocol by dictionary lookup: the exact
scenario key first, then a per-question default for the template, then a
per-template default. Responses are keyed by scenario key, never by prompt
content, so a retrieval or rendering change cannot move what the model
"answers"; it can only move what the prompts contain, which the backend
inspects for the planted stored values (entity recall).

Every call costs the workload's fixed delay, standing in for a model round
trip. A sleep of a tenth of a millisecond overshoots by more than its own
length and by an amount that varies with host load, so each thread keeps a
running debt of delay owed and sleeps it off once it reaches a millisecond,
carrying any oversleep into the next call. Calls of at least a millisecond
therefore sleep once each; the wall time of a run of calls is their summed
delay, not their summed timer slack; and calls made in parallel threads still
wait in parallel. The backend reads no files: the script is handed to it in
memory.
"""

from __future__ import annotations

import threading
import time

from querycrew.gateway import Completion, GatewayError, SamplingParams
from querycrew.textutils import estimate_tokens

from workloads import pool_id

MIN_SLEEP_S = 0.001


class ScriptedBackend:
    backend_id = "scripted"

    def __init__(self, script: dict, planted: dict[str, list[str]], delay_s: float):
        self.responses = script["responses"]
        self.question_defaults = script["question_defaults"]
        self.template_defaults = script["template_defaults"]
        self.planted = planted
        self.delay_s = delay_s
        self.retries = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()
        self._owed = threading.local()
        self._unseen: dict[str, set[str]] = {}

    def begin_question(self, qid: str) -> None:
        with self._lock:
            self._unseen[qid] = set(self.planted[pool_id(qid)])

    def end_question(self, qid: str) -> int:
        """Number of planted stored values that no prompt of `qid` contained."""
        with self._lock:
            return len(self._unseen.pop(qid))

    def complete(
        self, prompt: str, params: SamplingParams, template_id: str, scenario_key: str
    ) -> list[Completion]:
        with self._lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            if scenario_key.endswith("#retry1"):
                self.retries += 1
            qid, _, rest = scenario_key.partition("+")
            unseen = self._unseen.get(qid)
            if unseen:
                unseen.difference_update([v for v in unseen if v in prompt])
        try:
            text = self._lookup(pool_id(qid), rest, template_id)
            self._wait()
            return [
                Completion(text, estimate_tokens(prompt), estimate_tokens(text), self.backend_id)
                for _ in range(params.n_samples)
            ]
        finally:
            with self._lock:
                self.in_flight -= 1

    def _wait(self) -> None:
        owed = getattr(self._owed, "s", 0.0) + self.delay_s
        if owed >= MIN_SLEEP_S:
            start = time.perf_counter()
            time.sleep(owed)
            owed -= time.perf_counter() - start
        self._owed.s = owed

    def _lookup(self, pid: str, rest: str, template_id: str) -> str:
        for table, key in (
            (self.responses, f"{pid}+{rest}|{template_id}"),
            (self.question_defaults, f"{pid}|{template_id}"),
            (self.template_defaults, template_id),
        ):
            if key in table:
                return table[key]
        raise GatewayError(f"no scripted response for {pid}+{rest} / {template_id}")
