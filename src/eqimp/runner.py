"""Staged batch runner over all ordered pairs of a corpus.

Each pair walks the schedule's stages in order until one decides it: a model
finder stage refutes by exhibiting a countermodel, a saturation stage proves
(with a replayable proof) or refutes by saturating.  The deciding attempt is
written as one JSON-lines record per pair; a pair no stage decides is recorded
as unsolved.  Runs are resumable: decided records from a previous log are kept
and their pairs skipped, unsolved ones are retried.

Worker threads pull pairs from a shared queue and hand their records back; the
calling thread alone writes the log.  Engines are deterministic for step
budgets, so the record set (ignoring elapsed seconds) is independent of worker
count.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import time
from dataclasses import dataclass

from .budget import Budget
from .closure import PROVEN, REFUTED, StatusEntry, StatusMap, propagate
from .models import FOUND, find_countermodel, format_countermodel
from .saturation import PROVED, SATURATED, format_proof, saturate
from .terms import Corpus, enumerate_pairs
from .tptp import skolemize

UNSOLVED = "unsolved"

ENGINE_FMB = "fmb"
ENGINE_SATUR = "satur"

CLOSURE_STAGE = 0  # derived records sit outside the schedule's 1-based stages


@dataclass(frozen=True)
class MethodSpec:
    name: str
    engine: str  # ENGINE_FMB | ENGINE_SATUR
    budget: Budget
    max_size: int = 6  # model finder only

    def __post_init__(self):
        if self.engine not in (ENGINE_FMB, ENGINE_SATUR):
            raise ValueError(f"unknown engine {self.engine!r}")
        amount = self.budget.steps if self.budget.steps is not None else self.budget.seconds
        if amount is None or amount <= 0:
            raise ValueError(f"stage {self.name!r} needs a positive budget")
        if self.max_size < 2:
            raise ValueError("max_size must be at least 2")


@dataclass(frozen=True)
class Schedule:
    stages: tuple[MethodSpec, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule must have at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError("stage names must be unique")


def default_schedule() -> Schedule:
    """Five stages: cheap step-budgeted passes of both engines, then wall-clock
    passes with growing timeouts, alternating model finding and saturation."""
    return Schedule(
        (
            MethodSpec("fmb-500i", ENGINE_FMB, Budget.of_steps(50_000)),
            MethodSpec("satur-500i", ENGINE_SATUR, Budget.of_steps(1_000)),
            MethodSpec("fmb-60s", ENGINE_FMB, Budget.of_wall(60.0)),
            MethodSpec("satur-600s", ENGINE_SATUR, Budget.of_wall(600.0)),
            MethodSpec("fmb-600s", ENGINE_FMB, Budget.of_wall(600.0)),
        )
    )


def parse_schedule(text: str) -> Schedule:
    """One stage per line: <name> <fmb|satur> <steps|seconds> <amount> [max_size=<n>].
    Blank lines and # comments are skipped."""
    stages = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 4:
            raise ValueError(f"schedule line {lineno}: expected at least 4 fields")
        name, engine, kind, amount = parts[:4]
        try:
            if kind == "steps":
                budget = Budget.of_steps(int(amount))
            elif kind == "seconds":
                budget = Budget.of_wall(float(amount))
            else:
                raise ValueError("budget kind must be steps or seconds")
            max_size = 6
            for extra in parts[4:]:
                key, sep, value = extra.partition("=")
                if not sep or key != "max_size":
                    raise ValueError(f"unknown option {extra!r}")
                if engine != ENGINE_FMB:
                    raise ValueError("max_size only applies to fmb")
                max_size = int(value)
            stages.append(MethodSpec(name, engine, budget, max_size))
        except ValueError as err:
            raise ValueError(f"schedule line {lineno}: {err}") from None
    return Schedule(tuple(stages))


def load_schedule(path: str) -> Schedule:
    with open(path, encoding="utf-8") as handle:
        return parse_schedule(handle.read())


@dataclass(frozen=True)
class ResultRecord:
    lhs: int
    rhs: int
    status: str  # PROVEN | REFUTED | UNSOLVED
    method: str | None
    stage: int | None
    seconds: float
    witness: str | None

    def __post_init__(self):
        if self.status not in (PROVEN, REFUTED, UNSOLVED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != UNSOLVED and (self.method is None or self.stage is None):
            raise ValueError("decided records need method and stage")
        if self.seconds < 0:
            raise ValueError("seconds must be nonnegative")


@dataclass(frozen=True)
class RunConfig:
    out_path: str
    workers: int = 1
    resume: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


_RECORD_KEYS = ("lhs", "rhs", "status", "method", "stage", "seconds", "witness")


def _record_line(record: ResultRecord) -> str:
    payload = {key: getattr(record, key) for key in _RECORD_KEYS}
    return json.dumps(payload) + "\n"


def _write_log(path: str, records) -> None:
    """Replace the log with these records in one rename, so a run killed
    mid-write leaves the previous log intact."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(_record_line(record))
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def _record_from_dict(payload: dict, where: str) -> ResultRecord:
    if set(payload) != set(_RECORD_KEYS):
        raise ValueError(f"{where}: record keys must be exactly {_RECORD_KEYS}")
    try:
        return ResultRecord(**payload)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from None


def attempt_pair(corpus: Corpus, lhs: int, rhs: int, schedule: Schedule) -> ResultRecord:
    """Run stages in order until one decides the pair; crashes inside an
    engine become an unsolved record carrying the error note."""
    premise = corpus.by_id(lhs)
    conclusion = corpus.by_id(rhs)
    total = 0.0
    for index, stage in enumerate(schedule.stages, 1):
        started = time.monotonic()
        try:
            if stage.engine == ENGINE_FMB:
                outcome = find_countermodel(
                    premise, conclusion, max_size=stage.max_size, budget=stage.budget
                )
                decided = None
                if outcome.status == FOUND:
                    decided = (REFUTED, format_countermodel(outcome.countermodel))
            else:
                outcome = saturate(premise, skolemize(conclusion), stage.budget)
                decided = None
                if outcome.status == PROVED:
                    decided = (PROVEN, format_proof(outcome.proof))
                elif outcome.status == SATURATED:
                    # no countermodel in hand; the saturated set refutes
                    decided = (REFUTED, "saturation")
        except Exception as err:  # noqa: BLE001 - worker crash becomes a record
            elapsed = time.monotonic() - started
            return ResultRecord(
                lhs, rhs, UNSOLVED, stage.name, index, total + elapsed, f"error:{err}"
            )
        elapsed = time.monotonic() - started
        total += elapsed
        if decided is not None:
            status, witness = decided
            return ResultRecord(lhs, rhs, status, stage.name, index, elapsed, witness)
    return ResultRecord(lhs, rhs, UNSOLVED, None, None, total, None)


def run(corpus: Corpus, schedule: Schedule, config: RunConfig) -> list[ResultRecord]:
    """Decide every ordered pair of the corpus; returns all records in
    canonical (lhs, rhs) order and leaves the same set in the log file."""
    done: dict[tuple[int, int], ResultRecord] = {}
    if config.resume and os.path.exists(config.out_path):
        _, previous = load_results(config.out_path, drop_torn_tail=True)
        for record in previous:
            if record.status != UNSOLVED:
                done[(record.lhs, record.rhs)] = record
        # rewrite the log to decided records only, so retried pairs cannot
        # produce duplicate lines
        _write_log(config.out_path, (done[pair] for pair in sorted(done)))

    todo = [pair for pair in enumerate_pairs(corpus) if pair not in done]
    pending: queue.Queue[tuple[int, int] | None] = queue.Queue()
    for pair in todo:
        pending.put(pair)
    finished: queue.Queue[ResultRecord | None] = queue.Queue()

    def worker():
        while True:
            try:
                pair = pending.get_nowait()
            except queue.Empty:
                finished.put(None)
                return
            finished.put(attempt_pair(corpus, pair[0], pair[1], schedule))

    mode = "a" if config.resume and os.path.exists(config.out_path) else "w"
    records = dict(done)
    with open(config.out_path, mode, encoding="utf-8") as handle:
        workers = [
            threading.Thread(target=worker, daemon=True) for _ in range(config.workers)
        ]
        for thread in workers:
            thread.start()
        stopped = 0
        while stopped < len(workers):
            record = finished.get()
            if record is None:
                stopped += 1
                continue
            records[(record.lhs, record.rhs)] = record
            handle.write(_record_line(record))
            handle.flush()
        for thread in workers:
            thread.join()
    return [records[pair] for pair in sorted(records)]


def load_results(
    path: str, drop_torn_tail: bool = False
) -> tuple[StatusMap, list[ResultRecord]]:
    """Reconstruct records from a log; duplicate pairs and malformed lines are
    format errors naming the line.  The status map carries decided pairs only,
    keyed for closure.propagate.  With drop_torn_tail, an unparsable final
    line without its newline (a write cut short by a killed run) is skipped."""
    records = []
    seen: dict[tuple[int, int], int] = {}
    status_map: StatusMap = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as err:
                if drop_torn_tail and not raw.endswith("\n"):
                    break
                raise ValueError(f"{where}: bad record: {err}") from None
            if not isinstance(payload, dict):
                raise ValueError(f"{where}: record must be an object")
            record = _record_from_dict(payload, where)
            pair = (record.lhs, record.rhs)
            if pair in seen:
                raise ValueError(
                    f"{where}: duplicate record for pair {pair} (first at line {seen[pair]})"
                )
            seen[pair] = lineno
            records.append(record)
            if record.status != UNSOLVED:
                status_map[pair] = StatusEntry(record.status, record.method)
    return status_map, records


def propagate_log(path: str) -> int:
    """Close the log's statuses under the implication rules and add the derived
    records (method closure:R1|R2|R3, stage 0, no witness); returns how many
    new pairs were decided.  A pair that was unsolved directly but is decided
    by closure gets its unsolved record replaced."""
    status_map, records = load_results(path)
    closed = propagate(status_map)
    derived = {pair: entry for pair, entry in closed.items() if pair not in status_map}
    kept = [
        record
        for record in records
        if not (record.status == UNSOLVED and (record.lhs, record.rhs) in derived)
    ]

    def closure_records():
        for pair in sorted(derived):
            entry = derived[pair]
            yield ResultRecord(*pair, entry.status, entry.provenance, CLOSURE_STAGE, 0.0, None)

    _write_log(path, itertools.chain(kept, closure_records()))
    return len(derived)
