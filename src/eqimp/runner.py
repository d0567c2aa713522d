"""Staged batch runner over all ordered pairs of a corpus.

Each pair walks the schedule's stages in order until one decides it: a model
finder stage refutes by exhibiting a countermodel, a saturation stage proves
(with a replayable proof) or refutes by saturating.  The pairs that share a
premise walk the stages together: a model finder stage searches the premise's
models once for all of its conclusions still open, a saturation stage runs one
given-clause loop for them all.  The deciding attempt is written as one
JSON-lines record per pair; a pair no stage decides is recorded as unsolved.
Runs are resumable: decided records from a previous log are kept and their
pairs skipped, unsolved ones are retried.

The walk is one list of engine attempts, each a stage with a budget and the
statuses it may record.  The model finder cannot refute a true implication,
so when the first stage is a step-budgeted model finder stage and the first
saturation stage is step-budgeted too, the list opens with a decide-early
phase of ROUNDS with growing step budgets: by default a 50-step slice and a
5-iteration probe, then a 500-step slice and a 20-iteration probe.  A slice
is a cut of the first stage's search that records only refutations, a probe
a cut of that saturation stage's run on the pairs still open that records
only proofs.  Both engines are deterministic under step budgets, so every
record the phase writes is the one the stages themselves write, whatever the
rounds; a pair a probe proves skips the model finder stages before the
probed stage.

Every run attempts the premise groups in the calling process first, in pair
order.  With more than one worker that phase ends POOL_AFTER seconds into the
run, about what starting the workers costs: every engine attempt is cut at
that deadline, a group the cut leaves with an open pair is dropped unwritten,
and it and each later premise with its open pairs become tasks for a pool of
worker processes.  The records come back in pair order and the calling
process alone writes the log.  A run that finishes sooner never starts a
worker; one that does starts them once an engine next checks its budget
after the deadline, and a worker repeats the cut group's attempts.  An
attempt that ends before the cut decides what it would decide uncut, and
engines are deterministic for step budgets, so the log (ignoring elapsed
seconds) is independent of worker count and of which process attempted a
group.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass

from .budget import Budget
from .closure import DERIVED_PREFIX, PROVEN, REFUTED, ROW_BITS
from .closure import propagate  # noqa: F401 - the benchmark's traced pass wraps it here
from .log import UNSOLVED, ResultRecord, _ends_with_newline, _record_line, _write_log, load_results
from .models import FOUND, find_countermodels, format_countermodel
from .models import find_countermodel  # noqa: F401 - the benchmark's traced pass wraps it here
from .saturation import PROVED, SATURATED, format_proof, saturate, saturate_many
from .terms import Corpus, enumerate_pairs
from .tptp import skolemize

WORKER_DIED = "error:worker process died"

ENGINE_FMB = "fmb"
ENGINE_SATUR = "satur"

# the decide-early rounds (see _attempts): per round, the model finder steps
# of its slice and the saturation iterations of its probe
ROUNDS = ((50, 5), (500, 20))
# seconds into a run with more than one worker at which its in-process
# attempts are cut and the groups left go to worker processes: about what
# spawning two interpreters costs
POOL_AFTER = 0.5


@dataclass(frozen=True)
class MethodSpec:
    name: str
    engine: str  # ENGINE_FMB | ENGINE_SATUR
    budget: Budget
    max_size: int = 6  # model finder only

    def __post_init__(self):
        if self.engine not in (ENGINE_FMB, ENGINE_SATUR):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.name.startswith(DERIVED_PREFIX):
            # verify takes such records for closure's and re-derives them
            raise ValueError(f"stage name {self.name!r} is kept for derived records")
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
    Numbers are ASCII digits, with at most one '.' in seconds, and an option
    is given at most once.  Blank lines and # comments are skipped."""
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
                budget = Budget.of_steps(_digits(amount, "steps"))
            elif kind == "seconds":
                digits = amount.replace(".", "", 1)
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(f"seconds {amount!r} is not a finite decimal of ASCII digits")
                budget = Budget.of_wall(float(amount))
            else:
                raise ValueError("budget kind must be steps or seconds")
            max_size = None
            for extra in parts[4:]:
                key, sep, value = extra.partition("=")
                if not sep or key != "max_size":
                    raise ValueError(f"unknown option {extra!r}")
                if engine != ENGINE_FMB:
                    raise ValueError("max_size only applies to fmb")
                if max_size is not None:
                    raise ValueError("max_size is given twice")
                max_size = _digits(value, "max_size")
            stages.append(MethodSpec(name, engine, budget, 6 if max_size is None else max_size))
        except ValueError as err:
            raise ValueError(f"schedule line {lineno}: {err}") from None
    return Schedule(tuple(stages))


def _digits(text: str, what: str) -> int:
    """The whole number text spells in ASCII digits alone."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} {text!r} is not a whole number of ASCII digits")
    return int(text)


def load_schedule(path: str) -> Schedule:
    with open(path, encoding="utf-8") as handle:
        return parse_schedule(handle.read())


@dataclass(frozen=True)
class RunConfig:
    out_path: str
    workers: int = 1
    resume: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def attempt_pair(corpus: Corpus, lhs: int, rhs: int, schedule: Schedule) -> ResultRecord:
    """Run stages in order until one decides the pair (see attempt_premise)."""
    return attempt_premise(corpus, lhs, (rhs,), schedule)[0]


def attempt_premise(
    corpus: Corpus, lhs: int, rhss, schedule: Schedule, deadline: float | None = None
) -> list[ResultRecord] | None:
    """Run the premise's engine attempts (see _attempts) in order on the pairs
    (lhs, rhs) for each rhs until one decides it; returns their records in
    rhss order.  A model finder attempt searches the premise's models once for
    all conclusions still open, a saturation attempt runs one given-clause
    loop for them all.  An outcome the attempt may not record leaves it open.
    Crashes inside an engine become unsolved records carrying the error note.

    With a deadline (a time.monotonic() value) every attempt also stops at it;
    once an attempt that ended past it leaves a pair open, the records are
    abandoned and None is returned, since the uncut attempt might decide it."""
    premise = corpus.by_id(lhs)
    records: dict[int, ResultRecord] = {}
    spent = dict.fromkeys(rhss, 0.0)  # seconds of the attempts that left a pair open
    for index, budget, statuses in _attempts(schedule):
        open_rhss = [rhs for rhs in rhss if rhs not in records]
        if not open_rhss:
            break
        stage = schedule.stages[index - 1]
        conclusions = [corpus.by_id(rhs) for rhs in open_rhss]
        results = _run_stage(stage, premise, conclusions, _cut(budget, deadline))
        cut = deadline is not None and time.monotonic() >= deadline
        for rhs, (decided, seconds) in zip(open_rhss, results):
            if decided is None and cut:
                return None
            if decided is None or decided[0] not in statuses:
                spent[rhs] += seconds
                continue
            status, witness = decided
            if status == UNSOLVED:  # the engine crashed
                seconds += spent[rhs]
            records[rhs] = ResultRecord(lhs, rhs, status, stage.name, index, seconds, witness)
    return [
        records.get(rhs) or ResultRecord(lhs, rhs, UNSOLVED, None, None, spent[rhs], None)
        for rhs in rhss
    ]


def _cut(budget: Budget, deadline: float | None) -> Budget:
    """The budget, with its wall allowance ending by the deadline if any."""
    if deadline is None:
        return budget
    left = max(0.0, deadline - time.monotonic())
    if budget.seconds is not None:
        left = min(left, budget.seconds)
    return Budget(steps=budget.steps, seconds=left)


def _attempts(schedule: Schedule) -> list[tuple[int, Budget, tuple[str, ...]]]:
    """The engine attempts on a premise's pairs, in order: (1-based stage
    index, budget, statuses the attempt may record).  Each stage is one
    attempt with its own budget that may record any status.

    When the first stage is a step-budgeted model finder stage and the first
    saturation stage S is step-budgeted too, the decide-early phase comes
    first: for each (slice steps, probe iterations) of ROUNDS in turn, a slice
    and a probe.  A slice is the first stage's shared search cut at its steps.
    Its walk is a prefix of the stage's own, so a countermodel it finds is the
    one the stage finds; it records refutations only.  A probe is S's run cut
    at its iterations, a prefix of S's run as a slice is of the first stage's.
    A proof found within them is the proof S's whole budget returns, and no
    model finder stage can refute a true implication, so it records proofs
    only, as S's, and the pair skips every model finder stage before S.  Any
    rounds therefore write the same records; the first settles the pairs that
    fall early, the later ones bound what a cut-off set too short costs.  Each
    budget is capped at its stage's steps, and an attempt no larger than its
    engine's in the round before is left out.  A slice capped at the first
    stage's whole budget is that stage's own search, so the stage's attempt
    takes its place, recording what the stage records, and is not run again
    after the rounds.  All are step budgets, so the phase does the same work
    however loaded the host is.
    """
    walk = [
        (index, stage.budget, (PROVEN, REFUTED, UNSOLVED))
        for index, stage in enumerate(schedule.stages, 1)
    ]
    first = schedule.stages[0]
    if first.engine != ENGINE_FMB or first.budget.seconds is not None:
        return walk
    for index, stage in enumerate(schedule.stages, 1):
        if stage.engine == ENGINE_SATUR:
            if stage.budget.seconds is not None:
                return walk
            early = []
            sliced = probed = -1  # the largest slice and probe so far
            for slice_steps, probe_steps in ROUNDS:
                slice_steps = min(slice_steps, first.budget.steps)
                probe_steps = min(probe_steps, stage.budget.steps)
                if slice_steps == first.budget.steps > sliced:
                    early.append(walk.pop(0))  # the stage's own attempt
                elif slice_steps > sliced:
                    early.append((1, Budget.of_steps(slice_steps), (REFUTED,)))
                sliced = max(sliced, slice_steps)
                if probe_steps > probed:
                    early.append((index, Budget.of_steps(probe_steps), (PROVEN,)))
                    probed = probe_steps
            return early + walk
    return walk


def _run_stage(stage: MethodSpec, premise, conclusions, budget: Budget) -> list:
    """(decision or None, seconds) per conclusion from one engine run for them
    all: a model finder search or a given-clause loop.  A decided conclusion's
    seconds run from the run's start until it was decided; every other
    conclusion gets the whole run's.  A crash decides unsolved."""
    started = time.monotonic()
    try:
        if stage.engine == ENGINE_FMB:
            outcomes = find_countermodels(premise, conclusions, stage.max_size, budget)
        else:
            goals = [skolemize(conclusion) for conclusion in conclusions]
            if len(goals) == 1:  # the benchmark's traced pass wraps and replays saturate calls
                outcomes = [saturate(premise, goals[0], budget)]
            else:
                outcomes = saturate_many(premise, goals, budget)
    except Exception as err:  # noqa: BLE001 - a crash becomes a record
        outcomes = [err] * len(conclusions)
    elapsed = time.monotonic() - started
    results = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            results.append(((UNSOLVED, f"error:{outcome}"), elapsed))
        elif outcome.status == FOUND:
            results.append(((REFUTED, format_countermodel(outcome.countermodel)), outcome.seconds))
        elif outcome.status == PROVED:
            results.append(((PROVEN, format_proof(outcome.proof)), outcome.seconds))
        elif outcome.status == SATURATED:  # no countermodel in hand; the saturated set refutes
            results.append(((REFUTED, "saturation"), outcome.seconds))
        else:
            results.append((None, elapsed))
    return results


def run(corpus: Corpus, schedule: Schedule, config: RunConfig) -> list[ResultRecord]:
    """Decide every ordered pair of the corpus; returns all records in
    canonical (lhs, rhs) order and leaves the same set in the log file.
    Premise groups are attempted in this process; with workers > 1 the groups
    not finished POOL_AFTER seconds in go to spawned worker processes, so a
    script that calls this needs the usual ``if __name__ == "__main__":``
    guard.  A corpus with more laws than a log's reader admits is refused
    before the log is opened."""
    if corpus.count >= ROW_BITS:
        raise ValueError(f"law ids run to {ROW_BITS - 1}, but the corpus has {corpus.count} laws")
    done: dict[tuple[int, int], ResultRecord] = {}
    if config.resume and os.path.exists(config.out_path):
        _, previous = load_results(config.out_path, drop_torn_tail=True, laws=corpus.count)
        for record in previous:
            if record.status != UNSOLVED:
                done[(record.lhs, record.rhs)] = record
        # drop unsolved records and a torn final line, so retried pairs cannot
        # produce duplicate lines; a log with neither is left as it is
        if len(done) < len(previous) or not _ends_with_newline(config.out_path):
            _write_log(config.out_path, (_record_line(done[pair]) for pair in sorted(done)))

    todo = [pair for pair in enumerate_pairs(corpus) if pair not in done]
    # one task per premise: its pairs, in pair order
    tasks = [
        (lhs, tuple(rhs for _, rhs in pairs))
        for lhs, pairs in itertools.groupby(todo, key=lambda pair: pair[0])
    ]
    mode = "a" if config.resume and os.path.exists(config.out_path) else "w"
    records = dict(done)
    with open(config.out_path, mode, encoding="utf-8") as handle:

        def write(record: ResultRecord) -> None:
            records[(record.lhs, record.rhs)] = record
            handle.write(_record_line(record))
            handle.flush()

        deadline = time.monotonic() + POOL_AFTER if config.workers > 1 else None
        for attempted, (lhs, rhss) in enumerate(tasks):
            group = None
            if deadline is None or time.monotonic() < deadline:
                group = attempt_premise(corpus, lhs, rhss, schedule, deadline)
            if group is None:
                _run_pool(corpus, schedule, config.workers, tasks[attempted:], write)
                break
            for record in group:
                write(record)
    return [records[pair] for pair in sorted(records)]


def _run_pool(corpus, schedule, workers, tasks, write) -> None:
    """Attempt the premise tasks in worker processes and write their records
    in task order.  A worker that dies breaks the pool: every pair still
    without a record is written as unsolved, so a resumed run retries it."""
    # imported here so that runs that never start workers and the CLI's other
    # commands never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # spawned workers start from a fresh import: nothing of the caller's
    # threads or locks is copied into them, on every platform alike
    pool = ProcessPoolExecutor(
        workers,
        mp_context=get_context("spawn"),
        initializer=_init_worker,
        initargs=(corpus, schedule),
    )
    written = 0
    try:
        for group in pool.map(_attempt, tasks):
            for record in group:
                write(record)
            written += 1
    except BrokenProcessPool:
        for lhs, rhss in tasks[written:]:
            for rhs in rhss:
                write(ResultRecord(lhs, rhs, UNSOLVED, None, None, 0.0, WORKER_DIED))
    finally:
        pool.shutdown(cancel_futures=True)


# the corpus and schedule a worker process attempts pairs of, set once by
# _init_worker when the process starts
_job: tuple[Corpus, Schedule] | None = None


def _init_worker(corpus: Corpus, schedule: Schedule) -> None:
    import threading

    global _job
    _job = (corpus, schedule)
    # the pool's call queue never closes when the parent is killed outright,
    # so a worker would otherwise wait on it forever
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    wait([parent_process().sentinel])
    os._exit(1)


def _attempt(task: tuple[int, tuple[int, ...]]) -> list[ResultRecord]:
    corpus, schedule = _job
    return attempt_premise(corpus, task[0], task[1], schedule)
