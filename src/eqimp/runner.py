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
phase: a slice of the first stage's search that records only refutations,
then a saturation probe on the pairs still open that records only proofs.
Both engines are deterministic under step budgets, so every record the phase
writes is the one the stages themselves write; a pair the probe proves skips
the model finder stages before the probed stage.

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
import json
import math
import os
import re
import time
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii

from .budget import Budget
from .closure import DERIVED_PREFIX, PROVEN, REFUTED, ROW_BITS, StatusMap, propagate
from .models import FOUND, find_countermodels, format_countermodel
from .models import find_countermodel  # noqa: F401 - the benchmark's traced pass wraps it here
from .saturation import PROVED, SATURATED, format_proof, saturate, saturate_many
from .terms import Corpus, enumerate_pairs
from .tptp import skolemize

UNSOLVED = "unsolved"
WORKER_DIED = "error:worker process died"

ENGINE_FMB = "fmb"
ENGINE_SATUR = "satur"

CLOSURE_STAGE = 0  # derived records sit outside the schedule's 1-based stages

# the decide-early phase (see _attempts): model finder steps of the slice,
# and saturation iterations of each probe
SLICE = 500
K = 20
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


# Treated as immutable: nothing assigns to a record's fields once built.  It is
# not frozen because a frozen __init__ sets each field through
# object.__setattr__, about half the cost of building a record, and a log holds
# one per ordered pair; it stays a dataclass for dataclasses.replace.
@dataclass(slots=True)
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
        # closure keys its bitsets by id, and JSON admits floats, booleans and
        # NaN where an int or a finite number belongs
        if type(self.lhs) is not int or type(self.rhs) is not int:
            raise ValueError("lhs and rhs must be ints")
        if self.lhs < 1 or self.rhs < 1 or self.lhs == self.rhs:
            raise ValueError("lhs and rhs must be distinct positive ids")
        if self.stage is not None and (type(self.stage) is not int or self.stage < 0):
            raise ValueError("stage must be a nonnegative int")
        if type(self.seconds) not in (int, float) or not 0 <= self.seconds < math.inf:
            raise ValueError("seconds must be finite and nonnegative")
        if self.method is not None and type(self.method) is not str:
            raise ValueError("method must be a string")
        if self.witness is not None and type(self.witness) is not str:
            raise ValueError("witness must be a string")


@dataclass(frozen=True)
class RunConfig:
    out_path: str
    workers: int = 1
    resume: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


_RECORD_KEYS = ("lhs", "rhs", "status", "method", "stage", "seconds", "witness")
_KEY_SET = frozenset(_RECORD_KEYS)
# a record's fields as the log reader yields them, with every check of
# ResultRecord made; a tuple costs a fraction of a ResultRecord to build
Row = namedtuple("Row", _RECORD_KEYS)


def _record_line(record: ResultRecord | Row) -> str:
    """The record as json.dumps(vars(record)) writes it, keys in _RECORD_KEYS
    order: strings escaped to ASCII by json's own encoder, numbers as repr
    prints them (ResultRecord admits no bool, NaN or infinity)."""
    method, stage, witness = record.method, record.stage, record.witness
    return (
        f'{{"lhs": {record.lhs!r}, "rhs": {record.rhs!r}, '
        f'"status": {encode_basestring_ascii(record.status)}, '
        f'"method": {"null" if method is None else encode_basestring_ascii(method)}, '
        f'"stage": {"null" if stage is None else repr(stage)}, '
        f'"seconds": {record.seconds!r}, '
        f'"witness": {"null" if witness is None else encode_basestring_ascii(witness)}}}\n'
    )


# A whole line as _record_line writes it, admitting only what ResultRecord
# admits but for three checks _row makes: lhs differs from rhs, a decided
# record has a method and a stage, and seconds is finite.  Ids and stage are
# JSON ints without a sign, status one of the three, method made only of
# characters JSON prints unescaped, seconds with a point or an exponent as
# float's repr prints it (json.loads reads an integral seconds as an int, so
# that line is left to it).  The line ends at a null witness; a witness
# string, last and long, is left to json's string scanner after its opening
# quote.
_ID = r"[1-9][0-9]*"
_PLAIN = r"[ !#-\[\]-~]*"
_ROW = re.compile(
    rf'\{{"lhs": ({_ID}), "rhs": ({_ID}), "status": "(proven|refuted|unsolved)", '
    rf'"method": (?:null|"({_PLAIN})"), "stage": (null|0|{_ID}), '
    rf'"seconds": ((?:0|{_ID})(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)), '
    r'"witness": (?:(null\}\n?)\Z|")'
)


class _Ints(dict):
    """The value of each id or stage text of the lines read (None for a null
    stage), converted once: a log names each law on many lines."""

    def __init__(self):
        super().__init__(null=None)

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def _row(line: str, match: re.Match, ints: _Ints) -> Row | None:
    """The row of a line _ROW matches, as json.loads and ResultRecord read it.
    None when its numbers or witness do not convert (a digit count past int's
    limit, a bad escape) or the line goes on past its witness, so that
    json.loads reports it; a record ResultRecord rejects raises its error."""
    lhs, rhs, status, method, stage, seconds, null = match.groups()
    try:
        if null is None:
            witness, end = scanstring(line, match.end())
            if line[end:] not in ("}\n", "}"):
                return None
        else:
            witness = None
        # Row(...) would go through namedtuple's __new__, written in Python
        row = tuple.__new__(
            Row, (ints[lhs], ints[rhs], status, method, ints[stage], float(seconds), witness)
        )
    except ValueError:
        return None
    if lhs == rhs or row[5] == math.inf or status != UNSOLVED and (method is None or stage == "null"):
        ResultRecord(*row)  # raises with the message of the check it fails
    return row


def _write_log(path: str, lines) -> None:
    """Replace the log with these lines, each a record as _record_line writes
    it, in one rename, so a run killed mid-write leaves the previous log
    intact."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def _ends_with_newline(path: str) -> bool:
    """Whether the file is empty or its last line is complete, so records can
    be appended to it."""
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return True
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) == b"\n"


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of repeated keys; a record may not repeat one
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f"repeated key {key!r}")
        payload[key] = value
    return payload


def _row_from_dict(payload) -> Row:
    if not isinstance(payload, dict):
        raise ValueError("record must be an object")
    if payload.keys() != _KEY_SET:
        raise ValueError(f"record keys must be exactly {_RECORD_KEYS}")
    ResultRecord(**payload)  # its checks, with their messages
    return Row(**payload)


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
    first.  The slice is the first stage's shared search cut at SLICE steps.
    Its walk is a prefix of the stage's own, so a countermodel it finds is the
    one the stage finds; it records refutations only.  The probe is S's run
    cut at K iterations, a prefix of S's run as the slice is of the first
    stage's.  A proof found within K iterations is the proof S's whole budget
    returns, and no model finder stage can refute a true implication, so it
    records proofs only, as S's, and the pair skips every model finder stage
    before S.  Both are step budgets, so the phase does the same work however
    loaded the host is.
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
            return [
                (1, Budget.of_steps(min(SLICE, first.budget.steps)), (REFUTED,)),
                (index, Budget.of_steps(min(K, stage.budget.steps)), (PROVEN,)),
                *walk,
            ]
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


def iter_rows(
    path: str, drop_torn_tail: bool = False, laws: int | None = None
) -> Iterator[Row]:
    """The log's records as Rows, read one line at a time with every check of
    ResultRecord; duplicate pairs and malformed lines are format errors
    naming the line, raised when the reader reaches it, and so is a line
    that is not UTF-8, with the decoder's own message.  A line as
    _record_line writes it is read by one pattern, any other by json.loads;
    both give the same row.  With drop_torn_tail, an unparsable final line
    without its newline (a write cut short by a killed run) is skipped.
    A record naming a law id past ROW_BITS - 1 is an error too, and so,
    with laws, the size of the corpus the log should belong to, is one
    naming a higher id."""
    return _scan(path, drop_torn_tail, laws, None)


# what the second pass of propagate_log does with each line, as its first
# pass notes them in flags: skip it (_BLANK), drop it when closure derives its
# pair (_UNSOLVED), and copy it as it stands (_SAME: exactly as _record_line
# writes it) or else render its record again
_SAME, _UNSOLVED, _BLANK = 1, 2, 4
# the start of a line whose keys come in _RECORD_KEYS order
_PAIR = re.compile(r'\{"lhs": ([0-9]+), "rhs": ([0-9]+),')


def _scan(
    path: str, drop_torn_tail: bool, laws: int | None, forms: bytearray | None
) -> Iterator[Row]:
    """iter_rows' generator; with forms it also appends the flags of each
    line read.  A line _ROW matches is read by _row, any other, and one _row
    leaves, by json.loads and _row_from_dict."""
    # the pairs read so far: one int bitset of rhs ids per lhs, each id at
    # most limit, so no bitset grows past ROW_BITS bits
    seen: dict[int, int] = {}
    limit = ROW_BITS - 1 if laws is None else min(laws, ROW_BITS - 1)
    match_row, row_of, ints = _ROW.match, _row, _Ints()
    # a byte that is not UTF-8 is read as a lone surrogate, and decoding its
    # line strictly again raises the decoder's error, a ValueError, for that
    # line (any line: _row would read the surrogate in a witness)
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                if not raw.isascii():
                    raw.encode("utf-8", "surrogateescape").decode("utf-8")
                match = match_row(raw)
                row = None if match is None else row_of(raw, match, ints)
                if row is None:
                    line = raw.strip()
                    if not line:
                        if forms is not None:
                            forms.append(_BLANK)
                        continue
                    # json.loads raises a JSONDecodeError, _unique_keys a
                    # ValueError, int conversion a ValueError past its digit
                    # limit, and arrays nested past the recursion limit a
                    # RecursionError
                    try:
                        payload = json.loads(line, object_pairs_hook=_unique_keys)
                    except (ValueError, RecursionError) as err:
                        if drop_torn_tail and not raw.endswith("\n"):
                            return
                        raise ValueError(f"bad record: {err}") from None
                    row = _row_from_dict(payload)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            lhs, rhs = row[0], row[1]
            if lhs > limit or rhs > limit:
                law = max(lhs, rhs)
                bound = (
                    f"the corpus has {laws} laws" if laws is not None and law > laws
                    else f"law ids run to {ROW_BITS - 1}"
                )
                raise ValueError(f"{path}:{lineno}: pair {(lhs, rhs)} names law {law}, but {bound}")
            bits = seen.get(lhs, 0)
            if bits >> rhs & 1:
                raise ValueError(
                    f"{path}:{lineno}: duplicate record for pair {(lhs, rhs)} "
                    f"(first at line {_first_line(path, (lhs, rhs))})"
                )
            seen[lhs] = bits | 1 << rhs
            if forms is not None:
                # _ROW fixes every field's text but seconds' and the witness's;
                # a null witness ends the line
                if match is None:
                    form = 0
                elif match[7] is None:
                    form = _SAME if raw == _record_line(row) else 0
                else:
                    form = _SAME if match[7] == "null}\n" and repr(row[5]) == match[6] else 0
                if row[2] == UNSOLVED:
                    form |= _UNSOLVED
                forms.append(form)
            yield row


def _record_of(line: str) -> Row:
    """The record of a line that iter_rows has read, as a Row."""
    match = _ROW.match(line)
    row = None if match is None else _row(line, match, _Ints())
    if row is None:
        return _row_from_dict(json.loads(line, object_pairs_hook=_unique_keys))
    return row


def _pair_of(line: str) -> tuple[int, int]:
    """The pair of a line that iter_rows has read."""
    match = _PAIR.match(line)
    if match is None:
        record = _record_of(line)
        return record.lhs, record.rhs
    return int(match[1]), int(match[2])


def _first_line(path: str, pair: tuple[int, int]) -> int | None:
    """The number of the first line holding pair's record."""
    # the lines up to the duplicate decode; a later one may not
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            if not raw.isspace() and _pair_of(raw) == pair:
                return lineno
    return None


def _status_map(records) -> StatusMap:
    """The decided records' statuses, keyed for closure.propagate."""
    status_map = StatusMap()
    add = status_map.add
    for record in records:
        if record.status != UNSOLVED:
            add(record.lhs, record.rhs, record.status, record.method)
    return status_map


def load_results(
    path: str, drop_torn_tail: bool = False, laws: int | None = None, keep_records: bool = True
) -> tuple[StatusMap, list[ResultRecord]]:
    """The log read through iter_rows, with its checks: its status map,
    which carries decided pairs only, keyed for closure.propagate, and its
    records in line order (an empty list without keep_records, which reads
    rows alone).  The status map is a closure.StatusMap, one row bitset per
    law for each distinct (status, method), so it holds no dict entry per
    pair; the records share one copy of each status and method string."""
    rows = iter_rows(path, drop_torn_tail, laws)
    if not keep_records:
        return _status_map(rows), []
    share = {}.setdefault
    records = [
        ResultRecord(lhs, rhs, share(status, status), share(method, method), stage, seconds, witness)
        for lhs, rhs, status, method, stage, seconds, witness in rows
    ]
    return _status_map(records), records


def propagate_log(path: str) -> int:
    """Close the log's statuses under the implication rules and add the derived
    records (method closure:R1|R2|R3, stage 0, no witness); returns how many
    new pairs were decided.  A pair that was unsolved directly but is decided
    by closure gets its unsolved record replaced.  A log closure adds nothing
    to is not rewritten.

    The log is read twice and never held.  The first pass builds the status
    map from rows and notes, per line, whether it is blank, whether it is
    unsolved, and whether it is exactly _record_line of its record.  The
    second streams the kept lines to the rewrite: a line noted so as it
    stands, any other rendered by _record_line (a line can match the pattern
    and still differ from it, as seconds 0.50 or a witness escaping "/" do).
    Derived records differ only in their pair and rule, so each derived line
    is its pair followed by the rest of one line that _record_line renders
    per rule, in (lhs, rhs) order as the closed map's rule bitsets give
    them."""
    forms = bytearray()
    status_map = _status_map(_scan(path, False, None, forms))
    closed = propagate(status_map)
    added = len(closed) - len(status_map)
    if not added:
        return 0  # leave the log, its inode and its mtime as they are

    # an unsolved pair is absent from status_map, so closure decides it only
    # by deriving it
    def kept_lines():
        with open(path, encoding="utf-8") as handle:
            for raw, form in zip(handle, forms):
                if form == _BLANK or form & _UNSOLVED and closed.derives(_pair_of(raw)):
                    continue
                yield raw if form & _SAME else _record_line(_record_of(raw))

    def closure_lines():
        tails: dict[str, str] = {}  # by rule, which fixes the status
        for (lhs, rhs), entry in closed.derived():
            rule = entry.provenance
            tail = tails.get(rule)
            if tail is None:
                line = _record_line(Row(1, 2, entry.status, rule, CLOSURE_STAGE, 0.0, None))
                tail = tails[rule] = line.partition('"rhs": 2')[2]
            yield f'{{"lhs": {lhs}, "rhs": {rhs}{tail}'

    _write_log(path, itertools.chain(kept_lines(), closure_lines()))
    return added
