"""Batch runner: staged schedules, the results log, resume, and log closure.

Witness checking is independent of the engines that produced them: refuting
countermodels are re-verified by brute evaluation, proofs are replayed step by
step, and proven implications are cross-checked against exhaustive enumeration
of all multiplication tables up to size 3.
"""

import dataclasses
import json
import os
import re
import threading

import pytest

from conftest import oracle_countermodel_exists, oracle_holds, oracle_tables
from eqimp.budget import UNLIMITED, Budget
from eqimp import runner
from eqimp.closure import PROVEN, REFUTED, StatusEntry
from eqimp.models import eval_term, parse_countermodel, verify_equation
from eqimp.runner import (
    CLOSURE_STAGE,
    ENGINE_FMB,
    ENGINE_SATUR,
    UNSOLVED,
    MethodSpec,
    ResultRecord,
    RunConfig,
    Schedule,
    attempt_pair,
    default_schedule,
    load_results,
    load_schedule,
    parse_schedule,
    propagate_log,
    run,
)
from eqimp.saturation import parse_proof, replay_proof
from eqimp.terms import enumerate_pairs, load_corpus
from eqimp.tptp import skolemize


def _corpus(tmp_path, lines, name="mini.eqs"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return load_corpus(str(path))


def _mini_schedule():
    # cheap two-stage version of the real thing, enough for tiny corpora
    return Schedule(
        (
            MethodSpec("mini-fmb", ENGINE_FMB, Budget.of_steps(5_000), max_size=4),
            MethodSpec("mini-satur", ENGINE_SATUR, Budget.of_steps(500)),
        )
    )


# --- schedule construction ---------------------------------------------------


def test_default_schedule_shape():
    schedule = default_schedule()
    assert len(schedule.stages) == 5
    names = [stage.name for stage in schedule.stages]
    assert names == ["fmb-500i", "satur-500i", "fmb-60s", "satur-600s", "fmb-600s"]
    engines = [stage.engine for stage in schedule.stages]
    assert engines == [ENGINE_FMB, ENGINE_SATUR, ENGINE_FMB, ENGINE_SATUR, ENGINE_FMB]
    # stage 3 is the first wall-clock pass, at sixty seconds
    assert schedule.stages[2].budget == Budget.of_wall(60.0)
    assert schedule.stages[0].budget.steps == 50_000
    assert schedule.stages[1].budget.steps == 1_000
    assert schedule.stages[3].budget == Budget.of_wall(600.0)
    assert schedule.stages[4].budget == Budget.of_wall(600.0)


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("x", "smt", Budget.of_steps(10))
    with pytest.raises(ValueError):
        MethodSpec("x", ENGINE_FMB, UNLIMITED)  # a stage needs a finite budget
    with pytest.raises(ValueError):
        MethodSpec("x", ENGINE_FMB, Budget.of_steps(0))
    with pytest.raises(ValueError):
        MethodSpec("x", ENGINE_FMB, Budget.of_steps(10), max_size=1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(())
    stage = MethodSpec("dup", ENGINE_FMB, Budget.of_steps(10))
    with pytest.raises(ValueError):
        Schedule((stage, stage))


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(str(tmp_path / "out.jsonl"), workers=0)


def test_result_record_validation():
    with pytest.raises(ValueError):
        ResultRecord(1, 2, "maybe", "m", 1, 0.0, None)
    with pytest.raises(ValueError):
        ResultRecord(1, 2, PROVEN, None, None, 0.0, "p")  # decided needs attribution
    with pytest.raises(ValueError):
        ResultRecord(1, 2, UNSOLVED, None, None, -1.0, None)


# --- schedule files ----------------------------------------------------------


def test_parse_schedule_round_trip():
    text = """
    # two quick stages
    quick-fmb fmb steps 100 max_size=3

    quick-satur satur seconds 2.5
    """
    schedule = parse_schedule(text)
    assert [s.name for s in schedule.stages] == ["quick-fmb", "quick-satur"]
    assert schedule.stages[0].budget == Budget.of_steps(100)
    assert schedule.stages[0].max_size == 3
    assert schedule.stages[1].budget == Budget.of_wall(2.5)


def test_parse_schedule_errors():
    with pytest.raises(ValueError, match="line 1.*at least 4 fields"):
        parse_schedule("only three fields")
    with pytest.raises(ValueError, match="line 1.*steps or seconds"):
        parse_schedule("s1 fmb instructions 500")
    with pytest.raises(ValueError, match="line 1.*unknown option"):
        parse_schedule("s1 fmb steps 500 shape=round")
    with pytest.raises(ValueError, match="line 1.*max_size only applies to fmb"):
        parse_schedule("s1 satur steps 500 max_size=3")
    with pytest.raises(ValueError, match="line 2"):
        parse_schedule("s1 fmb steps 500\ns2 satur steps nan-steps")
    with pytest.raises(ValueError, match="at least one stage"):
        parse_schedule("# nothing but comments\n")
    with pytest.raises(ValueError, match="unique"):
        parse_schedule("s1 fmb steps 500\ns1 satur steps 500")


def test_load_schedule(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("only-fmb fmb steps 250 max_size=5\n")
    schedule = load_schedule(str(path))
    assert schedule.stages[0] == MethodSpec("only-fmb", ENGINE_FMB, Budget.of_steps(250), 5)


# --- single-pair attempts ----------------------------------------------------


def test_attempt_refutes_with_verifiable_countermodel(tmp_path):
    corpus = _corpus(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)"])
    record = attempt_pair(corpus, 1, 2, _mini_schedule())
    assert record.status == REFUTED
    assert record.method == "mini-fmb" and record.stage == 1
    cm = parse_countermodel(record.witness)
    assert verify_equation(cm.table, corpus.by_id(1)) is None  # premise holds
    conclusion = corpus.by_id(2)
    env = cm.assignment
    assert eval_term(conclusion.lhs, cm.table, env) != eval_term(conclusion.rhs, cm.table, env)


def test_attempt_proves_at_second_stage_with_replayable_proof(tmp_path):
    # the all-products-equal premise has no finite countermodel for
    # commutativity, so the model finder burns its budget and saturation
    # settles it at stage two
    corpus = _corpus(tmp_path, ["x*y = u*w", "x*y = y*x"])
    record = attempt_pair(corpus, 1, 2, _mini_schedule())
    assert record.status == PROVEN
    assert record.method == "mini-satur" and record.stage == 2
    proof = parse_proof(record.witness)
    goal = skolemize(corpus.by_id(2))
    assert replay_proof(proof, corpus.by_id(1), goal).accepted


def test_attempt_saturation_refutes_without_countermodel(tmp_path):
    corpus = _corpus(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)"])
    satur_only = Schedule((MethodSpec("only-satur", ENGINE_SATUR, Budget.of_steps(500)),))
    record = attempt_pair(corpus, 1, 2, satur_only)
    assert record.status == REFUTED
    assert record.witness == "saturation"
    assert record.method == "only-satur" and record.stage == 1
    # the refutation is honest: a finite countermodel really does exist
    assert oracle_countermodel_exists(corpus.by_id(1), corpus.by_id(2), (1, 2, 3))


def test_attempt_unsolved_when_every_stage_runs_out(tmp_path):
    corpus = _corpus(tmp_path, ["x*y = u*w", "x*y = y*x"])
    starved = Schedule((MethodSpec("tiny-fmb", ENGINE_FMB, Budget.of_steps(1), max_size=2),))
    record = attempt_pair(corpus, 1, 2, starved)
    assert record.status == UNSOLVED
    assert record.method is None and record.stage is None and record.witness is None
    assert record.seconds >= 0.0


def test_attempt_crash_becomes_error_record(tmp_path, monkeypatch):
    corpus = _corpus(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)"])

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("eqimp.runner.find_countermodel", boom)
    fmb_only = Schedule((MethodSpec("only-fmb", ENGINE_FMB, Budget.of_steps(10)),))
    record = attempt_pair(corpus, 1, 2, fmb_only)
    assert record.status == UNSOLVED
    assert record.witness == "error:boom"


def test_wall_budget_is_a_hard_stop(tmp_path):
    # trivial premise, tautological conclusion: no countermodel exists and
    # nothing prunes, so the model finder runs until the wall budget cuts it
    corpus = _corpus(tmp_path, ["x = x", "x*y = x*y"])
    walled = Schedule((MethodSpec("walled-fmb", ENGINE_FMB, Budget.of_wall(0.2)),))
    record = attempt_pair(corpus, 1, 2, walled)
    assert record.status == UNSOLVED
    assert 0.15 <= record.seconds < 0.4  # within the 2x grace factor


# --- whole-corpus runs -------------------------------------------------------


def test_trivial_premise_proves_both_pairs(tmp_path):
    # both equations collapse to x=y, so each ordered pair has the
    # trivial-magma premise and must be proven
    corpus = _corpus(tmp_path, ["x = y", "u = w"])
    config = RunConfig(str(tmp_path / "out.jsonl"))
    records = run(corpus, default_schedule(), config)
    assert len(records) == 2
    assert all(record.status == PROVEN for record in records)
    checked = 0
    for record in records:
        premise, conclusion = corpus.by_id(record.lhs), corpus.by_id(record.rhs)
        for size in (1, 2):
            for rows in oracle_tables(size):
                if oracle_holds(rows, premise):
                    assert oracle_holds(rows, conclusion)
                    checked += 1
    assert checked == 2  # only the one-element table satisfies x=y


def test_run_writes_exactly_one_record_per_pair(tmp_path):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x"])
    out = tmp_path / "out.jsonl"
    records = run(corpus, _mini_schedule(), RunConfig(str(out)))
    pairs = [(record.lhs, record.rhs) for record in records]
    assert pairs == sorted(enumerate_pairs(corpus))
    # the log carries the same records
    status_map, loaded = load_results(str(out))
    assert sorted(loaded, key=lambda r: (r.lhs, r.rhs)) == records
    for record in records:
        if record.status != UNSOLVED:
            entry = status_map[(record.lhs, record.rhs)]
            assert entry == StatusEntry(record.status, record.method)
        else:
            assert (record.lhs, record.rhs) not in status_map


def test_rerun_with_resume_changes_nothing(tmp_path):
    corpus = _corpus(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    out = tmp_path / "out.jsonl"
    first = run(corpus, _mini_schedule(), RunConfig(str(out)))
    before = out.read_bytes()
    again = run(corpus, _mini_schedule(), RunConfig(str(out), resume=True))
    assert again == first
    assert out.read_bytes() == before


def test_resume_keeps_decided_and_retries_unsolved(tmp_path):
    corpus = _corpus(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    out = tmp_path / "out.jsonl"
    # a partial log: one pair decided (with a sentinel method that reruns
    # would overwrite), one recorded as unsolved, the rest never attempted
    kept = ResultRecord(1, 2, PROVEN, "sentinel", 1, 0.125, "sentinel witness")
    stale = ResultRecord(1, 3, UNSOLVED, None, None, 0.5, "error:synthetic")
    with open(out, "w") as handle:
        for record in (kept, stale):
            payload = {k: getattr(record, k) for k in
                       ("lhs", "rhs", "status", "method", "stage", "seconds", "witness")}
            handle.write(json.dumps(payload) + "\n")
    records = run(corpus, _mini_schedule(), RunConfig(str(out), resume=True))
    by_pair = {(record.lhs, record.rhs): record for record in records}
    assert len(records) == 6
    assert by_pair[(1, 2)] == kept  # skipped, byte-for-byte the old record
    assert by_pair[(1, 3)].status != UNSOLVED  # retried and now decided
    load_results(str(out))  # no duplicate lines after the resume


@pytest.mark.parametrize("rewrite", ["resume", "closure"])
def test_log_rewrite_failing_midway_leaves_the_log_intact(tmp_path, monkeypatch, rewrite):
    corpus = _corpus(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    out = tmp_path / "out.jsonl"
    run(corpus, _mini_schedule(), RunConfig(str(out)))
    before = out.read_bytes()
    original = runner._record_line
    calls = []

    def fail_on_second_line(record):
        calls.append(record)
        if len(calls) == 2:
            raise RuntimeError("disk full")
        return original(record)

    monkeypatch.setattr(runner, "_record_line", fail_on_second_line)
    with pytest.raises(RuntimeError, match="disk full"):
        if rewrite == "resume":
            run(corpus, _mini_schedule(), RunConfig(str(out), resume=True))
        else:
            propagate_log(str(out))
    assert out.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["mini.eqs", "out.jsonl"]


def test_worker_count_does_not_change_results(tmp_path):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x"])
    serial = run(corpus, _mini_schedule(), RunConfig(str(tmp_path / "a.jsonl"), workers=1))
    parallel = run(corpus, _mini_schedule(), RunConfig(str(tmp_path / "b.jsonl"), workers=8))
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    assert strip(serial) == strip(parallel)


def test_log_lines_do_not_depend_on_worker_count(tmp_path):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x", "x = y"])
    logs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.jsonl"
        run(corpus, _mini_schedule(), RunConfig(str(out), workers=workers))
        logs.append(re.sub(r'"seconds": [^,]+, ', "", out.read_text()))
    assert logs[0] == logs[1]
    assert logs[0].count("\n") == 20


def _returns_within(seconds, func, *args):
    """func(*args), failing the test instead of hanging when it does not
    return in time."""
    outcome = {}

    def call():
        try:
            outcome["value"] = func(*args)
        except BaseException as err:  # noqa: BLE001 - re-raised below
            outcome["error"] = err

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


DYING_PAIR = (3, 2)


def _attempt_or_die(pair):
    # sent to the spawned workers by reference; their fresh import of
    # eqimp.runner still holds the real _attempt
    if pair == DYING_PAIR:
        os._exit(1)
    return runner._attempt(pair)


def test_dead_worker_becomes_unsolved_records_that_resume_retries(tmp_path, monkeypatch):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x"])
    out = str(tmp_path / "out.jsonl")
    monkeypatch.setattr(runner, "_attempt", _attempt_or_die)
    records = _returns_within(60, run, corpus, _mini_schedule(), RunConfig(out, workers=2))
    monkeypatch.undo()
    pairs = sorted(enumerate_pairs(corpus))
    assert [(record.lhs, record.rhs) for record in records] == pairs
    _, logged = load_results(out)  # rejects a second record for any pair
    assert sorted(logged, key=lambda r: (r.lhs, r.rhs)) == records
    died = {(r.lhs, r.rhs): r for r in records if r.witness == runner.WORKER_DIED}
    assert DYING_PAIR in died
    assert all(r.status == UNSOLVED and r.method is None for r in died.values())

    resumed = _returns_within(
        60, run, corpus, _mini_schedule(), RunConfig(out, workers=2, resume=True)
    )
    serial = run(corpus, _mini_schedule(), RunConfig(str(tmp_path / "serial.jsonl")))
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    assert strip(resumed) == strip(serial)
    _, logged = load_results(out)
    assert len(logged) == len(pairs)


# --- the results log ---------------------------------------------------------


def test_load_results_skips_blank_lines(tmp_path):
    out = tmp_path / "out.jsonl"
    line = json.dumps(
        {"lhs": 1, "rhs": 2, "status": "proven", "method": "m", "stage": 1,
         "seconds": 0.1, "witness": "p"}
    )
    out.write_text(line + "\n\n")
    _, records = load_results(str(out))
    assert len(records) == 1


def test_load_results_truncated_line_names_it(tmp_path):
    out = tmp_path / "out.jsonl"
    line = json.dumps(
        {"lhs": 1, "rhs": 2, "status": "proven", "method": "m", "stage": 1,
         "seconds": 0.1, "witness": "p"}
    )
    out.write_text(line + "\n" + line[: len(line) // 2] + "\n")
    with pytest.raises(ValueError, match=":2: bad record"):
        load_results(str(out))


def test_load_results_rejects_duplicates_and_bad_keys(tmp_path):
    out = tmp_path / "out.jsonl"
    payload = {"lhs": 1, "rhs": 2, "status": "proven", "method": "m", "stage": 1,
               "seconds": 0.1, "witness": "p"}
    out.write_text(json.dumps(payload) + "\n" + json.dumps(payload) + "\n")
    with pytest.raises(ValueError, match=r"duplicate record for pair \(1, 2\).*line 1"):
        load_results(str(out))
    del payload["witness"]
    out.write_text(json.dumps(payload) + "\n")
    with pytest.raises(ValueError, match="keys must be exactly"):
        load_results(str(out))
    out.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="must be an object"):
        load_results(str(out))


# --- closing a log under the implication rules -------------------------------


def _write_log(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def test_propagate_log_replaces_unsolved_with_derived(tmp_path):
    out = tmp_path / "out.jsonl"
    _write_log(
        out,
        [
            {"lhs": 1, "rhs": 2, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.2, "witness": "p"},
            {"lhs": 1, "rhs": 3, "status": "refuted", "method": "fmb-500i",
             "stage": 1, "seconds": 0.1, "witness": "cm"},
            {"lhs": 2, "rhs": 3, "status": "unsolved", "method": None,
             "stage": None, "seconds": 9.9, "witness": None},
        ],
    )
    assert propagate_log(str(out)) == 1
    status_map, records = load_results(str(out))
    assert len(records) == 3
    derived = {(r.lhs, r.rhs): r for r in records}[(2, 3)]
    assert derived.status == REFUTED
    assert derived.method == "closure:R2"
    assert derived.stage == CLOSURE_STAGE == 0
    assert derived.seconds == 0.0 and derived.witness is None
    assert status_map[(2, 3)] == StatusEntry(REFUTED, "closure:R2")
    # a second pass finds nothing new and leaves the file alone
    before = out.read_bytes()
    assert propagate_log(str(out)) == 0
    assert out.read_bytes() == before


def test_propagate_log_adds_records_for_missing_pairs(tmp_path):
    out = tmp_path / "out.jsonl"
    _write_log(
        out,
        [
            {"lhs": 1, "rhs": 2, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.2, "witness": "p"},
            {"lhs": 2, "rhs": 3, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.2, "witness": "q"},
        ],
    )
    assert propagate_log(str(out)) == 1
    _, records = load_results(str(out))
    chained = {(r.lhs, r.rhs): r for r in records}[(1, 3)]
    assert chained.status == PROVEN and chained.method == "closure:R1"
