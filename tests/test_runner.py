"""Batch runner: staged schedules, the results log, resume, and log closure.

Witness checking is independent of the engines that produced them: refuting
countermodels are re-verified by brute evaluation, proofs are replayed step by
step, and proven implications are cross-checked against exhaustive enumeration
of all multiplication tables up to size 3.
"""

import collections
import copy
import dataclasses
import importlib.util
import itertools
import json
import os
import pathlib
import pickle
import random
import re
import threading
import time
import tracemalloc

import pytest

from conftest import oracle_countermodel_exists, oracle_holds, oracle_tables
from eqimp.budget import OUT_OF_BUDGET, UNLIMITED, Budget
from eqimp import closure, log, runner, saturation
from eqimp.cli import main
from eqimp.closure import PROVEN, REFUTED, StatusEntry, propagate
from eqimp.log import CLOSURE_STAGE, _BLOCK_ROW, iter_rows, propagate_log
from eqimp.models import (
    FOUND,
    Countermodel,
    MagmaTable,
    SearchOutcome,
    eval_term,
    format_countermodel,
    parse_countermodel,
    verify_equation,
)
from eqimp.report import histogram, render, summarize
from eqimp.runner import (
    ENGINE_FMB,
    ENGINE_SATUR,
    UNSOLVED,
    MethodSpec,
    ResultRecord,
    RunConfig,
    Schedule,
    attempt_pair,
    attempt_premise,
    default_schedule,
    load_results,
    load_schedule,
    parse_schedule,
    run,
)
from eqimp.saturation import (
    PROVED,
    SATURATED,
    Proof,
    SaturationOutcome,
    parse_proof,
    replay_proof,
)
from eqimp.terms import Corpus, enumerate_pairs, load_corpus
from eqimp.tptp import skolemize

DATA = pathlib.Path(__file__).parent / "data"
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


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
    # verify re-derives, rather than re-checks, a record whose method names a
    # closure rule
    with pytest.raises(ValueError, match="derived records"):
        MethodSpec("closure:R9", ENGINE_FMB, Budget.of_steps(10))


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
    # a NaN or infinite deadline never expires
    with pytest.raises(ValueError, match="line 1.*finite"):
        parse_schedule("s1 satur seconds nan")
    with pytest.raises(ValueError, match="line 1.*finite"):
        parse_schedule("s1 fmb seconds inf")
    with pytest.raises(ValueError, match="at least one stage"):
        parse_schedule("# nothing but comments\n")
    with pytest.raises(ValueError, match="unique"):
        parse_schedule("s1 fmb steps 500\ns1 satur steps 500")
    with pytest.raises(ValueError, match="line 2.*derived records"):
        parse_schedule("s1 fmb steps 500\nclosure:R9 fmb steps 5000 max_size=4")


def test_load_schedule(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("only-fmb fmb steps 250 max_size=5\n")
    schedule = load_schedule(str(path))
    assert schedule.stages[0] == MethodSpec("only-fmb", ENGINE_FMB, Budget.of_steps(250), 5)


@pytest.mark.parametrize(
    "line, message",
    [
        ("s1 fmb steps ٥٠", "steps '٥٠' is not a whole number of ASCII digits"),
        ("s1 fmb steps 1_000", "steps '1_000' is not a whole number"),
        ("s1 fmb steps +500", "steps '\\+500' is not a whole number"),
        ("s1 fmb steps 500 max_size=+4", "max_size '\\+4' is not a whole number"),
        ("s1 fmb steps 500 max_size=٤", "max_size '٤' is not a whole number"),
        ("s1 satur seconds ١.5", "seconds '١.5' is not a finite decimal of ASCII digits"),
        ("s1 satur seconds 1.5.0", "seconds '1.5.0' is not a finite decimal"),
        ("s1 satur seconds 1e3", "seconds '1e3' is not a finite decimal"),
        ("s1 satur seconds .", "seconds '.' is not a finite decimal"),
        ("s1 fmb steps 500 max_size=4 max_size=5", "max_size is given twice"),
    ],
)
def test_parse_schedule_reads_ascii_digits_and_each_option_once(line, message):
    # numbers are read as countermodels, --pair and law ids read theirs
    with pytest.raises(ValueError, match=f"^schedule line 2: {message}"):
        parse_schedule("s0 satur steps 10\n" + line)


def test_parse_schedule_reads_seconds_with_at_most_one_point():
    stages = parse_schedule("a satur seconds 2\nb satur seconds .5\nc fmb seconds 3.\n").stages
    assert [stage.budget for stage in stages] == [
        Budget.of_wall(2.0),
        Budget.of_wall(0.5),
        Budget.of_wall(3.0),
    ]


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

    monkeypatch.setattr("eqimp.runner.find_countermodels", boom)
    fmb_only = Schedule((MethodSpec("only-fmb", ENGINE_FMB, Budget.of_steps(10)),))
    record = attempt_pair(corpus, 1, 2, fmb_only)
    assert record.status == UNSOLVED
    assert record.witness == "error:boom"


def test_premise_group_records_and_their_seconds(tmp_path):
    # one shared search serves both conclusions: commutativity has no finite
    # countermodel under the all-products-equal premise, x*y = x fails at size 2
    corpus = _corpus(tmp_path, ["x*y = u*w", "x*y = y*x", "x*y = x"])
    fmb_only = Schedule((MethodSpec("only-fmb", ENGINE_FMB, Budget.of_steps(5_000), 4),))
    searched, refuted = attempt_premise(corpus, 1, (2, 3), fmb_only)
    assert (searched.status, refuted.status) == (UNSOLVED, REFUTED)
    strip = lambda r: dataclasses.replace(r, seconds=0.0)
    assert strip(searched) == strip(attempt_pair(corpus, 1, 2, fmb_only))
    assert strip(refuted) == strip(attempt_pair(corpus, 1, 3, fmb_only))
    # a refutation found early is timed until it was found, not until the
    # shared search ended
    assert refuted.seconds < searched.seconds


def test_a_goal_past_the_rewrite_cap_gets_its_own_error_record(tmp_path, monkeypatch):
    # one saturation loop serves the premise's three conclusions; under left
    # projection the second's left side takes four rewrites, past the cap
    monkeypatch.setattr(saturation, "REWRITE_CAP", 3)
    corpus = _corpus(tmp_path, ["x*y = x", "x*y = x*z", "x = (((x*y)*z)*w)*u", "x*y = y*x"])
    satur_only = Schedule((MethodSpec("only-satur", ENGINE_SATUR, Budget.of_steps(50)),))
    records = attempt_premise(corpus, 1, (2, 3, 4), satur_only)
    assert [(r.status, r.witness) for r in records[1:]] == [
        (UNSOLVED, "error:rewrite step cap 3 exceeded"),
        (REFUTED, "saturation"),
    ]
    assert records[0].status == PROVEN
    strip = lambda r: dataclasses.replace(r, seconds=0.0)
    assert [strip(r) for r in records] == [
        strip(attempt_pair(corpus, 1, rhs, satur_only)) for rhs in (2, 3, 4)
    ]


# --- the decide-early phase ---------------------------------------------------


def _pinned_blocks(name):
    """{(lhs, rhs): (header fields after the pair, body lines)} of a pinned
    text file made of 'pair <lhs> <rhs> ...' headers and their bodies."""
    blocks = {}
    for block in (DATA / name).read_text(encoding="utf-8").split("pair ")[1:]:
        header, *body = block.rstrip("\n").split("\n")
        lhs, rhs, *fields = header.split()
        blocks[(int(lhs), int(rhs))] = (fields, body)
    return blocks


@pytest.fixture
def pool_at_once(monkeypatch):
    # runs this small finish before POOL_AFTER and would never start workers
    monkeypatch.setattr(runner, "POOL_AFTER", 0.0)


@pytest.mark.usefixtures("pool_at_once")
def test_desk_records_come_from_the_pinned_files(tmp_path):
    # the default schedule's record of every desk pair follows from the
    # pinned outcomes of its first two stages run alone: fmb-500i's
    # countermodel where it finds one, else satur-500i's proof
    outcomes = _pinned_blocks("desk_fmb500i_outcomes.txt")
    proofs = _pinned_blocks("desk_satur500i_proofs.txt")
    expected = []
    for pair, (fields, body) in sorted(outcomes.items()):
        if fields[0] == "found":
            expected.append(ResultRecord(*pair, REFUTED, "fmb-500i", 1, 0.0, "\n".join(body)))
        else:
            expected.append(
                ResultRecord(*pair, PROVEN, "satur-500i", 2, 0.0, "\n".join(proofs[pair][1]))
            )
    assert len(expected) == 380
    corpus = load_corpus(str(DATA / "desk.eqs"))
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.jsonl"
        records = run(corpus, default_schedule(), RunConfig(str(out), workers=workers))
        assert [dataclasses.replace(r, seconds=0.0) for r in records] == expected
        _, logged = load_results(str(out))
        assert [dataclasses.replace(r, seconds=0.0) for r in logged] == expected


def _recording(monkeypatch):
    """Record the budget of every engine call the runner makes, as
    ("fmb", budget, conclusion count) or ("satur", budget, statuses), where
    statuses holds one outcome status per goal of the call."""
    calls = []
    find_countermodels = runner.find_countermodels
    saturate, saturate_many = runner.saturate, runner.saturate_many

    def fmb(premise, conclusions, max_size, budget):
        calls.append(("fmb", budget, len(conclusions)))
        return find_countermodels(premise, conclusions, max_size, budget)

    def satur(premise, goal, budget):
        outcome = saturate(premise, goal, budget)
        calls.append(("satur", budget, (outcome.status,)))
        return outcome

    def satur_many(premise, goals, budget):
        outcomes = saturate_many(premise, goals, budget)
        calls.append(("satur", budget, tuple(outcome.status for outcome in outcomes)))
        return outcomes

    monkeypatch.setattr(runner, "find_countermodels", fmb)
    monkeypatch.setattr(runner, "saturate", satur)
    monkeypatch.setattr(runner, "saturate_many", satur_many)
    return calls


def test_a_proof_found_by_the_probe_skips_the_model_finder(tmp_path, monkeypatch):
    # all products equal: commutativity has no finite countermodel and the
    # probe proves it; x*y = x fails only at a complete table, past the
    # one-step slice, so the model finder's full search runs for it alone
    corpus = _corpus(tmp_path, ["x*y = u*w", "x*y = y*x", "x*y = x"])
    schedule = _mini_schedule()
    fmb, _ = schedule.stages
    monkeypatch.setattr(runner, "ROUNDS", ((1, 20),))
    calls = _recording(monkeypatch)
    proved, refuted = attempt_premise(corpus, 1, (2, 3), schedule)
    assert calls == [
        ("fmb", Budget.of_steps(1), 2),
        ("satur", Budget.of_steps(20), (PROVED, SATURATED)),
        ("fmb", fmb.budget, 1),
    ]
    assert (proved.status, proved.method, proved.stage) == (PROVEN, "mini-satur", 2)
    assert (refuted.status, refuted.method, refuted.stage) == (REFUTED, "mini-fmb", 1)
    goal = skolemize(corpus.by_id(2))
    assert replay_proof(parse_proof(proved.witness), corpus.by_id(1), goal).accepted


def test_step_budgeted_stages_get_step_budgets_only():
    # the decide-early phase cuts a step-budgeted stage by steps alone, so
    # what it does never depends on how loaded the host is
    schedule = default_schedule()
    attempts = runner._attempts(schedule)
    assert [index for index, _, _ in attempts] == [1, 2, 1, 2, 1, 2, 3, 4, 5]
    for index, budget, _ in attempts:
        if schedule.stages[index - 1].budget.seconds is None:
            assert budget.steps is not None and budget.seconds is None


@pytest.mark.parametrize(
    "stages",
    [
        # model finder stages only
        (MethodSpec("fmb", ENGINE_FMB, Budget.of_steps(5_000), 4),),
        # saturation first
        (
            MethodSpec("satur", ENGINE_SATUR, Budget.of_steps(500)),
            MethodSpec("fmb", ENGINE_FMB, Budget.of_steps(5_000), 4),
        ),
        # the first saturation stage has a wall budget
        (
            MethodSpec("fmb", ENGINE_FMB, Budget.of_steps(5_000), 4),
            MethodSpec("satur", ENGINE_SATUR, Budget.of_wall(5.0)),
        ),
        # the first stage has a wall budget
        (
            MethodSpec("fmb", ENGINE_FMB, Budget.of_wall(5.0), 4),
            MethodSpec("satur", ENGINE_SATUR, Budget.of_steps(500)),
        ),
    ],
)
def test_no_decide_early_phase_without_two_step_budgeted_stages(tmp_path, monkeypatch, stages):
    corpus = _corpus(tmp_path, ["x*y = u*w", "x*y = y*x", "x*y = x", "x*x = x"])
    schedule = Schedule(stages)
    calls = _recording(monkeypatch)
    for lhs in range(1, 5):
        attempt_premise(corpus, lhs, tuple(rhs for rhs in range(1, 5) if rhs != lhs), schedule)
    budgets = {stage.budget for stage in stages}
    assert calls and all(budget in budgets for _, budget, _ in calls)


def _mini_records(corpus, schedule):
    return [
        dataclasses.replace(record, seconds=0.0)
        for lhs in range(1, corpus.count + 1)
        for record in attempt_premise(
            corpus, lhs, tuple(rhs for rhs in range(1, corpus.count + 1) if rhs != lhs), schedule
        )
    ]


PROBED_LAWS = ["x = x", "x*y = u*w", "x*y = y*x", "x*y = x", "x*x = x", "x = y"]


def test_probes_cut_at_zero_steps_change_no_record(tmp_path, monkeypatch):
    corpus = _corpus(tmp_path, PROBED_LAWS)
    schedule = _mini_schedule()
    expected = _mini_records(corpus, schedule)
    assert any(r.status == PROVEN and r.method == "mini-satur" for r in expected)
    monkeypatch.setattr(runner, "ROUNDS", tuple((steps, 0) for steps, _ in runner.ROUNDS))
    calls = _recording(monkeypatch)
    assert _mini_records(corpus, schedule) == expected
    probes = [
        status
        for kind, budget, statuses in calls
        if kind == "satur" and budget.steps == 0
        for status in statuses
    ]
    assert probes and set(probes) == {OUT_OF_BUDGET}


def test_a_probe_that_raises_changes_no_record(tmp_path, monkeypatch):
    corpus = _corpus(tmp_path, PROBED_LAWS)
    schedule = _mini_schedule()
    expected = _mini_records(corpus, schedule)
    probe_steps = {steps for _, steps in runner.ROUNDS}
    raised = set()

    def raise_in_probes(saturate):
        # stands in for saturate (one goal) and saturate_many (a list of them)
        def stub(premise, goals, budget):
            if budget.steps in probe_steps:
                raised.add(budget.steps)
                raise RuntimeError("probe failed")
            return saturate(premise, goals, budget)

        return stub

    monkeypatch.setattr(runner, "saturate", raise_in_probes(runner.saturate))
    monkeypatch.setattr(runner, "saturate_many", raise_in_probes(runner.saturate_many))
    assert _mini_records(corpus, schedule) == expected
    assert raised == probe_steps


def test_records_do_not_depend_on_the_rounds(tmp_path, monkeypatch):
    # every slice and probe is a prefix of its stage's deterministic run, so
    # any rounds, none at all included, write the same records
    mini = _corpus(tmp_path, PROBED_LAWS)
    desk = load_corpus(str(DATA / "desk.eqs"))
    default = runner.ROUNDS
    seen = {}
    for rounds in [(), ((500, 20),), ((1, 0), (1, 1)), default]:
        monkeypatch.setattr(runner, "ROUNDS", rounds)
        records = run(desk, default_schedule(), RunConfig(str(tmp_path / "desk.jsonl")))
        seen[rounds] = (
            _mini_records(mini, _mini_schedule()),
            [dataclasses.replace(record, seconds=0.0) for record in records],
        )
    assert all(records == seen[default] for records in seen.values())


def test_a_short_first_stage_runs_each_slice_once(tmp_path, monkeypatch):
    # a first stage shorter than the last round's slice caps that slice at
    # the steps an earlier round already ran, so it is left out; a slice
    # capped at the stage's whole budget is the stage's own search, so the
    # stage's attempt runs there, recording what the stage records, and not
    # again after the rounds
    corpus = _corpus(tmp_path, PROBED_LAWS)
    satur = _mini_schedule().stages[1]
    short = Schedule((MethodSpec("short-fmb", ENGINE_FMB, Budget.of_steps(30), 4), satur))
    assert 30 < runner.ROUNDS[-1][0]
    attempts = runner._attempts(short)
    searches = [(budget.steps, statuses) for index, budget, statuses in attempts if index == 1]
    probes = [budget.steps for _, budget, statuses in attempts if statuses == (PROVEN,)]
    assert searches[-1] == (30, (PROVEN, REFUTED, UNSOLVED))
    assert [steps for steps, _ in searches] == sorted({steps for steps, _ in searches})
    assert probes == sorted(set(probes)) and len(probes) == len(runner.ROUNDS)
    calls = _recording(monkeypatch)
    records = _mini_records(corpus, short)
    # one 30-step search per premise, each of which has open pairs
    assert [budget.steps for kind, budget, _ in calls if kind == "fmb"].count(30) == corpus.count
    monkeypatch.setattr(runner, "ROUNDS", ())
    assert _mini_records(corpus, short) == records


class _Clock:
    """Stands in for the runner's time module: only the engine stubs move it."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def test_decide_early_seconds_accounting(tmp_path, monkeypatch):
    # scripted engines on a fake clock, in dyadic seconds so every sum is
    # exact, over two decide-early rounds.  Per conclusion: which model finder
    # attempt refutes it (by its step budget) and when, and what each
    # saturation attempt (by its step budget) does for it in its shared loop
    # (seconds until its goal closed, then the outcome status or "raise"); a
    # search or a loop lasts as long as its budget's entry or slowest goal
    corpus = _corpus(
        tmp_path,
        ["x = x", "x*y = y*x", "x*y = x", "x*x = x", "x = y", "(x*y)*z = x*(y*z)"],
    )
    schedule = _mini_schedule()
    monkeypatch.setattr(runner, "ROUNDS", ((50, 5), (500, 20)))
    searches = {50: 0.25, 500: 0.5, 5_000: 2.0}
    fmb_refutes = {2: (500, 0.25), 6: (5_000, 1.5)}
    loops = {
        5: {2: (0.125, OUT_OF_BUDGET), 3: (0.125, OUT_OF_BUDGET), 4: (0.5, OUT_OF_BUDGET),
            5: (0.03125, SATURATED), 6: (0.03125, SATURATED)},
        20: {3: (0.125, PROVED), 4: (1.0, OUT_OF_BUDGET), 5: (0.0625, SATURATED),
             6: (0.0625, SATURATED)},
        500: {4: (4.0, OUT_OF_BUDGET), 5: (0.03125, "raise")},
    }
    clock = _Clock()
    monkeypatch.setattr(runner, "time", clock)
    table = MagmaTable.from_rows([[0, 0], [1, 1]])

    def fmb(premise, conclusions, max_size, budget):
        clock.now += searches[budget.steps]
        outcomes = []
        for conclusion in conclusions:
            steps, seconds = fmb_refutes.get(conclusion.id, (None, 0.0))
            if steps == budget.steps:
                outcomes.append(SearchOutcome(FOUND, Countermodel(table, (0, 1)), 2, 1, seconds))
            else:
                outcomes.append(SearchOutcome(OUT_OF_BUDGET, None, 4, budget.steps, 0.0))
        return outcomes

    goals = {skolemize(corpus.by_id(rhs)): rhs for rhs in range(2, 7)}

    def satur_many(premise, goal_list, budget):
        runs = [loops[budget.steps][goals[goal]] for goal in goal_list]
        clock.now += max(seconds for seconds, _ in runs)
        return [
            RuntimeError("boom")
            if status == "raise"
            else SaturationOutcome(status, Proof(()) if status == PROVED else None, 1, seconds)
            for seconds, status in runs
        ]

    monkeypatch.setattr(runner, "find_countermodels", fmb)
    monkeypatch.setattr(runner, "saturate_many", satur_many)
    records = attempt_premise(corpus, 1, (2, 3, 4, 5, 6), schedule)
    assert [(r.rhs, r.status, r.stage, r.seconds) for r in records] == [
        (2, REFUTED, 1, 0.25),  # round 2's slice's time until its countermodel
        (3, PROVEN, 2, 0.125),  # round 2's probe's time until its goal closed, alone
        # every attempt of both rounds and both stages, each search and loop whole
        (4, UNSOLVED, None, 0.25 + 0.5 + 0.5 + 1.0 + 2.0 + 4.0),
        # the whole loop it crashed in, plus every attempt before it (each
        # probe's until it saturated)
        (5, UNSOLVED, 2, 0.25 + 0.03125 + 0.5 + 0.0625 + 2.0 + 4.0),
        (6, REFUTED, 1, 1.5),  # the stage's time until its countermodel
    ]
    assert records[4].witness == format_countermodel(Countermodel(table, (0, 1)))
    assert records[3].witness == "error:boom"


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


def test_resume_completes_a_final_record_that_lost_its_newline(tmp_path):
    corpus = _corpus(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    out = tmp_path / "out.jsonl"
    first = run(corpus, _mini_schedule(), RunConfig(str(out)))
    lines = out.read_text().splitlines(keepends=True)
    # five records, the fifth parsable but without its newline: the sixth
    # pair's record must not be appended onto it
    out.write_text("".join(lines[:4]) + lines[4].rstrip("\n"))
    again = run(corpus, _mini_schedule(), RunConfig(str(out), resume=True))
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    assert strip(again) == strip(first)
    _, logged = load_results(str(out))
    assert logged[:5] == first[:5]
    assert len(logged) == 6


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
    records = run(corpus, _mini_schedule(), RunConfig(str(out)))
    # (3, 2) made unsolved: closure derives it from (1, 3) and (1, 2), so it
    # has a log to rewrite too
    unsolved = ResultRecord(3, 2, UNSOLVED, None, None, 0.0, None)
    out.write_text(
        "".join(runner._record_line(unsolved if (r.lhs, r.rhs) == (3, 2) else r) for r in records)
    )
    before = out.read_bytes()
    original = runner._record_line
    calls = []

    def fail_on_second_line(record):
        calls.append(record)
        if len(calls) == 2:
            raise RuntimeError("disk full")
        return original(record)

    def fail_after_first_line(path, lines):
        def lines_then_failure():
            for count, line in enumerate(lines):
                if count == 1:
                    raise RuntimeError("disk full")
                yield line

        return write_log(path, lines_then_failure())

    # run renders each record it writes through runner's _record_line;
    # closure copies the lines it keeps as they stand, so its rewrite fails
    # once the temporary file holds its first line
    write_log = runner._write_log
    if rewrite == "resume":
        monkeypatch.setattr("eqimp.runner._record_line", fail_on_second_line)
    else:
        monkeypatch.setattr("eqimp.log._write_log", fail_after_first_line)
    with pytest.raises(RuntimeError, match="disk full"):
        if rewrite == "resume":
            run(corpus, _mini_schedule(), RunConfig(str(out), resume=True))
        else:
            propagate_log(str(out))
    assert out.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["mini.eqs", "out.jsonl"]


@pytest.mark.usefixtures("pool_at_once")
def test_worker_count_does_not_change_results(tmp_path):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x"])
    serial = run(corpus, _mini_schedule(), RunConfig(str(tmp_path / "a.jsonl"), workers=1))
    parallel = run(corpus, _mini_schedule(), RunConfig(str(tmp_path / "b.jsonl"), workers=8))
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    assert strip(serial) == strip(parallel)


@pytest.mark.usefixtures("pool_at_once")
def test_log_lines_do_not_depend_on_worker_count(tmp_path):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x", "x = y"])
    logs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.jsonl"
        run(corpus, _mini_schedule(), RunConfig(str(out), workers=workers))
        logs.append(re.sub(r'"seconds": [^,]+, ', "", out.read_text()))
    assert logs[0] == logs[1]
    assert logs[0].count("\n") == 20


@pytest.mark.parametrize("in_process", [1, 5])
def test_records_do_not_depend_on_when_the_pool_starts(tmp_path, monkeypatch, in_process):
    # the premise group after the first `in_process` ones is attempted with its
    # deadline already passed, so it is dropped unwritten and the pool takes it
    # and the groups after it; with all 5 the pool never starts.  A pool that
    # takes every group is test_log_lines_do_not_depend_on_worker_count's case
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x", "x = y"])
    serial = tmp_path / "serial.jsonl"
    run(corpus, _mini_schedule(), RunConfig(str(serial)))
    attempt_here, run_pool = runner.attempt_premise, runner._run_pool
    here, pooled = [], []

    def attempt_premise(corpus, lhs, rhss, schedule, deadline):
        here.append(lhs)
        if len(here) > in_process:
            deadline = time.monotonic()
        return attempt_here(corpus, lhs, rhss, schedule, deadline)

    def pool(corpus, schedule, workers, tasks, write):
        pooled.extend(lhs for lhs, _ in tasks)
        run_pool(corpus, schedule, workers, tasks, write)

    monkeypatch.setattr(runner, "POOL_AFTER", 3600.0)
    monkeypatch.setattr(runner, "attempt_premise", attempt_premise)
    monkeypatch.setattr(runner, "_run_pool", pool)
    out = tmp_path / "parallel.jsonl"
    records = run(corpus, _mini_schedule(), RunConfig(str(out), workers=2))
    assert (here, pooled) == ([1, 2, 3, 4, 5][: in_process + 1], [1, 2, 3, 4, 5][in_process:])
    strip = lambda text: re.sub(r'"seconds": [^,]+, ', "", text)
    assert strip(out.read_text()) == strip(serial.read_text())
    _, logged = load_results(str(out))
    assert records == logged


def test_a_wall_clock_stage_is_cut_so_the_pool_starts_on_time(tmp_path, monkeypatch):
    # commutativity implies the second law, so the model finder searches its
    # whole minute for a countermodel; the in-process attempt stops at
    # POOL_AFTER and the first group goes to the pool with the rest
    corpus = _corpus(tmp_path, ["x*y = y*x", "x*(y*z) = (z*y)*x"])
    schedule = parse_schedule("wall-fmb fmb seconds 60 max_size=6\n")
    handed = []

    def pool(corpus, schedule, workers, tasks, write):
        handed.append((time.monotonic(), tasks))
        for lhs, rhss in tasks:
            for rhs in rhss:
                write(ResultRecord(lhs, rhs, UNSOLVED, None, None, 0.0, None))

    monkeypatch.setattr(runner, "POOL_AFTER", 0.2)
    monkeypatch.setattr(runner, "_run_pool", pool)
    started = time.monotonic()
    run(corpus, schedule, RunConfig(str(tmp_path / "out.jsonl"), workers=2))
    [(when, tasks)] = handed
    assert tasks == [(1, (2,)), (2, (1,))]
    assert when - started < 5


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


def _attempt_or_die(task):
    # sent to the spawned workers by reference; their fresh import of
    # eqimp.runner still holds the real _attempt.  A task is a premise with
    # its conclusions, so the worker dies on the dying pair's premise
    if task[0] == DYING_PAIR[0]:
        os._exit(1)
    return runner._attempt(task)


@pytest.mark.usefixtures("pool_at_once")
def test_dead_worker_becomes_unsolved_records_that_resume_retries(tmp_path, monkeypatch):
    corpus = _corpus(tmp_path, ["x = x", "x*y = y*x", "x*y = x", "x*x = x"])
    out = str(tmp_path / "out.jsonl")
    with monkeypatch.context() as dying:
        dying.setattr(runner, "_attempt", _attempt_or_die)
        records = _returns_within(60, run, corpus, _mini_schedule(), RunConfig(out, workers=2))
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
    payload["witness"] = "p"
    bad_fields = [
        ({"lhs": "a"}, "must be ints"),
        ({"lhs": 2.5}, "must be ints"),
        ({"rhs": True}, "must be ints"),
        ({"lhs": 0}, "distinct positive"),
        ({"rhs": -3}, "distinct positive"),
        ({"rhs": 1}, "distinct positive"),
        ({"stage": "x"}, "stage must be"),
        ({"stage": -1}, "stage must be"),
        ({"stage": True}, "stage must be"),
        ({"stage": 1.0}, "stage must be"),
        ({"seconds": -1.0}, "seconds must be"),
        ({"seconds": False}, "seconds must be"),
        ({"seconds": "0.1"}, "seconds must be"),
        ({"seconds": float("nan")}, "seconds must be"),
        ({"seconds": float("inf")}, "seconds must be"),
        ({"method": 7}, "method must be a string"),
        ({"witness": ["p"]}, "witness must be a string"),
    ]
    for change, message in bad_fields:
        good = json.dumps({**payload, "lhs": 3, "rhs": 4}) + "\n"
        out.write_text(good + json.dumps({**payload, **change}) + "\n")
        with pytest.raises(ValueError, match=f"out.jsonl:2: .*{message}"):
            load_results(str(out))


def _malformed_logs():
    """(name, log text, laws) for each log load_results' tests above read: the
    blank lines it skips and each kind of format error it raises."""
    payload = {"lhs": 1, "rhs": 2, "status": "proven", "method": "m", "stage": 1,
               "seconds": 0.1, "witness": "p"}
    line = lambda **change: json.dumps({**payload, **change}) + "\n"
    reordered = json.dumps(dict(reversed(list({**payload, "lhs": 3, "rhs": 4}.items())))) + "\n"
    no_witness = json.dumps({key: payload[key] for key in payload if key != "witness"}) + "\n"
    good = line()
    return [
        ("blank-lines", good + "\n \n" + line(lhs=3, rhs=4) + "\n", None),
        ("truncated", good + good[: len(good) // 2] + "\n", None),
        # the first record of the pair sits past a blank line, in another form
        ("duplicate", good + "\n" + reordered + line(lhs=4, rhs=3) + line(lhs=3, rhs=4), None),
        ("duplicate-past-a-bitset", line(rhs=70_000) + good + line(rhs=70_000), None),
        ("bad-keys", good + no_witness, None),
        ("not-an-object", good + "[1, 2, 3]\n", None),
        ("bad-field", good + line(lhs="a"), None),
        ("laws", good + line(lhs=3, rhs=9), 8),
        ("torn-tail", good + line(lhs=3, rhs=4)[:-9], None),
    ]


def _read(read):
    """read()'s records with their seconds' types, or its ValueError's text."""
    try:
        return [(record, type(record.seconds)) for record in read()]
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize(
    "name, text, laws", _malformed_logs(), ids=[case[0] for case in _malformed_logs()]
)
def test_streamed_readers_raise_what_load_results_raises(tmp_path, capsys, name, text, laws):
    out = tmp_path / "out.jsonl"
    out.write_text(text)
    path = str(out)
    for torn in (False, True):
        expected = _read(lambda: load_results(path, drop_torn_tail=torn, laws=laws)[1])
        rows = lambda: iter_rows(path, drop_torn_tail=torn, laws=laws)
        assert _read(lambda: (ResultRecord(*row) for row in rows())) == expected
    # with drop_torn_tail, the torn tail reads too
    assert (type(expected) is list) == (name in ("blank-lines", "torn-tail"))
    expected = _read(lambda: load_results(path, laws=laws)[1])
    if name == "duplicate":
        assert expected.endswith("duplicate record for pair (3, 4) (first at line 3)")
    if laws is not None:
        # only verify, which reads the corpus, checks the bound
        eqs = tmp_path / "eight.eqs"
        eqs.write_text("x = x\n" * laws)
        commands = [["verify", "--eqs", str(eqs), "--results", path]]
    else:
        commands = [["report", "--results", path], ["closure", "--results", path]]
    for argv in commands:
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        if type(expected) is list:
            assert code == 0 and err == ""
        else:
            assert (code, err) == (1, f"error: {expected}\n")
            assert out.read_text() == text


def test_closure_renders_each_kept_line_as_the_writer_does(tmp_path):
    # lines that read as records but are not in _record_line's form: closure
    # must write each kept one as _record_line renders its record, as it
    # writes every other line, never copy it as it stands
    row = lambda lhs, rhs, status, method=None, stage=None, seconds="0.25", witness="null": (
        f'{{"lhs": {lhs}, "rhs": {rhs}, "status": "{status}", '
        f'"method": {"null" if method is None else json.dumps(method)}, '
        f'"stage": {"null" if stage is None else stage}, "seconds": {seconds}, "witness": {witness}}}'
    )
    # a hidden preorder: law i implies law j when j's features are a subset
    # of i's, with features 1 {a}, 2 {}, 3 {b} and 4 {a, b}
    lines = [
        row(1, 2, PROVEN, "satur-500i", 2, seconds="0.50", witness='"p"'),
        row(1, 3, REFUTED, "fmb-500i", "-0"),
        row(4, 1, PROVEN, "satur-500i", 2, witness='"a\\/b"'),
        row(4, 2, UNSOLVED, seconds="1.0e+1"),
        row(4, 3, UNSOLVED, witness='"a\\/b caf\\u00E9"'),
        row(1, 4, UNSOLVED, witness='"café"'),
        json.dumps({"witness": "q", "seconds": 0.5, "stage": 2, "method": "satur-500i",
                    "status": PROVEN, "rhs": 2, "lhs": 3}),
        json.dumps({"witness": None, "seconds": 0.5, "stage": None, "method": None,
                    "status": UNSOLVED, "rhs": 3, "lhs": 2}),
        row(2, 1, UNSOLVED, seconds="1.0e+1"),
        row(3, 4, REFUTED, "fmb-500i", 1),  # the final line, without its newline
    ]
    out = tmp_path / "out.jsonl"
    out.write_text("\n".join(lines), encoding="utf-8")
    status_map, records = load_results(str(out))
    closed = propagate(status_map)
    kept = [r for r in records if r.status != UNSOLVED or (r.lhs, r.rhs) not in closed]
    derived = [pair for pair in closed if pair not in status_map]
    # (4, 2) and (2, 3) are derived, so their unsolved lines go; (2, 4) is new
    assert sorted(derived) == [(2, 3), (2, 4), (4, 2)] and len(kept) == 8

    assert propagate_log(str(out)) == len(derived)
    written = out.read_text(encoding="ascii").splitlines(keepends=True)
    assert written[: len(kept)] == [runner._record_line(record) for record in kept]
    assert not {line + "\n" for line in lines[:-1]} & set(written)  # not one was copied
    _, again = load_results(str(out))
    assert written == [runner._record_line(record) for record in again]


def test_a_log_naming_the_largest_law_id_loads_and_closes(tmp_path):
    top = closure.ROW_BITS - 1
    rows = [
        {"lhs": 1, "rhs": 2, "status": PROVEN, "method": "satur-500i", "stage": 2,
         "seconds": 0.5, "witness": "p"},
        {"lhs": 2, "rhs": top, "status": PROVEN, "method": "satur-500i", "stage": 2,
         "seconds": 0.5, "witness": "q"},
        {"lhs": 1, "rhs": top - 1, "status": REFUTED, "method": "fmb-500i", "stage": 1,
         "seconds": 0.5, "witness": "cm"},
        {"lhs": 3, "rhs": 1, "status": UNSOLVED, "method": None, "stage": None,
         "seconds": 0.5, "witness": None},
    ]
    out = tmp_path / "out.jsonl"
    _write_log(out, rows)
    status_map, _ = load_results(str(out))
    assert dict(status_map.items()) == {
        (1, 2): StatusEntry(PROVEN, "satur-500i"),
        (2, top): StatusEntry(PROVEN, "satur-500i"),
        (1, top - 1): StatusEntry(REFUTED, "fmb-500i"),
    }
    assert (3, 1) not in status_map and (top, 2) not in status_map
    assert dict(status_map.where(lambda entry: entry.status == REFUTED).items()) == {
        (1, top - 1): StatusEntry(REFUTED, "fmb-500i")
    }
    # R1 derives (1, top), then R2 (2, top - 1) and (top, top - 1)
    assert propagate_log(str(out)) == 3
    _, records = load_results(str(out))
    assert [(r.lhs, r.rhs, r.method) for r in records[-3:]] == [
        (1, top, "closure:R1"), (2, top - 1, "closure:R2"), (top, top - 1, "closure:R2")
    ]


@pytest.mark.parametrize("law", [closure.ROW_BITS, 10**12])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_law_id_past_the_bound_is_an_error_naming_its_line(tmp_path, capsys, law, side):
    # a bitset as wide as the id is never built: 10**12 bits would take 125 GB
    pair = {"lhs": law, "rhs": 1} if side == "lhs" else {"lhs": 1, "rhs": law}
    rows = [
        {"lhs": 1, "rhs": 2, "status": PROVEN, "method": "satur-500i", "stage": 2,
         "seconds": 0.5, "witness": "p"},
        {**pair, "status": PROVEN, "method": "satur-500i", "stage": 2,
         "seconds": 0.5, "witness": None},
    ]
    log = tmp_path / "out.jsonl"
    _write_log(log, rows)
    before = log.read_bytes()
    path = str(log)
    message = (
        f"{path}:2: pair {(pair['lhs'], pair['rhs'])} names law {law}, "
        f"but law ids run to {closure.ROW_BITS - 1}"
    )
    with pytest.raises(ValueError) as caught:
        load_results(path)
    assert str(caught.value) == message
    for argv in (["report", "--results", path], ["closure", "--results", path]):
        assert _cli(argv, capsys) == (1, "", f"error: {message}\n")
    assert log.read_bytes() == before
    # with a corpus, the corpus names the bound
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:2: .* but the corpus has 2 laws$"):
        load_results(path, laws=2)


def test_run_refuses_a_corpus_past_the_bound_before_creating_the_log(tmp_path):
    law = load_corpus(str(DATA / "desk.eqs")).equations[0]
    corpus = Corpus((law,) * closure.ROW_BITS)
    out = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match="law ids run to 65535, but the corpus has 65536 laws"):
        run(corpus, default_schedule(), RunConfig(str(out)))
    assert not out.exists()


def _campaign_log(tmp_path):
    """The hidden preorder log of the benchmark's campaign workload over 100
    laws, seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_laws", PERFBENCH / "laws.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(1)
    log = str(tmp_path / "campaign.jsonl")
    module.write_campaign_log(log, rng, module.campaign_truth(rng, 100, 10, 0.5), 0.3)
    return log


def test_closure_and_report_hold_no_record_per_line(tmp_path, capsys):
    # loading the log holds every record, closure and report stream it
    log = _campaign_log(tmp_path)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    loaded = peak(lambda: load_results(log))
    closing = peak(lambda: propagate_log(log))
    main(["report", "--results", log])  # the parser's first-use caches are no record's
    reporting = peak(lambda: main(["report", "--results", log]))
    assert "closure:R1" in capsys.readouterr().out
    assert closing < loaded / 4 and reporting < loaded / 4, (loaded, closing, reporting)


def test_readers_build_no_record_per_canonical_line(tmp_path, monkeypatch, capsys):
    # report, closure and verify fold rows; a ResultRecord is built only for
    # a line the pattern leaves to json.loads, and a campaign log has none
    log = _campaign_log(tmp_path)
    eqs = tmp_path / "hundred.eqs"
    eqs.write_text("x = x\n" * 100)
    built = []

    def counting(build):
        def wrapper(*args, **kwargs):
            built.append(args or kwargs)
            return build(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("eqimp.log.ResultRecord", counting(runner.ResultRecord))
    for _ in range(2):  # the log as written, then closed
        assert main(["report", "--results", log]) == 0
        assert main(["report", "--results", log, "--histogram"]) == 0
        load_results(log, laws=100, keep_records=False)  # verify's first pass
        # the first decided record carries no proof
        assert main(["verify", "--eqs", str(eqs), "--results", log]) == 2
        assert main(["closure", "--results", log]) == 0
    assert "closure:R1" in capsys.readouterr().out
    assert built == []
    assert len(load_results(log)[1]) == len(built) == 9900


def test_records_read_back_equal_checked_ones_and_others_stay_checked(tmp_path):
    # load_results builds each record it keeps through ResultRecord's checks,
    # and a record built any other way, or through dataclasses.replace, is
    # checked with the same messages
    records = load_results(_campaign_log(tmp_path))[1]
    assert len(records) == 9900
    for record in records:
        assert type(record) is ResultRecord
        assert record == ResultRecord(*dataclasses.astuple(record))
    decided = next(record for record in records if record.status != UNSOLVED)
    for change, message in (
        ({"rhs": decided.lhs}, "lhs and rhs must be distinct positive ids"),
        ({"status": "maybe"}, "unknown status 'maybe'"),
        ({"stage": None}, "decided records need method and stage"),
        ({"seconds": float("inf")}, "seconds must be finite and nonnegative"),
        ({"witness": 3}, "witness must be a string"),
    ):
        with pytest.raises(ValueError) as caught:
            dataclasses.replace(decided, **change)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            ResultRecord(**{**dataclasses.asdict(decided), **change})
        assert str(caught.value) == message


def test_loaded_records_share_one_string_per_status_and_method(tmp_path):
    # run --resume holds the loaded records, which would otherwise hold a
    # string of each line's own for its status and its method
    records = load_results(_campaign_log(tmp_path))[1]
    for field in ("status", "method"):
        values = [getattr(record, field) for record in records]
        assert len(values) > 10 * len(set(values))
        assert len({id(value) for value in values}) == len(set(values)), field


# an edge line's fields as their JSON text, in the writer's key order, on the
# pair (4, 5); the laws of _EDGE_LAWS have 1 -> 2 -> 3 proven and nothing of
# 4 or 5 decided, so closure derives (1, 3) alone, whatever the edge line holds
_EDGE_FIELDS = {"lhs": "4", "rhs": "5", "status": '"proven"', "method": '"satur-500i"',
                "stage": "2", "seconds": "0.25", "witness": "null"}
_EDGE_LAWS = "x = y\nx * y = z * w\nx * y = y * x\nx * (y * z) = (x * y) * z\nx * x = x\n"
_EDGES = [
    ("writer", {}, "\n"),
    ("lhs-minus-1", {"lhs": "-1"}, "\n"),
    ("lhs-0", {"lhs": "0"}, "\n"),
    ("lhs-01", {"lhs": "01"}, "\n"),
    ("lhs-is-rhs", {"lhs": "5"}, "\n"),
    ("stage-minus-0", {"stage": "-0"}, "\n"),
    ("stage-minus-1", {"stage": "-1"}, "\n"),
    ("decided-null-stage", {"stage": "null"}, "\n"),
    ("seconds-1e999", {"seconds": "1e999"}, "\n"),
    ("seconds-1e+999", {"seconds": "1e+999"}, "\n"),  # in the writer's exponent form
    ("seconds-minus", {"seconds": "-0.5"}, "\n"),
    ("seconds-int", {"seconds": "5"}, "\n"),
    ("seconds-0.50", {"seconds": "0.50"}, "\n"),
    ("seconds-5e-05", {"seconds": "5e-05"}, "\n"),
    ("status-bogus", {"status": '"bogus"'}, "\n"),
    ("decided-null-method", {"method": "null"}, "\n"),
    ("id-5000-digits", {"lhs": "7" * 5000}, "\n"),
    ("witness-escaped-slash", {"witness": '"a\\/b"'}, "\n"),
    ("no-final-newline", {}, ""),
    ("space-before-newline", {}, " \n"),
    ("unsolved-with-method-and-stage", {"status": '"unsolved"'}, "\n"),
]


def _edge_line(change, end):
    fields = {**_EDGE_FIELDS, **change}
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}" + end


def _oracle(line):
    """The record json.loads and ResultRecord read from the line, or the text
    of the error the log reader gives for it."""
    try:
        payload = json.loads(line)
    except ValueError as err:
        return f"bad record: {err}"
    try:
        return ResultRecord(**payload)
    except ValueError as err:
        return str(err)


def _cli(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("change, end", [edge[1:] for edge in _EDGES], ids=[e[0] for e in _EDGES])
def test_edge_lines_read_as_json_and_result_record_read_them(tmp_path, capsys, change, end):
    eqs = tmp_path / "laws.eqs"
    eqs.write_text(_EDGE_LAWS)
    corpus = load_corpus(str(eqs))
    stage = Schedule((MethodSpec("satur-500i", ENGINE_SATUR, Budget.of_steps(500)),))
    base = [
        dataclasses.replace(attempt_pair(corpus, lhs, rhs, stage), seconds=0.25)
        for lhs, rhs in ((1, 2), (2, 3))
    ]
    assert all(record.status == PROVEN for record in base)
    line = _edge_line(change, end)
    text = "".join(map(runner._record_line, base)) + line
    log = tmp_path / "edge.jsonl"
    log.write_text(text)
    path = str(log)
    expected = _oracle(line)
    if isinstance(expected, str):
        message = f"{path}:3: {expected}"
        with pytest.raises(ValueError) as caught:
            list(iter_rows(path))
        assert str(caught.value) == message
        for argv in (
            ["report", "--results", path],
            ["report", "--results", path, "--histogram"],
            ["verify", "--eqs", str(eqs), "--results", path],
            ["closure", "--results", path],
        ):
            assert _cli(argv, capsys) == (1, "", f"error: {message}\n"), argv
        assert log.read_text() == text
        return

    records = [*base, expected]
    assert _typed(ResultRecord(*row) for row in iter_rows(path)) == _typed(records)
    assert _cli(["report", "--results", path], capsys) == (0, render(summarize(records)), "")
    assert _cli(["report", "--results", path, "--histogram"], capsys) == (
        0, render(histogram(records)), ""
    )
    # verify reads the same records from the line as from the writer's line
    # for its record
    written = tmp_path / "written.jsonl"
    written.write_text("".join(map(runner._record_line, records)))
    verified = _cli(["verify", "--eqs", str(eqs), "--results", str(written)], capsys)
    assert _cli(["verify", "--eqs", str(eqs), "--results", path], capsys) == verified
    # closure writes every kept record as json.dumps does, then (1, 3)
    derived = ResultRecord(1, 3, PROVEN, "closure:R1", CLOSURE_STAGE, 0.0, None)
    assert _cli(["closure", "--results", path], capsys) == (0, "derived 1 new results\n", "")
    assert log.read_text() == "".join(
        json.dumps(dataclasses.asdict(record)) + "\n" for record in [*records, derived]
    )


def test_a_line_that_is_not_utf_8_is_an_error_naming_it(tmp_path, capsys):
    good = lambda lhs, rhs: runner._record_line(
        ResultRecord(lhs, rhs, UNSOLVED, None, None, 0.5, None)
    ).encode()

    def decoding(line):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as err:
            return str(err)

    bad = good(2, 1).replace(b'"method": null', b'"method": "caf\xe9"')
    assert f"position {bad.index(0xE9)}:" in decoding(bad)  # counted within the line
    # a line in the writer's form but for the byte, whose witness json's
    # string scanner would read with the byte as a lone surrogate
    witnessed = runner._record_line(ResultRecord(2, 1, UNSOLVED, None, None, 0.5, "step e"))
    bad_witness = witnessed.encode().replace(b"step e", b"step \xe9")
    assert _BLOCK_ROW.fullmatch(witnessed)
    before = b"".join(good(1, rhs) for rhs in range(2, 60))  # in the same decoded chunk
    log = tmp_path / "out.jsonl"
    path = str(log)
    for text, message in (
        (before + bad + good(2, 3), f"{path}:59: {decoding(bad)}"),
        (before + bad_witness + good(2, 3), f"{path}:59: {decoding(bad_witness)}"),
        # a format error before the line is still the first one reported
        (good(1, 2) + before + bad, f"{path}:2: duplicate record for pair (1, 2) (first at line 1)"),
    ):
        log.write_bytes(text)
        with pytest.raises(ValueError) as caught:
            list(iter_rows(path))
        assert str(caught.value) == message
        for argv in (["report", "--results", path], ["closure", "--results", path]):
            assert _cli(argv, capsys) == (1, "", f"error: {message}\n")
        assert log.read_bytes() == text


# json.dumps writes the log, so json is the oracle: witnesses with every kind
# of character it escapes (a lone high surrogate is followed by a letter, since
# json reads an escaped high and low surrogate back as one character)
_WITNESS_PIECES = (
    '"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "/", " ", "é", "€",
    "\U0001f600", "\ud800x", "\udfff", "step 1: rewrite at e", "x*y", "=",
)
_PLAIN_METHODS = ("fmb-500i", "satur-500i", "closure:R1", "")
_ESCAPED_METHODS = ('odd "stage"', "back\\slash", "naïve")
_SECONDS = (0, 0.0, 1e-07, 1e16, 1.7976931348623157e308, 5e-324, 0.1, 2.5, 17)


def _random_witness(rng):
    return "".join(rng.choice(_WITNESS_PIECES) for _ in range(rng.randrange(12)))


def _random_records(rng, count):
    pairs = [(lhs, rhs) for lhs in range(1, 80) for rhs in range(1, 80) if lhs != rhs]
    records = []
    for lhs, rhs in pairs[:count]:
        status = rng.choice((PROVEN, REFUTED, UNSOLVED))
        methods = _PLAIN_METHODS + _ESCAPED_METHODS + ((None,) if status == UNSOLVED else ())
        stages = (0, 1, 2, 12) + ((None,) if status == UNSOLVED else ())
        records.append(
            ResultRecord(
                lhs,
                rhs,
                status,
                rng.choice(methods),
                rng.choice(stages),
                rng.choice(_SECONDS + (rng.random(), 10 ** rng.uniform(-9, 20))),
                rng.choice((None, "saturation", _random_witness(rng))),
            )
        )
    return records


def _typed(records):
    # == on records takes 0 for 0.0; the log tells them apart
    return [(record, type(record.seconds)) for record in records]


def test_log_lines_are_json_dumps_lines_and_read_back(tmp_path):
    records = _random_records(random.Random(5), 3000)
    lines = [runner._record_line(record) for record in records]
    assert lines == [json.dumps(dataclasses.asdict(record)) + "\n" for record in records]
    out = tmp_path / "out.jsonl"
    out.write_text("".join(lines), encoding="ascii")
    _, loaded = load_results(str(out))
    assert _typed(loaded) == _typed(records)


def test_canonical_lines_load_without_json_loads(tmp_path, monkeypatch):
    records = [
        record
        for record in _random_records(random.Random(6), 3000)
        if type(record.seconds) is float and record.method not in _ESCAPED_METHODS
    ]
    out = tmp_path / "out.jsonl"
    out.write_text("".join(map(runner._record_line, records)), encoding="ascii")

    def refuse(*args, **kwargs):
        raise AssertionError("a canonical line went through json.loads")

    monkeypatch.setattr(json, "loads", refuse)
    status_map, loaded = load_results(str(out))
    assert _typed(loaded) == _typed(records)
    assert len(status_map) == sum(record.status != UNSOLVED for record in records)


def test_respaced_or_reordered_lines_read_as_the_same_records(tmp_path):
    rng = random.Random(7)
    records = _random_records(rng, 3000)
    lines = []
    for record in records:
        payload = dataclasses.asdict(record)
        if rng.random() < 0.5:
            keys = list(payload)
            rng.shuffle(keys)
            payload = {key: payload[key] for key in keys}
        separators = rng.choice(((",", ":"), (" ,", " : "), (", ", ": ")))
        lines.append(" " * rng.randrange(2) + json.dumps(payload, separators=separators))
    out = tmp_path / "out.jsonl"
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    _, loaded = load_results(str(out))
    assert _typed(loaded) == _typed(records)



@pytest.mark.parametrize("block_chars", [64, 1 << 10])
def test_loads_with_and_without_records_fold_one_status_map(tmp_path, monkeypatch, block_chars):
    # runs of writer lines the block pattern reads between runs of lines it
    # leaves to json.loads: respaced ones, integral seconds, escaped methods;
    # unsolved records in both
    rng = random.Random(8)
    records = _random_records(rng, 3000)
    rng.shuffle(records)
    plain, other = [], []
    for record in records:
        fits = type(record.seconds) is float and record.method not in _ESCAPED_METHODS
        (plain if fits else other).append(record)
    lines = []
    for start in range(0, len(records), 20):
        lines.extend(map(runner._record_line, plain[start:start + 20]))
        for record in other[start:start + 20]:
            if rng.random() < 0.5:
                lines.append(json.dumps(dataclasses.asdict(record), separators=(",", ":")) + "\n")
            else:
                lines.append(runner._record_line(record))
    out = tmp_path / "out.jsonl"
    out.write_text("".join(lines), encoding="ascii")
    monkeypatch.setattr("eqimp.log._BLOCK_CHARS", block_chars)
    # json's oracle: entries in first-appearance order of (status, method),
    # each entry's pairs in (lhs, rhs) order
    pairs = {}
    for line in lines:
        record = json.loads(line)
        if record["status"] != UNSOLVED:
            key = (record["status"], record["method"])
            pairs.setdefault(key, []).append((record["lhs"], record["rhs"]))
    expected = [
        (pair, StatusEntry(*key)) for key, entry_pairs in pairs.items() for pair in sorted(entry_pairs)
    ]
    with_records = list(load_results(str(out))[0].items())
    assert with_records == list(load_results(str(out), keep_records=False)[0].items())
    assert with_records == expected


def _closable_lines(rng, laws=12):
    """Writer lines over a hidden preorder on laws laws, a third of the pairs
    decided, with witnesses json escapes; one line in ten keeps its record
    but not the writer's text (seconds with a trailing zero, "/" or an
    accented letter escaped otherwise), one in ten has an integral seconds."""
    features = [rng.getrandbits(4) for _ in range(laws)]
    lines = []
    for lhs, rhs in itertools.permutations(range(1, laws + 1), 2):
        seconds = rng.choice((rng.random(), rng.choice(_SECONDS)))
        status, method, stage = UNSOLVED, None, None
        if rng.random() < 0.3:
            status = PROVEN if features[rhs - 1] & ~features[lhs - 1] == 0 else REFUTED
            method, stage = (("satur-500i", 2) if status == PROVEN else ("fmb-500i", 1))
        witness = rng.choice((None, _random_witness(rng)))
        line = runner._record_line(ResultRecord(lhs, rhs, status, method, stage, seconds, witness))
        if rng.random() < 0.1:
            text = repr(seconds)
            if "." in text and "e" not in text:
                line = line.replace(f'"seconds": {text},', f'"seconds": {text}0,')
            line = line.replace("/", "\\/").replace("\\u00e9", "\\u00E9")
        lines.append(line)
    return lines


def _block_cases():
    """(name, log text) for the block reader's tests."""
    rng = random.Random(12)
    writer = [runner._record_line(record) for record in _random_records(rng, 400)]
    respaced = [
        json.dumps(dataclasses.asdict(record), separators=rng.choice(((",", ":"), (", ", ": "))))
        + "\n"
        for record in _random_records(rng, 400)
    ]
    closable = _closable_lines(random.Random(13))
    # longer than any block, and a pair the other lines do not hold
    long = runner._record_line(ResultRecord(70, 71, PROVEN, "p", 2, 0.5, "step 1\n" * 6000))
    # characters str.splitlines would split a line at, raw in a witness: a
    # JSON string may hold these, but not the controls "\x0b" and "\x1c"
    breaks = json.dumps(
        {"lhs": 70, "rhs": 72, "status": "proven", "method": "p", "stage": 2,
         "seconds": 0.5, "witness": "a\u2028b\x85c\u2029d"},
        ensure_ascii=False,
    ) + "\n"
    control = breaks.replace("\x85", "\x0b").replace("\u2029", "\x1c")
    # a line in the writer's form, or nearly, failing one of the checks a
    # block makes column by column, or one its pattern makes
    edge = runner._record_line(ResultRecord(70, 73, PROVEN, "p", 2, 0.5, None))
    edges = {
        "same-ids": ('"rhs": 73', '"rhs": 70'),
        "infinite-seconds": ('"seconds": 0.5', '"seconds": 1e+999'),
        "decided-null-method": ('"method": "p"', '"method": null'),
        "decided-null-stage": ('"stage": 2', '"stage": null'),
        "law-past-the-bound": ('"rhs": 73', '"rhs": 70000'),
        "id-5000-digits": ('"lhs": 70', '"lhs": ' + "7" * 5000),
        "leading-space": ('{"lhs"', ' {"lhs"'),
        "leading-letter": ('{"lhs"', 'x{"lhs"'),
    }

    def lines(*pairs):
        # writer lines, decided by method "p" or "q" or unsolved
        return "".join(
            runner._record_line(
                ResultRecord(lhs, rhs, status, method, None if method is None else 2, 0.5, None)
            )
            for lhs, rhs, status, method in pairs
        )

    # lhs runs interleaving within a block: 70, 71, then 70 again (whose
    # second run repeats a pair of its first in the duplicate case)
    interleaved = [(70, 71, PROVEN, "p"), (70, 72, REFUTED, "q"), (71, 70, PROVEN, "p"),
                   (70, 73, PROVEN, "p"), (70, 74, UNSOLVED, None)]
    # decided and unsolved lines of one lhs alternating, over two entries
    alternating = [
        (75, rhs, *((PROVEN, "p"), (UNSOLVED, None), (REFUTED, "q"), (UNSOLVED, None))[rhs % 4])
        for rhs in range(76, 90)
    ]
    return [
        ("writer", "".join(writer)),
        ("respaced", "".join(respaced)),
        ("closable", "".join(closable)),
        # the first copy of the pair in an earlier block than the second
        ("duplicate", "".join(closable) + closable[3]),
        # a bad line after writer lines in its block
        ("bad-line", "".join(closable[:40]) + closable[40][:50] + "\n" + "".join(closable[41:])),
        ("long-line", "".join(closable[:20]) + long + "".join(closable[20:])),
        ("torn-tail", "".join(closable) + long[:-9]),
        ("raw-line-breaks", "".join(closable[:30]) + breaks + "".join(closable[30:])),
        ("raw-control", "".join(closable[:30]) + control + "".join(closable[30:])),
        *(
            (name, "".join(closable[:30]) + edge.replace(*edit) + "".join(closable[30:]))
            for name, edit in edges.items()
        ),
        # alone, so that a block of 1 KiB or more holds all their lines
        ("interleaved", lines(*interleaved)),
        ("interleaved-duplicate", lines(*interleaved, (70, 72, PROVEN, "p"))),
        ("alternating", lines(*alternating)),
    ]


def _status_items(read):
    """The items of read()'s status map, in order, or its ValueError's text."""
    try:
        return list(read()[0].items())
    except ValueError as err:
        return str(err)


def _rows_and_closure(path, text):
    """What iter_rows reads from the log with and without drop_torn_tail,
    load_results' status map, and the count and bytes propagate_log
    leaves, or each one's error."""
    outcome = []
    for torn in (False, True):
        pathlib.Path(path).write_bytes(text.encode("utf-8"))
        outcome.append(_read(lambda: iter_rows(path, drop_torn_tail=torn)))
        outcome.append(
            _status_items(lambda: load_results(path, drop_torn_tail=torn, keep_records=False))
        )
    try:
        outcome.append((propagate_log(path), pathlib.Path(path).read_bytes()))
    except ValueError as err:
        outcome.append(str(err))
    return outcome


@pytest.mark.parametrize("block_chars", [64, 1 << 10, log._BLOCK_CHARS])
@pytest.mark.parametrize(
    "name, text", _block_cases(), ids=[case[0] for case in _block_cases()]
)
def test_blocks_read_as_lines_do(tmp_path, monkeypatch, name, text, block_chars):
    # a block in the writer's form is read column by column, any other line
    # by line; the reader, forced to read every block line by line, gives
    # the same rows, closed log and error texts, whatever the block size
    path = str(tmp_path / "out.jsonl")
    columns = log._columns
    read = []

    def reading(*args):
        block = columns(*args)
        read.append(block is not None)
        return block

    monkeypatch.setattr("eqimp.log._BLOCK_CHARS", block_chars)
    monkeypatch.setattr("eqimp.log._columns", reading)
    blocks = _rows_and_closure(path, text)
    # one line a block: every line in the writer's form is read as a block
    assert any(read) or block_chars > 64
    readable = name in (
        "writer", "respaced", "closable", "long-line", "raw-line-breaks", "leading-space",
        "interleaved", "alternating",
    )
    assert (type(blocks[0]) is list) == readable
    if readable:  # as json.loads reads each line the file iterates
        oracle = tmp_path / "oracle.jsonl"
        oracle.write_bytes(text.encode("utf-8"))
        with open(oracle, encoding="utf-8") as handle:
            rows = [log.Row(**json.loads(line)) for line in handle if not line.isspace()]
        assert blocks[0] == _typed(rows)
        # entries in order of first appearance, each one's pairs sorted
        entries = {}
        for row in rows:
            if row.status != UNSOLVED:
                entries.setdefault((row.status, row.method), []).append(row[:2])
        assert blocks[1] == [
            (pair, StatusEntry(*key)) for key, pairs in entries.items() for pair in sorted(pairs)
        ]
    monkeypatch.setattr("eqimp.log._columns", lambda *args: None)
    assert blocks == _rows_and_closure(path, text)
    if name == "closable":
        assert type(blocks[4]) is tuple and blocks[4][0] > 0


def test_propagate_log_writes_json_dumps_lines(tmp_path):
    # records from a hidden preorder (i implies j when j's features are a
    # subset of i's), so closure derives without conflicts
    rng = random.Random(8)
    features = [rng.getrandbits(5) for _ in range(60)]
    truth = lambda lhs, rhs: features[rhs - 1] & ~features[lhs - 1] == 0
    rows = []
    for lhs in range(1, 61):
        for rhs in range(1, 61):
            if lhs == rhs:
                continue
            if rng.random() < 0.3:
                status, method, stage = (
                    (PROVEN, "satur-500i", 2) if truth(lhs, rhs) else (REFUTED, "fmb-500i", 1)
                )
            else:
                status, method, stage = UNSOLVED, None, None
            rows.append({"lhs": lhs, "rhs": rhs, "status": status, "method": method,
                         "stage": stage, "seconds": rng.random(),
                         "witness": _random_witness(rng)})
    lines = [json.dumps(row) + "\n" for row in rows]
    out = tmp_path / "out.jsonl"
    out.write_text("".join(lines), encoding="ascii")

    derived = propagate_log(str(out))
    with open(out, encoding="ascii") as handle:
        written = handle.readlines()
    kept, added = written[: len(written) - derived], written[len(written) - derived :]
    pairs = [(row["lhs"], row["rhs"]) for row in map(json.loads, added)]
    assert derived > 1000 and pairs == sorted(pairs)
    replaced = set(pairs)
    assert kept == [line for line, row in zip(lines, rows) if (row["lhs"], row["rhs"]) not in replaced]
    was = {(row["lhs"], row["rhs"]): row["status"] for row in rows}
    for line, (lhs, rhs) in zip(added, pairs):
        assert was[(lhs, rhs)] == UNSOLVED
        method = json.loads(line)["method"]
        assert method in ("closure:R1", "closure:R2", "closure:R3")
        status = PROVEN if truth(lhs, rhs) else REFUTED
        assert line == json.dumps({"lhs": lhs, "rhs": rhs, "status": status, "method": method,
                                   "stage": 0, "seconds": 0.0, "witness": None}) + "\n"


def test_closed_log_reads_back_to_its_bytes(tmp_path):
    # a hidden preorder on 10 laws, a quarter of the pairs decided: closure
    # derives by all three rules and leaves pairs unsolved
    rng = random.Random(2)
    features = [rng.getrandbits(4) for _ in range(10)]
    truth = lambda lhs, rhs: features[rhs - 1] & ~features[lhs - 1] == 0
    rows = []
    for lhs in range(1, 11):
        for rhs in range(1, 11):
            if lhs == rhs:
                continue
            row = {"lhs": lhs, "rhs": rhs, "status": UNSOLVED, "method": None,
                   "stage": None, "seconds": rng.random(), "witness": None}
            if rng.random() < 0.25:
                status = PROVEN if truth(lhs, rhs) else REFUTED
                row.update(status=status, method="satur-500i", stage=2, witness="p")
            rows.append(row)
    # a kept record whose method and witness JSON escapes
    odd = next(row for row in rows if row["status"] != UNSOLVED)
    odd.update(method='odd "stage" naïve', witness='step "1"\\ é\n\t\x00€\U0001f600')
    out = tmp_path / "out.jsonl"
    out.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    status_map, _ = load_results(str(out))
    derived = {pair: entry for pair, entry in propagate(status_map).items() if pair not in status_map}
    assert {entry.provenance for entry in derived.values()} == {
        "closure:R1", "closure:R2", "closure:R3"
    }

    assert propagate_log(str(out)) == len(derived)
    written = out.read_text(encoding="ascii")
    _, records = load_results(str(out))
    assert "".join(map(runner._record_line, records)) == written
    assert any(record.status == UNSOLVED for record in records)
    assert any(record.method == odd["method"] and record.witness == odd["witness"] for record in records)
    added = written.splitlines(keepends=True)[len(records) - len(derived) :]
    assert added == [
        runner._record_line(ResultRecord(*pair, entry.status, entry.provenance, 0, 0.0, None))
        for pair, entry in sorted(derived.items())
    ]


@pytest.mark.parametrize(
    "record",
    [
        ResultRecord(3, 7, PROVEN, "satur-500i", 2, 0.25, "step 1: é € \U0001f600 naïve"),
        ResultRecord(7, 3, UNSOLVED, None, None, 1.5, None),
    ],
)
def test_records_cross_processes(record):
    # worker processes send records back to the parent through pickle
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert dataclasses.replace(record, seconds=0.0).seconds == 0.0


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


def test_propagate_log_builds_no_entry_per_derived_pair(tmp_path, monkeypatch):
    # the hidden preorder of test_closure's comparison with the set-based
    # worklist, as a log: closure derives thousands of pairs, each written
    # from its rule's shared entry, with no StatusEntry built for it
    rng = random.Random(52)
    feats = [sum(1 << f for f in range(10) if rng.random() < 0.5) for _ in range(100)]
    truth = lambda lhs, rhs: feats[rhs - 1] & ~feats[lhs - 1] == 0
    rows = []
    for lhs, rhs in itertools.permutations(range(1, 101), 2):
        row = {"lhs": lhs, "rhs": rhs, "status": UNSOLVED, "method": None,
               "stage": None, "seconds": 0.5, "witness": None}
        if rng.random() < 0.3:
            status = PROVEN if truth(lhs, rhs) else REFUTED
            row.update(status=status, method="satur-500i", stage=2)
        rows.append(row)
    out = tmp_path / "out.jsonl"
    _write_log(out, rows)
    built = collections.Counter()
    entry_type = closure.StatusEntry

    def counting(*args, **kwargs):
        entry = entry_type(*args, **kwargs)
        built[entry.status, entry.provenance] += 1
        return entry

    monkeypatch.setattr(closure, "StatusEntry", counting)
    derived = propagate_log(str(out))
    monkeypatch.undo()
    assert derived > 2000
    assert all(count <= 1 for count in built.values()), built
    _, records = load_results(str(out))
    by_rule = [r for r in records if r.method in ("closure:R1", "closure:R2", "closure:R3")]
    assert len(by_rule) == derived and len(records) == len(rows)
    assert all(r.status == (PROVEN if truth(r.lhs, r.rhs) else REFUTED) for r in by_rule)
