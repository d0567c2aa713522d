"""Command-line interface: subcommands, output contracts, and exit codes.

Exit-code contract under test: 0 success, 1 usage/validation/parse errors,
2 consistency failures (closure conflicts, invalid witnesses).
"""

import ast
import dataclasses
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from eqimp.cli import main
from eqimp.models import parse_countermodel, format_countermodel, Countermodel, MagmaTable
from eqimp.saturation import Proof, format_proof, parse_proof
from eqimp.terms import load_corpus
from eqimp.tptp import export_pair

DESK = str(pathlib.Path(__file__).parent / "data" / "desk.eqs")
SRC = str(pathlib.Path(__file__).parent.parent / "src")

MINI_SCHEDULE = "mini-fmb fmb steps 5000 max_size=4\nmini-satur satur steps 500\n"
# a model finder stage alone, so no decide-early phase proves desk's true
# implications first: each premise searches its whole step budget for them,
# and a desk run outlasts runner.POOL_AFTER, starts its workers and keeps
# working for about a second after that
KILL_SCHEDULE = "slow-fmb fmb steps 20000 max_size=6\n"


def _write(path, text):
    path.write_text(text)
    return str(path)


def _mini_run(tmp_path, laws, out_name="out.jsonl"):
    eqs = _write(tmp_path / "mini.eqs", "\n".join(laws) + "\n")
    sched = _write(tmp_path / "sched.txt", MINI_SCHEDULE)
    log = str(tmp_path / out_name)
    assert main(["run", "--eqs", eqs, "--out", log, "--schedule", sched]) == 0
    return eqs, log


# --- usage errors ------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["pairs"]) == 1  # missing --eqs
    assert main(["pairs", "--eqs", DESK, "--loud"]) == 1  # unknown flag
    assert "error" in capsys.readouterr().err


def test_missing_and_malformed_inputs_exit_1(tmp_path, capsys):
    assert main(["pairs", "--eqs", str(tmp_path / "nope.eqs")]) == 1
    bad = _write(tmp_path / "bad.eqs", "x ** = y\n")
    assert main(["pairs", "--eqs", bad]) == 1
    err = capsys.readouterr().err
    assert "bad.eqs:1" in err
    # nested past the parser's limit, and past Python's recursion limit
    deep = _write(tmp_path / "deep.eqs", "x*y=y*x\n" + _nested(1200) + "=x\n")
    assert main(["pairs", "--eqs", deep]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}:2: parentheses nested deeper than 200 at column 201")


def _nested(depth):
    """x wrapped as (x*y) depth times."""
    return "(" * depth + "x" + "*y)" * depth


# --- pairs -------------------------------------------------------------------


def test_pairs_counts_desk_corpus(capsys):
    assert main(["pairs", "--eqs", DESK]) == 0
    out = capsys.readouterr().out
    assert "equations: 20" in out
    assert "pairs: 380" in out


# --- export-tptp -------------------------------------------------------------


def test_export_single_pair_matches_library_output(tmp_path, capsys):
    eqs = _write(tmp_path / "two.eqs", "x*y = y*x\n(x*y)*z = x*(y*z)\n")
    out_dir = tmp_path / "problems"
    assert main(["export-tptp", "--eqs", eqs, "--out", str(out_dir), "--pair", "1,2"]) == 0
    corpus = load_corpus(eqs)
    golden = export_pair(corpus.by_id(1), corpus.by_id(2))
    assert (out_dir / "p1_2.p").read_text() == golden
    assert "wrote 1 problem" in capsys.readouterr().out


def test_export_all_pairs_writes_one_file_each(tmp_path):
    out_dir = tmp_path / "problems"
    assert main(["export-tptp", "--eqs", DESK, "--out", str(out_dir)]) == 0
    assert len(list(out_dir.glob("*.p"))) == 380


def test_export_bad_pair_exits_1(tmp_path):
    eqs = _write(tmp_path / "two.eqs", "x*y = y*x\nx*y = x\n")
    assert main(["export-tptp", "--eqs", eqs, "--out", str(tmp_path / "o"), "--pair", "1;2"]) == 1
    assert main(["export-tptp", "--eqs", eqs, "--out", str(tmp_path / "o"), "--pair", "1,9"]) == 1


def test_export_writes_nothing_for_a_pair_outside_the_corpus(tmp_path, capsys):
    # a law paired with itself is no ordered pair, an id past the corpus is no
    # id, and neither is one int() reads but that is not ASCII digits; each
    # fails before the output directory is made
    eqs = _write(tmp_path / "two.eqs", "x*y = y*x\nx*y = x\n")
    out_dir = tmp_path / "o"
    for pair in ("1,1", "1,9", "0,2", "+1,2", "1_0,2", "\u0661,2", "1, 2"):
        assert main(["export-tptp", "--eqs", eqs, "--out", str(out_dir), "--pair", pair]) == 1
        assert f"--pair {pair}: not two distinct ids" in capsys.readouterr().err
        assert not out_dir.exists()


# --- run ---------------------------------------------------------------------


def test_run_decides_small_corpus_and_resume_is_idempotent(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    assert "6 pairs: 6 decided, 0 unsolved" in capsys.readouterr().out
    before = pathlib.Path(log).read_bytes()
    stat = os.stat(log)
    sched = str(tmp_path / "sched.txt")
    assert main(["run", "--eqs", eqs, "--out", log, "--schedule", sched, "--resume"]) == 0
    assert pathlib.Path(log).read_bytes() == before
    after = os.stat(log)  # left in place, not rewritten
    assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)


def test_run_default_schedule_and_jobs(tmp_path, capsys):
    eqs = _write(tmp_path / "triv.eqs", "x = y\nu = w\n")
    log = str(tmp_path / "out.jsonl")
    assert main(["run", "--eqs", eqs, "--out", log, "--jobs", "2"]) == 0
    assert "2 pairs: 2 decided" in capsys.readouterr().out


def _python(*args, **kwargs):
    """Popen of a fresh interpreter that imports eqimp from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}


def _workers_of(pid):
    """Pids of the spawned worker processes whose parent is pid, from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
            cmdline = pathlib.Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue  # gone meanwhile
        # the fields after the parenthesized command name: state, then ppid
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid and b"spawn_main" in cmdline:
            found.append(int(entry))
    return found


# the kill tests find the run's workers in the process table under /proc
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc to list workers")


def _wait_for_workers(child, log):
    """Return once the run has written a record and spawned its workers."""
    deadline = time.monotonic() + 60
    while not (log.exists() and b"\n" in log.read_bytes() and _workers_of(child.pid)):
        assert child.poll() is None, "the run ended without starting workers"
        assert time.monotonic() < deadline
        time.sleep(0.005)


def test_cli_import_loads_no_process_pool():
    # cold starts of every command stay lean; only a run --jobs N > 1 that
    # outlasts runner.POOL_AFTER needs it
    code = "import sys, eqimp.cli; print(sorted(m for m in sys.modules if m in {0!r}))"
    probe = _python("-c", code.format(POOL_MODULES), stdout=subprocess.PIPE, text=True)
    out, _ = probe.communicate(timeout=60)
    assert probe.returncode == 0
    assert out.strip() == "[]"


def _loaded_after(code):
    """The eqimp modules a fresh interpreter holds after running code, which
    may print lines of its own first."""
    probe = _python("-c", f"import sys; {code}; print(sorted(sys.modules))", stdout=subprocess.PIPE,
                    text=True)
    out, _ = probe.communicate(timeout=60)
    assert probe.returncode == 0
    return {name[len("eqimp."):] for name in ast.literal_eval(out.splitlines()[-1])
            if name.startswith("eqimp.")}


@pytest.mark.parametrize("command, runs, skips", [
    ("pairs", "terms", {"models", "saturation", "runner", "closure", "report"}),
    ("closure", "log", {"models", "saturation", "terms", "tptp", "runner"}),
    ("report", "report", {"models", "saturation", "terms", "tptp", "runner"}),
    ("verify", "models", {"runner", "report"}),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command, runs, skips):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    argv = [command, "--eqs", eqs] if command == "pairs" else [command, "--results", log]
    if command == "verify":
        argv += ["--eqs", eqs]
    loaded = _loaded_after(f"from eqimp.cli import main; assert main({argv!r}) == 0")
    assert runs in loaded
    assert not loaded & skips


def test_package_import_loads_no_submodule_and_serves_every_export():
    assert _loaded_after("import eqimp") == set()
    code = "import eqimp; from eqimp import *; assert set(eqimp.__all__) <= globals().keys()"
    assert {"models", "saturation", "terms", "tptp"} <= _loaded_after(code)
    with pytest.raises(ImportError):
        from eqimp import no_such_name  # noqa: F401


# the names perfbench/inprocess.py's traced pass wraps on cli, each with the
# module that defines it
CLI_TRACED = {
    "verify_equation": "models", "eval_term": "models", "parse_countermodel": "models",
    "parse_proof": "saturation", "replay_proof": "saturation", "skolemize": "tptp",
    "load_corpus": "terms", "load_results": "log", "propagate_log": "log",
    "summarize": "report", "histogram": "report", "render": "report",
}


def test_the_traced_pass_finds_every_name_it_wraps():
    # on cli they resolve on first use, from a fresh interpreter too
    code = (
        "import importlib, eqimp.cli as cli; "
        f"assert all(getattr(cli, name) is getattr(importlib.import_module('eqimp.' + module), name) "
        f"for name, module in {CLI_TRACED!r}.items())"
    )
    assert set(CLI_TRACED.values()) <= _loaded_after(code)
    from eqimp import models, runner

    for name in ("find_countermodel", "saturate", "format_countermodel", "format_proof",
                 "skolemize", "propagate", "load_results"):
        assert callable(getattr(runner, name))
    assert callable(models.verify_equation)


def test_a_command_calls_the_name_set_on_cli_before_it_runs(monkeypatch, capsys):
    from eqimp import cli

    read = []

    def recording(path):
        read.append(path)
        return load_corpus(path)

    monkeypatch.setattr(cli, "load_corpus", recording)
    assert main(["pairs", "--eqs", DESK]) == 0
    assert read == [DESK]
    assert capsys.readouterr().out == "equations: 20\npairs: 380\n"


def test_short_parallel_run_starts_no_workers(tmp_path):
    eqs = _write(tmp_path / "mini.eqs", "x*y = y*x\nx*y = x\nx = x\n")
    sched = _write(tmp_path / "sched.txt", MINI_SCHEDULE)
    argv = ["run", "--eqs", eqs, "--out", str(tmp_path / "out.jsonl"), "--schedule", sched,
            "--jobs", "2"]
    code = (
        "import sys; from eqimp.cli import main; assert main({0!r}) == 0; "
        "print(sorted(m for m in sys.modules if m in {1!r}))"
    )
    probe = _python("-c", code.format(argv, POOL_MODULES), stdout=subprocess.PIPE, text=True)
    out, _ = probe.communicate(timeout=60)
    assert probe.returncode == 0
    assert out.splitlines() == ["6 pairs: 6 decided, 0 unsolved", "[]"]


@needs_proc
def test_killed_parallel_run_resumes_to_the_uninterrupted_records(tmp_path, capsys):
    sched = _write(tmp_path / "sched.txt", KILL_SCHEDULE)
    log = tmp_path / "killed.jsonl"
    argv = ["run", "--eqs", DESK, "--out", str(log), "--schedule", sched, "--jobs", "2"]
    # its own session, so the kill reaches the workers as well
    child = _python(
        "-m", "eqimp.cli", *argv,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        _wait_for_workers(child, log)
    finally:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    assert len(log.read_bytes().splitlines()) < 380  # cut short

    assert main([*argv, "--resume"]) == 0
    reference = str(tmp_path / "reference.jsonl")
    assert main(["run", "--eqs", DESK, "--out", reference, "--schedule", sched]) == 0
    assert "380 pairs" in capsys.readouterr().out
    strip = lambda text: sorted(re.sub(r'"seconds": [^,]+, ', "", text).splitlines())
    assert strip(log.read_text()) == strip(pathlib.Path(reference).read_text())


@needs_proc
def test_workers_exit_when_the_run_alone_is_killed(tmp_path):
    sched = _write(tmp_path / "sched.txt", KILL_SCHEDULE)
    log = tmp_path / "orphans.jsonl"
    argv = ["run", "--eqs", DESK, "--out", str(log), "--schedule", sched, "--jobs", "2"]
    child = _python(
        "-m", "eqimp.cli", *argv,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    group = child.pid  # the run leads its own session, workers included
    try:
        _wait_for_workers(child, log)
        os.kill(child.pid, signal.SIGKILL)  # the run only, not its workers
        child.wait(timeout=60)
        assert len(log.read_bytes().splitlines()) < 380  # cut short
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break  # no process of the run is left
            assert time.monotonic() < deadline, "workers outlived the killed run"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=60)


def test_run_bad_schedule_file_exits_1(tmp_path, capsys):
    eqs = _write(tmp_path / "one.eqs", "x*y = y*x\nx = x\n")
    for stage in ("s1 fmb bogus 100", "s1 satur seconds nan", "s1 satur seconds inf"):
        sched = _write(tmp_path / "sched.txt", stage + "\n")
        argv = ["run", "--eqs", eqs, "--out", str(tmp_path / "o.jsonl"), "--schedule", sched]
        assert main(argv) == 1
        assert "line 1" in capsys.readouterr().err


def test_resume_rejects_a_log_of_another_corpus(tmp_path, capsys):
    _, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    before = pathlib.Path(log).read_bytes()
    eqs = _write(tmp_path / "two.eqs", "x*y = y*x\nx*y = x\n")
    sched = str(tmp_path / "sched.txt")
    capsys.readouterr()
    assert main(["run", "--eqs", eqs, "--out", log, "--schedule", sched, "--resume"]) == 1
    message = f"error: {log}:2: pair (1, 3) names law 3, but the corpus has 2 laws"
    assert capsys.readouterr().err.startswith(message)
    assert pathlib.Path(log).read_bytes() == before
    assert main(["verify", "--eqs", eqs, "--results", log]) == 1
    assert capsys.readouterr().err.startswith(message)


# --- closure -----------------------------------------------------------------


def test_resume_retries_a_record_cut_short_by_a_killed_run(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    text = pathlib.Path(log).read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    pathlib.Path(log).write_text(text[: len(text) - len(last) // 2 - 1])
    sched = str(tmp_path / "sched.txt")
    assert main(["run", "--eqs", eqs, "--out", log, "--schedule", sched, "--resume"]) == 0
    assert "6 pairs: 6 decided, 0 unsolved" in capsys.readouterr().out
    # one parsable record per pair: load_results rejects duplicates
    assert main(["report", "--results", log]) == 0
    assert len(pathlib.Path(log).read_text().splitlines()) == 6


def _write_log(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return str(path)


def test_closure_derives_and_is_idempotent(tmp_path, capsys):
    log = _write_log(
        tmp_path / "r.jsonl",
        [
            {"lhs": 1, "rhs": 2, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.1, "witness": "p"},
            {"lhs": 1, "rhs": 3, "status": "refuted", "method": "fmb-500i",
             "stage": 1, "seconds": 0.1, "witness": "cm"},
        ],
    )
    assert main(["closure", "--results", log]) == 0
    assert "derived 1 new results" in capsys.readouterr().out
    assert main(["closure", "--results", log]) == 0
    assert "derived 0 new results" in capsys.readouterr().out


def test_closure_leaves_a_closed_log_untouched(tmp_path, capsys):
    _, log = _mini_run(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)", "x = x"])
    assert main(["closure", "--results", log]) == 0
    capsys.readouterr()
    before = os.stat(log)
    text = pathlib.Path(log).read_bytes()
    assert main(["closure", "--results", log]) == 0
    assert "derived 0 new results" in capsys.readouterr().out
    after = os.stat(log)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert pathlib.Path(log).read_bytes() == text


def test_closure_conflict_exits_2(tmp_path, capsys):
    log = _write_log(
        tmp_path / "r.jsonl",
        [
            {"lhs": 1, "rhs": 2, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.1, "witness": "p"},
            {"lhs": 1, "rhs": 3, "status": "refuted", "method": "fmb-500i",
             "stage": 1, "seconds": 0.1, "witness": "cm"},
            {"lhs": 2, "rhs": 3, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.1, "witness": "q"},
        ],
    )
    assert main(["closure", "--results", log]) == 2
    assert "inconsistent" in capsys.readouterr().err


def test_closure_rejects_a_malformed_record_naming_its_line(tmp_path, capsys):
    log = _write_log(
        tmp_path / "r.jsonl",
        [
            {"lhs": 1, "rhs": 2, "status": "proven", "method": "satur-500i",
             "stage": 2, "seconds": 0.1, "witness": "p"},
            {"lhs": "a", "rhs": 3, "status": "refuted", "method": "fmb-500i",
             "stage": 1, "seconds": 0.1, "witness": "cm"},
        ],
    )
    before = pathlib.Path(log).read_text()
    assert main(["closure", "--results", log]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:2: ")
    assert "Traceback" not in err
    assert pathlib.Path(log).read_text() == before


@pytest.mark.parametrize(
    "line, message",
    [
        # canonical, and with the keys reordered
        ('{"lhs": 1%s, "rhs": 2, "status": "unsolved", "method": null, "stage": null, '
         '"seconds": 1.0, "witness": null}' % ("0" * 5000), "Exceeds the limit"),
        ('{"rhs": 2, "lhs": 1%s, "status": "unsolved", "method": null, "stage": null, '
         '"seconds": 1.0, "witness": null}' % ("0" * 5000), "Exceeds the limit"),
        ('{"lhs": 1, "lhs": 3, "rhs": 2, "status": "unsolved", "method": null, '
         '"stage": null, "seconds": 1, "witness": null}', "repeated key 'lhs'"),
        ("[" * 100_000, "maximum recursion depth"),
        # canonical up to the witness
        ('{"lhs": 1, "rhs": 2, "status": "unsolved", "method": null, "stage": null, '
         '"seconds": 1.0, "witness": "a\tb"}', "Invalid control character"),
        ('{"lhs": 1, "rhs": 2, "status": "unsolved", "method": null, "stage": null, '
         '"seconds": 1.0, "witness": null} {}', "Extra data"),
    ],
    ids=["huge-int", "huge-int-reordered", "repeated-key", "deep-array", "raw-tab", "extra"],
)
def test_report_names_the_line_of_an_unreadable_record(tmp_path, capsys, line, message):
    if "Exceeds" in message and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    good = ('{"lhs": 3, "rhs": 4, "status": "unsolved", "method": null, "stage": null, '
            '"seconds": 1.0, "witness": null}')
    log = _write(tmp_path / "r.jsonl", good + "\n" + line + "\n")
    assert main(["report", "--results", log]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:2: bad record: ")
    assert message in err


# --- report ------------------------------------------------------------------


def test_report_table_and_csv(tmp_path, capsys):
    _, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    capsys.readouterr()
    assert main(["report", "--results", log]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == ["Method", "Refuted", "Proven", "Total"]
    assert table.splitlines()[-1].startswith("Total")
    assert main(["report", "--results", log, "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "Method,Refuted,Proven,Total"
    assert main(["report", "--results", log, "--histogram"]) == 0
    hist = capsys.readouterr().out
    assert hist.splitlines()[0].split()[:2] == ["Method", "Status"]


# --- verify ------------------------------------------------------------------


def test_verify_accepts_honest_log(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = u*w", "x = x"])
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_counts_saturation_refutations_as_unchecked(tmp_path, capsys):
    eqs = _write(tmp_path / "two.eqs", "x*y = y*x\n(x*y)*z = x*(y*z)\n")
    sched = _write(tmp_path / "sched.txt", "only-satur satur steps 500\n")
    log = str(tmp_path / "out.jsonl")
    assert main(["run", "--eqs", eqs, "--out", log, "--schedule", sched]) == 0
    assert pathlib.Path(log).read_text().count('"witness": "saturation"') == 2
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 0
    assert capsys.readouterr().out == (
        "verified 0 witnesses and 0 closure records across 2 records; "
        "2 saturation refutations are unchecked\n"
    )


def test_verify_rejects_a_closure_record_no_rule_derives(tmp_path, capsys):
    # commutativity does not imply associativity, and nothing else in the
    # log derives it
    eqs = _write(tmp_path / "two.eqs", "x*y = y*x\n(x*y)*z = x*(y*z)\n")
    row = {"lhs": 1, "rhs": 2, "status": "proven", "method": "closure:R1", "stage": 0,
           "seconds": 0.0, "witness": None}
    log = _write_log(tmp_path / "out.jsonl", [row])
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2): closure does not derive" in capsys.readouterr().err


def test_verify_rederives_honest_closure_records(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    rows = [json.loads(line) for line in open(log)]
    # (3, 2) made unsolved: closure derives its refutation from (1, 3) and (1, 2)
    for row in rows:
        if (row["lhs"], row["rhs"]) == (3, 2):
            row.update(status="unsolved", method=None, stage=None, witness=None)
    _write_log(pathlib.Path(log), rows)
    assert main(["closure", "--results", log]) == 0
    assert "derived 1 new results" in capsys.readouterr().out
    assert main(["verify", "--eqs", eqs, "--results", log]) == 0
    assert "verified 5 witnesses and 1 closure records across 6 records" in capsys.readouterr().out
    closed = [json.loads(line) for line in open(log)]
    # with its status flipped, or a premise gone, the record no longer follows
    for edit in (
        lambda rows: [dict(r, status="proven") if r["stage"] == 0 else r for r in rows],
        lambda rows: [r for r in rows if (r["lhs"], r["rhs"]) != (1, 3)],
    ):
        _write_log(pathlib.Path(log), edit(closed))
        assert main(["verify", "--eqs", eqs, "--results", log]) == 2
        assert "pair (3, 2): closure does not derive" in capsys.readouterr().err


def _tamper(log, pair, mutate):
    rows = [json.loads(line) for line in open(log)]
    for row in rows:
        if (row["lhs"], row["rhs"]) == pair:
            row["witness"] = mutate(row["witness"])
    _write_log(pathlib.Path(log), rows)


def test_verify_tampered_countermodel_exits_2_naming_pair(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)"])

    def brk(witness):
        cm = parse_countermodel(witness)
        entries = list(cm.table.entries)
        # make the table non-commutative at (0, 1) so the premise fails
        entries[1] = (entries[2] + 1) % cm.table.size
        return format_countermodel(
            Countermodel(MagmaTable(cm.table.size, tuple(entries)), cm.assignment)
        )

    _tamper(log, (1, 2), brk)
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    err = capsys.readouterr().err
    assert "pair (1, 2)" in err and "premise" in err
    # a format error anywhere in the log is reported before any witness is checked
    with open(log, "a") as handle:
        handle.write("{}\n")
    assert main(["verify", "--eqs", eqs, "--results", log]) == 1
    assert capsys.readouterr().err.startswith(f"error: {log}:3: record keys must be exactly")


def test_verify_tampered_proof_exits_2(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = u*w", "x*y = y*x"])

    def brk(witness):
        proof = parse_proof(witness)
        last = proof.steps[-1]
        broken = proof.steps[:-1] + (dataclasses.replace(last, after=last.before),)
        return format_proof(Proof(broken))

    _tamper(log, (1, 2), brk)
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2)" in capsys.readouterr().err


def test_verify_rejects_a_step_naming_another_equation(tmp_path, capsys):
    # every step of a proof of (2, 1) rewrites with premise 2; the same steps
    # credited to equation 1 are not that premise's proof
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = u*w"])
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 0
    assert " with eq 2 " in pathlib.Path(log).read_text()
    _tamper(log, (2, 1), lambda witness: witness.replace(" with eq 2 ", " with eq 1 "))
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (2, 1): proof rejected at step 1" in capsys.readouterr().err


def test_verify_rejects_a_misnumbered_step(tmp_path, capsys):
    # renumbering the steps leaves every rewrite replayable, but the witness
    # no longer reads as a proof trace
    eqs, log = _mini_run(tmp_path, ["x*y = u*w", "x*y = y*x"])
    _tamper(log, (1, 2), lambda witness: witness.replace("step 1:", "step 7:", 1))
    assert "step 7: " in pathlib.Path(log).read_text()
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2): unreadable proof: step 7 on line 1" in capsys.readouterr().err


def test_verify_unreadable_witness_exits_2(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)"])
    _tamper(log, (1, 2), lambda witness: "not a table at all")
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2)" in capsys.readouterr().err
    # position 7.0 names the same subterm as 1.0 if any nonzero step meant
    # "right", so the proof would still replay; it must not parse
    eqs, log = _mini_run(tmp_path, ["x = y", "x*(y*z) = (x*y)*z"])
    _tamper(log, (1, 2), lambda witness: witness.replace("rewrite at 1.0 ", "rewrite at 7.0 ", 1))
    assert "rewrite at 7.0 " in pathlib.Path(log).read_text()
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2): unreadable proof" in capsys.readouterr().err
    # a proof term nested past the parser's limit is unreadable, not a crash
    deep = f"step 1: rewrite at e with eq 1 under {{}}: {_nested(1200)} ==> x"
    _tamper(log, (1, 2), lambda witness: deep)
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2): unreadable proof: parentheses nested deeper" in capsys.readouterr().err


def test_verify_rejects_numbers_the_formatters_never_print(tmp_path, capsys):
    # int() reads a sign or a non-ASCII digit as part of a number, and a
    # regex \d the digit; a witness must spell numbers as the formatters do
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)", "x*y = u*w"])
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 0
    clean = [json.loads(line) for line in open(log)]
    witnesses = {(row["lhs"], row["rhs"]): row["witness"] for row in clean}
    assert witnesses[(2, 1)] == "2\n0 0\n1 1\nx=0 y=1"
    assert witnesses[(3, 1)].startswith("step 1: rewrite at e with eq 3 ")
    for pair, old, new in (
        ((2, 1), "2\n", "\u0662\n"),
        ((2, 1), "\n1 1\n", "\n1 \u0661\n"),
        ((2, 1), "y=1", "y=+1"),
        ((2, 1), "y=1", "y=\u0661"),
        ((3, 1), "step 1:", "step \u0661:"),
        ((3, 1), " with eq 3 ", " with eq \u0663 "),
    ):
        _write_log(pathlib.Path(log), clean)
        _tamper(log, pair, lambda witness: witness.replace(old, new, 1))
        capsys.readouterr()
        assert main(["verify", "--eqs", eqs, "--results", log]) == 2
        assert f"pair {pair}" in capsys.readouterr().err


def test_verify_rejects_assignment_outside_the_table(tmp_path, capsys):
    # the table is commutative and associative; negative or oversized
    # assignment values must not make it look like a countermodel
    eqs = _write(tmp_path / "mini.eqs", "x*y = y*x\n(x*y)*z = x*(y*z)\n")
    for assignment, message in (
        ("x=-2 y=0 z=-1", "'x=-2' is not an element 0..1"),
        ("x=0 y=2 z=0", "'y=2' is not an element 0..1"),
    ):
        row = {"lhs": 1, "rhs": 2, "status": "refuted", "method": "fmb", "stage": 1,
               "seconds": 0.0, "witness": f"2\n0 0\n0 1\n{assignment}"}
        log = _write_log(tmp_path / "out.jsonl", [row])
        capsys.readouterr()
        assert main(["verify", "--eqs", eqs, "--results", log]) == 2
        err = capsys.readouterr().err
        assert "pair (1, 2)" in err and message in err
