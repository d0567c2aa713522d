"""Command-line interface: subcommands, output contracts, and exit codes.

Exit-code contract under test: 0 success, 1 usage/validation/parse errors,
2 consistency failures (closure conflicts, invalid witnesses).
"""

import dataclasses
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

from eqimp.cli import main
from eqimp.models import parse_countermodel, format_countermodel, Countermodel, MagmaTable
from eqimp.saturation import Proof, format_proof, parse_proof
from eqimp.terms import load_corpus
from eqimp.tptp import export_pair

DESK = str(pathlib.Path(__file__).parent / "data" / "desk.eqs")
SRC = str(pathlib.Path(__file__).parent.parent / "src")

MINI_SCHEDULE = "mini-fmb fmb steps 5000 max_size=4\nmini-satur satur steps 500\n"


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


# --- run ---------------------------------------------------------------------


def test_run_decides_small_corpus_and_resume_is_idempotent(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "x*y = x", "x = x"])
    assert "6 pairs: 6 decided, 0 unsolved" in capsys.readouterr().out
    before = pathlib.Path(log).read_bytes()
    sched = str(tmp_path / "sched.txt")
    assert main(["run", "--eqs", eqs, "--out", log, "--schedule", sched, "--resume"]) == 0
    assert pathlib.Path(log).read_bytes() == before


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


def test_cli_import_loads_no_process_pool():
    # cold starts of every command stay lean; only run --jobs N > 1 needs it
    code = "import sys, eqimp.cli; print(sorted(m for m in sys.modules if m in {0!r}))"
    probe = _python(
        "-c", code.format({"multiprocessing", "concurrent.futures.process"}),
        stdout=subprocess.PIPE, text=True,
    )
    out, _ = probe.communicate(timeout=60)
    assert probe.returncode == 0
    assert out.strip() == "[]"


def test_killed_parallel_run_resumes_to_the_uninterrupted_records(tmp_path, capsys):
    sched = _write(tmp_path / "sched.txt", MINI_SCHEDULE)
    log = tmp_path / "killed.jsonl"
    argv = ["run", "--eqs", DESK, "--out", str(log), "--schedule", sched, "--jobs", "2"]
    # its own session, so the kill reaches the workers as well
    child = _python(
        "-m", "eqimp.cli", *argv,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (log.exists() and b"\n" in log.read_bytes()):
            assert time.monotonic() < deadline
            time.sleep(0.005)
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


def test_run_bad_schedule_file_exits_1(tmp_path, capsys):
    eqs = _write(tmp_path / "one.eqs", "x*y = y*x\nx = x\n")
    sched = _write(tmp_path / "sched.txt", "s1 fmb bogus 100\n")
    assert main(["run", "--eqs", eqs, "--out", str(tmp_path / "o.jsonl"), "--schedule", sched]) == 1
    assert "line 1" in capsys.readouterr().err


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


def test_verify_unreadable_witness_exits_2(tmp_path, capsys):
    eqs, log = _mini_run(tmp_path, ["x*y = y*x", "(x*y)*z = x*(y*z)"])
    _tamper(log, (1, 2), lambda witness: "not a table at all")
    capsys.readouterr()
    assert main(["verify", "--eqs", eqs, "--results", log]) == 2
    assert "pair (1, 2)" in capsys.readouterr().err


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
