"""Command-line entry point binding the pipeline: corpus inspection, problem
export, staged runs, closure over logs, reporting, and witness verification.

Exit codes are frozen for scripting: 0 success, 1 usage/validation/parse
errors, 2 consistency failures (a closure conflict or an invalid witness).
"""

from __future__ import annotations

import argparse
import sys

from .closure import PROVEN, ConsistencyError
from .models import eval_term, parse_countermodel, verify_equation
from .report import FORMAT_CSV, FORMAT_TABLE, histogram, render, summarize
from .runner import (
    UNSOLVED,
    RunConfig,
    default_schedule,
    load_results,
    load_schedule,
    propagate_log,
)
from .runner import run as run_schedule
from .saturation import parse_proof, replay_proof
from .terms import enumerate_pairs, load_corpus, pair_count
from .tptp import export_directory, skolemize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default SystemExit(2) would collide
    # with the consistency-failure code
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eqimp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("pairs", help="count a corpus and its ordered pairs")
    p.add_argument("--eqs", required=True, help="equation file, one law per line")

    p = sub.add_parser("export-tptp", help="write one CNF problem file per pair")
    p.add_argument("--eqs", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pair", help="export only this <lhsId>,<rhsId> pair")

    p = sub.add_parser("run", help="decide every ordered pair with the staged schedule")
    p.add_argument("--eqs", required=True)
    p.add_argument("--out", required=True, help="results log (JSON lines)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--schedule", default="default", help="schedule file, or 'default'")
    p.add_argument("--resume", action="store_true", help="keep decided records, retry the rest")

    p = sub.add_parser("closure", help="derive further results by implication transitivity")
    p.add_argument("--results", required=True)

    p = sub.add_parser("report", help="summarize a results log")
    p.add_argument("--results", required=True)
    p.add_argument("--format", choices=[FORMAT_TABLE, FORMAT_CSV], default=FORMAT_TABLE)
    p.add_argument("--histogram", action="store_true", help="solve-time histogram instead")

    p = sub.add_parser("verify", help="re-check every witness in a results log")
    p.add_argument("--eqs", required=True)
    p.add_argument("--results", required=True)
    return parser


def _cmd_pairs(args) -> int:
    corpus = load_corpus(args.eqs)
    print(f"equations: {corpus.count}")
    print(f"pairs: {pair_count(corpus.count)}")
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    left, sep, right = text.partition(",")
    if not sep:
        raise ValueError("--pair expects <lhsId>,<rhsId>")
    return int(left), int(right)


def _cmd_export_tptp(args) -> int:
    corpus = load_corpus(args.eqs)
    pairs = [_parse_pair(args.pair)] if args.pair else enumerate_pairs(corpus)
    written = export_directory(corpus, pairs, args.out)
    print(f"wrote {written} problem files to {args.out}")
    return 0


def _cmd_run(args) -> int:
    corpus = load_corpus(args.eqs)
    if args.schedule == "default":
        schedule = default_schedule()
    else:
        schedule = load_schedule(args.schedule)
    config = RunConfig(args.out, workers=args.jobs, resume=args.resume)
    records = run_schedule(corpus, schedule, config)
    undecided = sum(1 for record in records if record.status == UNSOLVED)
    print(f"{len(records)} pairs: {len(records) - undecided} decided, {undecided} unsolved")
    return 0


def _cmd_closure(args) -> int:
    derived = propagate_log(args.results)
    print(f"derived {derived} new results")
    return 0


def _cmd_report(args) -> int:
    _, records = load_results(args.results)
    shaped = histogram(records) if args.histogram else summarize(records)
    sys.stdout.write(render(shaped, args.format))
    return 0


def _check_witness(corpus, record) -> tuple[bool, str | None]:
    """(was a blob actually re-checked, failure description or None)."""
    if record.status == UNSOLVED or (record.method or "").startswith("closure:"):
        return False, None
    premise = corpus.by_id(record.lhs)
    conclusion = corpus.by_id(record.rhs)
    if record.status == PROVEN:
        if record.witness is None:
            return True, "proven record has no proof"
        try:
            proof = parse_proof(record.witness)
        except ValueError as err:
            return True, f"unreadable proof: {err}"
        outcome = replay_proof(proof, premise, skolemize(conclusion))
        if not outcome.accepted:
            return True, f"proof rejected at step {outcome.failed_step + 1}"
        return True, None
    if record.witness == "saturation":
        return False, None  # refuted without a finite witness
    if record.witness is None:
        return True, "refuted record has no countermodel"
    try:
        cm = parse_countermodel(record.witness)
    except ValueError as err:
        return True, f"unreadable countermodel: {err}"
    if verify_equation(cm.table, premise) is not None:
        return True, "countermodel does not satisfy the premise"
    try:
        left = eval_term(conclusion.lhs, cm.table, cm.assignment)
        right = eval_term(conclusion.rhs, cm.table, cm.assignment)
    except IndexError:
        return True, "countermodel assignment is incomplete"
    if left == right:
        return True, "countermodel does not violate the conclusion"
    return True, None


def _cmd_verify(args) -> int:
    corpus = load_corpus(args.eqs)
    _, records = load_results(args.results)
    checked = 0
    for record in records:
        was_checked, problem = _check_witness(corpus, record)
        if problem is not None:
            print(f"pair ({record.lhs}, {record.rhs}): {problem}", file=sys.stderr)
            return 2
        checked += was_checked
    print(f"verified {checked} witnesses across {len(records)} records")
    return 0


_DISPATCH = {
    "pairs": _cmd_pairs,
    "export-tptp": _cmd_export_tptp,
    "run": _cmd_run,
    "closure": _cmd_closure,
    "report": _cmd_report,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ConsistencyError as err:
        print(f"inconsistent results: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
