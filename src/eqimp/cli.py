"""Command-line entry point binding the pipeline: corpus inspection, problem
export, staged runs, closure over logs, reporting, and witness verification.

Exit codes are frozen for scripting: 0 success, 1 usage/validation/parse
errors, 2 consistency failures (a closure conflict, an invalid witness, or a
closure record the log's other records do not derive).
"""

from __future__ import annotations

import argparse
import importlib
import sys

# the package's names the commands use, by module.  A command imports only
# the modules it runs (_COMMANDS) and binds their names here on first use,
# so closure and report never load an engine and pairs loads terms alone.
_NAMES = {
    "closure": ("DERIVED_PREFIX", "PROVEN", "propagate"),
    "log": ("UNSOLVED", "iter_rows", "load_results", "propagate_log"),
    "models": ("eval_term", "parse_countermodel", "verify_equation"),
    "report": ("histogram", "render", "summarize"),
    "runner": ("RunConfig", "default_schedule", "load_schedule", "run"),
    "saturation": ("parse_proof", "replay_proof"),
    "terms": ("enumerate_pairs", "load_corpus", "pair_count"),
    "tptp": ("export_directory", "skolemize"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def _bind(module: str) -> None:
    """Import the module and bind the names this one uses from it, keeping a
    binding already there, such as a wrapper set from outside."""
    source = importlib.import_module(f".{module}", __package__)
    namespace = globals()
    for name in _NAMES[module]:
        namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    # consulted for lookups from outside only, not for this module's own
    # global names, so main binds a command's modules before running it
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


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
    # report's FORMAT_TABLE and FORMAT_CSV, spelt out so that parsing loads no report
    p.add_argument("--format", choices=["table", "csv"], default="table")
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


def _parse_pair(text: str, laws: int) -> tuple[int, int]:
    left, sep, right = text.partition(",")
    if not sep:
        raise ValueError("--pair expects <lhsId>,<rhsId>")
    # ids are ASCII digits (int() also reads "+1", "1_0" and other scripts' digits)
    lhs, rhs = (int(side) if side.isascii() and side.isdigit() else 0 for side in (left, right))
    if lhs == rhs or not (1 <= lhs <= laws and 1 <= rhs <= laws):
        raise ValueError(f"--pair {text}: not two distinct ids among the corpus's 1..{laws}")
    return lhs, rhs


def _cmd_export_tptp(args) -> int:
    corpus = load_corpus(args.eqs)
    pairs = [_parse_pair(args.pair, corpus.count)] if args.pair else enumerate_pairs(corpus)
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
    records = run(corpus, schedule, config)
    undecided = sum(1 for record in records if record.status == UNSOLVED)
    print(f"{len(records)} pairs: {len(records) - undecided} decided, {undecided} unsolved")
    return 0


def _cmd_closure(args) -> int:
    derived = propagate_log(args.results)
    print(f"derived {derived} new results")
    return 0


def _cmd_report(args) -> int:
    records = iter_rows(args.results)  # folded into the counts as it is read
    shaped = histogram(records) if args.histogram else summarize(records)
    sys.stdout.write(render(shaped, args.format))
    return 0


def _is_derived(method: str | None) -> bool:
    return (method or "").startswith(DERIVED_PREFIX)


def _check_witness(corpus, record) -> tuple[bool, str | None]:
    """(was a blob actually re-checked, failure description or None)."""
    if record.status == UNSOLVED:
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
    """Re-check every witness; re-derive every closure record from the log's
    other decided records, which closure's rules must yield with its status.
    Saturation refutations carry no witness, and are counted as unchecked.

    The log is read twice and never held: the first pass checks its format
    and builds its status map, the second checks each record as it is read."""
    corpus = load_corpus(args.eqs)
    status_map, _ = load_results(args.results, laws=corpus.count, keep_records=False)
    direct = status_map.where(lambda entry: not _is_derived(entry.provenance))
    closed = propagate(direct) if len(direct) < len(status_map) else direct
    checked = derived = unchecked = total = 0
    for record in iter_rows(args.results, laws=corpus.count):
        total += 1
        if _is_derived(record.method):
            entry = closed.get((record.lhs, record.rhs))
            problem = None
            if entry is None or entry.status != record.status:
                problem = "closure does not derive this record from the log's others"
            derived += 1
        else:
            was_checked, problem = _check_witness(corpus, record)
            checked += was_checked
            unchecked += not was_checked and record.status != UNSOLVED
        if problem is not None:
            print(f"pair ({record.lhs}, {record.rhs}): {problem}", file=sys.stderr)
            return 2
    print(
        f"verified {checked} witnesses and {derived} closure records across "
        f"{total} records; {unchecked} saturation refutations are unchecked"
    )
    return 0


# each command and the modules of _NAMES it runs
_COMMANDS = {
    "pairs": (_cmd_pairs, ("terms",)),
    "export-tptp": (_cmd_export_tptp, ("terms", "tptp")),
    "run": (_cmd_run, ("terms", "log", "runner")),
    "closure": (_cmd_closure, ("log",)),
    "report": (_cmd_report, ("log", "report")),
    "verify": (_cmd_verify, ("terms", "closure", "log", "models", "saturation", "tptp")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command, modules = _COMMANDS[args.command]
        for module in modules:
            _bind(module)
        return command(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        # a ConsistencyError is raised by closure, which the command then loaded
        closure = sys.modules.get(f"{__package__}.closure")
        if closure is not None and isinstance(err, closure.ConsistencyError):
            print(f"inconsistent results: {err}", file=sys.stderr)
            return 2
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
