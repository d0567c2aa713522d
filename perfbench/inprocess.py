"""One in-process pass over a workload, with or without tracing.

    python3 perfbench/inprocess.py <spec.json> <out.json>

The spec names the corpus, schedule and log, and the CLI commands that
follow the attempts.  The pass calls eqimp.runner.attempt_pair for every
pair, serially, writes the records as a results log, then runs each command
through eqimp.cli.main in this process.  With "traced" set, wrappers
installed from outside record a span around each call into a module's public
functions: name, start, end, parent span and pair.  Spans stay in memory and
are written out at the end.  A separate counting pass then replays the
recorded saturation calls with counters on unify, match and kbo_compare, so
the wrapper cost of those hot functions never enters a span.

Each pass runs in a fresh interpreter so that traced and untraced passes
start from the same cold caches.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from eqimp import cli, models, runner, saturation, terms  # noqa: E402

perf_counter = time.perf_counter

# a span is [name, start, end, parent index or -1, pair or None, note or None]
START, END, NOTE = 1, 2, 5


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pair: list[int] | None = None
        self.stage = 0
        self.saturate_calls: list[tuple] = []
        self._restore: list[tuple] = []

    def call(self, name, func, args, kwargs=None, note=None):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.pair, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = func(*args, **(kwargs or {}))
        finally:
            span[END] = perf_counter()
            self.stack.pop()
        if note is not None:
            span[NOTE] = note(args, kwargs, result)
        return result

    def wrap(self, module, attr, name, note=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, note)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def install(self):
        def engine(args, kwargs, outcome):
            self.stage += 1
            return {"stage": self.stage, "status": outcome.status, "steps": outcome.steps_used}

        def satur(args, kwargs, outcome):
            self.saturate_calls.append((args, kwargs))
            note = engine(args, kwargs, outcome)
            note["proof_steps"] = len(outcome.proof.steps) if outcome.proof else 0
            return note

        def propagate(args, kwargs, closed):
            before = args[0]
            rules = {"R1": 0, "R2": 0, "R3": 0}
            for pair, entry in closed.items():
                if pair not in before:
                    rules[entry.provenance.split(":")[1]] += 1
            return {"input": len(before), "derived": len(closed) - len(before), **rules}

        def loaded(args, kwargs, result):
            return {"records": len(result[1])}

        self.wrap(runner, "find_countermodel", "models.find_countermodel", engine)
        self.wrap(runner, "saturate", "saturation.saturate", satur)
        self.wrap(runner, "format_countermodel", "models.format_countermodel")
        self.wrap(runner, "format_proof", "saturation.format_proof")
        self.wrap(runner, "skolemize", "tptp.skolemize")
        self.wrap(runner, "propagate", "closure.propagate", propagate)
        self.wrap(runner, "load_results", "runner.load_results", loaded)
        self.wrap(models, "verify_equation", "models.verify_equation")
        self.wrap(cli, "verify_equation", "models.verify_equation")
        self.wrap(cli, "eval_term", "models.eval_term")
        self.wrap(cli, "parse_countermodel", "models.parse_countermodel")
        self.wrap(cli, "parse_proof", "saturation.parse_proof")
        self.wrap(cli, "replay_proof", "saturation.replay_proof")
        self.wrap(cli, "skolemize", "tptp.skolemize")
        self.wrap(cli, "load_corpus", "terms.load_corpus")
        self.wrap(cli, "load_results", "runner.load_results", loaded)
        self.wrap(cli, "propagate_log", "runner.propagate_log")
        for name in ("summarize", "histogram", "render"):
            self.wrap(cli, name, f"report.{name}")


def count_hot_calls(saturate_calls) -> dict:
    """Replay saturation calls with counters on the hot unification,
    matching and ordering functions; the counts are exact and repeat."""
    counts = {"unify": [0, 0], "match": [0, 0], "kbo_compare": [0, 0]}
    originals = {name: getattr(saturation, name) for name in counts}

    def counting(name):
        original, tally = originals[name], counts[name]

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            tally[0] += 1
            tally[1] += result is not None
            return result

        return wrapper

    try:
        for name in counts:
            setattr(saturation, name, counting(name))
        for args, kwargs in saturate_calls:
            saturation.saturate(*args, **kwargs)
    finally:
        for name, original in originals.items():
            setattr(saturation, name, original)
    return counts


def run_sequence(spec: dict, tracer: Tracer | None) -> tuple[float, list[int]]:
    """Attempts and commands of one pass; returns its wall time and the
    commands' exit codes."""
    call = tracer.call if tracer else (lambda name, func, args: func(*args))
    if spec["seed_log"]:
        shutil.copyfile(spec["seed_log"], spec["log"])
    started = perf_counter()
    if spec["schedule"]:
        corpus = call("terms.load_corpus", terms.load_corpus, (spec["eqs"],))
        if spec["schedule"] == "default":
            schedule = runner.default_schedule()
        else:
            schedule = runner.load_schedule(spec["schedule"])
        with open(spec["log"], "w", encoding="utf-8") as handle:
            for lhs, rhs in terms.enumerate_pairs(corpus):
                if tracer:
                    tracer.pair, tracer.stage = [lhs, rhs], 0
                record = call(
                    "runner.attempt_pair", runner.attempt_pair, (corpus, lhs, rhs, schedule)
                )
                handle.write(json.dumps(dataclasses.asdict(record)) + "\n")
        if tracer:
            tracer.pair = None
    codes = []
    for argv in spec["commands"]:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(call("cli.main", cli.main, (argv,)))
    return perf_counter() - started, codes


def main(argv) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = Tracer() if spec["traced"] else None
    if tracer:
        tracer.install()
    try:
        wall, codes = run_sequence(spec, tracer)
    finally:
        if tracer:
            tracer.unwrap()
    result = {"wall_s": wall, "exit_codes": codes}
    if tracer:
        started = perf_counter()
        result["counts"] = count_hot_calls(tracer.saturate_calls)
        result["counting_s"] = perf_counter() - started
        result["spans"] = spec["spans"]
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "pair", "note"],
                    "spans": tracer.spans,
                },
                handle,
            )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
