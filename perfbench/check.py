"""Check one results log against the benchmark's independent oracles.

    python3 perfbench/check.py --eqs <corpus.eqs> <log.jsonl>
    python3 perfbench/check.py --truth <truth.json> <log.jsonl>

With --eqs, every proven verdict is checked against all sixteen two-element
magmas: one that satisfies the premise and violates the conclusion shows the
verdict is wrong.  With --truth (the hidden preorder of a synthetic log),
every decided verdict must equal the truth.  Prints one JSON object: pairs
expected, decided, error records, wrong verdicts, problems, and a digest of
the verdicts (status, method and witness of every pair) for comparing passes.

It runs as its own process so that the benchmark's parent process stays
small: a child's peak-memory figure includes the memory of the process that
started it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import laws as L  # noqa: E402


def check(log: str, eqs: str | None, truth: str | None) -> dict:
    if eqs:
        masks = [L.size2_models(law) for law in L.read_corpus(eqs)]
        m = len(masks)
    else:
        with open(truth, encoding="utf-8") as handle:
            feats = json.load(handle)
        m = len(feats)
    verdicts = {}
    problems = []
    errors = wrong = 0
    for record in L.read_log(log):
        pair = (record["lhs"], record["rhs"])
        status = record["status"]
        if pair in verdicts:
            problems.append(f"duplicate record for pair {pair}")
        verdicts[pair] = (status, record["method"], record["witness"])
        if status == "unsolved":
            errors += (record["witness"] or "").startswith("error:")
        elif eqs:
            wrong += status == "proven" and L.size2_refutes(masks[pair[0] - 1], masks[pair[1] - 1])
        else:
            wrong += (status == "proven") != L.implies(feats, *pair)
    expected = m * (m - 1)
    if len(verdicts) != expected:
        problems.append(f"log has {len(verdicts)} pairs, expected {expected}")
    if errors:
        problems.append(f"{errors} error records")
    if wrong:
        problems.append(f"{wrong} verdicts contradict the independent check")
    digest = hashlib.sha256(json.dumps(sorted(verdicts.items())).encode()).hexdigest()
    return {
        "attempted": expected,
        "decided": sum(1 for v in verdicts.values() if v[0] != "unsolved"),
        "errors": errors,
        "wrong": wrong,
        "problems": problems,
        "digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    oracle = parser.add_mutually_exclusive_group(required=True)
    oracle.add_argument("--eqs")
    oracle.add_argument("--truth")
    parser.add_argument("log")
    args = parser.parse_args(argv)
    print(json.dumps(check(args.log, args.eqs, args.truth)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
