"""Seeded inputs and the benchmark's own independent checks.

Terms are plain Python values: a variable is an int, a product is a pair
(left, right).  Nothing here imports eqimp, so the checks below are an
independent re-implementation: a parser and printer for the .eqs surface
syntax, an evaluator over all sixteen two-element magmas, a random law
generator, and a synthetic results log drawn from a hidden preorder.
"""

from __future__ import annotations

import itertools
import json
import random

VAR_LETTERS = "xyzwuv"

# the sixteen binary operations on {0, 1}; table[2*a + b] is a*b
SIZE2_TABLES = tuple(itertools.product(range(2), repeat=4))


# --- syntax ------------------------------------------------------------------


def _var_index(name: str) -> int:
    if len(name) == 1 and name in VAR_LETTERS:
        return VAR_LETTERS.index(name)
    if name[0] == "v" and name[1:].isdigit():
        return int(name[1:])
    raise ValueError(f"unknown variable {name!r}")


def _tokens(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "*=()":
            out.append(ch)
            i += 1
        else:
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_law(text: str):
    """(lhs, rhs) of one law in the corpus syntax, e.g. '(x*y)*z=x*(y*z)'."""
    tokens = _tokens(text)
    pos = 0

    def atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            term = side()
            if tokens[pos] != ")":
                raise ValueError(f"expected ')' in {text!r}")
            pos += 1
            return term
        return _var_index(tok)

    def side():
        nonlocal pos
        left = atom()
        if pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            return (left, atom())
        return left

    lhs = side()
    if tokens[pos] != "=":
        raise ValueError(f"expected '=' in {text!r}")
    pos += 1
    rhs = side()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return lhs, rhs


def format_term(term, top: bool = True) -> str:
    if isinstance(term, int):
        return VAR_LETTERS[term] if term < 6 else f"v{term}"
    body = f"{format_term(term[0], False)}*{format_term(term[1], False)}"
    return body if top else f"({body})"


def format_law(law) -> str:
    return f"{format_term(law[0])}={format_term(law[1])}"


def read_corpus(path: str) -> list:
    """Laws of an .eqs file in id order (ids start at 1)."""
    laws = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                laws.append(parse_law(line))
    return laws


def _rename(term, mapping: dict):
    if isinstance(term, int):
        if term not in mapping:
            mapping[term] = len(mapping)
        return mapping[term]
    return (_rename(term[0], mapping), _rename(term[1], mapping))


def canonical(law):
    """Variables renumbered by first occurrence, lhs before rhs."""
    mapping: dict = {}
    lhs = _rename(law[0], mapping)
    return lhs, _rename(law[1], mapping)


# --- size-2 evaluation -----------------------------------------------------------


def _width(term) -> int:
    if isinstance(term, int):
        return term + 1
    return max(_width(term[0]), _width(term[1]))


def _eval(term, table, env) -> int:
    if isinstance(term, int):
        return env[term]
    return table[2 * _eval(term[0], table, env) + _eval(term[1], table, env)]


def size2_models(law) -> int:
    """Bitmask over SIZE2_TABLES of the two-element magmas satisfying law."""
    width = max(_width(law[0]), _width(law[1]))
    envs = list(itertools.product(range(2), repeat=width))
    mask = 0
    for k, table in enumerate(SIZE2_TABLES):
        if all(_eval(law[0], table, env) == _eval(law[1], table, env) for env in envs):
            mask |= 1 << k
    return mask


def size2_refutes(premise_mask: int, conclusion_mask: int) -> bool:
    """True when some two-element magma satisfies the premise but not the
    conclusion, so the implication is false."""
    return premise_mask & ~conclusion_mask != 0


# --- random laws ---------------------------------------------------------------


def _random_tree(rng: random.Random, ops: int, num_vars: int):
    if ops == 0:
        return rng.randrange(num_vars)
    left = rng.randrange(ops)
    return (_random_tree(rng, left, num_vars), _random_tree(rng, ops - 1 - left, num_vars))


def random_laws(rng: random.Random, count: int, num_vars: int = 4) -> list:
    """count distinct laws with 2 to 4 operations over at most num_vars
    variables, each non-trivial and satisfied by some two-element magma (so
    none collapses to x=y).  Distinct means distinct up to renaming variables
    and swapping sides."""
    laws, seen = [], set()
    while len(laws) < count:
        ops = rng.randint(2, 4)
        split = rng.randint(0, ops)
        lhs = _random_tree(rng, split, num_vars)
        rhs = _random_tree(rng, ops - split, num_vars)
        if lhs == rhs:
            continue
        law = canonical((lhs, rhs))
        key = min(format_law(law), format_law(canonical((rhs, lhs))))
        if key in seen or size2_models(law) == 0:
            continue
        seen.add(key)
        laws.append(law)
    return laws


def present(rng: random.Random, laws: list) -> list:
    """The same laws with variables renamed, sides possibly swapped and the
    order shuffled: a different file describing the same problems."""
    out = []
    for lhs, rhs in laws:
        names = list(range(max(_width(lhs), _width(rhs))))
        rng.shuffle(names)
        mapping = dict(enumerate(names))
        law = (_rename(lhs, mapping), _rename(rhs, mapping))
        out.append(law if rng.random() < 0.5 else (law[1], law[0]))
    rng.shuffle(out)
    return out


def write_corpus(path: str, laws: list, header: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {header}\n")
        for law in laws:
            handle.write(format_law(law) + "\n")


# --- synthetic campaign log -------------------------------------------------------


def campaign_truth(rng: random.Random, laws: int, features: int, density: float) -> list:
    """A hidden preorder: law i gets a random feature set, and i implies j
    exactly when feat(j) is a subset of feat(i).  Returns the sets as
    bitmasks, index 0 for law id 1."""
    return [
        sum(1 << f for f in range(features) if rng.random() < density) for _ in range(laws)
    ]


def implies(feats: list, lhs: int, rhs: int) -> bool:
    """Ground truth of lhs -> rhs (1-based ids) under the hidden preorder."""
    return feats[rhs - 1] & ~feats[lhs - 1] == 0


def write_campaign_log(path: str, rng: random.Random, feats: list, decided_share: float) -> int:
    """One record per ordered pair in the results-log format.  A random share
    of pairs is decided directly with its true status; the rest are unsolved
    and left for closure.  Returns the number of records."""
    m = len(feats)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for lhs in range(1, m + 1):
            for rhs in range(1, m + 1):
                if lhs == rhs:
                    continue
                seconds = 10 ** rng.uniform(-4, 0)
                if rng.random() < decided_share:
                    if implies(feats, lhs, rhs):
                        status, method, stage = "proven", "satur-500i", 2
                    else:
                        status, method, stage = "refuted", "fmb-500i", 1
                else:
                    status, method, stage = "unsolved", None, None
                record = {
                    "lhs": lhs,
                    "rhs": rhs,
                    "status": status,
                    "method": method,
                    "stage": stage,
                    "seconds": seconds,
                    "witness": None,
                }
                handle.write(json.dumps(record) + "\n")
                count += 1
    return count


def read_log(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
