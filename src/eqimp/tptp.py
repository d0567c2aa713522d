"""Grounding of conjectures and TPTP CNF export of implication problems.

A problem asks whether one law entails another.  The premise becomes a unit
axiom with universal variables; the negated conclusion is grounded by turning
each of its variables into a fresh constant, leaving a single disequation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .terms import Const, Corpus, Equation, Op, Term, Var, apply_subst, variables

TPTP_VARS = "XYZWUV"
TPTP_CONSTS = "abcdef"


@dataclass(frozen=True)
class GroundDiseq:
    left: Term
    right: Term


def skolemize(eq: Equation) -> GroundDiseq:
    """Replace each variable of a negated conjecture with its own constant."""
    ground = {index: Const(index) for index in variables(eq.lhs, eq.rhs)}
    return GroundDiseq(apply_subst(eq.lhs, ground), apply_subst(eq.rhs, ground))


def _tptp_term(term: Term) -> str:
    match term:
        case Var(index):
            if index >= len(TPTP_VARS):
                raise ValueError(
                    f"variable index {index} is beyond the fixed alphabet "
                    f"{TPTP_VARS}; extend the alphabet explicitly"
                )
            return TPTP_VARS[index]
        case Const(index):
            if index >= len(TPTP_CONSTS):
                raise ValueError(
                    f"constant index {index} is beyond the fixed alphabet "
                    f"{TPTP_CONSTS}; extend the alphabet explicitly"
                )
            return TPTP_CONSTS[index]
        case Op(left, right):
            return f"m({_tptp_term(left)}, {_tptp_term(right)})"
    raise TypeError(f"not a term: {term!r}")


def export_pair(lhs_eq: Equation, rhs_eq: Equation) -> str:
    """Two CNF lines: the premise as an axiom, the conclusion negated and grounded."""
    goal = skolemize(rhs_eq)
    axiom = f"cnf(lhs, axiom, {_tptp_term(lhs_eq.lhs)} = {_tptp_term(lhs_eq.rhs)}).\n"
    conjecture = (
        f"cnf(rhs, negated_conjecture, "
        f"{_tptp_term(goal.left)} != {_tptp_term(goal.right)}).\n"
    )
    return axiom + conjecture


def problem_filename(lhs_id: int, rhs_id: int) -> str:
    return f"p{lhs_id}_{rhs_id}.p"


def export_directory(corpus: Corpus, pairs, out_dir: str) -> int:
    """Write one .p file per (lhs_id, rhs_id) pair; returns the file count."""
    os.makedirs(out_dir, exist_ok=True)
    written = 0
    for lhs_id, rhs_id in pairs:
        text = export_pair(corpus.by_id(lhs_id), corpus.by_id(rhs_id))
        path = os.path.join(out_dir, problem_filename(lhs_id, rhs_id))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        written += 1
    return written
