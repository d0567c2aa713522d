"""Unit-equality saturation for one axiom against a ground disequation.

The prover runs unfailing completion: equations are oriented with a
Knuth-Bendix ordering where possible, critical pairs are drawn between the
maximal sides, and the goal's two ground sides are kept normalized under
ordered rewriting.  The goal is proved when its sides meet; a saturated set
with the goal still open refutes the implication.

Every derived equation carries a derivation record: the records it came from
and what was done to them (a rewrite's substitution and position, an
overlap's unifier, peak and variable shift, reversal, concatenation, the
final renaming).  Only when the goal's sides meet are the records the proof
uses expanded into a conversion chain whose individual steps are instances of
the original axiom, so a successful run yields a proof object that an
independent replayer can check by matching and substitution alone.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple

from .budget import OUT_OF_BUDGET, Budget, BudgetMeter, UNLIMITED
from .terms import (
    Const,
    Equation,
    Op,
    Term,
    Var,
    canonicalize,
    format_term,
    parse_term,
    positions,
    replace_at,
    subterm_at,
    term_size,
    var_name,
    variables,
    _var_index,
)
from .tptp import GroundDiseq

PROVED = "proved"
SATURATED = "saturated"


class Cmp(Enum):
    GT = "gt"
    LT = "lt"
    EQ = "eq"
    INC = "inc"


GT, LT, EQ, INC = Cmp.GT, Cmp.LT, Cmp.EQ, Cmp.INC


@lru_cache(maxsize=None)
def _shape(term: Term) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(weight, sorted (var index, occurrences)).  Every symbol weighs 1, so
    the weight is the term's size."""
    size = 0
    var_counts: dict[int, int] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        size += 1
        if isinstance(t, Var):
            var_counts[t.index] = var_counts.get(t.index, 0) + 1
        elif isinstance(t, Op):
            stack.append(t.left)
            stack.append(t.right)
    return size, tuple(sorted(var_counts.items()))


def is_ground(term: Term) -> bool:
    return not _shape(term)[1]


def _head_rank(term: Term) -> tuple[int, int]:
    # precedence: a < b < c < ... < op
    if isinstance(term, Const):
        return (0, term.index)
    return (1, 0)


def kbo_compare(s: Term, t: Term) -> Cmp:
    if s == t:
        return EQ
    ws, vars_s = _shape(s)
    wt, vars_t = _shape(t)
    vs = dict(vars_s)
    vt = dict(vars_t)
    s_covers = all(vs.get(i, 0) >= k for i, k in vt.items())
    t_covers = all(vt.get(i, 0) >= k for i, k in vs.items())
    if ws > wt:
        return GT if s_covers else INC
    if wt > ws:
        return LT if t_covers else INC
    if isinstance(s, Var) or isinstance(t, Var):
        # equal weight but distinct: a variable against a constant or
        # another variable is incomparable
        return INC
    rank_s, rank_t = _head_rank(s), _head_rank(t)
    if rank_s > rank_t:
        return GT if s_covers else INC
    if rank_s < rank_t:
        return LT if t_covers else INC
    # same head; equal constants were caught by the identity test
    sub = kbo_compare(s.left, t.left)
    if sub == EQ:
        sub = kbo_compare(s.right, t.right)
    if sub == GT:
        return GT if s_covers else INC
    if sub == LT:
        return LT if t_covers else INC
    return INC


# --- substitutions, matching, unification ------------------------------------

Subst = dict[int, Term]


def apply_subst(term: Term, subst: Subst) -> Term:
    match term:
        case Var(index):
            return subst.get(index, term)
        case Op(left, right):
            return Op(apply_subst(left, subst), apply_subst(right, subst))
        case _:
            return term


def match(pattern: Term, subject: Term) -> Subst | None:
    """One-way matching: a substitution s with s(pattern) == subject."""
    subst: Subst = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = subst.get(p.index)
            if bound is None:
                subst[p.index] = s
            elif bound != s:
                return None
        elif isinstance(p, Const):
            if p != s:
                return None
        else:
            if not isinstance(s, Op):
                return None
            stack.append((p.left, s.left))
            stack.append((p.right, s.right))
    return subst


def _occurs(index: int, term: Term, subst: Subst) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t.index == index:
                return True
            if t.index in subst:
                stack.append(subst[t.index])
        elif isinstance(t, Op):
            stack.append(t.left)
            stack.append(t.right)
    return False


def _resolve(term: Term, subst: Subst) -> Term:
    while isinstance(term, Var) and term.index in subst:
        term = subst[term.index]
    return term


def unify(s: Term, t: Term) -> Subst | None:
    """Most general unifier with occurs check, or None."""
    subst: Subst = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a = _resolve(a, subst)
        b = _resolve(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if _occurs(a.index, b, subst):
                return None
            subst[a.index] = b
        elif isinstance(b, Var):
            if _occurs(b.index, a, subst):
                return None
            subst[b.index] = a
        elif isinstance(a, Op) and isinstance(b, Op):
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        else:
            return None
    # flatten the triangular bindings into an idempotent substitution
    def deep(term: Term) -> Term:
        match term:
            case Var(index):
                return deep(subst[index]) if index in subst else term
            case Op(left, right):
                return Op(deep(left), deep(right))
            case _:
                return term

    return {index: deep(value) for index, value in subst.items()}


# --- proof steps --------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One rewrite: before == after up to an axiom instance at pos.

    The substitution maps the axiom's variables to terms; the replayer accepts
    the step in either orientation of the axiom.
    """

    pos: tuple[int, ...]
    subst: tuple[tuple[int, Term], ...]
    before: Term
    after: Term
    eq_id: int


@dataclass(frozen=True)
class Proof:
    steps: tuple[Step, ...]


class ReplayResult(NamedTuple):
    accepted: bool
    failed_step: int | None


def _subst_step(step: Step, subst: Subst) -> Step:
    return Step(
        pos=step.pos,
        subst=tuple((i, apply_subst(v, subst)) for i, v in step.subst),
        before=apply_subst(step.before, subst),
        after=apply_subst(step.after, subst),
        eq_id=step.eq_id,
    )


def _chain_terms(chain) -> list[Term]:
    terms = []
    for step in chain:
        terms += (step.before, step.after, *(value for _, value in step.subst))
    return terms


# --- derivation records ---------------------------------------------------------


class Use(NamedTuple):
    """A parent's chain as a child uses it: variables shifted up by shift,
    then instantiated by subst, embedded at pos of context, and reversed when
    flip is set."""

    source: "Derivation"
    flip: bool = False
    subst: Subst | None = None
    context: Term | None = None
    pos: tuple[int, ...] = ()
    shift: int = 0


@dataclass(frozen=True, eq=False)
class Derivation:
    """How a conversion chain is obtained: its parts (axiom steps or uses of
    parent chains) concatenated, then, when ends is set, its variables
    renumbered by first occurrence across ends and the chain."""

    parts: tuple[Step | Use, ...]
    ends: tuple[Term, Term] | None = None


def _reverse(uses: list[Use]) -> list[Use]:
    return [use._replace(flip=not use.flip) for use in reversed(uses)]


def _place(chain: tuple[Step, ...], use: Use) -> list[Step]:
    steps = list(chain)
    if use.shift:
        shift = {i: Var(i + use.shift) for i in variables(*_chain_terms(steps))}
        steps = [_subst_step(s, shift) for s in steps]
    if use.subst is not None:
        steps = [_subst_step(s, use.subst) for s in steps]
    if use.pos:
        context, pos = use.context, use.pos
        steps = [
            Step(
                pos + s.pos,
                s.subst,
                replace_at(context, pos, s.before),
                replace_at(context, pos, s.after),
                s.eq_id,
            )
            for s in steps
        ]
    if use.flip:
        steps = [Step(s.pos, s.subst, s.after, s.before, s.eq_id) for s in reversed(steps)]
    return steps


def expand(root: Derivation) -> tuple[Step, ...]:
    """The conversion chain a derivation stands for.  Each record is expanded
    once, parents first, from an explicit stack: derivations grow one level
    per given clause, far deeper than the recursion limit on long runs."""
    chains: dict[int, tuple[Step, ...]] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in chains:
            stack.pop()
            continue
        parents = [
            part.source
            for part in node.parts
            if isinstance(part, Use) and id(part.source) not in chains
        ]
        if parents:
            stack.extend(parents)
            continue
        stack.pop()
        chain: list[Step] = []
        for part in node.parts:
            if isinstance(part, Step):
                chain.append(part)
            else:
                chain.extend(_place(chains[id(part.source)], part))
        if node.ends is not None:
            order = variables(*node.ends, *_chain_terms(chain))
            rename = {old: Var(new) for new, old in enumerate(order)}
            chain = [_subst_step(s, rename) for s in chain]
        chains[id(node)] = tuple(chain)
    return chains[id(root)]


# --- rewriting ----------------------------------------------------------------


class Orientation(Enum):
    LEFT_TO_RIGHT = "left-to-right"
    RIGHT_TO_LEFT = "right-to-left"
    UNORIENTABLE = "unorientable"


@dataclass(frozen=True)
class ProcessedEq:
    lhs: Term
    rhs: Term
    orientation: Orientation
    derivation: Derivation  # of the axiom-level conversion lhs => rhs

    def directed(self):
        """(source, target, use of the derivation source=>target) views
        usable for rewriting."""
        forward = (self.lhs, self.rhs, Use(self.derivation))
        backward = (self.rhs, self.lhs, Use(self.derivation, flip=True))
        if self.orientation == Orientation.LEFT_TO_RIGHT:
            return (forward,)
        if self.orientation == Orientation.RIGHT_TO_LEFT:
            return (backward,)
        return (forward, backward)


def _try_rewrite_root(term, rules):
    for src, tgt, use, ordered in rules:
        subst = match(src, term)
        if subst is None:
            continue
        extra = [i for i, _ in _shape(tgt)[1] if i not in subst]
        if extra:
            # fill unmatched target variables with the least constant; only
            # safe to decide termination by ordering when the redex is ground
            if not is_ground(term):
                continue
            for i in extra:
                subst[i] = Const(0)
        replacement = apply_subst(tgt, subst)
        if not ordered or extra:
            if kbo_compare(term, replacement) != GT:
                continue
        return replacement, (), use._replace(subst=subst)
    return None


def _rewrite_once(term, rules):
    """Rewrite the innermost-leftmost redex: (new term, position, rule use
    under its matching substitution), or None when term is in normal form."""
    if isinstance(term, Op):
        hit = _rewrite_once(term.left, rules)
        if hit is not None:
            new_left, pos, use = hit
            return Op(new_left, term.right), (0,) + pos, use
        hit = _rewrite_once(term.right, rules)
        if hit is not None:
            new_right, pos, use = hit
            return Op(term.left, new_right), (1,) + pos, use
    return _try_rewrite_root(term, rules)


def _directed_rules(eqs: Iterable[ProcessedEq]):
    rules = []
    for eq in eqs:
        ordered = eq.orientation != Orientation.UNORIENTABLE
        for src, tgt, use in eq.directed():
            rules.append((src, tgt, use, ordered))
    return rules


def _normalize_traced(term, rules, cap):
    """Normal form and the rule uses that convert term into it."""
    uses: list[Use] = []
    while True:
        hit = _rewrite_once(term, rules)
        if hit is None:
            return term, uses
        if len(uses) >= cap:
            raise ValueError(f"rewrite step cap {cap} exceeded")
        new_term, pos, use = hit
        uses.append(use._replace(context=term, pos=pos))
        term = new_term


_ORIENTATION_OF_CMP = {
    GT: Orientation.LEFT_TO_RIGHT,
    LT: Orientation.RIGHT_TO_LEFT,
    INC: Orientation.UNORIENTABLE,
}


def orient_equation(eq: Equation, eq_id: int | None = None) -> ProcessedEq | None:
    """Canonicalize and orient an equation; None when it is trivial (s = s)."""
    eq = canonicalize(eq)
    if eq.lhs == eq.rhs:
        return None
    if eq_id is None:
        eq_id = eq.id if eq.id is not None else 1
    # canonical numbering makes first-occurrence order ascending
    identity = tuple((i, Var(i)) for i in variables(eq.lhs, eq.rhs))
    derivation = Derivation((Step((), identity, eq.lhs, eq.rhs, eq_id),))
    cmp = kbo_compare(eq.lhs, eq.rhs)
    return ProcessedEq(eq.lhs, eq.rhs, _ORIENTATION_OF_CMP[cmp], derivation)


def _coerce_processed(eqs) -> list[ProcessedEq]:
    procs = []
    for k, eq in enumerate(eqs, 1):
        if isinstance(eq, ProcessedEq):
            procs.append(eq)
            continue
        proc = orient_equation(eq, eq.id or k)
        if proc is not None:
            procs.append(proc)
    return procs


def normalize(
    term: Term, eqs: Iterable[ProcessedEq | Equation], cap: int = 10_000
) -> Term:
    """Normal form under ordered rewriting with the given equations."""
    procs = _coerce_processed(eqs)
    nf, _ = _normalize_traced(term, _directed_rules(procs), cap)
    return nf


# --- critical pairs -----------------------------------------------------------


def _canonical_triple(left, right, parts):
    """The canonical equation and a derivation of it from the concatenated
    parts.  The chain's renaming starts from the same first-occurrence
    numbering of the equation as canonicalize."""
    eq = canonicalize(Equation(left, right))
    return eq.lhs, eq.rhs, Derivation(tuple(parts), (left, right))


def _overlaps(inner, outer, include_root, meter):
    s_in, t_in, use_in = inner
    s_out, t_out, use_out = outer
    found = []
    for pos, sub in positions(s_out):
        if meter.expired():
            break  # the caller sees the expiry too and drops this partial list
        if isinstance(sub, Var):
            continue
        if not include_root and pos == ():
            continue
        mgu = unify(sub, s_in)
        if mgu is None:
            continue
        # discard overlaps whose instances flip against the ordering
        if kbo_compare(apply_subst(t_out, mgu), apply_subst(s_out, mgu)) == GT:
            continue
        if kbo_compare(apply_subst(t_in, mgu), apply_subst(s_in, mgu)) == GT:
            continue
        peak = apply_subst(s_out, mgu)
        left = apply_subst(t_out, mgu)
        right = replace_at(peak, pos, apply_subst(t_in, mgu))
        if left == right:
            continue
        back = use_out._replace(flip=not use_out.flip, subst=mgu)
        forward = use_in._replace(subst=mgu, context=peak, pos=pos)
        found.append(_canonical_triple(left, right, (back, forward)))
    return found


def _critical_pair_triples(e1: ProcessedEq, e2: ProcessedEq, meter: BudgetMeter):
    offset = max(variables(e1.lhs, e1.rhs), default=-1) + 1
    shift = {i: Var(i + offset) for i in variables(e2.lhs, e2.rhs)}
    shifted = ProcessedEq(
        apply_subst(e2.lhs, shift),
        apply_subst(e2.rhs, shift),
        e2.orientation,
        Derivation((Use(e2.derivation, shift=offset),)),
    )
    triples = []
    for d1 in e1.directed():
        for d2 in shifted.directed():
            triples.extend(_overlaps(d1, d2, True, meter))
            triples.extend(_overlaps(d2, d1, False, meter))
    return triples


def critical_pairs(e1: ProcessedEq | Equation, e2: ProcessedEq | Equation) -> list[Equation]:
    """All critical pairs between two equations, canonicalized, duplicates and
    trivial pairs removed.  Overlap positions are non-variable; directions are
    limited to sides not smaller than their partner.  Renaming apart is done
    internally, so the same equation may be passed twice."""
    coerced = _coerce_processed([e1, e2])
    if len(coerced) < 2:
        return []
    p1, p2 = coerced
    result = []
    seen = set()
    for left, right, _ in _critical_pair_triples(p1, p2, BudgetMeter(UNLIMITED)):
        key = Equation(left, right)
        flipped = canonicalize(Equation(right, left))
        if key in seen or flipped in seen:
            continue
        seen.add(key)
        seen.add(flipped)
        result.append(key)
    return result


# --- the given-clause loop ------------------------------------------------------


@dataclass(frozen=True)
class SaturationOutcome:
    status: str  # PROVED | SATURATED | OUT_OF_BUDGET
    proof: Proof | None
    steps_used: int


def saturate(
    axiom: Equation,
    goal: GroundDiseq,
    budget: Budget = UNLIMITED,
    cap: int = 10_000,
) -> SaturationOutcome:
    """Prove or refute goal.left = goal.right from one universally
    quantified axiom.  Returns Proved with a replayable proof, Saturated when
    the equation set closes without joining the goal, or OutOfBudget."""
    ax_id = axiom.id if axiom.id is not None else 1
    meter = BudgetMeter(budget)

    queue: list[tuple[int, int, Term, Term, Derivation]] = []
    serial = 0
    seen: set[Equation] = set()

    def unseen(key: Equation) -> bool:
        """Record a canonical equation; False when it or its flip was seen."""
        if key in seen or canonicalize(Equation(key.rhs, key.lhs)) in seen:
            return False
        seen.add(key)
        return True

    def enqueue(key, left, right, derivation):
        """Queue left = right unless its canonical form key was seen."""
        nonlocal serial
        if not unseen(key):
            return
        heapq.heappush(
            queue, (term_size(left) + term_size(right), serial, left, right, derivation)
        )
        serial += 1

    base = orient_equation(axiom, ax_id)
    if base is not None:
        enqueue(Equation(base.lhs, base.rhs), base.lhs, base.rhs, base.derivation)

    processed: list[ProcessedEq] = []
    rules = _directed_rules(processed)
    goal_left, goal_right = goal.left, goal.right
    left_uses: list[Use] = []
    right_uses: list[Use] = []

    while meter.tick():
        goal_left, uses = _normalize_traced(goal_left, rules, cap)
        left_uses.extend(uses)
        goal_right, uses = _normalize_traced(goal_right, rules, cap)
        right_uses.extend(uses)
        if goal_left == goal_right:
            conversion = Derivation(tuple(left_uses + _reverse(right_uses)))
            return SaturationOutcome(PROVED, Proof(expand(conversion)), meter.steps_used)
        if not queue:
            return SaturationOutcome(SATURATED, None, meter.steps_used)

        _, _, left, right, derivation = heapq.heappop(queue)
        left2, uses_l = _normalize_traced(left, rules, cap)
        right2, uses_r = _normalize_traced(right, rules, cap)
        if left2 == right2:
            continue
        left2, right2, derivation = _canonical_triple(
            left2, right2, _reverse(uses_l) + [Use(derivation)] + uses_r
        )
        if (left2, right2) != (left, right) and not unseen(Equation(left2, right2)):
            continue
        given = ProcessedEq(
            left2, right2, _ORIENTATION_OF_CMP[kbo_compare(left2, right2)], derivation
        )

        # the deadline checks below use no steps, so step-budgeted runs are
        # unaffected; they keep one long iteration from overrunning a wall budget
        new_triples = []
        for other in processed + [given]:
            new_triples.extend(_critical_pair_triples(given, other, meter))
            if meter.expired():
                return SaturationOutcome(OUT_OF_BUDGET, None, meter.steps_used)

        # inter-reduction: simplify stored equations with the new one
        given_rules = _directed_rules([given])
        survivors = []
        for other in processed:
            if meter.expired():
                return SaturationOutcome(OUT_OF_BUDGET, None, meter.steps_used)
            l2, sl = _normalize_traced(other.lhs, given_rules, cap)
            r2, sr = _normalize_traced(other.rhs, given_rules, cap)
            if l2 == other.lhs and r2 == other.rhs:
                survivors.append(other)
                continue
            if l2 == r2:
                continue
            derivation2 = Derivation(tuple(_reverse(sl) + [Use(other.derivation)] + sr))
            enqueue(canonicalize(Equation(l2, r2)), l2, r2, derivation2)
        processed = survivors + [given]
        rules = _directed_rules(processed)

        for left3, right3, derivation3 in new_triples:
            enqueue(Equation(left3, right3), left3, right3, derivation3)

    return SaturationOutcome(OUT_OF_BUDGET, None, meter.steps_used)


# --- proof replay and serialization ---------------------------------------------


def replay_proof(proof: Proof, axiom: Equation, goal: GroundDiseq) -> ReplayResult:
    """Re-execute a proof by matching and substitution only.

    Each step must rewrite the current term at the stated position with the
    stated axiom instance (in either orientation), and the final term must be
    the goal's right side.  The failed step index is reported otherwise; index
    len(steps) means the conversion stopped short of the goal."""
    axiom = canonicalize(axiom)
    current = goal.left
    for index, step in enumerate(proof.steps):
        if step.before != current:
            return ReplayResult(False, index)
        try:
            sub = subterm_at(current, step.pos)
        except ValueError:
            return ReplayResult(False, index)
        subst = dict(step.subst)
        inst_l = apply_subst(axiom.lhs, subst)
        inst_r = apply_subst(axiom.rhs, subst)
        forward = sub == inst_l and step.after == replace_at(current, step.pos, inst_r)
        backward = sub == inst_r and step.after == replace_at(current, step.pos, inst_l)
        if not (forward or backward):
            return ReplayResult(False, index)
        current = step.after
    if current != goal.right:
        return ReplayResult(False, len(proof.steps))
    return ReplayResult(True, None)


def _format_pos(pos: tuple[int, ...]) -> str:
    return "e" if not pos else ".".join(str(p) for p in pos)


def _parse_pos(text: str) -> tuple[int, ...]:
    if text == "e":
        return ()
    return tuple(int(p) for p in text.split("."))


def format_proof(proof: Proof) -> str:
    lines = []
    for k, step in enumerate(proof.steps, 1):
        subst = ",".join(
            f"{var_name(i)}={format_term(v)}" for i, v in sorted(step.subst)
        )
        lines.append(
            f"step {k}: rewrite at {_format_pos(step.pos)} with eq {step.eq_id} "
            f"under {{{subst}}}: {format_term(step.before)} ==> {format_term(step.after)}"
        )
    return "\n".join(lines)


_STEP_RE = re.compile(
    r"step (\d+): rewrite at (\S+) with eq (\d+) under \{(.*)\}: (.*) ==> (.*)$"
)


def parse_proof(text: str) -> Proof:
    steps = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        m = _STEP_RE.match(line.strip())
        if m is None:
            raise ValueError(f"bad proof line {lineno}")
        _, pos_text, eq_id, subst_text, before, after = m.groups()
        subst = []
        if subst_text:
            for item in subst_text.split(","):
                name, _, value = item.partition("=")
                index = _var_index(name)
                if index is None:
                    raise ValueError(f"bad substitution entry {item!r} on line {lineno}")
                subst.append((index, parse_term(value)))
        steps.append(
            Step(
                pos=_parse_pos(pos_text),
                subst=tuple(subst),
                before=parse_term(before),
                after=parse_term(after),
                eq_id=int(eq_id),
            )
        )
    return Proof(tuple(steps))
