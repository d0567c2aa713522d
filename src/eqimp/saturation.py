"""Unit-equality saturation for one axiom against ground disequations.

The prover runs unfailing completion: equations are oriented with a
Knuth-Bendix ordering where possible, critical pairs are drawn between the
maximal sides, and each goal's two ground sides are kept normalized under
ordered rewriting.  A goal is proved when its sides meet; a saturated set
with the goal still open refutes the implication.  The goals never steer the
search, so one loop serves all the goals of an axiom.

Every queued equation is a canonical triple: sides as canonicalize numbers
them and a derivation ending in them.  The axiom, critical pairs and stored
equations that inter-reduction simplifies all enter the queue that one way.

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
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

from .budget import OUT_OF_BUDGET, Budget, BudgetMeter, UNLIMITED
from .terms import (
    Const,
    Equation,
    Op,
    Subst,
    Term,
    Var,
    apply_subst,
    canonical_sides,
    canonicalize,
    format_term,
    parse_term,
    positions,
    replace_at,
    shape,
    subterm_at,
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


def _covers(s: Term, t: Term) -> bool:
    """Each variable occurs in s at least as often as in t."""
    counts = s._counts
    for index, k in t._counts.items():
        if counts.get(index, 0) < k:
            return False
    return True


def kbo_compare(s: Term, t: Term) -> Cmp:
    # precedence: a < b < c < ... < op
    if s is t:
        return EQ
    if s.size > t.size:
        return GT if _covers(s, t) else INC
    if t.size > s.size:
        return LT if _covers(t, s) else INC
    # equal weight: two constants, two products, or a variable against a
    # constant or another variable, which is incomparable
    if isinstance(s, Const) and isinstance(t, Const):
        return GT if s.index > t.index else LT
    if not (isinstance(s, Op) and isinstance(t, Op)):
        return INC
    sub = kbo_compare(s.left, t.left)
    if sub is EQ:
        sub = kbo_compare(s.right, t.right)
    if sub is GT:
        return GT if _covers(s, t) else INC
    if sub is LT:
        return LT if _covers(t, s) else INC
    return INC


# --- matching, unification -----------------------------------------------------


def match(pattern: Term, subject: Term) -> Subst | None:
    """One-way matching: a substitution s with s(pattern) == subject."""
    if pattern.size > subject.size:
        return None  # no instance is smaller than its pattern
    subst: Subst = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = subst.get(p.index)
            if bound is None:
                subst[p.index] = s
            elif bound is not s:
                return None
        elif isinstance(p, Const):
            if p is not s:
                return None
        else:
            if not isinstance(s, Op):
                return None
            stack.append((p.left, s.left))
            stack.append((p.right, s.right))
    return subst


def _resolve(term: Term, subst: Subst) -> Term:
    # term with each bound variable replaced, through chains of bindings
    if isinstance(term, Var):
        bound = subst.get(term.index)
        return term if bound is None else _resolve(bound, subst)
    if isinstance(term, Op) and not subst.keys().isdisjoint(term._counts):
        return Op(_resolve(term.left, subst), _resolve(term.right, subst))
    return term


def unify(s: Term, t: Term) -> Subst | None:
    """Most general unifier with occurs check, or None.  Bindings are kept
    triangular (a binding may hold a variable bound after it) and resolved
    once at the end into the idempotent substitution; a new binding's side
    is resolved first, for the occurs check.  The left side's variable is
    bound first."""
    subst: Subst = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        while isinstance(a, Var) and a.index in subst:
            a = subst[a.index]
        while isinstance(b, Var) and b.index in subst:
            b = subst[b.index]
        if a is b:
            continue
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            b = _resolve(b, subst)
            if a.index in b._counts:
                return None
            subst[a.index] = b
        elif isinstance(a, Op) and isinstance(b, Op):
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        else:
            return None
    return {i: _resolve(v, subst) for i, v in subst.items()}


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
    return [Use(u.source, not u.flip, u.subst, u.context, u.pos, u.shift) for u in reversed(uses)]


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


# safety bound on the rewrite steps of one normalization
REWRITE_CAP = 10_000


@dataclass(frozen=True)
class ProcessedEq:
    lhs: Term
    rhs: Term
    # kbo_compare(lhs, rhs): GT rewrites lhs to rhs, LT rhs to lhs, INC either
    # way when the instance decreases
    orientation: Cmp
    derivation: Derivation  # of the axiom-level conversion lhs => rhs

    def directed(self):
        """(source, target, use of the derivation source=>target) views
        usable for rewriting."""
        forward = (self.lhs, self.rhs, Use(self.derivation))
        backward = (self.rhs, self.lhs, Use(self.derivation, flip=True))
        if self.orientation is GT:
            return (forward,)
        if self.orientation is LT:
            return (backward,)
        return (forward, backward)


def _try_rewrite_root(term, rules):
    for src, tgt, use, ordered in rules:
        subst = match(src, term)
        if subst is None:
            continue
        extra = [i for i in shape(tgt)[1] if i not in subst]
        if extra:
            # fill unmatched target variables with the least constant; only
            # safe to decide termination by ordering when the redex is ground
            if shape(term)[1]:
                continue
            for i in extra:
                subst[i] = Const(0)
        replacement = apply_subst(tgt, subst)
        if not ordered or extra:
            if kbo_compare(term, replacement) != GT:
                continue
        return replacement, (), Use(use.source, use.flip, subst)
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
        ordered = eq.orientation is not INC
        for src, tgt, use in eq.directed():
            rules.append((src, tgt, use, ordered))
    return rules


def _normalize_traced(term, rules):
    """Normal form and the rule uses that convert term into it."""
    uses: list[Use] = []
    while True:
        hit = _rewrite_once(term, rules)
        if hit is None:
            return term, uses
        if len(uses) >= REWRITE_CAP:
            raise ValueError(f"rewrite step cap {REWRITE_CAP} exceeded")
        new_term, pos, use = hit
        uses.append(Use(use.source, use.flip, use.subst, term, pos))
        term = new_term


def _normal_triple(left, right, derivation, rules):
    """The canonical triple of left = right with both sides normalized under
    rules: the same triple when no rule applies, None when the sides meet."""
    left2, uses_l = _normalize_traced(left, rules)
    right2, uses_r = _normalize_traced(right, rules)
    if left2 == right2:
        return None
    if not (uses_l or uses_r):
        return left, right, derivation
    return _canonical_triple(left2, right2, _reverse(uses_l) + [Use(derivation)] + uses_r)


def orient_equation(eq: Equation) -> ProcessedEq | None:
    """Canonicalize and orient an equation; None when it is trivial (s = s).
    Its axiom step names the equation's id, or 1 when it has none."""
    eq = canonicalize(eq)
    if eq.lhs == eq.rhs:
        return None
    eq_id = eq.id if eq.id is not None else 1
    # canonical numbering makes first-occurrence order ascending
    identity = tuple((i, Var(i)) for i in variables(eq.lhs, eq.rhs))
    derivation = Derivation((Step((), identity, eq.lhs, eq.rhs, eq_id),))
    return ProcessedEq(eq.lhs, eq.rhs, kbo_compare(eq.lhs, eq.rhs), derivation)


# --- critical pairs -----------------------------------------------------------


def _canonical_triple(left, right, parts):
    """The canonical equation and a derivation of it from the concatenated
    parts.  The chain's renaming starts from the same first-occurrence
    numbering of the equation as canonicalize."""
    return (*canonical_sides(left, right), Derivation(tuple(parts), (left, right)))


def _sites(term, cache):
    """The non-variable positions of term and their subterms, in preorder."""
    found = cache.get(term)
    if found is None:
        found = [(pos, sub) for pos, sub in positions(term) if not isinstance(sub, Var)]
        cache[term] = found
    return found


def _overlaps(inner, outer, include_root, meter, cache):
    # the uses of directed views carry only a source and a flip
    s_in, t_in, use_in = inner
    s_out, t_out, use_out = outer
    found = []
    for pos, sub in _sites(s_out, cache):
        if meter.expired():
            break  # the caller sees the expiry too and drops this partial list
        if not (include_root or pos):
            continue
        mgu = unify(sub, s_in)
        if mgu is None:
            continue
        # discard overlaps whose instances flip against the ordering; mgu
        # unifies sub with s_in, so the peak holds s_in's instance at pos
        peak = apply_subst(s_out, mgu)
        left = apply_subst(t_out, mgu)
        if kbo_compare(left, peak) is GT:
            continue
        target = apply_subst(t_in, mgu)
        if kbo_compare(target, subterm_at(peak, pos)) is GT:
            continue
        right = replace_at(peak, pos, target)
        if left is right:
            continue
        back = Use(use_out.source, not use_out.flip, mgu)
        forward = Use(use_in.source, use_in.flip, mgu, peak, pos)
        found.append(_canonical_triple(left, right, (back, forward)))
    return found


def _critical_pair_triples(e1: ProcessedEq, e2: ProcessedEq, meter: BudgetMeter, cache: dict):
    """The canonical triples of the overlaps between e1 and e2, whose
    variables are shifted past e1's.  cache keeps e2's shifted copy and each
    outer side's overlap sites for later calls of the same loop."""
    offset = max(variables(e1.lhs, e1.rhs), default=-1) + 1
    shifted = cache.get((e2, offset))
    if shifted is None:
        shift = {i: Var(i + offset) for i in variables(e2.lhs, e2.rhs)}
        shifted = cache[e2, offset] = ProcessedEq(
            apply_subst(e2.lhs, shift),
            apply_subst(e2.rhs, shift),
            e2.orientation,
            Derivation((Use(e2.derivation, shift=offset),)),
        )
    triples = []
    for d1 in e1.directed():
        for d2 in shifted.directed():
            triples.extend(_overlaps(d1, d2, True, meter, cache))
            triples.extend(_overlaps(d2, d1, False, meter, cache))
    return triples


# --- the given-clause loop ------------------------------------------------------


@dataclass(frozen=True)
class SaturationOutcome:
    status: str  # PROVED | SATURATED | OUT_OF_BUDGET
    proof: Proof | None
    steps_used: int
    seconds: float = field(compare=False)  # from the loop's start until the goal closed


def saturate(axiom: Equation, goal: GroundDiseq, budget: Budget = UNLIMITED) -> SaturationOutcome:
    """Prove or refute goal.left = goal.right from one universally quantified
    axiom: saturate_many over the one goal, whose error is raised.  Proved
    comes with a replayable proof; Saturated refutes."""
    (outcome,) = saturate_many(axiom, [goal], budget)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def saturate_many(axiom: Equation, goals, budget: Budget = UNLIMITED) -> list:
    """One outcome per goal, in order, from one given-clause loop.  The goals
    never steer it: each open goal's sides are normalized at the top of every
    iteration, so each outcome (steps and proof included) is the one its goal
    gets alone.  An exception raised on one goal's sides is that goal's entry;
    one raised on the axiom's side is every open goal's.  An outcome's
    seconds run from the loop's start until its goal closed."""
    started = time.monotonic()
    meter = BudgetMeter(budget)
    outcomes: list[SaturationOutcome | Exception | None] = [None] * len(goals)
    # each open goal's sides and the rule uses that rewrote them so far
    open_goals = {index: (goal.left, [], goal.right, []) for index, goal in enumerate(goals)}

    def close(index, status, proof=None):
        del open_goals[index]
        outcomes[index] = status if isinstance(status, Exception) else SaturationOutcome(
            status, proof, meter.steps_used, time.monotonic() - started
        )

    queue: list[tuple[int, int, Term, Term, Derivation]] = []
    serial = 0
    seen: set[tuple[Term, Term]] = set()  # canonical sides
    cache: dict = {}  # shifted copies and overlap sites, for this loop only

    def unseen(left, right) -> bool:
        """Record canonical sides and their canonical flip; False when they
        were seen either way round."""
        if (left, right) in seen:
            return False
        seen.add((left, right))
        seen.add(canonical_sides(right, left))
        return True

    def enqueue(left, right, derivation):
        """Queue the canonical triple unless its equation was seen."""
        nonlocal serial
        if not unseen(left, right):
            return
        heapq.heappush(queue, (left.size + right.size, serial, left, right, derivation))
        serial += 1

    processed: list[ProcessedEq] = []
    rules = _directed_rules(processed)
    status: str | Exception = OUT_OF_BUDGET
    try:
        base = orient_equation(axiom)
        if base is not None:
            enqueue(base.lhs, base.rhs, base.derivation)

        while open_goals and meter.tick():
            for index, (goal_left, left_uses, goal_right, right_uses) in list(open_goals.items()):
                try:
                    goal_left, uses = _normalize_traced(goal_left, rules)
                    left_uses.extend(uses)
                    goal_right, uses = _normalize_traced(goal_right, rules)
                    right_uses.extend(uses)
                    open_goals[index] = (goal_left, left_uses, goal_right, right_uses)
                    if goal_left == goal_right:
                        conversion = Derivation(tuple(left_uses + _reverse(right_uses)))
                        close(index, PROVED, Proof(expand(conversion)))
                except Exception as err:  # noqa: BLE001 - this goal's own error
                    close(index, err)
            if not (open_goals and queue):  # every goal closed, or the set saturated
                status = SATURATED
                break

            _, _, left, right, derivation = heapq.heappop(queue)
            triple = _normal_triple(left, right, derivation, rules)
            if triple is None:
                continue
            if triple[2] is not derivation and not unseen(triple[0], triple[1]):
                continue  # rewritten to an equation already seen
            left, right, derivation = triple
            given = ProcessedEq(left, right, kbo_compare(left, right), derivation)

            # the deadline checks below use no steps, so step-budgeted runs are
            # unaffected; they keep one long iteration from overrunning a wall budget
            new_triples = []
            for other in processed + [given]:
                new_triples.extend(_critical_pair_triples(given, other, meter, cache))
                if meter.expired():
                    break

            # inter-reduction: simplify stored equations with the new one
            given_rules = _directed_rules([given])
            survivors = []
            for other in processed:
                if meter.expired():
                    break
                triple = _normal_triple(other.lhs, other.rhs, other.derivation, given_rules)
                if triple is None:
                    continue
                if triple[2] is other.derivation:
                    survivors.append(other)
                else:  # re-enters the queue like a critical pair
                    enqueue(*triple)
            if meter.expired():
                break
            processed = survivors + [given]
            rules = _directed_rules(processed)

            for triple in new_triples:
                enqueue(*triple)
    except Exception as err:  # noqa: BLE001 - the axiom side's error is every open goal's
        status = err
    for index in list(open_goals):
        close(index, status)
    return outcomes


# --- proof replay and serialization ---------------------------------------------


def replay_proof(proof: Proof, axiom: Equation, goal: GroundDiseq) -> ReplayResult:
    """Re-execute a proof by matching and substitution only.

    Each step must name the axiom's id (1 when it has none), as saturate
    does, and rewrite the current term at the stated position with the
    stated axiom instance (in either orientation); the final term must be
    the goal's right side.  The failed step index is reported otherwise; index
    len(steps) means the conversion stopped short of the goal."""
    ax_id = axiom.id if axiom.id is not None else 1
    axiom = canonicalize(axiom)
    current = goal.left
    for index, step in enumerate(proof.steps):
        if step.eq_id != ax_id or step.before != current:
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


# numbers as format_proof prints them: ASCII digits, no leading zero
_STEP_RE = re.compile(
    r"step ([1-9][0-9]*): rewrite at (e|[01](?:\.[01])*) with eq (0|[1-9][0-9]*) "
    r"under \{(.*)\}: (.*) ==> (.*)$"
)


def parse_proof(text: str) -> Proof:
    steps = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        m = _STEP_RE.match(line.strip())
        if m is None:
            raise ValueError(f"bad proof line {lineno}")
        number, pos_text, eq_id, subst_text, before, after = m.groups()
        if int(number) != len(steps) + 1:
            raise ValueError(f"step {number} on line {lineno} should be step {len(steps) + 1}")
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
