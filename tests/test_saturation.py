import gc
import heapq
import itertools
import pathlib
import random
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import oracle_holds, oracle_tables, random_equation, random_ground_term, random_term
from eqimp import saturation, terms
from eqimp.budget import UNLIMITED, Budget, BudgetMeter
from eqimp.models import FOUND, find_countermodel
from eqimp.saturation import (
    Cmp,
    Derivation,
    OUT_OF_BUDGET,
    PROVED,
    Proof,
    SATURATED,
    Step,
    Use,
    _critical_pair_triples,
    _directed_rules,
    _normalize_traced,
    apply_subst,
    expand,
    format_proof,
    kbo_compare,
    match,
    orient_equation,
    parse_proof,
    replay_proof,
    saturate,
    saturate_many,
    unify,
)
from eqimp.terms import (
    Const,
    Equation,
    Op,
    Var,
    canonicalize,
    enumerate_pairs,
    load_corpus,
    parse_equation,
    variables,
)
from eqimp.tptp import GroundDiseq, skolemize

DATA = pathlib.Path(__file__).parent / "data"
A, B, C = Const(0), Const(1), Const(2)
COMM = parse_equation("x*y=y*x")
ASSOC = parse_equation("(x*y)*z=x*(y*z)")
LEFT_PROJ = parse_equation("x*y=x")
IDEM = parse_equation("x*x=x")
ALL_EQUAL = parse_equation("x*y=u*w")

# --- reference ordering --------------------------------------------------------
# A from-scratch textbook KBO (uniform weight 1, precedence a < b < ... < op),
# written as a strict greater-than test.  kbo_compare is checked against this,
# never against itself.


def _ref_vars(term):
    counts = Counter()
    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            counts[t.index] += 1
        elif isinstance(t, Op):
            todo.extend((t.left, t.right))
    return counts


def _ref_size(term):
    return 1 + _ref_size(term.left) + _ref_size(term.right) if isinstance(term, Op) else 1


def _ref_head(term):
    return 10**9 if isinstance(term, Op) else term.index


def _ref_gt(s, t):
    sv, tv = _ref_vars(s), _ref_vars(t)
    if any(count > sv.get(v, 0) for v, count in tv.items()):
        return False
    ws, wt = _ref_size(s), _ref_size(t)
    if ws != wt:
        return ws > wt
    # no unary symbols, so the f^n(x) special case cannot arise
    if isinstance(s, Var) or isinstance(t, Var):
        return False
    if _ref_head(s) != _ref_head(t):
        return _ref_head(s) > _ref_head(t)
    if isinstance(s, Const):
        return False
    if s.left != t.left:
        return _ref_gt(s.left, t.left)
    return _ref_gt(s.right, t.right)


def _ref_cmp(s, t):
    if s == t:
        return Cmp.EQ
    if _ref_gt(s, t):
        return Cmp.GT
    if _ref_gt(t, s):
        return Cmp.LT
    return Cmp.INC


def _ground_terms(depth, consts=2):
    layers = [[Const(i) for i in range(consts)]]
    for _ in range(depth):
        smaller = [t for layer in layers for t in layer]
        layers.append([Op(l, r) for l in smaller for r in smaller])
    seen = []
    for layer in layers:
        for t in layer:
            if t not in seen:
                seen.append(t)
    return seen


# --- kbo_compare ----------------------------------------------------------------


def test_kbo_examples():
    assert kbo_compare(Op(Var(0), Var(1)), Var(0)) == Cmp.GT
    assert kbo_compare(Var(0), Var(1)) == Cmp.INC
    assert kbo_compare(Op(A, B), Op(B, A)) == Cmp.LT
    assert kbo_compare(Op(A, B), Op(A, B)) == Cmp.EQ
    assert kbo_compare(ASSOC.lhs, ASSOC.rhs) == Cmp.GT


def test_kbo_incomparable_equal_weight_vars():
    # m(x,x) vs m(x,y): neither side's variables cover the other's
    assert kbo_compare(Op(Var(0), Var(0)), Op(Var(0), Var(1))) == Cmp.INC


def test_kbo_matches_reference_on_ground_terms():
    terms = _ground_terms(2)
    assert len(terms) == 38
    for s in terms:
        for t in terms:
            assert kbo_compare(s, t) == _ref_cmp(s, t), (s, t)


def test_kbo_ground_totality_depth_two():
    terms = _ground_terms(2)
    for i, s in enumerate(terms):
        for t in terms[i + 1 :]:
            assert kbo_compare(s, t) in (Cmp.GT, Cmp.LT)


def test_kbo_matches_reference_on_sampled_open_terms():
    rng = random.Random(40)
    for _ in range(2_000):
        s = random_term(rng, 3, 3, num_consts=2)
        t = random_term(rng, 3, 3, num_consts=2)
        assert kbo_compare(s, t) == _ref_cmp(s, t), (s, t)


def test_kbo_irreflexive_and_antisymmetric():
    rng = random.Random(41)
    mirror = {Cmp.GT: Cmp.LT, Cmp.LT: Cmp.GT, Cmp.EQ: Cmp.EQ, Cmp.INC: Cmp.INC}
    for _ in range(1_000):
        s = random_term(rng, 3, 3, num_consts=2)
        t = random_term(rng, 3, 3, num_consts=2)
        assert kbo_compare(s, s) == Cmp.EQ
        assert (kbo_compare(s, t) == Cmp.EQ) == (s == t)
        assert kbo_compare(t, s) == mirror[kbo_compare(s, t)]


def test_kbo_transitive_on_sampled_ground_triples():
    rng = random.Random(42)
    terms = _ground_terms(2)
    for _ in range(2_000):
        a, b, c = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        if kbo_compare(a, b) == Cmp.GT and kbo_compare(b, c) == Cmp.GT:
            assert kbo_compare(a, c) == Cmp.GT


def test_kbo_stability_under_substitution():
    rng = random.Random(43)
    checked = 0
    while checked < 1_000:
        s = random_term(rng, 3, 3, num_consts=2)
        t = random_term(rng, 3, 3, num_consts=2)
        if kbo_compare(s, t) != Cmp.GT:
            continue
        subst = {i: random_term(rng, 2, 2, num_consts=2) for i in range(3)}
        assert kbo_compare(apply_subst(s, subst), apply_subst(t, subst)) == Cmp.GT
        checked += 1


def test_kbo_compatible_with_contexts():
    rng = random.Random(44)
    checked = 0
    while checked < 1_000:
        s = random_term(rng, 2, 3, num_consts=2)
        t = random_term(rng, 2, 3, num_consts=2)
        if kbo_compare(s, t) != Cmp.GT:
            continue
        other = random_term(rng, 2, 3, num_consts=2)
        assert kbo_compare(Op(s, other), Op(t, other)) == Cmp.GT
        assert kbo_compare(Op(other, s), Op(other, t)) == Cmp.GT
        checked += 1


# --- matching and unification -----------------------------------------------------


def test_match_basics():
    assert match(Op(Var(0), Var(1)), Op(A, B)) == {0: A, 1: B}
    assert match(Op(Var(0), Var(0)), Op(A, B)) is None
    assert match(Op(Var(0), Var(0)), Op(Op(A, B), Op(A, B))) == {0: Op(A, B)}
    assert match(A, A) == {}
    assert match(A, B) is None
    assert match(Var(0), Var(1)) == {0: Var(1)}
    assert match(Op(Var(0), B), Op(A, B)) == {0: A}


def test_unify_examples():
    assert unify(Op(Var(0), B), Op(A, Var(1))) == {0: A, 1: B}
    assert unify(Var(0), Op(Var(0), Var(1))) is None
    got = unify(Op(Var(0), Var(0)), Op(Var(1), Op(Var(2), Var(2))))
    assert got == {0: Op(Var(2), Var(2)), 1: Op(Var(2), Var(2))}
    assert unify(A, B) is None
    assert unify(A, Var(0)) == {0: A}
    assert unify(A, A) == {}
    # the left side's variable is bound first
    assert unify(Var(0), Var(1)) == {0: Var(1)}
    assert unify(Op(Var(0), Var(1)), Op(Var(1), Var(0))) == {1: Var(0)}


def test_unifier_unifies_and_is_idempotent():
    rng = random.Random(45)
    unified = 0
    for _ in range(2_000):
        s = random_term(rng, 3, 3, num_consts=2)
        t = random_term(rng, 3, 3, num_consts=2)
        subst = unify(s, t)
        if subst is None:
            continue
        unified += 1
        left, right = apply_subst(s, subst), apply_subst(t, subst)
        assert left == right
        assert apply_subst(left, subst) == left
    assert unified > 200


def test_unifier_is_most_general():
    # s and t each generalize r·rho, cutting subterms out into fresh
    # variables, so theta (rho plus each cut variable's subterm) unifies them;
    # theta must factor through the computed unifier mu
    rng = random.Random(48)
    for _ in range(1_000):
        rho = {i: random_term(rng, 2, 3, num_consts=2) for i in range(3)}
        theta = dict(rho)
        fresh = itertools.count(10)

        def generalize(term):
            if rng.random() < 0.25:
                index = next(fresh)
                theta[index] = apply_subst(term, rho)
                return Var(index)
            if isinstance(term, Op):
                return Op(generalize(term.left), generalize(term.right))
            return term

        r = random_term(rng, 4, 3, num_consts=2)
        s, t = generalize(r), generalize(r)
        assert apply_subst(s, theta) == apply_subst(t, theta)
        mu = unify(s, t)
        assert mu is not None
        lam = match(apply_subst(s, mu), apply_subst(s, theta))
        assert lam is not None
        for i in variables(s, t):
            assert apply_subst(apply_subst(Var(i), mu), lam) == apply_subst(Var(i), theta)


def _eager_unify(s, t, failures):
    """unify as first written, the reference for the triangular one: each
    binding is applied at once to the pairs still open and to the earlier
    bindings.  Each failure's cause is appended to failures."""
    subst = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if a == b:
            continue
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a.index in variables(b):
                failures.append("occurs")
                return None
            binding = {a.index: b}
            subst = {i: apply_subst(v, binding) for i, v in subst.items()}
            subst[a.index] = b
            stack = [(apply_subst(l, binding), apply_subst(r, binding)) for l, r in stack]
        elif isinstance(a, Op) and isinstance(b, Op):
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        else:
            failures.append("clash")
            return None
    return subst


def test_unify_returns_what_eager_unification_returns():
    # variable-only terms over a few shared variables fail the occurs check,
    # constants add clashes, a shifted side shares no variable (as in a
    # critical pair), and two sides of one shape with only variables at their
    # leaves bind variables to variables in chains
    rng = random.Random(23)
    shifted = {i: Var(i + 4) for i in range(4)}

    def relabel(term):
        if isinstance(term, Op):
            return Op(relabel(term.left), relabel(term.right))
        return Var(rng.randrange(5))

    failures = []
    tally = Counter()
    for round in range(8_000):
        kind = round % 4
        if kind == 3:
            s = random_term(rng, 3, 5)
            t = relabel(s)
        else:
            s = random_term(rng, 3, 4 - kind, num_consts=kind)
            t = random_term(rng, 3, 4 - kind, num_consts=kind)
            if kind == 1 and round % 8 == 1:
                t = apply_subst(t, shifted)
        expected = _eager_unify(s, t, failures)
        got = unify(s, t)
        if expected is None:
            assert got is None, (s, t)
            continue
        assert list(got.items()) == list(expected.items()), (s, t)  # insertion order too
        tally["shared"] += bool(set(variables(s)) & set(variables(t)))
        tally["chains"] += sum(isinstance(value, Var) for value in got.values()) >= 2
    tally.update(failures)
    assert min(tally[kind] for kind in ("shared", "chains", "occurs", "clash")) > 500, tally


def test_match_found_by_oracle_search():
    rng = random.Random(46)
    for _ in range(500):
        pattern = random_term(rng, 2, 2)
        filler = {i: random_term(rng, 2, 2, num_consts=2) for i in range(2)}
        subject = apply_subst(pattern, filler)
        subst = match(pattern, subject)
        assert subst is not None
        assert apply_subst(pattern, subst) == subject


# --- normalization ----------------------------------------------------------------


def normalize(term, eqs):
    """Normal form of term under ordered rewriting with the equations."""
    nf, _ = _normalize_traced(term, _directed_rules(orient_equation(eq) for eq in eqs))
    return nf


def test_normalize_projection():
    assert normalize(Op(Op(A, B), C), [LEFT_PROJ]) == A


def test_normalize_no_rules_apply():
    assert normalize(A, [LEFT_PROJ]) == A


def test_normalize_unorientable_fires_downhill_once():
    assert normalize(Op(B, A), [COMM]) == Op(A, B)
    assert normalize(Op(A, B), [COMM]) == Op(A, B)


def test_normalize_unorientable_skips_uphill_positions():
    # b*(a*b) is already minimal for commutativity: swapping either the whole
    # term or the inner product would grow it
    term = Op(B, Op(A, B))
    assert normalize(term, [COMM]) == term


def test_normalize_fills_extra_variables_with_least_constant():
    assert normalize(Op(A, B), [ALL_EQUAL]) == Op(A, A)


def test_normalize_accepts_processed_equations():
    proc = orient_equation(LEFT_PROJ)
    assert proc.orientation == Cmp.GT
    nf, uses = _normalize_traced(Op(A, B), _directed_rules([proc]))
    assert nf == A
    assert len(uses) == 1


def test_normalize_step_cap(monkeypatch):
    monkeypatch.setattr(saturation, "REWRITE_CAP", 0)
    with pytest.raises(ValueError, match="cap"):
        normalize(Op(B, A), [COMM])


def test_normalize_never_increases_kbo():
    rng = random.Random(47)
    systems = [[COMM], [ASSOC], [LEFT_PROJ], [IDEM], [COMM, ASSOC]]
    for _ in range(300):
        term = random_ground_term(rng, 4, num_consts=3)
        for eqs in systems:
            nf = normalize(term, eqs)
            assert kbo_compare(term, nf) in (Cmp.GT, Cmp.EQ)


def test_orient_equation():
    assert orient_equation(COMM).orientation == Cmp.INC
    assert orient_equation(ASSOC).orientation == Cmp.GT
    assert orient_equation(parse_equation("x=x*y")).orientation == Cmp.LT
    assert orient_equation(parse_equation("x=x")) is None


# --- critical pairs ----------------------------------------------------------------


def critical_pairs(e1, e2):
    """The canonical critical pairs between two equations, as saturation
    derives them; the same equation may be passed twice."""
    triples = _critical_pair_triples(
        orient_equation(e1), orient_equation(e2), BudgetMeter(UNLIMITED), {}
    )
    return [Equation(left, right) for left, right, _ in triples]


def _contains_up_to_orientation(pairs, text):
    want = canonicalize(parse_equation(text))
    flipped = canonicalize(Equation(want.rhs, want.lhs))
    forms = set()
    for eq in pairs:
        forms.add((eq.lhs, eq.rhs))
        back = canonicalize(Equation(eq.rhs, eq.lhs))
        forms.add((back.lhs, back.rhs))
    return (want.lhs, want.rhs) in forms or (flipped.lhs, flipped.rhs) in forms


def test_critical_pairs_projection_with_itself_is_empty():
    assert critical_pairs(LEFT_PROJ, LEFT_PROJ) == []


def test_critical_pairs_idempotence_with_itself_is_empty():
    assert critical_pairs(IDEM, IDEM) == []


def test_critical_pairs_commutativity_self_overlap_is_trivial():
    assert critical_pairs(COMM, COMM) == []


def test_critical_pairs_comm_assoc_contains_expected():
    pairs = critical_pairs(COMM, ASSOC)
    assert pairs
    assert _contains_up_to_orientation(pairs, "(y*x)*z=x*(y*z)")
    for eq in pairs:
        assert eq.lhs != eq.rhs
        assert canonicalize(eq) == eq


def test_critical_pairs_found_by_brute_force_oracle():
    # the oracle unifies every non-variable subterm of one equation's side
    # with a side of the other (into e2 with the root, into e1 without it) and
    # keeps an overlap unless an instantiated ordering check sees it go uphill;
    # the computed pairs must be exactly its pairs, orientation included
    from eqimp.terms import positions, replace_at

    def oracle(e1, e2, skip=None):
        shift = {i: Var(i + 10) for i in range(6)}
        e2 = Equation(apply_subst(e2.lhs, shift), apply_subst(e2.rhs, shift))
        found = Counter()
        for inner, outer, root in ((e1, e2, True), (e2, e1, False)):
            for l1, r1 in ((inner.lhs, inner.rhs), (inner.rhs, inner.lhs)):
                for l2, r2 in ((outer.lhs, outer.rhs), (outer.rhs, outer.lhs)):
                    if Cmp.GT in (kbo_compare(r1, l1), kbo_compare(r2, l2)):
                        continue  # a side that always goes uphill is never rewritten
                    for pos, sub in positions(l2):
                        if isinstance(sub, Var) or (pos == () and not root):
                            continue
                        mgu = unify(sub, l1)
                        if mgu is None:
                            continue
                        peak, left = apply_subst(l2, mgu), apply_subst(r2, mgu)
                        target = apply_subst(r1, mgu)
                        if skip != "outer" and kbo_compare(left, peak) == Cmp.GT:
                            continue
                        if skip != "inner" and kbo_compare(target, apply_subst(l1, mgu)) == Cmp.GT:
                            continue
                        right = replace_at(peak, pos, target)
                        if left != right:
                            found[canonicalize(Equation(left, right))] += 1
        return found

    inv = parse_equation("x*(x*y)=y")
    cases = [
        (COMM, ASSOC),
        (COMM, inv),
        (inv, COMM),
        (parse_equation("x*y=x*x"), parse_equation("(x*y)*y=x")),
        (parse_equation("(x*y)*y=x"), parse_equation("x*y=x*x")),
    ]
    for e1, e2 in cases:
        expected = oracle(e1, e2)
        assert expected
        assert Counter(critical_pairs(e1, e2)) == expected, (e1, e2)
    # each check rejects, on some case, an overlap whose pair arises no other way
    for check in ("outer", "inner"):
        assert any(set(oracle(e1, e2, check)) - set(oracle(e1, e2)) for e1, e2 in cases)


# --- saturation ----------------------------------------------------------------------


def _goal(premise_text, conclusion_text):
    return parse_equation(premise_text), skolemize(parse_equation(conclusion_text))


def test_saturate_proves_all_products_equal_implies_comm():
    axiom, goal = _goal("x*y=u*w", "x*y=y*x")
    outcome = saturate(axiom, goal, Budget.of_steps(500))
    assert outcome.status == PROVED
    assert outcome.steps_used <= 10
    assert replay_proof(outcome.proof, axiom, goal).accepted


def test_saturate_comm_does_not_imply_assoc():
    axiom, goal = _goal("x*y=y*x", "(x*y)*z=x*(y*z)")
    outcome = saturate(axiom, goal, Budget.of_steps(500))
    assert outcome.status == SATURATED
    assert outcome.proof is None
    # cross-check: the model finder refutes the same pair outright
    search = find_countermodel(COMM, ASSOC, max_size=2)
    assert search.status == FOUND


def test_saturate_assoc_does_not_imply_comm():
    axiom, goal = _goal("(x*y)*z=x*(y*z)", "x*y=y*x")
    outcome = saturate(axiom, goal, Budget.of_steps(500))
    assert outcome.status == SATURATED
    search = find_countermodel(ASSOC, COMM, max_size=2)
    assert search.status == FOUND


def test_wall_budget_bounds_one_long_iteration():
    # a few given equations in, a single iteration's critical pairs take
    # several times the budget unless the deadline is checked inside it
    axiom, goal = _goal("x*(y*(y*y))=y*x", "x=(y*(y*x))*(z*(y*x))")
    started = time.monotonic()
    outcome = saturate(axiom, goal, Budget.of_wall(0.3))
    assert outcome.status == OUT_OF_BUDGET
    assert time.monotonic() - started < 0.6  # within the 2x grace factor


def test_saturate_budget_zero():
    axiom, goal = _goal("x*y=y*x", "(x*y)*z=x*(y*z)")
    outcome = saturate(axiom, goal, Budget.of_steps(0))
    assert outcome.status == OUT_OF_BUDGET
    assert outcome.steps_used == 0
    assert outcome.proof is None


def test_saturate_trivial_goal_proved_with_empty_proof():
    axiom = parse_equation("x*y=y*x")
    goal = GroundDiseq(Op(A, B), Op(A, B))
    outcome = saturate(axiom, goal, Budget.of_steps(10))
    assert outcome.status == PROVED
    assert outcome.proof.steps == ()
    assert replay_proof(outcome.proof, axiom, goal).accepted


def test_saturate_projection_chain():
    axiom = LEFT_PROJ
    goal = GroundDiseq(Op(Op(A, B), C), A)
    outcome = saturate(axiom, goal, Budget.of_steps(100))
    assert outcome.status == PROVED
    assert len(outcome.proof.steps) == 2
    assert replay_proof(outcome.proof, axiom, goal).accepted


def test_saturate_collapse_axiom_proves_any_equality():
    axiom, goal = _goal("x=y", "x*y=y*x")
    outcome = saturate(axiom, goal, Budget.of_steps(100))
    assert outcome.status == PROVED
    assert replay_proof(outcome.proof, axiom, goal).accepted


def test_saturate_is_deterministic():
    axiom, goal = _goal("x*y=u*w", "(x*y)*z=x*(y*z)")
    first = saturate(axiom, goal, Budget.of_steps(200))
    second = saturate(axiom, goal, Budget.of_steps(200))
    assert first == second
    assert first.status == PROVED


def test_proved_implications_hold_in_all_small_magmas():
    # soundness spot check: anything Proved must hold in every magma of size <= 3
    # whose tables satisfy the premise
    cases = [("x*y=u*w", "x*y=y*x"), ("x*y=x", "(x*y)*z=x*(y*z)"), ("x=y", "x*x=x")]
    for premise_text, conclusion_text in cases:
        axiom, goal = _goal(premise_text, conclusion_text)
        outcome = saturate(axiom, goal, Budget.of_steps(500))
        assert outcome.status == PROVED
        conclusion = parse_equation(conclusion_text)
        for n in (1, 2, 3):
            for rows in oracle_tables(n):
                if oracle_holds(rows, axiom):
                    assert oracle_holds(rows, conclusion)


# --- proof replay and serialization ---------------------------------------------------


def test_replay_rejects_corrupted_substitution():
    axiom, goal = _goal("x*y=u*w", "x*y=y*x")
    outcome = saturate(axiom, goal, Budget.of_steps(500))
    steps = list(outcome.proof.steps)
    victim = steps[0]
    bad = dict(victim.subst)
    bad[0] = Op(bad[0], bad[0])
    steps[0] = Step(victim.pos, tuple(sorted(bad.items())), victim.before, victim.after, victim.eq_id)
    assert replay_proof(Proof(tuple(steps)), axiom, goal) == (False, 0)


def test_replay_rejects_tampered_intermediate_term():
    axiom = LEFT_PROJ
    goal = GroundDiseq(Op(Op(A, B), C), A)
    outcome = saturate(axiom, goal, Budget.of_steps(100))
    steps = list(outcome.proof.steps)
    last = steps[-1]
    steps[-1] = Step(last.pos, last.subst, last.before, Op(last.after, last.after), last.eq_id)
    result = replay_proof(Proof(tuple(steps)), axiom, goal)
    assert not result.accepted


def test_replay_rejects_bad_position():
    axiom = LEFT_PROJ
    goal = GroundDiseq(Op(A, B), A)
    step = Step((0, 0, 0), ((0, A), (1, B)), Op(A, B), A, 1)
    assert replay_proof(Proof((step,)), axiom, goal) == (False, 0)


def test_replay_empty_proof():
    axiom = COMM
    assert replay_proof(Proof(()), axiom, GroundDiseq(A, A)).accepted
    assert replay_proof(Proof(()), axiom, GroundDiseq(A, B)) == (False, 0)


def test_replay_rejects_conversion_stopping_short():
    axiom = LEFT_PROJ
    goal = GroundDiseq(Op(Op(A, B), C), A)
    outcome = saturate(axiom, goal, Budget.of_steps(100))
    truncated = Proof(outcome.proof.steps[:1])
    assert replay_proof(truncated, axiom, goal) == (False, 1)


def test_format_proof_golden_line():
    step = Step((), ((0, A), (1, B)), Op(A, B), A, 1)
    assert format_proof(Proof((step,))) == (
        "step 1: rewrite at e with eq 1 under {x=a,y=b}: a*b ==> a"
    )


def test_format_proof_nested_position():
    step = Step((0, 1), ((0, Op(A, B)),), Op(Op(C, Op(A, B)), A), Op(Op(C, A), A), 2)
    line = format_proof(Proof((step,)))
    assert "rewrite at 0.1 with eq 2" in line
    assert "{x=a*b}" in line


def test_proof_round_trip_through_text():
    axiom, goal = _goal("x*y=u*w", "x*y=y*x")
    outcome = saturate(axiom, goal, Budget.of_steps(500))
    text = format_proof(outcome.proof)
    parsed = parse_proof(text)
    assert parsed == outcome.proof
    assert replay_proof(parsed, axiom, goal).accepted


def test_parse_proof_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_proof("this is not a proof")
    # a position is e or a dotted path of 0 (left) and 1 (right) steps
    for pos in ("7.0", "-1.0", "2", "0.", ".1", "e.0", "01"):
        with pytest.raises(ValueError, match="line 1"):
            parse_proof(f"step 1: rewrite at {pos} with eq 1 under {{x=a}}: a*b ==> a")
    with pytest.raises(ValueError, match="substitution"):
        parse_proof("step 1: rewrite at e with eq 1 under {q=a}: a*b ==> a")
    # numbers are ASCII digits spelled as format_proof prints them
    for number, eq_id in (("\u0661", "1"), ("1", "\u0661"), ("01", "1"), ("1", "01"), ("+1", "1")):
        with pytest.raises(ValueError, match="line 1"):
            parse_proof(f"step {number}: rewrite at e with eq {eq_id} under {{x=a}}: a*b ==> a")
    # steps are numbered 1, 2, ... in order; a renumbered step would replay
    axiom, goal = _goal("x*y=u*w", "x*y=y*x")
    text = format_proof(saturate(axiom, goal, Budget.of_steps(500)).proof)
    assert text.startswith("step 1: ") and "\nstep 2: " in text
    with pytest.raises(ValueError, match="step 7 on line 1 should be step 1"):
        parse_proof(text.replace("step 1:", "step 7:", 1))
    with pytest.raises(ValueError, match="step 1 on line 2 should be step 2"):
        parse_proof(text.replace("step 2:", "step 1:", 1))


# --- pinned proofs ----------------------------------------------------------------------


def _outcomes(name, steps, shared=False):
    """(lhs, rhs, premise, goal, outcome) for every pair of a corpus in pair
    order under a step budget: one saturate call per pair or, when shared,
    one saturate_many call per premise over all of its conclusions."""
    corpus = load_corpus(str(DATA / name))
    for lhs, pairs in itertools.groupby(enumerate_pairs(corpus), key=lambda pair: pair[0]):
        rhss = [rhs for _, rhs in pairs]
        premise = corpus.by_id(lhs)
        goals = [skolemize(corpus.by_id(rhs)) for rhs in rhss]
        if shared:
            outcomes = saturate_many(premise, goals, Budget.of_steps(steps))
        else:
            outcomes = [saturate(premise, goal, Budget.of_steps(steps)) for goal in goals]
        for rhs, goal, outcome in zip(rhss, goals, outcomes):
            yield lhs, rhs, premise, goal, outcome


def _desk_proofs_text(shared=False) -> str:
    """Every proof the satur-500i stage (1,000 iterations) finds on its own over
    the desk corpus, as format_proof text under a 'pair <lhs> <rhs>' header.
    Each proof must replay against its premise."""
    lines = []
    for lhs, rhs, premise, goal, outcome in _outcomes("desk.eqs", 1_000, shared):
        if outcome.status != PROVED:
            continue
        assert replay_proof(outcome.proof, premise, goal).accepted, (lhs, rhs)
        lines.append(f"pair {lhs} {rhs}")
        if outcome.proof.steps:
            lines.append(format_proof(outcome.proof))
    return "\n".join(lines) + "\n"


def _random8_outcomes_text(shared=False) -> str:
    """The status and step count of every random8.eqs pair at 10 iterations
    under a 'pair' header, each proof's format_proof text after it."""
    lines = []
    for lhs, rhs, premise, goal, outcome in _outcomes("random8.eqs", 10, shared):
        lines.append(f"pair {lhs} {rhs} {outcome.status} steps={outcome.steps_used}")
        if outcome.status == PROVED:
            assert replay_proof(outcome.proof, premise, goal).accepted, (lhs, rhs)
            if outcome.proof.steps:
                lines.append(format_proof(outcome.proof))
    return "\n".join(lines) + "\n"


def test_desk_proofs_match_the_pinned_text():
    # search order, variable renaming and chain construction all show in the
    # text, so any change to them fails here
    expected = (DATA / "desk_satur500i_proofs.txt").read_text(encoding="utf-8")
    got = _desk_proofs_text()
    assert got.count("pair ") == 94
    assert got == expected


def test_random_law_outcomes_match_the_pinned_text():
    # random8.eqs holds eight random laws, some with unorientable equations;
    # a 10-iteration budget leaves some pairs proved, some saturated and some
    # out of budget, and every status and step count is pinned with the proofs
    got = _random8_outcomes_text()
    statuses = {line.split()[3] for line in got.splitlines() if line.startswith("pair ")}
    assert statuses == {PROVED, SATURATED, OUT_OF_BUDGET}
    assert got == (DATA / "random8_satur10i_outcomes.txt").read_text(encoding="utf-8")


# --- one loop for all of a premise's goals ---------------------------------------------


def test_shared_loops_match_the_pinned_texts():
    # the texts were pinned from one saturate call per pair
    desk = (DATA / "desk_satur500i_proofs.txt").read_text(encoding="utf-8")
    random8 = (DATA / "random8_satur10i_outcomes.txt").read_text(encoding="utf-8")
    assert _desk_proofs_text(shared=True) == desk
    assert _random8_outcomes_text(shared=True) == random8


def _summary(outcome):
    return outcome.status, outcome.steps_used, outcome.proof and format_proof(outcome.proof)


def test_shared_loop_matches_one_goal_calls_on_random_laws():
    # eight seeded random laws at 8 iterations leave pairs proved, saturated
    # and out of budget
    rng = random.Random(4)
    laws = [random_equation(rng) for _ in range(8)]
    statuses = set()
    for index, premise in enumerate(laws):
        goals = [skolemize(law) for other, law in enumerate(laws) if other != index]
        shared = saturate_many(premise, goals, Budget.of_steps(8))
        alone = [saturate(premise, goal, Budget.of_steps(8)) for goal in goals]
        assert list(map(_summary, shared)) == list(map(_summary, alone))
        statuses.update(outcome.status for outcome in shared)
    assert statuses == {PROVED, SATURATED, OUT_OF_BUDGET}


def test_a_loop_keeps_no_product_once_it_returns():
    # the loop keeps shifted copies and overlap sites for its own length; once
    # it returns and its outcomes are gone, every product it built is freed
    corpus = load_corpus(str(DATA / "random8.eqs"))
    goals = [skolemize(corpus.by_id(rhs)) for rhs in (1, 2, 3, 5, 6, 7, 8)]
    gc.collect()
    before = set(terms._ops)
    outcomes = saturate_many(corpus.by_id(4), goals, Budget.of_steps(10))
    assert any(outcome.proof and outcome.proof.steps for outcome in outcomes)
    assert not set(terms._ops) <= before  # the proofs hold products built by the loop
    del outcomes
    gc.collect()
    assert set(terms._ops) <= before


def test_a_goal_past_the_rewrite_cap_fails_alone(monkeypatch):
    # under left projection the middle goal's left side takes four rewrites
    monkeypatch.setattr(saturation, "REWRITE_CAP", 3)
    texts = ("x*y = x*z", "x = (((x*y)*z)*w)*u", "x*y = y*x")
    goals = [skolemize(parse_equation(text)) for text in texts]
    proved, capped, saturated = saturate_many(LEFT_PROJ, goals, Budget.of_steps(50))
    assert isinstance(capped, ValueError) and str(capped) == "rewrite step cap 3 exceeded"
    assert (proved.status, saturated.status) == (PROVED, SATURATED)
    assert _summary(proved) == _summary(saturate(LEFT_PROJ, goals[0], Budget.of_steps(50)))
    assert _summary(saturated) == _summary(saturate(LEFT_PROJ, goals[2], Budget.of_steps(50)))
    with pytest.raises(ValueError, match="rewrite step cap 3 exceeded"):
        saturate(LEFT_PROJ, goals[1], Budget.of_steps(50))


def test_an_error_on_the_axiom_side_goes_to_every_open_goal(monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(saturation, "_critical_pair_triples", boom)
    # the first goal's sides meet before any critical pair is drawn
    goals = [GroundDiseq(Op(A, B), Op(A, B)), skolemize(ASSOC), skolemize(IDEM)]
    proved, *failed = saturate_many(COMM, goals, Budget.of_steps(10))
    assert (proved.status, proved.steps_used) == (PROVED, 1)
    assert [str(err) for err in failed] == ["boom", "boom"]


def test_the_goals_of_one_loop_share_its_wall_budget():
    axiom = parse_equation("x*(y*(y*y))=y*x")
    texts = ("x=(y*(y*x))*(z*(y*x))", "x*y=y*x", "x=x*x", "x*y=x*(y*y)")
    goals = [skolemize(parse_equation(text)) for text in texts]
    started = time.monotonic()
    outcomes = saturate_many(axiom, goals, Budget.of_wall(0.3))
    assert time.monotonic() - started < 0.6  # within the 2x grace factor
    still_open = [outcome for outcome in outcomes if outcome.status not in (PROVED, SATURATED)]
    assert still_open and {outcome.status for outcome in still_open} == {OUT_OF_BUDGET}


def test_long_chains_stay_cheap():
    # the chains of this pair's derived equations grow steeply with each
    # iteration (building all of them took 18 s at 10 iterations); only a
    # proof's own chain may be built
    axiom, goal = _goal("x*(y*(y*y))=y*x", "x=(y*(y*x))*(z*(y*x))")
    started = time.monotonic()
    outcome = saturate(axiom, goal, Budget.of_steps(10))
    assert (outcome.status, outcome.steps_used) == (OUT_OF_BUDGET, 10)
    assert time.monotonic() - started < 5.0


def test_expansion_deeper_than_the_recursion_limit():
    axiom = orient_equation(LEFT_PROJ)
    derivation = axiom.derivation
    for _ in range(2 * sys.getrecursionlimit() + 1):
        derivation = Derivation((Use(derivation, flip=True),))
    (step,) = expand(derivation)  # an odd number of reversals
    assert (step.before, step.after) == (LEFT_PROJ.rhs, LEFT_PROJ.lhs)


# --- the queue ---------------------------------------------------------------------------

INTER_REDUCED = ("(x*y)*(y*z)=y*x", "x*x=y*x")  # inter-reduction fires within 12 iterations


def test_an_inter_reduced_equation_is_not_dropped():
    # a stored equation simplified by a new one goes back on the queue and is
    # processed; were it dropped, this proof would take longer to find
    axiom, goal = _goal(*INTER_REDUCED)
    outcome = saturate(axiom, goal, Budget.of_steps(40))
    assert (outcome.status, outcome.steps_used, len(outcome.proof.steps)) == (PROVED, 12, 29)
    assert replay_proof(outcome.proof, axiom, goal).accepted


def test_every_queued_equation_is_a_canonical_triple(monkeypatch):
    pushed = 0

    def heappush(queue, entry):
        nonlocal pushed
        _, _, left, right, _ = entry
        assert canonicalize(Equation(left, right)) == Equation(left, right)
        pushed += 1
        heapq.heappush(queue, entry)

    checked = SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    monkeypatch.setattr(saturation, "heapq", checked)
    saturate(*_goal(*INTER_REDUCED), Budget.of_steps(40))
    for _ in _outcomes("random8.eqs", 10, shared=True):
        pass
    assert pushed > 0
