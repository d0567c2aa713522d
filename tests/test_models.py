import itertools
import pathlib
import random

import pytest

from conftest import (
    oracle_countermodel_exists,
    oracle_eval,
    oracle_holds,
    oracle_width,
    random_equation,
)
from eqimp.budget import Budget
from eqimp.models import (
    EXHAUSTED,
    FOUND,
    OUT_OF_BUDGET,
    Countermodel,
    MagmaTable,
    eval_term,
    find_countermodel,
    find_countermodels,
    format_countermodel,
    parse_countermodel,
    verify_equation,
)
from eqimp.terms import Op, Var, load_corpus, parse_equation

# The brute-force oracle lives in conftest; the search is checked against it,
# never against itself.

DATA = pathlib.Path(__file__).parent / "data"
LEFT_PROJECTION = MagmaTable.from_rows([[0, 0], [1, 1]])
COMM = parse_equation("x*y=y*x")
ASSOC = parse_equation("(x*y)*z=x*(y*z)")


# --- tables and evaluation ---------------------------------------------------


def test_table_validation():
    with pytest.raises(ValueError, match="size"):
        MagmaTable(0, ())
    with pytest.raises(ValueError, match="entries"):
        MagmaTable(2, (0, 0, 0))
    with pytest.raises(ValueError, match="range"):
        MagmaTable(2, (0, 0, 0, 2))


def test_eval_term_matches_oracle():
    rng = random.Random(3)
    term = parse_equation("(x*y)*(y*z)=x").lhs
    for _ in range(50):
        n = rng.choice([2, 3])
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        env = tuple(rng.randrange(n) for _ in range(3))
        table = MagmaTable.from_rows(rows)
        assert eval_term(term, table, env) == oracle_eval(term, rows, env)


def test_verify_commutativity_violation_on_left_projection():
    # oracle: first lexicographic (x, y) with x*y != y*x in the table
    expected = None
    for env in itertools.product(range(2), repeat=2):
        if oracle_eval(COMM.lhs, [[0, 0], [1, 1]], env) != oracle_eval(
            COMM.rhs, [[0, 0], [1, 1]], env
        ):
            expected = env
            break
    assert expected == (0, 1)
    assert verify_equation(LEFT_PROJECTION, COMM) == expected


def test_verify_associativity_holds_on_left_projection():
    assert oracle_holds([[0, 0], [1, 1]], ASSOC)
    assert verify_equation(LEFT_PROJECTION, ASSOC) is None


def test_size_one_table_satisfies_everything():
    one = MagmaTable(1, (0,))
    rng = random.Random(11)
    for _ in range(50):
        assert verify_equation(one, random_equation(rng)) is None


# --- countermodel search -----------------------------------------------------


def _check_witness(outcome, premise, conclusion):
    cm = outcome.countermodel
    assert verify_equation(cm.table, premise) is None
    violation = verify_equation(cm.table, conclusion)
    assert violation == cm.assignment
    rows = cm.table.rows()
    assert oracle_holds(rows, premise)
    assert not oracle_holds(rows, conclusion)


def test_associativity_does_not_imply_commutativity():
    outcome = find_countermodel(ASSOC, COMM, max_size=2)
    assert outcome.status == FOUND
    assert outcome.countermodel.table.size == 2
    _check_witness(outcome, ASSOC, COMM)


def test_commutativity_does_not_imply_associativity():
    outcome = find_countermodel(COMM, ASSOC, max_size=2)
    assert outcome.status == FOUND
    _check_witness(outcome, COMM, ASSOC)


def test_constant_product_premise_exhausts_size_four():
    premise = parse_equation("x*y=u*w")
    outcome = find_countermodel(premise, COMM, max_size=4)
    assert outcome.status == EXHAUSTED
    assert outcome.max_size_searched == 4
    # oracle at the small sizes: no table satisfies the premise and breaks comm
    assert not oracle_countermodel_exists(premise, COMM, [2, 3])


def test_out_of_budget_on_tiny_step_allowance():
    outcome = find_countermodel(parse_equation("x=x"), COMM, budget=Budget.of_steps(3))
    assert outcome.status == OUT_OF_BUDGET
    assert outcome.steps_used <= 3


def test_out_of_budget_on_wall_clock():
    outcome = find_countermodel(
        parse_equation("x=x"), parse_equation("x*x=x"), max_size=6,
        budget=Budget.of_wall(0.0),
    )
    assert outcome.status == OUT_OF_BUDGET


def test_search_is_deterministic():
    a = find_countermodel(ASSOC, COMM, max_size=3)
    b = find_countermodel(ASSOC, COMM, max_size=3)
    assert a == b


def test_found_only_through_non_idempotent_tables():
    # the only size-2 witnesses here have no idempotent element, which a
    # naive value-only least-number rule would skip entirely
    premise = parse_equation("x*(y*z)=z")
    conclusion = parse_equation("x*y=y")
    outcome = find_countermodel(premise, conclusion, max_size=2)
    assert outcome.status == FOUND
    _check_witness(outcome, premise, conclusion)
    assert outcome.countermodel.table.rows() == [[1, 0], [1, 0]]


def test_completeness_against_enumeration_size_two():
    rng = random.Random(91)
    for _ in range(150):
        premise = random_equation(rng, max_depth=2, num_vars=3)
        conclusion = random_equation(rng, max_depth=2, num_vars=3)
        got = find_countermodel(premise, conclusion, max_size=2)
        expected = oracle_countermodel_exists(premise, conclusion, [2])
        assert (got.status == FOUND) == expected, (
            f"premise {premise} conclusion {conclusion}"
        )
        if got.status == FOUND:
            _check_witness(got, premise, conclusion)


def test_completeness_against_enumeration_size_three():
    rng = random.Random(17)
    for _ in range(12):
        premise = random_equation(rng, max_depth=2, num_vars=2)
        conclusion = random_equation(rng, max_depth=2, num_vars=2)
        got = find_countermodel(premise, conclusion, max_size=3)
        expected = oracle_countermodel_exists(premise, conclusion, [2, 3])
        assert (got.status == FOUND) == expected
        if got.status == FOUND:
            _check_witness(got, premise, conclusion)


def test_monotonicity_in_max_size():
    rng = random.Random(5)
    for _ in range(40):
        premise = random_equation(rng, max_depth=2, num_vars=2)
        conclusion = random_equation(rng, max_depth=2, num_vars=2)
        small = find_countermodel(premise, conclusion, max_size=2)
        if small.status == FOUND:
            bigger = find_countermodel(premise, conclusion, max_size=3)
            assert bigger.status == FOUND


def test_one_search_serves_several_conclusions():
    # the shared search decides each conclusion exactly as its own search does
    premise = parse_equation("x*y=u*w")
    conclusions = [COMM, parse_equation("x*y=x"), ASSOC, parse_equation("x*x=y")]
    for budget in (Budget.of_steps(40), Budget.of_steps(5_000)):
        shared = find_countermodels(premise, conclusions, max_size=4, budget=budget)
        alone = [find_countermodel(premise, c, max_size=4, budget=budget) for c in conclusions]
        assert shared == alone
    assert [o.status for o in shared] == [EXHAUSTED, FOUND, EXHAUSTED, FOUND]
    assert find_countermodels(premise, [], max_size=4) == []


def _desk_outcomes_text(order) -> str:
    """Status, steps, largest size searched and countermodel text of every
    desk pair at 50,000 steps and max size 6, from one search per premise
    over its conclusions in the given order ('pair <lhs> <rhs>' headers)."""
    corpus = load_corpus(str(DATA / "desk.eqs"))
    ids = range(1, corpus.count + 1)
    lines = []
    for lhs in ids:
        rhss = order([rhs for rhs in ids if rhs != lhs])
        outcomes = find_countermodels(
            corpus.by_id(lhs), [corpus.by_id(rhs) for rhs in rhss], 6, Budget.of_steps(50_000)
        )
        by_rhs = dict(zip(rhss, outcomes))
        for rhs in sorted(by_rhs):
            o = by_rhs[rhs]
            lines.append(
                f"pair {lhs} {rhs} {o.status} steps={o.steps_used} size={o.max_size_searched}"
            )
            if o.status == FOUND:
                lines.append(format_countermodel(o.countermodel))
    return "\n".join(lines) + "\n"


def test_desk_outcomes_match_the_pinned_text():
    # generated one pair at a time by the search that served a single
    # conclusion; neither sharing the search nor the order of the
    # conclusions may change an outcome
    expected = (DATA / "desk_fmb500i_outcomes.txt").read_text(encoding="utf-8")
    assert expected.count("pair ") == 380
    assert _desk_outcomes_text(list) == expected
    assert _desk_outcomes_text(lambda rhss: rhss[::-1]) == expected


# --- witness serialization ---------------------------------------------------


def test_countermodel_round_trip():
    cm = Countermodel(LEFT_PROJECTION, (0, 1))
    text = format_countermodel(cm)
    assert text == "2\n0 0\n1 1\nx=0 y=1"
    assert parse_countermodel(text) == cm


def test_countermodel_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_countermodel("2\n0 0\n1 1")
    with pytest.raises(ValueError):
        parse_countermodel("2\n0 0 0\n1 1\nx=0")
    with pytest.raises(ValueError):
        parse_countermodel("nope")
    for value in ("-1", "2"):
        # an assignment names table elements; a negative value would index
        # the table from its end
        with pytest.raises(ValueError, match="not an element 0..1"):
            parse_countermodel(f"2\n0 0\n1 1\nx=0 y={value}")
    # numbers are ASCII digits spelled as format_countermodel prints them;
    # int() alone would read each of these
    for text in (
        "\u0662\n0 0\n1 1\nx=0 y=1",
        "02\n0 0\n1 1\nx=0 y=1",
        "2\n0 \u0661\n1 1\nx=0 y=1",
        "2\n0 +0\n1 1\nx=0 y=1",
        "2\n0 0\n1 1\nx=0 y=+1",
        "2\n0 0\n1 1\nx=0 y=\u0661",
        "2\n0 0\n1 1\nx=0 y=01",
    ):
        with pytest.raises(ValueError):
            parse_countermodel(text)
    assert parse_countermodel("2\n0 0\n1 1\nx=0 y=1") == Countermodel(LEFT_PROJECTION, (0, 1))
