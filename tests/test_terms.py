import gc
import pathlib
import pickle
import random
import sys

import pytest

from conftest import random_equation, random_term
from eqimp import terms
from eqimp.budget import Budget
from eqimp.saturation import saturate
from eqimp.terms import (
    Const,
    Corpus,
    Equation,
    Op,
    Var,
    apply_subst,
    canonical_sides,
    canonicalize,
    enumerate_pairs,
    format_term,
    load_corpus,
    pair_count,
    parse_equation,
    parse_term,
    positions,
    print_equation,
    replace_at,
    shape,
    subterm_at,
    variables,
)
from eqimp.tptp import skolemize

DATA = pathlib.Path(__file__).parent / "data"


def test_parse_commutativity_structure():
    eq = parse_equation("x*y=y*x")
    assert eq == Equation(Op(Var(0), Var(1)), Op(Var(1), Var(0)))


def test_parse_fixed_letter_table():
    eq = parse_equation("y*z=z*y")
    assert eq == Equation(Op(Var(1), Var(2)), Op(Var(2), Var(1)))


def test_parse_nested_parens():
    eq = parse_equation("(x*y)*z=x*(y*z)")
    assert eq.lhs == Op(Op(Var(0), Var(1)), Var(2))
    assert eq.rhs == Op(Var(0), Op(Var(1), Var(2)))


def test_parse_redundant_parens_accepted():
    assert parse_equation("((x))*y=(y*x)") == parse_equation("x*y=y*x")


def test_parse_high_variable_indexes():
    eq = parse_equation("v6*v7=u*v")
    assert eq.lhs == Op(Var(6), Var(7))
    assert eq.rhs == Op(Var(4), Var(5))


def test_parse_rejects_unparenthesized_chain():
    with pytest.raises(ValueError, match="column"):
        parse_equation("x*y*z=x")


def test_parse_rejects_double_equals():
    with pytest.raises(ValueError, match="second '='"):
        parse_equation("x=y=z")


def test_parse_rejects_missing_equals():
    with pytest.raises(ValueError, match="missing '='"):
        parse_equation("x*y")


def test_parse_rejects_unknown_token():
    with pytest.raises(ValueError, match="column 2"):
        parse_equation("x+y=y")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        parse_equation("q*y=y")


def test_parse_accepts_only_names_it_prints():
    # a non-ASCII digit or a leading zero would print back as another name
    with pytest.raises(ValueError, match="unknown token '٦' at column 2"):
        parse_equation("v٦*x=x")
    with pytest.raises(ValueError, match="unknown variable 'v06' at column 1"):
        parse_equation("v06*x=x")
    with pytest.raises(ValueError, match="unknown token 'é' at column 1"):
        parse_equation("é*x=x")
    with pytest.raises(ValueError, match="unknown name 'c07' at column 1"):
        parse_term("c07")


def test_parse_rejects_constants_in_equations():
    with pytest.raises(ValueError, match="unknown variable 'a' at column 1"):
        parse_equation("a*x=x")


def test_parse_term_reads_constants_back():
    term = parse_term("(a*v6)*(c7*x)")
    assert term == Op(Op(Const(0), Var(6)), Op(Const(7), Var(0)))
    assert format_term(term) == "(a*v6)*(c7*x)"


def test_parse_term_rejects_malformed_input():
    with pytest.raises(ValueError, match="unknown name 'q' at column 3"):
        parse_term("a*q")
    with pytest.raises(ValueError, match="unexpected '\\*' at column 4"):
        parse_term("a*b*c")
    with pytest.raises(ValueError, match="unknown name 'c3'"):
        parse_term("c3")  # indexes below 6 are spelled a..f


def test_parser_limits_nesting_to_what_the_term_walkers_survive():
    def nested(depth):  # x wrapped as (x*y) depth times
        return "(" * depth + "x" + "*y)" * depth

    eq = parse_equation(f"{nested(terms.MAX_NESTING)}=x")
    assert parse_equation(print_equation(eq)) == eq
    # a substitution may double the depth
    deeper = apply_subst(eq.lhs, {0: eq.lhs})
    assert format_term(deeper) == nested(2 * terms.MAX_NESTING)[1:-1]
    assert canonicalize(Equation(deeper, eq.lhs)) == Equation(deeper, eq.lhs)
    too_deep = nested(terms.MAX_NESTING + 1)
    with pytest.raises(ValueError, match="nested deeper than 200 at column 201"):
        parse_equation(f"{too_deep}=x")
    with pytest.raises(ValueError, match="nested deeper than 200 at column 201"):
        parse_term(too_deep)


def test_parse_rejects_unclosed_paren():
    with pytest.raises(ValueError):
        parse_equation("(x*y=y")


def test_parse_error_positions_are_columns():
    with pytest.raises(ValueError, match="column 5"):
        parse_equation("x*y=$")


def test_print_is_fully_parenthesized_except_top():
    eq = parse_equation("(x*(y*z))*w=x*y")
    assert print_equation(eq) == "(x*(y*z))*w=x*y"


def test_print_parse_round_trip_samples():
    rng = random.Random(42)
    for _ in range(500):
        eq = random_equation(rng)
        assert canonicalize(parse_equation(print_equation(eq))) == eq


def test_canonicalize_first_occurrence_renumbering():
    assert canonicalize(parse_equation("y*z=z*y")) == parse_equation("x*y=y*x")


def test_canonicalize_orders_lhs_before_rhs():
    eq = canonicalize(parse_equation("z=x*y"))
    assert print_equation(eq) == "x=y*z"


def test_variables_first_occurrence_across_terms():
    eq = parse_equation("(z*x)*z=y*(w*x)")
    assert variables(eq.lhs, eq.rhs) == [2, 0, 1, 3]
    assert variables(Op(Const(1), Const(2))) == []


def test_shape_counts_symbols_and_variable_occurrences():
    eq = parse_equation("(z*x)*z=y*(w*x)")
    size, counts = shape(eq.lhs, eq.rhs)
    assert size == 10
    assert counts == {2: 2, 0: 2, 1: 1, 3: 1}
    assert list(counts) == [2, 0, 1, 3]
    assert shape(parse_term("a*(x*b)")) == (5, {0: 1})
    assert shape() == (0, {})
    rng = random.Random(8)
    for _ in range(200):
        eq = random_equation(rng)
        size, counts = shape(eq.lhs)
        assert size == sum(1 for _ in positions(eq.lhs))
        leaves = [sub.index for _, sub in positions(eq.lhs) if isinstance(sub, Var)]
        assert counts == {i: leaves.count(i) for i in leaves}


def test_a_product_leaves_the_shape_of_its_sides_unchanged():
    # a product's counts are built from its sides' dicts, ground or not, and
    # building on the product must change none of them
    term = parse_term("x*(y*x)")
    ground = parse_term("a*b")
    for build in (lambda t: Op(ground, t), lambda t: Op(t, ground)):
        product = build(term)
        assert shape(product) == (9, {0: 2, 1: 1})
        for side in (Var(0), Var(2), Op(Var(2), Var(1))):
            Op(product, side)
            Op(side, product)
        assert shape(product) == (9, {0: 2, 1: 1})
        assert shape(term) == (5, {0: 2, 1: 1})
        assert shape(ground) == (3, {})


def _eager_canonicalize(eq):
    """canonicalize as first written, the reference for canonical_sides: one
    renaming substitution built for every variable and applied to both sides."""
    rename = {old: Var(new) for new, old in enumerate(variables(eq.lhs, eq.rhs))}
    return Equation(apply_subst(eq.lhs, rename), apply_subst(eq.rhs, rename), id=eq.id)


def test_canonical_sides_rename_as_canonicalize_did():
    # sides over six variables are mostly renamed; canonical ones, and their
    # flips, take the path that skips the renaming walk
    rng = random.Random(29)
    renamed = kept = 0
    for round in range(3_000):
        if round % 3:
            eq = Equation(random_term(rng, 3, 6), random_term(rng, 3, 6), id=round)
        else:
            eq = random_equation(rng)
        for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            expected = _eager_canonicalize(Equation(lhs, rhs, id=round))
            sides = canonical_sides(lhs, rhs)
            assert sides == (expected.lhs, expected.rhs), (lhs, rhs)
            assert canonicalize(Equation(lhs, rhs, id=round)) == expected
            assert canonicalize(Equation(lhs, rhs, id=round)).id == round
            kept += sides == (lhs, rhs)
            renamed += sides != (lhs, rhs)
    assert min(kept, renamed) > 1_000, (kept, renamed)


def test_canonicalize_idempotent():
    rng = random.Random(7)
    for _ in range(500):
        eq = random_equation(rng)
        assert canonicalize(eq) == eq


def test_equation_id_not_part_of_identity():
    a = Equation(Var(0), Var(0), id=3)
    b = Equation(Var(0), Var(0), id=9)
    assert a == b and hash(a) == hash(b)


def test_load_corpus_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "laws.eqs"
    path.write_text("# header\n\nx*y=y*x\n  # indented comment\nx*x=x\n\n")
    corpus = load_corpus(str(path))
    assert corpus.count == 2
    assert corpus.by_id(1) == parse_equation("x*y=y*x")
    assert corpus.by_id(2) == parse_equation("x*x=x")
    assert [eq.id for eq in corpus.equations] == [1, 2]


def test_load_corpus_keeps_duplicates_with_distinct_ids(tmp_path):
    path = tmp_path / "laws.eqs"
    path.write_text("x*y=y*x\nx*y=y*x\n")
    corpus = load_corpus(str(path))
    assert corpus.count == 2
    assert corpus.by_id(1) == corpus.by_id(2)
    assert corpus.by_id(1).id != corpus.by_id(2).id


def test_load_corpus_canonicalizes_entries(tmp_path):
    path = tmp_path / "laws.eqs"
    path.write_text("y*z=z*y\n")
    corpus = load_corpus(str(path))
    assert corpus.by_id(1) == parse_equation("x*y=y*x")
    assert all(canonicalize(eq) == eq for eq in corpus.equations)


def test_load_corpus_reports_file_line_numbers(tmp_path):
    path = tmp_path / "laws.eqs"
    path.write_text("x*x=x\n# fine\nx*y*z=x\n")
    with pytest.raises(ValueError, match=r"laws\.eqs:3"):
        load_corpus(str(path))


def _corpus_of_size(m: int) -> Corpus:
    eq = parse_equation("x*y=y*x")
    return Corpus(tuple(Equation(eq.lhs, eq.rhs, id=i + 1) for i in range(m)))


def test_enumerate_pairs_is_lexicographic_without_diagonal():
    pairs = list(enumerate_pairs(_corpus_of_size(3)))
    assert pairs == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def test_enumerate_pairs_count_matches_formula():
    # oracle: exhaustive enumeration agrees with the closed form
    for m in (1, 2, 5, 40):
        pairs = list(enumerate_pairs(_corpus_of_size(m)))
        assert len(pairs) == pair_count(m) == m * m - m
        assert len(set(pairs)) == len(pairs)


def test_pair_count_full_corpus_size():
    assert pair_count(4694) == 22028942


def test_subterm_and_replace_round_trip():
    term = parse_equation("(x*y)*z=x").lhs
    assert subterm_at(term, (0, 1)) == Var(1)
    assert replace_at(term, (0, 1), Var(5)) == parse_equation("(x*v)*z=x").lhs
    for pos, sub in positions(term):
        assert subterm_at(term, pos) == sub
        assert replace_at(term, pos, sub) == term


def test_positions_preorder():
    term = parse_equation("(x*y)*z=x").lhs
    assert [pos for pos, _ in positions(term)] == [(), (0,), (0, 0), (0, 1), (1,)]


# --- sharing ------------------------------------------------------------------


def test_equal_terms_are_one_object():
    first = parse_equation("(x*y)*z=x*(y*z)")
    second = parse_equation("(x*y)*z=x*(y*z)")
    assert first.lhs is second.lhs and first.rhs is second.rhs
    assert Op(Var(0), Const(1)) is Op(Var(0), Const(1))
    assert Var(3) is not Const(3) and Var(3) != Const(3)


def test_terms_print_as_before():
    assert repr(parse_term("a*(x*b)")) == (
        "Op(left=Const(index=0), right=Op(left=Var(index=0), right=Const(index=1)))"
    )


def test_unpickled_term_is_the_live_one():
    term = parse_term("((x*a)*(y*x))*(z*(b*w))")
    assert pickle.loads(pickle.dumps(term)) is term


def test_terms_are_immutable():
    term = Op(Var(0), Var(1))
    with pytest.raises(AttributeError):
        term.left = Var(2)
    with pytest.raises(AttributeError):
        Var(0).index = 1
    with pytest.raises(AttributeError):
        del Const(0).index
    assert term == Op(Var(0), Var(1)) and Var(0).index == 0


def test_shape_of_a_term_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    term = Var(0)
    for i in range(depth):
        term = Op(term, Var(i % 2))
        if i == depth // 2:
            # a subterm asked first: the whole term builds on its counts
            assert shape(term) == (2 * i + 3, {0: i // 2 + 2, 1: (i + 1) // 2})
    size, counts = shape(term)
    assert size == 2 * depth + 1
    assert counts == {0: depth // 2 + 1, 1: depth // 2}
    assert variables(term, Var(5)) == [0, 1, 5]


def test_intern_table_lets_go_of_dead_terms():
    corpus = load_corpus(str(DATA / "random8.eqs"))
    premise, goal = corpus.by_id(1), skolemize(corpus.by_id(2))
    gc.collect()
    before = len(terms._ops)
    outcome = saturate(premise, goal, Budget.of_steps(10))
    assert outcome.steps_used > 0
    del outcome
    gc.collect()
    assert len(terms._ops) <= before
