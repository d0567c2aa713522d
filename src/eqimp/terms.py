"""Terms and equations over a single binary operation.

Variables are numbered; the surface syntax spells them x, y, z, w, u, v and
then v6, v7, ... for higher indexes.  Constants are spelled a..f and then c6,
c7, ...; they never appear in parsed equations, they enter when a conjecture
is grounded and are read back only by parse_term (proof witnesses).  Names
are ASCII and spelled exactly as printed (no leading zeros), so parsing and
printing round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

VAR_LETTERS = "xyzwuv"
CONST_LETTERS = "abcdef"


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    index: int


@dataclass(frozen=True)
class Op:
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Op]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term
    # corpus ordinal; not part of structural identity
    id: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Corpus:
    equations: tuple[Equation, ...]

    @property
    def count(self) -> int:
        return len(self.equations)

    def by_id(self, eq_id: int) -> Equation:
        if not 1 <= eq_id <= len(self.equations):
            raise ValueError(f"no equation with id {eq_id}")
        return self.equations[eq_id - 1]


def var_name(index: int) -> str:
    if index < 0:
        raise ValueError(f"negative variable index {index}")
    return VAR_LETTERS[index] if index < 6 else f"v{index}"


def const_name(index: int) -> str:
    if index < 0:
        raise ValueError(f"negative constant index {index}")
    return CONST_LETTERS[index] if index < 6 else f"c{index}"


def _name_index(name: str, letters: str, prefix: str) -> int | None:
    # inverse of var_name / const_name: letters below 6, prefix+digits above
    if len(name) == 1 and name in letters:
        return letters.index(name)
    digits = name[1:]
    if name[:1] == prefix and digits.isascii() and digits.isdigit() and digits[0] != "0":
        index = int(digits)
        if index >= 6:
            return index
    return None


def _var_index(name: str) -> int | None:
    return _name_index(name, VAR_LETTERS, "v")


def _const_index(name: str) -> int | None:
    return _name_index(name, CONST_LETTERS, "c")


# --- parsing ---------------------------------------------------------------

_TOKEN_CHARS = set("*=()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, column) tokens; kind is one of sym/name."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("sym", ch, i + 1))
            i += 1
            continue
        if "a" <= ch <= "z":
            j = i + 1
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        raise ValueError(f"unknown token {ch!r} at column {i + 1}")
    return tokens


class _Parser:
    def __init__(self, text: str, constants: bool = False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.length = len(text)
        self.constants = constants

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ValueError(f"unexpected end of input at column {self.length + 1}")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok[1] != text:
            raise ValueError(f"expected {text!r} at column {tok[2]}, found {tok[1]!r}")

    def atom(self) -> Term:
        kind, text, col = self.take()
        if text == "(":
            term = self.side()
            self.expect(")")
            return term
        if kind == "name":
            index = _var_index(text)
            if index is not None:
                return Var(index)
            index = _const_index(text) if self.constants else None
            if index is not None:
                return Const(index)
            what = "name" if self.constants else "variable"
            raise ValueError(f"unknown {what} {text!r} at column {col}")
        raise ValueError(f"expected a term at column {col}, found {text!r}")

    def side(self) -> Term:
        # a side is an atom or a single product; '*' does not associate,
        # nested products need explicit parentheses
        left = self.atom()
        tok = self.peek()
        if tok is not None and tok[1] == "*":
            self.take()
            right = self.atom()
            return Op(left, right)
        return left

    def end(self) -> None:
        trailing = self.peek()
        if trailing is not None:
            raise ValueError(f"unexpected {trailing[1]!r} at column {trailing[2]}")


def parse_equation(text: str) -> Equation:
    """Parse one equation such as '(x*y)*z=x*(y*z)'.

    Raises ValueError with a column position on malformed input.
    """
    parser = _Parser(text)
    eq_positions = [tok[2] for tok in parser.tokens if tok[1] == "="]
    if len(eq_positions) == 0:
        raise ValueError("missing '=' in equation")
    if len(eq_positions) > 1:
        raise ValueError(f"second '=' at column {eq_positions[1]}")
    lhs = parser.side()
    parser.expect("=")
    rhs = parser.side()
    parser.end()
    return Equation(lhs, rhs)


def parse_term(text: str) -> Term:
    """Parse one term such as 'a*(x*b)'; unlike equations, terms may contain
    constants.  Raises ValueError with a column position on malformed input."""
    parser = _Parser(text, constants=True)
    term = parser.side()
    parser.end()
    return term


# --- printing --------------------------------------------------------------


def format_term(term: Term, top: bool = True) -> str:
    """Surface form of a term; only the outermost product drops parentheses."""
    match term:
        case Var(index):
            return var_name(index)
        case Const(index):
            return const_name(index)
        case Op(left, right):
            body = f"{format_term(left, top=False)}*{format_term(right, top=False)}"
            return body if top else f"({body})"
    raise TypeError(f"not a term: {term!r}")


def print_equation(eq: Equation) -> str:
    return f"{format_term(eq.lhs)}={format_term(eq.rhs)}"


# --- substitution and canonical form ---------------------------------------

Subst = dict[int, Term]


def apply_subst(term: Term, subst: Subst) -> Term:
    """Replace each variable bound in subst; unbound variables stay."""
    match term:
        case Var(index):
            return subst.get(index, term)
        case Op(left, right):
            return Op(apply_subst(left, subst), apply_subst(right, subst))
        case _:
            return term


def shape(*terms: Term) -> tuple[int, dict[int, int]]:
    """(size, occurrences of each variable index) of the terms together.  The
    dict is keyed by first occurrence in preorder, earlier terms first."""
    size = 0
    counts: dict[int, int] = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        size += 1
        if isinstance(t, Var):
            counts[t.index] = counts.get(t.index, 0) + 1
        elif isinstance(t, Op):
            stack.append(t.right)
            stack.append(t.left)
    return size, counts


def variables(*terms: Term) -> list[int]:
    """Distinct variable indexes of the terms, by first occurrence in preorder,
    earlier terms first."""
    return list(shape(*terms)[1])


def canonicalize(eq: Equation) -> Equation:
    """Renumber variables by first occurrence, lhs before rhs, preorder."""
    rename = {old: Var(new) for new, old in enumerate(variables(eq.lhs, eq.rhs))}
    return Equation(apply_subst(eq.lhs, rename), apply_subst(eq.rhs, rename), id=eq.id)


# --- term positions --------------------------------------------------------


def subterm_at(term: Term, pos: tuple[int, ...]) -> Term:
    """Subterm at a path of 0 (left) / 1 (right) steps; () is the root."""
    for step in pos:
        if not isinstance(term, Op):
            raise ValueError(f"position {pos} does not exist")
        term = term.left if step == 0 else term.right
    return term


def replace_at(term: Term, pos: tuple[int, ...], replacement: Term) -> Term:
    if not pos:
        return replacement
    if not isinstance(term, Op):
        raise ValueError(f"position {pos} does not exist")
    step, rest = pos[0], pos[1:]
    if step == 0:
        return Op(replace_at(term.left, rest, replacement), term.right)
    return Op(term.left, replace_at(term.right, rest, replacement))


def positions(term: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All positions in preorder, root first."""
    yield (), term
    if isinstance(term, Op):
        for pos, sub in positions(term.left):
            yield (0,) + pos, sub
        for pos, sub in positions(term.right):
            yield (1,) + pos, sub


# --- corpus files ----------------------------------------------------------


def load_corpus(path: str) -> Corpus:
    """Load a .eqs file: one equation per line, '#' comments and blanks skipped.

    Ids are assigned 1..m in file order; duplicate equations keep their own ids.
    """
    equations: list[Equation] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                eq = parse_equation(stripped)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            eq = canonicalize(eq)
            equations.append(Equation(eq.lhs, eq.rhs, id=len(equations) + 1))
    return Corpus(tuple(equations))


def enumerate_pairs(corpus: Corpus) -> Iterator[tuple[int, int]]:
    """All ordered id pairs (i, j) with i != j, in lexicographic order."""
    m = corpus.count
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j:
                yield (i, j)


def pair_count(m: int) -> int:
    return m * m - m
