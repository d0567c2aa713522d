"""Terms and equations over a single binary operation.

Variables are numbered; the surface syntax spells them x, y, z, w, u, v and
then v6, v7, ... for higher indexes.  Constants are spelled a..f and then c6,
c7, ...; they never appear in parsed equations, they enter when a conjecture
is grounded and are read back only by parse_term (proof witnesses).  Names
are ASCII and spelled exactly as printed (no leading zeros), so parsing and
printing round-trip.

Terms are hash-consed: building a term returns the one live object with that
structure, so equal terms are the same object, == is identity and a term
hashes as an object.  Terms are immutable and shared freely.  The intern table
holds products only while they are alive, through weak references; variables
and constants, of which few distinct ones exist, are kept for good.  Each
node carries its size and its variable-occurrence counts, a product's merged
from its sides' when it is built.  Unpickling rebuilds a term through its
constructor, so a term sent to another process is interned there.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterator, Union

VAR_LETTERS = "xyzwuv"
CONST_LETTERS = "abcdef"


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Leaf(_Frozen):
    # a variable or constant; each subclass keeps its instances in _table
    __slots__ = ("index", "size", "_counts")
    __match_args__ = ("index",)
    _table: dict

    def __new__(cls, index: int):
        leaf = cls._table.get(index)
        if leaf is None:
            leaf = object.__new__(cls)
            object.__setattr__(leaf, "index", index)
            object.__setattr__(leaf, "size", 1)
            object.__setattr__(leaf, "_counts", {index: 1} if cls is Var else {})
            cls._table[index] = leaf
        return leaf

    def __reduce__(self):
        return type(self), (self.index,)

    def __repr__(self):
        return f"{type(self).__name__}(index={self.index!r})"


class Var(_Leaf):
    __slots__ = ()
    _table: dict = {}


class Const(_Leaf):
    __slots__ = ()
    _table: dict = {}


class _OpRef(weakref.ref):
    # a weak reference that knows its intern table key
    __slots__ = ("key",)


# (left, right) -> weak reference to the live product with those sides
_ops: dict[tuple, _OpRef] = {}


def _forget(ref: _OpRef, ops=_ops) -> None:
    # a product died; drop its entry unless a newer product has taken the key
    # (ops is bound here so that products freed while the interpreter shuts
    # down still find the table)
    if ops.get(ref.key) is ref:
        del ops[ref.key]


class Op(_Frozen):
    __slots__ = ("left", "right", "size", "_counts", "__weakref__")
    __match_args__ = ("left", "right")

    def __new__(cls, left: "Term", right: "Term"):
        key = (left, right)
        ref = _ops.get(key)
        if ref is not None:
            op = ref()
            if op is not None:
                return op
        op = object.__new__(cls)
        object.__setattr__(op, "left", left)
        object.__setattr__(op, "right", right)
        object.__setattr__(op, "size", left.size + right.size + 1)
        counts = left._counts.copy()
        for index, k in right._counts.items():
            counts[index] = counts.get(index, 0) + k
        object.__setattr__(op, "_counts", counts)
        ref = _OpRef(op, _forget)
        ref.key = key
        _ops[key] = ref
        return op

    def __reduce__(self):
        return Op, (self.left, self.right)

    def __repr__(self):
        return f"Op(left={self.left!r}, right={self.right!r})"


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
# parentheses nest at most this deep: the parser, the printer and the term
# walkers recurse once per level, and a term this deep stays far inside
# Python's recursion limit even after a substitution doubles its depth
MAX_NESTING = 200


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
        self.depth = 0

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
            if self.depth == MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING} at column {col}")
            self.depth += 1
            term = self.side()
            self.expect(")")
            self.depth -= 1
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
    if isinstance(term, Var):
        return subst.get(term.index, term)
    if isinstance(term, Op):
        left = apply_subst(term.left, subst)
        right = apply_subst(term.right, subst)
        if left is term.left and right is term.right:
            return term
        return Op(left, right)
    return term


def shape(*terms: Term) -> tuple[int, dict[int, int]]:
    """(size, occurrences of each variable index) of the terms together.  The
    dict is keyed by first occurrence in preorder, earlier terms first.  For
    a single term it is the term's own dict: read it, never change it."""
    if len(terms) == 1:
        return terms[0].size, terms[0]._counts
    size = 0
    counts: dict[int, int] = {}
    for term in terms:
        size += term.size
        for index, k in term._counts.items():
            counts[index] = counts.get(index, 0) + k
    return size, counts


def variables(*terms: Term) -> list[int]:
    """Distinct variable indexes of the terms, by first occurrence in preorder,
    earlier terms first."""
    return list(shape(*terms)[1])


def canonical_sides(lhs: Term, rhs: Term) -> tuple[Term, Term]:
    """The sides with variables renumbered by first occurrence, lhs before
    rhs, preorder; the sides themselves when they are numbered so already."""
    # a merged dict keeps lhs's keys first, then rhs's new ones, in order
    order = {**lhs._counts, **rhs._counts}
    rename = {old: Var(new) for new, old in enumerate(order) if old != new}
    if not rename:
        return lhs, rhs
    return apply_subst(lhs, rename), apply_subst(rhs, rename)


def canonicalize(eq: Equation) -> Equation:
    """Renumber variables by first occurrence, lhs before rhs, preorder."""
    return Equation(*canonical_sides(eq.lhs, eq.rhs), id=eq.id)


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
