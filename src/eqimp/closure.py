"""Post-hoc propagation of statuses through the implication graph.

Three sound rules close a partial map of decided ordered pairs:

  R1: A->B proven and B->C proven   derives A->C proven
  R2: A->B proven and A-/->C refuted derives B-/->C refuted
  R3: B->C proven and A-/->C refuted derives A-/->B refuted

R2 and R3 transport a countermodel along a proven edge: a magma satisfying A
and violating C also satisfies B (by A->B), so it separates B from C; and a
magma separating A from C cannot satisfy B, else B->C would force C.

Propagation runs as a worklist over the decided pairs, never rescanning the
whole map.  Ids run from 0 to ROW_BITS - 1, and every neighbour set is an
int bitset (bit i for id i): a row per law of the pairs it is the premise
of, a column per law of the pairs it is the conclusion of.  A rule applied to a
popped pair is a mask over one row or column, so pairs already decided cost
one bitwise and, not an entry each.  A derived pair is one bit in its rule's
row bitsets and one slot in two flat arrays, of pair codes and of the laws its
two premises share; no object is built per pair.  Each map has one lookup,
its __getitem__, from which Mapping derives get, in and the views; a derived
pair's lookup rebuilds its entry, premises included, from its rule and middle
law.  Derived entries never overwrite direct ones; a derivation
contradicting an existing status raises ConsistencyError naming the pair and
both justifications.
Unsolved pairs are simply absent from the map.  A results log's statuses
arrive as a StatusMap, one row bitset per law for each distinct (status,
method) entry, so neither the input nor the result holds an object per pair.
A log's reader rejects a law id past ROW_BITS - 1, and propagate rejects one
in any other map, so no bitset grows past ROW_BITS bits.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat

PROVEN = "proven"
REFUTED = "refuted"

Pair = tuple[int, int]

# law ids run from 0 to ROW_BITS - 1 (a log's from 1), so a row or column
# bitset holds at most ROW_BITS bits and lhs * ROW_BITS + rhs codes a pair
ROW_BITS = 1 << 16

# the method prefix of the records closure derives, which no stage may take
DERIVED_PREFIX = "closure:"


@dataclass(frozen=True)
class StatusEntry:
    status: str  # PROVEN | REFUTED
    provenance: str  # direct method name, or closure:R1 | closure:R2 | closure:R3
    premises: tuple[Pair, Pair] | None = None

    def __post_init__(self):
        if self.status not in (PROVEN, REFUTED):
            raise ValueError(f"unknown status {self.status!r}")


# each rule's shared entry, by rule index, and its premises of a pair (x, y)
# derived via law m
_RULES = (
    StatusEntry(PROVEN, f"{DERIVED_PREFIX}R1"),
    StatusEntry(REFUTED, f"{DERIVED_PREFIX}R2"),
    StatusEntry(REFUTED, f"{DERIVED_PREFIX}R3"),
)
_PREMISES = (
    lambda x, y, m: ((x, m), (m, y)),
    lambda x, y, m: ((m, x), (m, y)),
    lambda x, y, m: ((y, m), (x, m)),
)


class ConsistencyError(ValueError):
    pass


def _describe(entry: StatusEntry) -> str:
    if entry.premises is None:
        return f"{entry.status} via {entry.provenance}"
    first, second = entry.premises
    return f"{entry.status} via {entry.provenance} from {first} and {second}"


def _bits(mask: int):
    """The set bits of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class StatusMap(Mapping):
    """A read-only map of decided pairs to their StatusEntry, as a results log
    fills it: one row bitset per law for each distinct (status, provenance)
    entry, of which a log holds few, so a pair costs one bit, not a dict
    entry.  Its ids are below ROW_BITS, as a log's reader checks.  Iterates
    entry by entry, each entry's pairs in (lhs, rhs) order."""

    def __init__(self, rows=()):
        # (status, provenance) -> (its entry, lhs -> bitset of rhs)
        self._rows: dict[tuple[str, str], tuple[StatusEntry, dict[int, int]]] = dict(rows)
        self._len = sum(bits.bit_count() for _, row in self._rows.values() for bits in row.values())

    def where(self, keep) -> StatusMap:
        """The pairs whose entry passes keep, sharing this map's rows."""
        return StatusMap((key, shared) for key, shared in self._rows.items() if keep(shared[0]))

    def __getitem__(self, pair: Pair) -> StatusEntry:
        lhs, rhs = pair
        if rhs >= 0:
            for entry, row in self._rows.values():
                if row.get(lhs, 0) >> rhs & 1:
                    return entry
        raise KeyError(pair)

    def __iter__(self):
        for _, row in self._rows.values():
            for lhs in sorted(row):
                for rhs in _bits(row[lhs]):
                    yield lhs, rhs

    def __len__(self) -> int:
        return self._len


class ClosedMap(Mapping):
    """propagate's result, read-only: the input's entries in its order, then
    the derived pairs in derivation order, each built into its full entry,
    premises included, on lookup.

    A derived pair is a bit in its rule's row bitsets and one slot of two
    flat arrays in derivation order: its code lhs * ROW_BITS + rhs and the
    law its premises share."""

    def __init__(self, statuses: Mapping[Pair, StatusEntry]):
        # a StatusMap or ClosedMap cannot change under it; any other map is copied
        self._input = statuses if isinstance(statuses, (StatusMap, ClosedMap)) else dict(statuses)
        self._codes = array("q")
        self._middles = array("q")
        self._rule_rows: tuple[dict[int, int], ...] = ({}, {}, {})  # per rule: lhs -> bitset
        self._by_code = None  # (sorted codes, their middles), built by the first lookup

    def _rule(self, pair) -> int | None:
        lhs, rhs = pair
        if rhs >= 0:
            for k, rows in enumerate(self._rule_rows):
                if rows.get(lhs, 0) >> rhs & 1:
                    return k
        return None

    def _entry(self, pair: Pair, k: int, middle: int) -> StatusEntry:
        shared = _RULES[k]
        return StatusEntry(shared.status, shared.provenance, _PREMISES[k](*pair, middle))

    def _middle(self, pair: Pair) -> int:
        codes = self._codes
        if self._by_code is None or len(self._by_code[0]) != len(codes):
            order = sorted(range(len(codes)), key=codes.__getitem__)
            self._by_code = (
                array("q", (codes[i] for i in order)),
                array("q", (self._middles[i] for i in order)),
            )
        ordered, middles = self._by_code
        return middles[bisect_left(ordered, pair[0] * ROW_BITS + pair[1])]

    def __getitem__(self, pair: Pair) -> StatusEntry:
        k = self._rule(pair)
        if k is None:
            return self._input[pair]
        return self._entry(pair, k, self._middle(pair))

    def derives(self, pair: Pair) -> bool:
        """Whether pair is one of the derived pairs, not one of the input's."""
        return self._rule(pair) is not None

    def __iter__(self):
        yield from self._input
        for code in self._codes:
            yield divmod(code, ROW_BITS)

    def __len__(self) -> int:
        return len(self._input) + len(self._codes)

    def derived(self):
        """Each derived pair and its rule's shared entry (no premises), in
        (lhs, rhs) order, walked from the rules' row bitsets."""
        first, second, third = self._rule_rows
        for lhs in sorted(first.keys() | second.keys() | third.keys()):
            r1, r2 = first.get(lhs, 0), second.get(lhs, 0)
            for rhs in _bits(r1 | r2 | third.get(lhs, 0)):
                k = 0 if r1 >> rhs & 1 else 1 if r2 >> rhs & 1 else 2
                yield (lhs, rhs), _RULES[k]


def propagate(statuses: Mapping[Pair, StatusEntry]) -> ClosedMap:
    """Least fixpoint of R1-R3 over the input map; the input is not mutated.

    Ids run from 0 to ROW_BITS - 1: a StatusMap's rows are taken as they
    are (a log's reader bounds their ids), and any other map's pairs are
    checked, a pair with an id outside that range raising a ValueError that
    names it.  The worklist pops each decided pair once, the input's in
    sorted order first, then the derived ones in the order they were
    derived.  Each rule combines the popped pair with a bitset row or
    column of its popped neighbours into a mask of candidate pairs.
    Candidates already decided the same way are skipped; the fresh ones are
    added in ascending id order, as a loop over the sorted neighbours would
    add them, so the result (a ClosedMap, which is valid input too), including
    derived entries' premises and key order, depends only on the map's
    contents, not on its insertion order.  A candidate decided the other way
    raises ConsistencyError for the lowest such pair, the first one a loop
    over the sorted neighbours would meet."""
    # the input's pairs, per status, by row: a StatusMap hands over its rows
    given: dict[str, dict[int, int]] = {PROVEN: {}, REFUTED: {}}
    if isinstance(statuses, StatusMap):
        for entry, entry_rows in statuses._rows.values():
            row = given[entry.status]
            for a, bits in entry_rows.items():
                row[a] = row.get(a, 0) | bits
    else:
        for (a, b), entry in statuses.items():
            if not (0 <= a < ROW_BITS and 0 <= b < ROW_BITS):
                raise ValueError(f"pair {(a, b)} names an id outside 0..{ROW_BITS - 1}")
            row = given[entry.status]
            row[a] = row.get(a, 0) | 1 << b
    # the pairs decided in result, per status, by row and by column
    rows = {status: dict(row) for status, row in given.items()}
    cols: dict[str, dict[int, int]] = {PROVEN: {}, REFUTED: {}}
    for status, row in given.items():
        col = cols[status]
        for a, bits in row.items():
            bit = 1 << a
            for b in _bits(bits):
                col[b] = col.get(b, 0) | bit
    result = ClosedMap(statuses)
    codes, middles, rule_rows = result._codes, result._middles, result._rule_rows
    # the popped pairs: proven_out[a] has bit b for each popped (a,b) proven,
    # proven_in[b] has bit a, and likewise for the refuted ones
    proven_out: dict[int, int] = {}
    proven_in: dict[int, int] = {}
    refuted_out: dict[int, int] = {}
    refuted_in: dict[int, int] = {}

    def derive(mask: int, fixed: int, in_row: bool, k: int, middle: int):
        """Derive rule k's status for (fixed, v) if in_row, else (v, fixed),
        for each bit v of mask, from premises sharing law middle; mask is
        not 0 and lacks fixed's own bit."""
        status = _RULES[k].status
        lines = rows if in_row else cols
        clash = mask & lines[REFUTED if status == PROVEN else PROVEN].get(fixed, 0)
        if clash:
            first = (clash & -clash).bit_length() - 1
            pair = (fixed, first) if in_row else (first, fixed)
            raise ConsistencyError(
                f"pair {pair} is {_describe(result[pair])} but also derives as "
                f"{_describe(result._entry(pair, k, middle))}"
            )
        fresh = mask & ~lines[status].get(fixed, 0)
        if not fresh:
            return
        row, col, rule_row = rows[status], cols[status], rule_rows[k]
        bit = 1 << fixed
        if in_row:
            row[fixed] = row.get(fixed, 0) | fresh
            rule_row[fixed] = rule_row.get(fixed, 0) | fresh
            base = fixed * ROW_BITS
            for v in _bits(fresh):
                col[v] = col.get(v, 0) | bit
                codes.append(base + v)
        else:
            col[fixed] = col.get(fixed, 0) | fresh
            for v in _bits(fresh):
                row[v] = row.get(v, 0) | bit
                rule_row[v] = rule_row.get(v, 0) | bit
                codes.append(v * ROW_BITS + fixed)
        middles.extend(repeat(middle, fresh.bit_count()))

    def pop(a: int, b: int, proven: bool):
        # each rule's mask less the fixed law's own bit, since reflexive facts
        # are trivial and never recorded; derive runs on a mask with a bit left
        not_a, not_b = ~(1 << a), ~(1 << b)
        if proven:
            proven_out[a] = proven_out.get(a, 0) | 1 << b
            proven_in[b] = proven_in.get(b, 0) | 1 << a
            # R1, with (a,b) as either premise
            if mask := proven_out.get(b, 0) & not_a:
                derive(mask, a, True, 0, b)
            if mask := proven_in.get(a, 0) & not_b:
                derive(mask, b, False, 0, a)
            # R2: (a,b) proven, (a,c) refuted  =>  (b,c) refuted
            if mask := refuted_out.get(a, 0) & not_b:
                derive(mask, b, True, 1, a)
            # R3: (a,b) proven, (z,b) refuted  =>  (z,a) refuted
            if mask := refuted_in.get(b, 0) & not_a:
                derive(mask, a, False, 2, b)
        else:
            refuted_out[a] = refuted_out.get(a, 0) | 1 << b
            refuted_in[b] = refuted_in.get(b, 0) | 1 << a
            # here (a,b) is the refuted premise A-/->C with A=a, C=b
            if mask := proven_out.get(a, 0) & not_b:
                derive(mask, b, False, 1, a)
            if mask := proven_in.get(b, 0) & not_a:
                derive(mask, a, True, 2, b)

    # the worklist: the input's pairs in sorted order, then each derived pair
    # in the order it was derived, which is the order of the arrays; R1 alone
    # derives proven pairs, so its row bitsets tell a popped pair's status
    proven_rows, refuted_rows = given[PROVEN], given[REFUTED]
    for a in sorted(proven_rows.keys() | refuted_rows.keys()):
        proven = proven_rows.get(a, 0)
        for b in _bits(proven | refuted_rows.get(a, 0)):
            pop(a, b, bool(proven >> b & 1))
    index = 0
    while index < len(codes):
        a, b = divmod(codes[index], ROW_BITS)
        pop(a, b, bool(rule_rows[0].get(a, 0) >> b & 1))
        index += 1
    return result
