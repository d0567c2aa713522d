"""Post-hoc propagation of statuses through the implication graph.

Three sound rules close a partial map of decided ordered pairs:

  R1: A->B proven and B->C proven   derives A->C proven
  R2: A->B proven and A-/->C refuted derives B-/->C refuted
  R3: B->C proven and A-/->C refuted derives A-/->B refuted

R2 and R3 transport a countermodel along a proven edge: a magma satisfying A
and violating C also satisfies B (by A->B), so it separates B from C; and a
magma separating A from C cannot satisfy B, else B->C would force C.

Propagation runs as a worklist over the decided pairs, never rescanning the
whole map.  Ids are non-negative ints, and every neighbour set is an int
bitset (bit i for id i): a row per law of the pairs it is the premise of, a
column per law of the pairs it is the conclusion of.  A rule applied to a
popped pair is a mask over one row or column, so pairs already decided cost
one bitwise and, not an entry each.  A derived pair keeps only its rule's
shared entry and the law its two premises share, from which a lookup rebuilds
its premises.  Derived entries never overwrite direct ones; a derivation
contradicting an existing status raises ConsistencyError naming the pair and
both justifications.
Unsolved pairs are simply absent from the map.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

PROVEN = "proven"
REFUTED = "refuted"

Pair = tuple[int, int]


@dataclass(frozen=True)
class StatusEntry:
    status: str  # PROVEN | REFUTED
    provenance: str  # direct method name, or closure:R1 | closure:R2 | closure:R3
    premises: tuple[Pair, Pair] | None = None

    def __post_init__(self):
        if self.status not in (PROVEN, REFUTED):
            raise ValueError(f"unknown status {self.status!r}")


StatusMap = dict[Pair, StatusEntry]

# each rule's shared entry, and its premises of a pair (x, y) derived via law m
_R1 = StatusEntry(PROVEN, "closure:R1")
_R2 = StatusEntry(REFUTED, "closure:R2")
_R3 = StatusEntry(REFUTED, "closure:R3")
_PREMISES = {
    _R1.provenance: lambda x, y, m: ((x, m), (m, y)),
    _R2.provenance: lambda x, y, m: ((m, x), (m, y)),
    _R3.provenance: lambda x, y, m: ((y, m), (x, m)),
}


class ConsistencyError(ValueError):
    pass


def _describe(entry: StatusEntry) -> str:
    if entry.premises is None:
        return f"{entry.status} via {entry.provenance}"
    first, second = entry.premises
    return f"{entry.status} via {entry.provenance} from {first} and {second}"


class ClosedMap(Mapping):
    """propagate's result, read-only: the input's entries, then the derived
    pairs in derivation order, each built into its full entry on lookup."""

    def __init__(self, entries: dict):
        self._entries = entries  # pair -> StatusEntry, or (shared, law) if derived

    def __getitem__(self, pair: Pair) -> StatusEntry:
        entry = self._entries[pair]
        if type(entry) is tuple:
            shared, middle = entry
            rule = shared.provenance
            entry = StatusEntry(shared.status, rule, _PREMISES[rule](*pair, middle))
        return entry

    def __contains__(self, pair) -> bool:
        return pair in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def derived(self):
        """Each derived pair and its rule's shared entry (no premises), in derivation order."""
        return ((pair, e[0]) for pair, e in self._entries.items() if type(e) is tuple)


def propagate(statuses: Mapping[Pair, StatusEntry]) -> ClosedMap:
    """Least fixpoint of R1-R3 over the input map; the input is not mutated.

    Ids are non-negative ints.  The worklist pops each decided pair once, the
    input's in sorted order first.  Each rule combines the popped pair with a
    bitset row or column of its popped neighbours into a mask of candidate
    pairs.  Candidates already decided the same way are skipped; the fresh
    ones are added in ascending id order, as a loop over the sorted
    neighbours would add them, so the result (a ClosedMap, which is valid
    input too), including derived entries' premises and key order, depends
    only on the map's contents, not on its insertion order.  A candidate
    decided the other way raises ConsistencyError for the lowest such pair,
    the first one a loop over the sorted neighbours would meet."""
    entries = dict(statuses)
    result = ClosedMap(entries)
    # the popped pairs: proven_out[a] has bit b for each popped (a,b) proven,
    # proven_in[b] has bit a, and likewise for the refuted ones
    proven_out: dict[int, int] = {}
    proven_in: dict[int, int] = {}
    refuted_out: dict[int, int] = {}
    refuted_in: dict[int, int] = {}
    # the pairs decided in result, per status, by row and by column
    rows: dict[str, dict[int, int]] = {PROVEN: {}, REFUTED: {}}
    cols: dict[str, dict[int, int]] = {PROVEN: {}, REFUTED: {}}

    for (a, b), entry in entries.items():
        row, col = rows[entry.status], cols[entry.status]
        row[a] = row.get(a, 0) | 1 << b
        col[b] = col.get(b, 0) | 1 << a
    queue: deque[tuple[Pair, str]] = deque()
    for pair in sorted(entries):
        queue.append((pair, entries[pair].status))

    def derive(mask: int, fixed: int, in_row: bool, shared: StatusEntry, middle: int):
        """Derive shared's status by its rule for (fixed, v) if in_row, else
        (v, fixed), for each bit v of mask, from premises sharing law middle."""
        # reflexive facts are trivial and never recorded
        mask &= ~(1 << fixed)
        if not mask:
            return
        status = shared.status
        lines = rows if in_row else cols
        same = lines[status].get(fixed, 0)
        other = lines[REFUTED if status == PROVEN else PROVEN].get(fixed, 0)
        clash = mask & other
        if clash:
            first = (clash & -clash).bit_length() - 1
            pair = (fixed, first) if in_row else (first, fixed)
            raise ConsistencyError(
                f"pair {pair} is {_describe(result[pair])} but also derives as "
                f"{_describe(ClosedMap({pair: (shared, middle)})[pair])}"
            )
        fresh = mask & ~same
        value = shared, middle  # one for all the pairs this call derives
        row, col = rows[status], cols[status]
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            v = low.bit_length() - 1
            a, b = pair = (fixed, v) if in_row else (v, fixed)
            entries[pair] = value
            row[a] = row.get(a, 0) | 1 << b
            col[b] = col.get(b, 0) | 1 << a
            queue.append((pair, status))

    while queue:
        (a, b), status = queue.popleft()
        if status == PROVEN:
            proven_out[a] = proven_out.get(a, 0) | 1 << b
            proven_in[b] = proven_in.get(b, 0) | 1 << a
            # R1, with (a,b) as either premise
            derive(proven_out.get(b, 0), a, True, _R1, b)
            derive(proven_in.get(a, 0), b, False, _R1, a)
            # R2: (a,b) proven, (a,c) refuted  =>  (b,c) refuted
            derive(refuted_out.get(a, 0), b, True, _R2, a)
            # R3: (a,b) proven, (z,b) refuted  =>  (z,a) refuted
            derive(refuted_in.get(b, 0), a, False, _R3, b)
        else:
            refuted_out[a] = refuted_out.get(a, 0) | 1 << b
            refuted_in[b] = refuted_in.get(b, 0) | 1 << a
            # here (a,b) is the refuted premise A-/->C with A=a, C=b
            derive(proven_out.get(a, 0), b, False, _R2, a)
            derive(proven_in.get(b, 0), a, True, _R3, b)
    return result
