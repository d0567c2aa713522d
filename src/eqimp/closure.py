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
one bitwise and, not an entry each.  Derived entries record their two premise
pairs and never overwrite direct ones; a derivation contradicting an existing
status raises ConsistencyError naming the pair and both justifications.
Unsolved pairs are simply absent from the map.
"""

from __future__ import annotations

from collections import deque
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


class ConsistencyError(ValueError):
    pass


def _describe(entry: StatusEntry) -> str:
    if entry.premises is None:
        return f"{entry.status} via {entry.provenance}"
    first, second = entry.premises
    return f"{entry.status} via {entry.provenance} from {first} and {second}"


def propagate(statuses: StatusMap) -> StatusMap:
    """Least fixpoint of R1-R3 over the input map; the input is not mutated.

    Ids are non-negative ints.  The worklist pops each decided pair once, the
    input's in sorted order first.  Each rule combines the popped pair with a
    bitset row or column of its popped neighbours into a mask of candidate
    pairs.  Candidates already decided the same way are skipped without
    building an entry; the fresh ones are added in ascending id order, as a
    loop over the sorted neighbours would add them, so the result, including
    provenance of derived entries and key order, depends only on the map's
    contents, not on its insertion order.  A candidate decided the other way
    raises ConsistencyError for the lowest such pair, the first one a loop
    over the sorted neighbours would meet."""
    result: StatusMap = dict(statuses)
    # the popped pairs: proven_out[a] has bit b for each popped (a,b) proven,
    # proven_in[b] has bit a, and likewise for the refuted ones
    proven_out: dict[int, int] = {}
    proven_in: dict[int, int] = {}
    refuted_out: dict[int, int] = {}
    refuted_in: dict[int, int] = {}
    # the pairs decided in result, per status, by row and by column
    rows: dict[str, dict[int, int]] = {PROVEN: {}, REFUTED: {}}
    cols: dict[str, dict[int, int]] = {PROVEN: {}, REFUTED: {}}

    for (a, b), entry in statuses.items():
        row, col = rows[entry.status], cols[entry.status]
        row[a] = row.get(a, 0) | 1 << b
        col[b] = col.get(b, 0) | 1 << a
    queue: deque[tuple[Pair, str]] = deque()
    for pair in sorted(statuses):
        queue.append((pair, statuses[pair].status))

    def derive(mask: int, fixed: int, in_row: bool, status: str, rule: str, premises):
        """Derive status for (fixed, v) if in_row, else (v, fixed), for each
        bit v of mask; premises(v) gives the two premise pairs."""
        # reflexive facts are trivial and never recorded
        mask &= ~(1 << fixed)
        if not mask:
            return
        lines = rows if in_row else cols
        same = lines[status].get(fixed, 0)
        other = lines[REFUTED if status == PROVEN else PROVEN].get(fixed, 0)
        provenance = f"closure:{rule}"
        clash = mask & other
        if clash:
            first = (clash & -clash).bit_length() - 1
            pair = (fixed, first) if in_row else (first, fixed)
            entry = StatusEntry(status, provenance, premises(first))
            raise ConsistencyError(
                f"pair {pair} is {_describe(result[pair])} but also derives as "
                f"{_describe(entry)}"
            )
        fresh = mask & ~same
        row, col = rows[status], cols[status]
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            v = low.bit_length() - 1
            a, b = pair = (fixed, v) if in_row else (v, fixed)
            result[pair] = StatusEntry(status, provenance, premises(v))
            row[a] = row.get(a, 0) | 1 << b
            col[b] = col.get(b, 0) | 1 << a
            queue.append((pair, status))

    # a rule whose mask is empty derives nothing, so it is skipped before
    # its premises function is built
    while queue:
        (a, b), status = queue.popleft()
        if status == PROVEN:
            proven_out[a] = proven_out.get(a, 0) | 1 << b
            proven_in[b] = proven_in.get(b, 0) | 1 << a
            # R1, with (a,b) as either premise
            mask = proven_out.get(b, 0)
            if mask:
                derive(mask, a, True, PROVEN, "R1", lambda c: ((a, b), (b, c)))
            mask = proven_in.get(a, 0)
            if mask:
                derive(mask, b, False, PROVEN, "R1", lambda z: ((z, a), (a, b)))
            # R2: (a,b) proven, (a,c) refuted  =>  (b,c) refuted
            mask = refuted_out.get(a, 0)
            if mask:
                derive(mask, b, True, REFUTED, "R2", lambda c: ((a, b), (a, c)))
            # R3: (a,b) proven, (z,b) refuted  =>  (z,a) refuted
            mask = refuted_in.get(b, 0)
            if mask:
                derive(mask, a, False, REFUTED, "R3", lambda z: ((a, b), (z, b)))
        else:
            refuted_out[a] = refuted_out.get(a, 0) | 1 << b
            refuted_in[b] = refuted_in.get(b, 0) | 1 << a
            # here (a,b) is the refuted premise A-/->C with A=a, C=b
            mask = proven_out.get(a, 0)
            if mask:
                derive(mask, b, False, REFUTED, "R2", lambda m: ((a, m), (a, b)))
            mask = proven_in.get(b, 0)
            if mask:
                derive(mask, a, True, REFUTED, "R3", lambda m: ((m, b), (a, b)))
    return result
