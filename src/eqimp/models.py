"""Finite countermodel search over multiplication tables.

A countermodel for the pair (premise, conclusion) is a finite table in which
the premise holds under every assignment while the conclusion fails under at
least one.  The search fills table cells in row-major order, breaks value
symmetry with the least-number rule, and prunes any partial table that
already violates a premise instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import OUT_OF_BUDGET, Budget, BudgetMeter, UNLIMITED
from .terms import Equation, Op, Term, Var, var_name, variables

FOUND = "found"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class MagmaTable:
    size: int
    entries: tuple[int, ...]  # row-major, entries[i*size + j] = i*j

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise ValueError(f"table size must be at least 1, got {n}")
        if len(self.entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(self.entries)}")
        if any(not 0 <= v < n for v in self.entries):
            raise ValueError("table entry out of range")

    @classmethod
    def from_rows(cls, rows) -> "MagmaTable":
        rows = [list(r) for r in rows]
        return cls(len(rows), tuple(v for row in rows for v in row))

    def op(self, i: int, j: int) -> int:
        return self.entries[i * self.size + j]

    def rows(self) -> list[list[int]]:
        n = self.size
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(n)]


@dataclass(frozen=True)
class Countermodel:
    table: MagmaTable
    assignment: tuple[int, ...]  # element per conclusion variable, index order


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # FOUND | EXHAUSTED | OUT_OF_BUDGET
    countermodel: Countermodel | None
    max_size_searched: int
    steps_used: int


def eval_term(term: Term, table: MagmaTable, env) -> int:
    match term:
        case Var(index):
            return env[index]
        case Op(left, right):
            return table.op(eval_term(left, table, env), eval_term(right, table, env))
    raise TypeError(f"cannot evaluate {term!r} in a finite table")


def verify_equation(table: MagmaTable, eq: Equation):
    """None when the equation holds; otherwise the first violating assignment
    in lexicographic order."""
    width = max(variables(eq.lhs, eq.rhs), default=-1) + 1
    for env in itertools.product(range(table.size), repeat=width):
        if eval_term(eq.lhs, table, env) != eval_term(eq.rhs, table, env):
            return env
    return None


# --- backtracking search ----------------------------------------------------


def _compile(term: Term, prog: list) -> None:
    # postfix program: (True, var_index) pushes a value, (False, 0) applies the op
    match term:
        case Var(index):
            prog.append((True, index))
        case Op(left, right):
            _compile(left, prog)
            _compile(right, prog)
            prog.append((False, 0))
        case _:
            raise TypeError(f"cannot compile {term!r}")


def _run(prog, env, table, n):
    """Evaluate a postfix program against a partial table.

    Returns (value, blocking_cell, max_cell_touched); value is None when some
    required cell is unassigned, and blocking_cell names the first such cell.
    """
    stack = []
    touched = -1
    for is_var, arg in prog:
        if is_var:
            stack.append(env[arg])
        else:
            right = stack.pop()
            cell = stack.pop() * n + right
            if cell > touched:
                touched = cell
            value = table[cell]
            if value < 0:
                return None, cell, touched
            stack.append(value)
    return stack[0], None, touched


def _instances(eq: Equation, n: int):
    """Postfix programs of both sides, and every assignment of the elements
    0..n-1 to the equation's variables in lexicographic order."""
    lhs: list = []
    rhs: list = []
    _compile(eq.lhs, lhs)
    _compile(eq.rhs, rhs)
    width = max(variables(eq.lhs, eq.rhs), default=-1) + 1
    return lhs, rhs, list(itertools.product(range(n), repeat=width))


def _search_size(n, premise, conclusion, meter):
    """Search all size-n tables modulo the least-number rule.

    Returns ('found', Countermodel) / ('exhausted', None) / ('budget', None).
    """
    lhs_prog, rhs_prog, envs = _instances(premise, n)
    goal_lhs, goal_rhs, goal_envs = _instances(conclusion, n)

    cells = n * n
    table = [-1] * cells
    # watch[c] holds premise instances whose next re-check happens when cell c
    # is assigned; instances that are satisfied without touching any cell are
    # dropped, ones violated without touching any cell kill the whole size
    watch: list[list[int]] = [[] for _ in range(cells)]

    def recheck(idx: int, trigger: int | None):
        """Re-evaluate one premise instance and park it on the cell whose next
        assignment should re-check it; False when the instance is violated."""
        env = envs[idx]
        left, blocked, touched_l = _run(lhs_prog, env, table, n)
        if left is None:
            watch[blocked].append(idx)
            return True
        right, blocked, touched_r = _run(rhs_prog, env, table, n)
        if right is None:
            watch[blocked].append(idx)
            return True
        if left != right:
            if trigger is not None:
                watch[trigger].append(idx)
            return False
        touched = max(touched_l, touched_r)
        if touched >= 0:
            watch[touched].append(idx)
        return True

    for idx in range(len(envs)):
        if not recheck(idx, None):
            # a premise instance fails with no table lookups at all, so no
            # table of this size can satisfy the premise
            return "exhausted", None

    # least-number rule: a value v > 0 is allowed only when v-1 is already
    # designated by an earlier cell value or by an element index in play
    arg_max = [0] * cells
    for cell in range(cells):
        high = max(cell // n, cell % n)
        arg_max[cell] = high if cell == 0 else max(arg_max[cell - 1], high)

    next_val = [0] * cells
    value_max = [0] * (cells + 1)
    value_max[0] = -1
    pos = 0
    while pos >= 0:
        if pos == cells:
            # every premise instance was checked on the way down; the first
            # conclusion instance that fails, in lexicographic order, is the
            # countermodel's assignment
            for env in goal_envs:
                if _run(goal_lhs, env, table, n)[0] != _run(goal_rhs, env, table, n)[0]:
                    return "found", Countermodel(MagmaTable(n, tuple(table)), env)
            pos -= 1
            table[pos] = -1
            continue
        limit = max(arg_max[pos], value_max[pos]) + 1
        if limit >= n:
            limit = n - 1
        value = next_val[pos]
        if value > limit:
            next_val[pos] = 0
            pos -= 1
            if pos >= 0:
                table[pos] = -1
            continue
        next_val[pos] = value + 1
        if not meter.tick():
            return "budget", None
        table[pos] = value
        watchers = watch[pos]
        watch[pos] = []
        consistent = True
        for idx in watchers:
            if not recheck(idx, pos):
                consistent = False
        if not consistent:
            table[pos] = -1
            continue
        value_max[pos + 1] = value if value > value_max[pos] else value_max[pos]
        pos += 1
        if pos < cells:
            next_val[pos] = 0
    return "exhausted", None


def find_countermodel(
    premise: Equation,
    conclusion: Equation,
    max_size: int = 6,
    budget: Budget = UNLIMITED,
) -> SearchOutcome:
    """Search sizes 2..max_size in order; size 1 never separates a pair."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    meter = BudgetMeter(budget)
    searched = 1
    for n in range(2, max_size + 1):
        status, model = _search_size(n, premise, conclusion, meter)
        if status == "found":
            return SearchOutcome(FOUND, model, n, meter.steps_used)
        if status == "budget":
            return SearchOutcome(OUT_OF_BUDGET, None, searched, meter.steps_used)
        searched = n
    return SearchOutcome(EXHAUSTED, None, searched, meter.steps_used)


# --- witness serialization ---------------------------------------------------


def format_countermodel(cm: Countermodel) -> str:
    """Size line, n table rows, then the violating assignment as var=elem pairs."""
    lines = [str(cm.table.size)]
    lines.extend(" ".join(str(v) for v in row) for row in cm.table.rows())
    lines.append(" ".join(f"{var_name(i)}={v}" for i, v in enumerate(cm.assignment)))
    return "\n".join(lines)


def parse_countermodel(text: str) -> Countermodel:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("countermodel text too short")
    try:
        size = int(lines[0])
    except ValueError:
        raise ValueError(f"bad countermodel size line {lines[0]!r}") from None
    if len(lines) != size + 2:
        raise ValueError(f"expected {size} rows plus an assignment line")
    rows = []
    for line in lines[1 : size + 1]:
        row = [int(v) for v in line.split()]
        if len(row) != size:
            raise ValueError(f"bad countermodel row {line!r}")
        rows.append(row)
    assignment = []
    for index, item in enumerate(lines[size + 1].split()):
        name, _, value = item.partition("=")
        if name != var_name(index):
            raise ValueError(f"unexpected assignment entry {item!r}")
        element = int(value)
        if not 0 <= element < size:
            raise ValueError(f"assignment entry {item!r} is not an element 0..{size - 1}")
        assignment.append(element)
    return Countermodel(MagmaTable.from_rows(rows), tuple(assignment))
