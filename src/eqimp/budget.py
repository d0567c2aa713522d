"""Step and wall-clock budgets shared by the search engines."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

OUT_OF_BUDGET = "out-of-budget"  # outcome status shared by both engines


@dataclass(frozen=True)
class Budget:
    """A step allowance, a wall-clock allowance, both (whichever runs out
    first) or neither (unlimited)."""

    steps: int | None = None
    seconds: float | None = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise ValueError("step budget must be non-negative")
        if self.seconds is not None and not 0 <= self.seconds < math.inf:
            raise ValueError("wall budget must be finite and non-negative")

    @staticmethod
    def of_steps(steps: int) -> "Budget":
        return Budget(steps=steps)

    @staticmethod
    def of_wall(seconds: float) -> "Budget":
        return Budget(seconds=seconds)


UNLIMITED = Budget()


class BudgetMeter:
    """Mutable per-attempt counter; tick() is False once the budget is spent."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.steps_used = 0
        self._deadline = (
            None if budget.seconds is None else time.monotonic() + budget.seconds
        )

    def tick(self) -> bool:
        self.steps_used += 1
        if self.budget.steps is not None and self.steps_used > self.budget.steps:
            self.steps_used = self.budget.steps
            return False
        return not self.expired()

    def expired(self) -> bool:
        """True once the wall-clock allowance is spent; uses no step."""
        return self._deadline is not None and time.monotonic() >= self._deadline
