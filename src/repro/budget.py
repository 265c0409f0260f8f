"""Resource budgets for the analysis and exploration passes.

Real PM traces are large (the paper's Redis logs exceed 350 MB) and the
whole-program analyses are superlinear, so a production repair service
must be able to bound how much work a single repair may consume.  A
:class:`Budget` caps abstract work items (fixpoint constraint
evaluations, crash states) and/or wall-clock time; consumers either
check it gracefully (:meth:`try_charge`, yielding partial results) or
strictly (:meth:`charge`, raising
:class:`~repro.errors.BudgetExceeded`), which the orchestrator treats
as a signal to fall back to a cheaper heuristic.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import BudgetExceeded


class Budget:
    """A cap on work items and/or wall-clock seconds.

    :param max_items: maximum number of abstract work units; None means
        unlimited.
    :param max_seconds: maximum wall-clock seconds from the first
        charge; None means unlimited.
    :param label: what the budget covers, used in error messages.
    """

    def __init__(
        self,
        max_items: Optional[int] = None,
        max_seconds: Optional[float] = None,
        label: str = "work",
    ):
        self.max_items = max_items
        self.max_seconds = max_seconds
        self.label = label
        self.spent_items = 0
        self._started_at: Optional[float] = None

    # -- accounting ---------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic()

    @property
    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._now() - self._started_at

    @property
    def exhausted(self) -> bool:
        """True once either cap has been crossed."""
        if self.max_items is not None and self.spent_items >= self.max_items:
            return True
        if self.max_seconds is not None and self.elapsed_seconds >= self.max_seconds:
            return True
        return False

    def try_charge(self, items: int = 1) -> bool:
        """Consume ``items``; False, consuming nothing, when the charge
        would take ``spent_items`` past ``max_items`` or the time cap has
        been crossed.

        Graceful consumers (the crash explorer) stop producing results
        when this returns False and expose what they have so far.
        """
        if self._started_at is None:
            self._started_at = self._now()
        if self.max_items is not None and self.spent_items + items > self.max_items:
            return False
        if self.max_seconds is not None and self.elapsed_seconds >= self.max_seconds:
            return False
        self.spent_items += items
        return True

    def charge(self, items: int = 1) -> None:
        """Consume ``items``; raise :class:`BudgetExceeded` if exhausted.

        Strict consumers (the Andersen fixpoint) use this so the caller
        can catch the signal and downgrade.
        """
        if not self.try_charge(items):
            raise BudgetExceeded(
                f"{self.label} budget exhausted "
                f"({self.spent_items} item(s), {self.elapsed_seconds:.3f}s; "
                f"limits: items={self.max_items}, seconds={self.max_seconds})",
                spent=self.spent_items,
                limit=self.max_items or 0,
            )

    def __repr__(self) -> str:
        return (
            f"<Budget {self.label!r}: {self.spent_items}"
            f"/{self.max_items} items, {self.elapsed_seconds:.3f}"
            f"/{self.max_seconds}s>"
        )
