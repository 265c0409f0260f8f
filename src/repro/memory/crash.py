"""Crash-state enumeration.

A crash at a given moment can leave persistent memory in any state where
each *pending* cache line (dirty or flush-queued) independently did or
did not reach the media.  For a program with N pending lines there are
2^N reachable crash images; this module enumerates them (exhaustively
for small N, by deterministic sampling otherwise).

This is the machinery behind the crash-consistency demonstrations: a
durability bug is *observable* exactly when some crash state yields an
inconsistent recovery, and Hippocrates's fix shrinks the pending set so
that the only reachable crash state is the consistent one.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..budget import Budget
from ..errors import BudgetExceeded
from .cache import CacheModel
from .persistence import PersistentImage


class CrashState:
    """One reachable post-crash PM image."""

    def __init__(self, surviving_lines: Tuple[int, ...], image: bytes, pm_base: int):
        self.surviving_lines = surviving_lines
        self.image = image
        self.pm_base = pm_base

    def read(self, addr: int, size: int) -> bytes:
        offset = addr - self.pm_base
        chunk = self.image[offset : offset + size]
        return chunk + bytes(size - len(chunk))  # zeros past the image

    def read_int(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def __repr__(self) -> str:
        survived = ",".join(f"{a:#x}" for a in self.surviving_lines) or "none"
        return f"<CrashState survived=[{survived}]>"


class CrashExplorer:
    """Enumerates the crash states reachable at the current moment."""

    #: exhaustive enumeration limit: 2^12 = 4096 states
    EXHAUSTIVE_LIMIT = 12

    def __init__(
        self,
        cache: CacheModel,
        image: PersistentImage,
        seed: int = 0,
        budget: Optional[Budget] = None,
    ):
        self.cache = cache
        self.image = image
        self._rng = random.Random(seed)
        #: optional cap on states materialized / wall-clock spent; when
        #: it runs out, enumeration stops gracefully and this flag is
        #: set so callers know the result is partial.
        self.budget = budget
        self.budget_exhausted = False

    def pending_lines(self) -> List[int]:
        return self.cache.pending_lines()

    def _charge(self) -> bool:
        """Account one state against the budget (True = may proceed)."""
        if self.budget is None:
            return True
        if self.budget.try_charge():
            return True
        self.budget_exhausted = True
        return False

    def states(self, max_states: Optional[int] = None) -> Iterator[CrashState]:
        """Yield reachable crash states.

        If the pending set is small, every subset is produced (the
        adversarial all-lost state first); otherwise ``max_states``
        deterministic random subsets are sampled (default 256), always
        including the all-lost and all-survived extremes.

        A :class:`~repro.budget.Budget` passed to the constructor bounds
        the enumeration in states and wall-clock time: when it runs out
        the iterator simply stops (a graceful partial result) and
        ``budget_exhausted`` is set.
        """
        pending = self.pending_lines()
        pm_base = self.image.space.pm.base
        if len(pending) <= self.EXHAUSTIVE_LIMIT:
            subsets: Iterator[Tuple[int, ...]] = itertools.chain.from_iterable(
                itertools.combinations(pending, k) for k in range(len(pending) + 1)
            )
            count = 0
            for subset in subsets:
                if not self._charge():
                    return
                yield CrashState(subset, self.image.crash(subset), pm_base)
                count += 1
                if max_states is not None and count >= max_states:
                    return
            return

        sample_budget = max_states or 256
        for subset in ((), tuple(pending)):
            if not self._charge():
                return
            yield CrashState(subset, self.image.crash(subset), pm_base)
        for _ in range(max(0, sample_budget - 2)):
            if not self._charge():
                return
            subset = tuple(
                line for line in pending if self._rng.random() < 0.5
            )
            yield CrashState(subset, self.image.crash(subset), pm_base)

    def find_violation(
        self,
        consistent: Callable[[CrashState], bool],
        max_states: Optional[int] = None,
        strict_budget: bool = False,
    ) -> Optional[CrashState]:
        """Search for a crash state that violates a consistency predicate.

        Returns the first inconsistent state found, or None if every
        explored state satisfies ``consistent``.  With
        ``strict_budget=True``, running out of budget before finding a
        violation raises :class:`BudgetExceeded` instead of returning
        the (inconclusive) None.
        """
        for state in self.states(max_states):
            if not consistent(state):
                return state
        if strict_budget and self.budget_exhausted:
            raise BudgetExceeded(
                "crash-state exploration budget exhausted before the "
                "predicate was decided",
                spent=self.budget.spent_items if self.budget else 0,
                limit=(self.budget.max_items or 0) if self.budget else 0,
            )
        return None

    def all_consistent(
        self,
        consistent: Callable[[CrashState], bool],
        max_states: Optional[int] = None,
    ) -> bool:
        """True if every explored crash state satisfies the predicate."""
        return self.find_violation(consistent, max_states) is None
