"""Cycle-cost model for executed IR.

The paper's performance results (Fig. 4) depend on one ratio: ordinary
volatile work is cheap, while cache-line flushes and memory fences are
expensive — *and a flush costs the same whether the line holds PM or
volatile data*.  That is precisely why intraprocedural fixes inside a
shared helper like ``memcpy`` are disastrous (every volatile invocation
pays flush costs) and why the hoisting heuristic exists.

The default latencies are drawn from published Optane/x86 measurements
(CLWB ~ tens of ns, SFENCE drains the write-pending queue) scaled to
abstract cycles; the *shape* of results is insensitive to the exact
values, which benchmarks can override.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class CostModel:
    """Abstract cycle costs per executed operation."""

    load: int = 1
    store: int = 1
    arith: int = 1
    compare: int = 1
    branch: int = 1
    call: int = 3
    ret: int = 1
    alloca: int = 1
    gep: int = 1
    select: int = 1
    cast: int = 1
    intrinsic: int = 3
    #: A flush of a dirty line (PM write-back) or of any volatile line
    #: (DRAM write-back): paid regardless of the target's region.
    flush: int = 60
    #: A flush of an already-clean or already-queued PM line: CLWB hits
    #: the cache / write-pending queue and schedules no new write-back
    #: (a few cycles on real hardware).
    flush_clean: int = 2
    #: A store fence's base cost; the per-pending-line drain cost is
    #: added on top (an SFENCE with an empty WPQ is nearly free).
    fence: int = 20
    #: Added per cache line drained by a fence (write-pending-queue cost).
    fence_per_line: int = 12
    #: PM store premium over a DRAM store (Optane write latency).
    pm_store_extra: int = 3
    #: Extra cost of a clflush write-back: the instruction serializes
    #: against later accesses to the line instead of queueing in the
    #: WPQ, so it cannot overlap (why clwb+fence is preferred).
    clflush_serial: int = 25

    def as_dict(self) -> Dict[str, int]:
        return {
            "load": self.load,
            "store": self.store,
            "arith": self.arith,
            "compare": self.compare,
            "branch": self.branch,
            "call": self.call,
            "ret": self.ret,
            "alloca": self.alloca,
            "gep": self.gep,
            "select": self.select,
            "cast": self.cast,
            "intrinsic": self.intrinsic,
            "flush": self.flush,
            "flush_clean": self.flush_clean,
            "clflush_serial": self.clflush_serial,
            "fence": self.fence,
            "fence_per_line": self.fence_per_line,
            "pm_store_extra": self.pm_store_extra,
        }


#: The charge kinds in canonical order.  Both execution engines count
#: into dense per-kind slots indexed by :data:`KIND_INDEX`; the
#: ``counts`` dict view is folded from the slots on demand (once, at the
#: end of a run) instead of paying a dict get+set per executed step.
KIND_ORDER = (
    "load",
    "store",
    "arith",
    "compare",
    "branch",
    "call",
    "ret",
    "alloca",
    "gep",
    "select",
    "cast",
    "intrinsic",
    "flush",
    "fence",
)

#: kind name -> dense slot index.
KIND_INDEX = {kind: index for index, kind in enumerate(KIND_ORDER)}


class CostCounter:
    """Accumulates cost and operation counts during a run.

    Counts live in a dense per-kind list — the reference engine bumps
    a slot per charge, the flat engine adds a whole entry-point call's
    counts when the call ends (as it writes back ``cycles``) — and
    :attr:`counts` folds them into the kind-keyed dict the rest of the
    system consumes.  The fold is pure (no state change), so reading
    ``counts`` between calls is safe and reflects everything charged.
    """

    __slots__ = ("model", "cycles", "_dense", "_extra")

    def __init__(self, model: "CostModel" = None, cycles: int = 0):
        self.model = model if model is not None else CostModel()
        self.cycles = cycles
        self._dense = [0] * len(KIND_ORDER)
        #: kinds outside KIND_ORDER (none in-tree; future-proofing)
        self._extra: Dict[str, int] = {}

    def charge(self, kind: str, amount: int) -> None:
        self.cycles += amount
        index = KIND_INDEX.get(kind)
        if index is None:
            self._extra[kind] = self._extra.get(kind, 0) + 1
        else:
            self._dense[index] += 1

    @property
    def counts(self) -> Dict[str, int]:
        """Per-kind charge counts (kinds with zero charges omitted,
        matching the lazily-populated dict this replaced)."""
        folded = {
            kind: count
            for kind, count in zip(KIND_ORDER, self._dense)
            if count
        }
        folded.update(self._extra)
        return folded

    def summary(self) -> Dict[str, int]:
        summary = self.counts
        summary["cycles"] = self.cycles
        return summary
