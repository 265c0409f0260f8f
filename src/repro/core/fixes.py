"""Fix representations.

Hippocrates computes a *fix plan* — a list of these objects — in three
phases (intraprocedural generation, reduction, hoisting) and only then
mutates the module.  Keeping the plan first-class makes the phases
testable in isolation and lets the report say exactly what was done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ir.instructions import Call, Flush, Gep, Instruction, Store
from ..ir.values import Constant
from ..detect.reports import BugReport


def insert_covering_flushes(
    store: Store, kind: str = "clwb", into: Optional[List[Instruction]] = None
) -> List[Instruction]:
    """Insert flush(es) after a store, covering every cache line the
    store touches.

    A multi-byte store may straddle a line boundary; flushing only the
    pointer's line would leave the tail bytes dirty.  The first flush
    targets the store's pointer, the second (for stores wider than one
    byte) targets the last stored byte — on the common non-straddling
    path it coalesces for almost nothing.

    Returns the inserted instructions, in order.  When ``into`` is
    given, each instruction is also appended to it *as it is inserted*,
    so a caller's rollback journal sees partial insertions even if a
    later step here raises.
    """
    block = store.parent
    if block is None:
        raise ValueError(f"store #{store.iid} is detached")
    inserted: List[Instruction] = []

    def insert(after: Instruction, instr: Instruction) -> Instruction:
        instr.loc = store.loc
        block.insert_after(after, instr)
        inserted.append(instr)
        if into is not None:
            into.append(instr)
        return instr

    first = insert(store, Flush(store.pointer, kind))
    if store.size > 1:
        tail_ptr = insert(first, Gep(store.pointer, Constant(store.size - 1)))
        insert(tail_ptr, Flush(tail_ptr, kind))
    return inserted


@dataclass
class Fix:
    """Base class; ``bugs`` are the reports this fix discharges."""

    bugs: List[BugReport] = field(default_factory=list)
    #: instructions inserted when the fix was applied
    inserted: List[Instruction] = field(default_factory=list)

    def describe(self) -> str:  # pragma: no cover - overridden
        return "fix"


@dataclass
class InsertFlush(Fix):
    """Intraprocedural: insert ``flush(ptr)`` right after the store.

    Used for missing-flush bugs where an existing later fence already
    orders the inserted flush (Theorem 2).
    """

    store: Optional[Store] = None
    flush_kind: str = "clwb"

    def describe(self) -> str:
        assert self.store is not None
        return (
            f"intraprocedural flush({self.flush_kind}) after store "
            f"#{self.store.iid} at {self.store.loc}"
        )


@dataclass
class InsertFenceAfterFlush(Fix):
    """Intraprocedural: insert a fence right after an existing flush.

    Used for missing-fence bugs (Theorem 1).
    """

    flush: Optional[Flush] = None
    fence_kind: str = "sfence"

    def describe(self) -> str:
        assert self.flush is not None
        return (
            f"intraprocedural fence({self.fence_kind}) after flush "
            f"#{self.flush.iid} at {self.flush.loc}"
        )


@dataclass
class InsertFenceAfterStore(Fix):
    """Intraprocedural: insert a fence right after a non-temporal store.

    MOVNT stores need no flush (the data bypasses the cache), so the
    missing-fence fix anchors to the store itself (Theorem 1).
    """

    store: Optional[Store] = None
    fence_kind: str = "sfence"

    def describe(self) -> str:
        assert self.store is not None
        return (
            f"intraprocedural fence({self.fence_kind}) after non-temporal "
            f"store #{self.store.iid} at {self.store.loc}"
        )


@dataclass
class InsertFlushAndFence(Fix):
    """Intraprocedural: flush after the store, fence after the flush.

    Used for missing-flush&fence bugs (Theorem 3); this is the paper's
    Listing 1 shape.
    """

    store: Optional[Store] = None
    flush_kind: str = "clwb"
    fence_kind: str = "sfence"

    def describe(self) -> str:
        assert self.store is not None
        return (
            f"intraprocedural flush+fence after store #{self.store.iid} "
            f"at {self.store.loc}"
        )


@dataclass
class HoistedFix(Fix):
    """Interprocedural: persistent subprogram transformation (Theorem 4).

    The function called at ``call_site`` is cloned into a ``_PM``
    variant whose PM stores are all flushed; the call site is retargeted
    and a single fence is inserted after it.
    """

    call_site: Optional[Call] = None
    #: frames between the store's function and the clone root (the
    #: paper reports "1 function above", "2 functions above")
    hoist_depth: int = 1

    def describe(self) -> str:
        assert self.call_site is not None
        return (
            f"interprocedural fix: persistent subprogram of "
            f"@{self.call_site.callee} at call site #{self.call_site.iid} "
            f"({self.call_site.loc}), {self.hoist_depth} function(s) above "
            f"the PM modification"
        )


@dataclass
class FixPlan:
    """The full plan plus bookkeeping accumulated while applying it."""

    fixes: List[Fix] = field(default_factory=list)

    def intraprocedural(self) -> List[Fix]:
        return [f for f in self.fixes if not isinstance(f, HoistedFix)]

    def interprocedural(self) -> List[HoistedFix]:
        return [f for f in self.fixes if isinstance(f, HoistedFix)]

    def describe(self) -> str:
        lines = [f"{len(self.fixes)} fix(es):"]
        lines.extend("  " + fix.describe() for fix in self.fixes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fix kinds (the Fig. 3 vocabulary)
# ---------------------------------------------------------------------------

#: fix-kind vocabulary shared by developer-fix metadata and the
#: classification of Hippocrates's plans
INTRAPROC_FLUSH = "intraproc-flush"
INTRAPROC_FENCE = "intraproc-fence"
INTRAPROC_FLUSH_FENCE = "intraproc-flush+fence"
INTERPROC_FLUSH = "interproc-flush"
INTERPROC_FLUSH_FENCE = "interproc-flush+fence"

#: Fig. 3 equivalence classes
IDENTICAL = "functionally identical"
EQUIVALENT_PORTABLE = "functionally equivalent; developer fix more portable"


def classify_fix(fix: Fix) -> str:
    """Map an applied fix object to the fix-kind vocabulary."""
    if isinstance(fix, HoistedFix):
        return INTERPROC_FLUSH_FENCE
    if isinstance(fix, InsertFlush):
        return INTRAPROC_FLUSH
    if isinstance(fix, InsertFlushAndFence):
        return INTRAPROC_FLUSH_FENCE
    if isinstance(fix, (InsertFenceAfterFlush, InsertFenceAfterStore)):
        return INTRAPROC_FENCE
    raise ValueError(f"unknown fix {fix!r}")


def compare_fix_kinds(hippocrates: str, developer: str) -> str:
    """The Fig. 3 qualitative comparison for one bug."""
    if hippocrates == developer:
        return IDENTICAL
    if hippocrates == INTRAPROC_FLUSH and developer == INTERPROC_FLUSH:
        # The single-cache-line case: the in-line clwb is functionally
        # correct; libpmem's pmem_flush additionally dispatches on the
        # CPU's available flush instruction at run time.
        return EQUIVALENT_PORTABLE
    return f"different ({hippocrates} vs {developer})"
