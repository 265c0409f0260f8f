"""Reference copies of the durability state machines, for differential tests.

``ReferenceCacheModel`` and ``ReferenceDurabilityChecker`` are the
per-store implementations the two-set cache model and the fresh-entry
checker replaced, kept verbatim apart from their names (and the state
fork both checkers have since dropped): the cache model
records the store seqs of every line it ever touched and walks all of
them at each fence, and the checker re-walks every pending store at
every boundary.  ``tests/test_prop_durability_reference.py`` feeds both
sides the same event streams and requires identical results.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.detect.reports import BugKind, BugReport, DetectionResult, PerfReport
from repro.memory.layout import AddressSpace, lines_covering
from repro.memory.persistence import PersistentImage
from repro.trace.events import (
    BoundaryEvent,
    FenceEvent,
    FlushEvent,
    StoreEvent,
    TraceEvent,
)

#: (store event, flush event or None) pending on a line
_Pending = Tuple[StoreEvent, Optional[FlushEvent]]

#: The checker's report identity: (store iid, kind, caller path).
BugKey = Tuple[int, BugKind, Tuple[int, ...]]

#: A boundary policy maps a boundary event to either None (skip), the
#: string "all" (check every pending store), or an address range
#: ``(lo, hi)`` restricting the check.
BoundaryPolicy = Callable[[BoundaryEvent], Optional[object]]


@dataclass
class LineState:
    """Pending durability bookkeeping for one PM cache line."""

    #: store event sequence numbers that dirtied the line and are not
    #: yet covered by a completed flush+fence
    dirty_stores: Set[int] = field(default_factory=set)
    #: store event sequence numbers covered by an issued (weakly
    #: ordered) flush that has not yet been fenced
    flushing_stores: Set[int] = field(default_factory=set)

    @property
    def is_dirty(self) -> bool:
        return bool(self.dirty_stores)

    @property
    def is_flushing(self) -> bool:
        return bool(self.flushing_stores)

    @property
    def is_pending(self) -> bool:
        return self.is_dirty or self.is_flushing


class ReferenceCacheModel:
    """Tracks per-line durability state for the PM region."""

    def __init__(self, space: AddressSpace, image: PersistentImage):
        self.space = space
        self.image = image
        self.lines: Dict[int, LineState] = {}
        #: statistics used by benchmarks and the redundant-flush report
        self.flush_count = 0
        self.clean_flush_count = 0
        self.fence_count = 0

    def _line(self, line_addr: int) -> LineState:
        if line_addr not in self.lines:
            self.lines[line_addr] = LineState()
        return self.lines[line_addr]

    # -- events ----------------------------------------------------------------

    def on_store(self, addr: int, size: int, seq: int) -> None:
        """A store of ``size`` bytes at ``addr`` (PM only), event id ``seq``."""
        for line_addr in lines_covering(addr, size):
            self._line(line_addr).dirty_stores.add(seq)

    def on_nt_store(self, addr: int, size: int, seq: int) -> None:
        """A non-temporal store: bypasses the cache into the write-
        combining buffer.  No flush is needed, but the write-back only
        completes at the next fence (weakly ordered) — so the bytes go
        straight to the *flushing* (queued) state."""
        for line_addr in lines_covering(addr, size):
            self._line(line_addr).flushing_stores.add(seq)

    def on_flush(self, addr: int, kind: str) -> str:
        """A flush of the line containing ``addr``.

        Returns the flush's effect, which the cost model prices:

        - ``"writeback"`` — the line was dirty and not yet queued: this
          flush schedules a real media write-back (full cost).
        - ``"coalesced"`` — the line was dirty but already sits in the
          write-pending queue from an earlier flush: the WPQ entry
          absorbs the new bytes (cheap).  This is why flush-per-store
          code (Hippocrates's clones) is not much slower than
          flush-per-line code (``pmem_flush``).
        - ``"redundant"`` — the line was completely clean: the raw
          material of PM *performance* bugs, which the detector reports
          but Hippocrates deliberately never "fixes" (§7).
        """
        self.flush_count += 1
        line_addr = lines_covering(addr, 1)[0]
        state = self.lines.get(line_addr)
        if state is None or not state.is_dirty:
            if state is None or not state.is_flushing:
                self.clean_flush_count += 1
                return "redundant"
            if kind == "clflush":
                # Strongly ordered: completes the queued write-back.
                self.image.write_back_line(line_addr)
                state.flushing_stores.clear()
            return "coalesced"
        already_queued = state.is_flushing
        if kind == "clflush":
            # Strongly ordered: write-back completes immediately.
            self.image.write_back_line(line_addr)
            state.dirty_stores.clear()
            # clflush also completes anything previously queued.
            state.flushing_stores.clear()
            return "writeback"
        state.flushing_stores |= state.dirty_stores
        state.dirty_stores.clear()
        return "coalesced" if already_queued else "writeback"

    def on_fence(self, kind: str) -> List[int]:
        """A fence: complete all queued write-backs.

        Returns the line addresses whose durability completed.
        """
        self.fence_count += 1
        completed = []
        for line_addr, state in self.lines.items():
            if state.is_flushing:
                self.image.write_back_line(line_addr)
                state.flushing_stores.clear()
                completed.append(line_addr)
        return completed

    # -- queries -----------------------------------------------------------------

    def pending_lines(self) -> List[int]:
        """Lines with un-durable data (dirty or queued)."""
        return sorted(
            line_addr for line_addr, state in self.lines.items() if state.is_pending
        )

    def pending_store_seqs(self) -> Set[int]:
        """Store event ids whose durability has not completed."""
        seqs: Set[int] = set()
        for state in self.lines.values():
            seqs |= state.dirty_stores
            seqs |= state.flushing_stores
        return seqs

    def dirty_store_seqs(self) -> Set[int]:
        """Store event ids not yet covered by any flush."""
        seqs: Set[int] = set()
        for state in self.lines.values():
            seqs |= state.dirty_stores
        return seqs

    def flushing_store_seqs(self) -> Set[int]:
        """Store event ids flushed but not yet fenced."""
        seqs: Set[int] = set()
        for state in self.lines.values():
            seqs |= state.flushing_stores
        return seqs


def _pmemcheck_policy(boundary: BoundaryEvent) -> Optional[object]:
    """pmemcheck checks everything at every boundary except PMTest tags."""
    if boundary.label.startswith("pmtest:"):
        return None
    return "all"


def _pmtest_policy(boundary: BoundaryEvent) -> Optional[object]:
    """PMTest checks only its own assertions, each over a range."""
    if not boundary.label.startswith("pmtest:"):
        return None
    _, addr_text, size_text = boundary.label.split(":")
    lo = int(addr_text, 16)
    return (lo, lo + int(size_text))


@dataclass
class ReferenceCheckerState:
    """The checker's complete mutable state after some event prefix."""

    dirty: Dict[int, List[StoreEvent]] = field(default_factory=dict)
    flushing: Dict[int, List[_Pending]] = field(default_factory=dict)
    fence_seqs: List[int] = field(default_factory=list)
    reports: Dict[BugKey, BugReport] = field(default_factory=dict)
    attributed_seqs: Set[int] = field(default_factory=set)
    perf: Dict[int, PerfReport] = field(default_factory=dict)


class ReferenceDurabilityChecker:
    """Offline trace analysis (the detector half of Fig. 2's pipeline)."""

    def __init__(self, boundary_policy: BoundaryPolicy = _pmemcheck_policy):
        self.boundary_policy = boundary_policy

    # -- streaming API --------------------------------------------------------

    def new_state(self) -> ReferenceCheckerState:
        return ReferenceCheckerState()

    def feed(self, state: ReferenceCheckerState, event: TraceEvent) -> None:
        """Advance ``state`` by one trace event."""
        dirty, flushing = state.dirty, state.flushing
        if isinstance(event, StoreEvent):
            if event.space != "pm":
                return
            for line_addr in lines_covering(event.addr, event.size):
                if event.nontemporal:
                    # MOVNT: already write-combining-queued; it
                    # needs no flush, only an ordering fence.
                    flushing.setdefault(line_addr, []).append((event, None))
                else:
                    dirty.setdefault(line_addr, []).append(event)
        elif isinstance(event, FlushEvent):
            line_addr = event.line_addr
            if not event.had_work:
                note = state.perf.get(event.iid)
                if note is None:
                    state.perf[event.iid] = PerfReport(event)
                else:
                    note.occurrences += 1
            pending = dirty.pop(line_addr, [])
            if event.flush_kind == "clflush":
                # Strongly ordered: line durable immediately.
                flushing.pop(line_addr, None)
            else:
                if pending:
                    flushing.setdefault(line_addr, []).extend(
                        (store, event) for store in pending
                    )
        elif isinstance(event, FenceEvent):
            state.fence_seqs.append(event.seq)
            flushing.clear()
        elif isinstance(event, BoundaryEvent):
            scope = self.boundary_policy(event)
            if scope is None:
                return

            def in_scope(store: StoreEvent) -> bool:
                if scope == "all":
                    return True
                lo, hi = scope  # type: ignore[misc]
                return store.addr < hi and store.addr + store.size > lo

            for stores in dirty.values():
                for store in stores:
                    if not in_scope(store):
                        continue
                    fence_after = (
                        bisect.bisect_right(state.fence_seqs, store.seq)
                        < len(state.fence_seqs)
                    )
                    kind = (
                        BugKind.MISSING_FLUSH
                        if fence_after
                        else BugKind.MISSING_FLUSH_FENCE
                    )
                    self._report(state, kind, store, event, None)
            for pairs in flushing.values():
                for store, flush in pairs:
                    if in_scope(store):
                        self._report(
                            state, BugKind.MISSING_FENCE, store, event, flush
                        )

    def _report(
        self,
        state: ReferenceCheckerState,
        kind: BugKind,
        store: StoreEvent,
        boundary: BoundaryEvent,
        flush: Optional[FlushEvent],
    ) -> None:
        if store.seq in state.attributed_seqs:
            return
        state.attributed_seqs.add(store.seq)
        # One report per (store instruction, bug kind, *call path*).
        # The call path matters: the same store inside a shared helper
        # like memcpy reached through different call sites is a
        # distinct bug with a distinct (hoisted) fix location.
        path = tuple(frame.iid for frame in store.caller_frames)
        key = (store.iid, kind, path)
        existing = state.reports.get(key)
        if existing is None:
            state.reports[key] = BugReport(
                kind=kind,
                store=store,
                boundary=boundary,
                flush=flush,
                report_id=len(state.reports) + 1,
            )
        else:
            existing.occurrences += 1

    def finalize(self, state: ReferenceCheckerState) -> DetectionResult:
        """Package a state's accumulated findings (state is unchanged)."""
        result = DetectionResult()
        result.bugs = sorted(
            state.reports.values(), key=lambda b: (b.store.seq, b.kind.value)
        )
        result.perf = sorted(state.perf.values(), key=lambda p: p.flush.seq)
        return result

    # -- one-shot API ---------------------------------------------------------

    def check(self, trace: PMTrace) -> DetectionResult:
        state = self.new_state()
        for event in trace:
            self.feed(state, event)
        return self.finalize(state)
