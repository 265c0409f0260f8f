"""The durability checker: a pmemcheck-style PM bug finder.

Replays a PM trace through the cache-line durability state machine and,
at every durability boundary (``checkpoint`` calls and process exit),
reports stores whose durability obligation is unmet:

- store never flushed, no later fence either -> *missing-flush&fence*
- store never flushed, but a fence occurs before the boundary (so an
  inserted flush would be ordered) -> *missing-flush*
- store flushed with a weakly-ordered flush that no fence drains before
  the boundary -> *missing-fence*

Redundant flushes of clean lines are reported separately as performance
diagnostics (never fixed; paper §7).

The checker is *streaming*: its per-trace mutable state lives in a
:class:`CheckerState` that events are fed into one at a time
(:meth:`DurabilityChecker.feed`), and :meth:`DurabilityChecker.finalize`
packages the findings.  :meth:`DurabilityChecker.check` is a feed loop
over one fresh state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..memory.layout import lines_covering
from ..trace.events import (
    BoundaryEvent,
    FenceEvent,
    FlushEvent,
    StoreEvent,
    TraceEvent,
)
from ..trace.trace import PMTrace
from .reports import BugKind, BugReport, DetectionResult, PerfReport

#: (store event, flush event or None) pending on a line
_Pending = Tuple[StoreEvent, Optional[FlushEvent]]

#: The checker's report identity: (store iid, kind, caller path).
BugKey = Tuple[int, BugKind, Tuple[int, ...]]

#: A boundary policy maps a boundary event to either None (skip), the
#: string "all" (check every pending store), or an address range
#: ``(lo, hi)`` restricting the check.
BoundaryPolicy = Callable[[BoundaryEvent], Optional[object]]


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
class CheckerState:
    """The checker's complete mutable state after some event prefix.

    ``dirty`` and ``flushing`` map each line in that state to its
    insertion stamp.  The pending (store, flush) entries live in
    ``fresh_dirty``/``fresh_flushing`` only until a boundary attributes
    their store: a boundary then visits each fresh entry once, by line
    stamp and then arrival, which is the order a walk of every pending
    store would meet them in, so report ids stay the same.
    """

    dirty: Dict[int, int] = field(default_factory=dict)
    flushing: Dict[int, int] = field(default_factory=dict)
    fresh_dirty: Dict[int, List[_Pending]] = field(default_factory=dict)
    fresh_flushing: Dict[int, List[_Pending]] = field(default_factory=dict)
    #: the next line insertion stamp
    stamp: int = 0
    #: seq of the latest fence (-1 before the first)
    last_fence: int = -1
    reports: Dict[BugKey, BugReport] = field(default_factory=dict)
    perf: Dict[int, PerfReport] = field(default_factory=dict)


def _in_scope(store: StoreEvent, scope: object) -> bool:
    if scope == "all":
        return True
    lo, hi = scope  # type: ignore[misc]
    return store.addr < hi and store.addr + store.size > lo


def _take(
    fresh: Dict[int, List[_Pending]], stamps: Dict[int, int], scope: object
) -> List[_Pending]:
    """Remove and return the fresh entries whose store lies in
    ``scope``, ordered by line stamp, then arrival."""
    taken: List[_Pending] = []
    for line in sorted(fresh, key=stamps.__getitem__):
        kept = []
        for pair in fresh.pop(line):
            (taken if _in_scope(pair[0], scope) else kept).append(pair)
        if kept:
            fresh[line] = kept
    return taken


class DurabilityChecker:
    """Offline trace analysis (the detector half of Fig. 2's pipeline)."""

    def __init__(self, boundary_policy: BoundaryPolicy = _pmemcheck_policy):
        self.boundary_policy = boundary_policy

    # -- streaming API --------------------------------------------------------

    def new_state(self) -> CheckerState:
        return CheckerState()

    def feed(self, state: CheckerState, event: TraceEvent) -> None:
        """Advance ``state`` by one trace event."""
        if isinstance(event, StoreEvent):
            if event.space != "pm":
                return
            if event.nontemporal:
                # MOVNT: already write-combining-queued; it needs no
                # flush, only an ordering fence.
                stamps, fresh = state.flushing, state.fresh_flushing
            else:
                stamps, fresh = state.dirty, state.fresh_dirty
            pair = (event, None)
            for line_addr in lines_covering(event.addr, event.size):
                if line_addr not in stamps:
                    stamps[line_addr] = state.stamp
                    state.stamp += 1
                fresh.setdefault(line_addr, []).append(pair)
        elif isinstance(event, FlushEvent):
            line_addr = event.line_addr
            if not event.had_work:
                note = state.perf.get(event.iid)
                if note is None:
                    state.perf[event.iid] = PerfReport(event)
                else:
                    note.occurrences += 1
            was_dirty = state.dirty.pop(line_addr, None) is not None
            pending = state.fresh_dirty.pop(line_addr, ())
            if event.flush_kind == "clflush":
                # Strongly ordered: line durable immediately.
                state.flushing.pop(line_addr, None)
                state.fresh_flushing.pop(line_addr, None)
            elif was_dirty:
                if line_addr not in state.flushing:
                    state.flushing[line_addr] = state.stamp
                    state.stamp += 1
                if pending:
                    state.fresh_flushing.setdefault(line_addr, []).extend(
                        (store, event) for store, _ in pending
                    )
        elif isinstance(event, FenceEvent):
            state.last_fence = event.seq
            state.flushing.clear()
            state.fresh_flushing.clear()
        elif isinstance(event, BoundaryEvent):
            scope = self.boundary_policy(event)
            if scope is None:
                return
            # A store covering several lines is reported once, through
            # the first of its entries the boundary visits.
            seen: Set[int] = set()
            for store, _ in _take(state.fresh_dirty, state.dirty, scope):
                kind = (
                    BugKind.MISSING_FLUSH
                    if state.last_fence > store.seq
                    else BugKind.MISSING_FLUSH_FENCE
                )
                self._report(state, seen, kind, store, event, None)
            for store, flush in _take(state.fresh_flushing, state.flushing, scope):
                self._report(state, seen, BugKind.MISSING_FENCE, store, event, flush)

    def _report(
        self,
        state: CheckerState,
        seen: Set[int],
        kind: BugKind,
        store: StoreEvent,
        boundary: BoundaryEvent,
        flush: Optional[FlushEvent],
    ) -> None:
        if store.seq in seen:
            return
        seen.add(store.seq)
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

    def finalize(self, state: CheckerState) -> DetectionResult:
        """Package a state's accumulated findings (state is unchanged)."""
        result = DetectionResult()
        result.bugs = sorted(
            state.reports.values(), key=lambda b: (b.store.seq, b.kind.value)
        )
        result.perf = sorted(state.perf.values(), key=lambda p: p.flush.seq)
        return result

    # -- one-shot API ---------------------------------------------------------

    def check(self, trace: PMTrace) -> DetectionResult:
        """Check a whole trace."""
        state = self.new_state()
        for event in trace.events:
            self.feed(state, event)
        return self.finalize(state)


def check_trace(trace: PMTrace) -> DetectionResult:
    """Run the pmemcheck-style checker over a trace."""
    return DurabilityChecker().check(trace)


def check_trace_pmtest(trace: PMTrace) -> DetectionResult:
    """Run the PMTest-style assertion checker over a trace."""
    return DurabilityChecker(_pmtest_policy).check(trace)

