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
:class:`CheckerState` that events are fed into one at a time, and which
can be :meth:`forked <CheckerState.fork>` at any event boundary.  The
incremental revalidation engine (:mod:`repro.revalidate`) exploits this
to resume checking from a mid-trace point — the forked state continues
exactly where a full pass would be, so report ids, occurrence counts,
and orderings stay byte-identical with a from-scratch check.  Plain
:meth:`DurabilityChecker.check` is a feed loop over one state.
"""

from __future__ import annotations

import bisect
import copy
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

    Forking deep-copies every mutable layer (the per-line event lists,
    the report objects whose ``occurrences`` mutate on re-attribution),
    so feeding events into a fork never disturbs the original — the
    invariant the incremental engine's memoized forks rely on.
    """

    dirty: Dict[int, List[StoreEvent]] = field(default_factory=dict)
    flushing: Dict[int, List[_Pending]] = field(default_factory=dict)
    fence_seqs: List[int] = field(default_factory=list)
    reports: Dict[BugKey, BugReport] = field(default_factory=dict)
    attributed_seqs: Set[int] = field(default_factory=set)
    perf: Dict[int, PerfReport] = field(default_factory=dict)

    def fork(self) -> "CheckerState":
        return CheckerState(
            dirty={line: list(stores) for line, stores in self.dirty.items()},
            flushing={line: list(pairs) for line, pairs in self.flushing.items()},
            fence_seqs=list(self.fence_seqs),
            reports={key: copy.copy(bug) for key, bug in self.reports.items()},
            attributed_seqs=set(self.attributed_seqs),
            perf={iid: copy.copy(note) for iid, note in self.perf.items()},
        )


class DurabilityChecker:
    """Offline trace analysis (the detector half of Fig. 2's pipeline)."""

    def __init__(self, boundary_policy: BoundaryPolicy = _pmemcheck_policy):
        self.boundary_policy = boundary_policy

    # -- streaming API --------------------------------------------------------

    def new_state(self) -> CheckerState:
        return CheckerState()

    def feed(self, state: CheckerState, event: TraceEvent) -> None:
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
        state: CheckerState,
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
        state = self.new_state()
        for event in trace:
            self.feed(state, event)
        return self.finalize(state)


def check_trace(trace: PMTrace) -> DetectionResult:
    """Run the pmemcheck-style checker over a trace."""
    return DurabilityChecker().check(trace)


def check_trace_pmtest(trace: PMTrace) -> DetectionResult:
    """Run the PMTest-style assertion checker over a trace."""
    return DurabilityChecker(_pmtest_policy).check(trace)

