"""The PM trace container and recorder."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Type, TypeVar

from .events import (
    BoundaryEvent,
    CallStack,
    FenceEvent,
    FlushEvent,
    StoreEvent,
    TraceEvent,
)

E = TypeVar("E", bound=TraceEvent)


class PMTrace:
    """An ordered sequence of PM events from one execution."""

    def __init__(self, events: Optional[List[TraceEvent]] = None):
        self.events: List[TraceEvent] = events or []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self.events[index]

    # -- filtered views -------------------------------------------------------

    def of_kind(self, event_type: Type[E]) -> List[E]:
        return [e for e in self.events if isinstance(e, event_type)]

    def stores(self, pm_only: bool = True) -> List[StoreEvent]:
        stores = self.of_kind(StoreEvent)
        if pm_only:
            stores = [s for s in stores if s.space == "pm"]
        return stores

    def flushes(self) -> List[FlushEvent]:
        return self.of_kind(FlushEvent)

    def fences(self) -> List[FenceEvent]:
        return self.of_kind(FenceEvent)

    def boundaries(self) -> List[BoundaryEvent]:
        return self.of_kind(BoundaryEvent)

    def pm_store_iids(self) -> List[int]:
        """IR instruction ids of every PM-modifying store (Trace-AA input)."""
        return sorted({s.iid for s in self.stores()})


def _no_stack() -> CallStack:
    return ()


class TraceRecorder:
    """Builds a :class:`PMTrace` during interpretation.

    The interpreter calls the ``record_*`` methods and installs its
    stack capture as ``stack_provider``, which each event calls once
    for the live call stack (outermost first, innermost last).
    Like pmemcheck it traces PM operations only: a volatile store
    records no event.
    """

    #: Recording subclasses that keep a volatile-operation side channel
    #: set this True; the interpreter then calls :meth:`note_vol_flush`
    #: for flushes of volatile addresses (which record no trace event).
    record_vol_ops = False

    #: the volatile-op side channel itself; recording subclasses shadow
    #: this with a list, so ``len(recorder.vol_ops)`` is uniformly valid
    #: (the callee-span hooks read it on every module call)
    vol_ops: tuple = ()

    def note_vol_flush(self) -> None:  # pragma: no cover - subclass hook
        """Called for a volatile-target flush when ``record_vol_ops``."""

    def __init__(self):
        self.trace = PMTrace()
        self.stack_provider: Callable[[], CallStack] = _no_stack
        self._seq = 0

    def _head(self) -> tuple:
        """The fields every event starts with: seq, iid, loc, function
        and stack, the last three from the innermost frame."""
        stack = self.stack_provider()
        function, iid, loc = stack[-1]
        self._seq += 1
        return self._seq, iid, loc, function, stack

    def record_store(
        self, addr: int, size: int, space: str, nontemporal: bool = False
    ) -> Optional[StoreEvent]:
        if space != "pm":
            return None
        event = StoreEvent(*self._head(), addr, size, space, nontemporal)
        self.trace.append(event)
        return event

    def record_flush(
        self, addr: int, line_addr: int, kind: str, had_work: bool
    ) -> FlushEvent:
        event = FlushEvent(*self._head(), addr, line_addr, kind, had_work)
        self.trace.append(event)
        return event

    def record_fence(self, kind: str) -> FenceEvent:
        event = FenceEvent(*self._head(), kind)
        self.trace.append(event)
        return event

    def record_boundary(self, label: str) -> BoundaryEvent:
        event = BoundaryEvent(*self._head(), label)
        self.trace.append(event)
        return event
