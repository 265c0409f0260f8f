"""PM trace events.

Hippocrates "expects a PM-specific execution trace where each event in
the trace includes the source line where the event occurred, the stack
trace at the time of the event, and PM-specific information" (§4.1).
These event types are exactly that: every event carries its sequence
number, the IR instruction id, the source location, and the full call
stack at the time of the event.

Events and stack frames are named tuples, as :class:`DebugLoc` is: a
traced run builds one event and a frame per stack level for every PM
operation, and a frozen dataclass pays an ``object.__setattr__`` per
field where a tuple is built in one step.  They are immutable, compare
and hash by value, and a new event with some fields changed comes from
``event._replace(...)``.  Each event ends with its ``kind``, so events
of different kinds are never equal.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional, Tuple

from ..ir.debuginfo import DebugLoc


class StackFrame(NamedTuple):
    """One frame of a call stack.

    For caller frames, ``iid``/``loc`` identify the *call site*.  For
    the innermost frame they identify the event's own instruction.
    """

    function: str
    iid: int
    loc: DebugLoc

    def __str__(self) -> str:
        return f"{self.function}@{self.loc}#{self.iid}"

    @classmethod
    def parse(cls, text: str) -> "StackFrame":
        head, _, iid = text.rpartition("#")
        function, _, loc = head.partition("@")
        return cls(function, int(iid), DebugLoc.parse(loc))


#: A call stack, outermost frame first, the event's own frame last.
CallStack = Tuple[StackFrame, ...]


class TraceEvent:
    """Base class for all PM trace events.

    Every event type is a named tuple whose fields start with these
    five, in this order, and end with ``kind``; this class adds what
    they share.
    """

    __slots__ = ()

    seq: int
    iid: int
    loc: DebugLoc
    function: str
    stack: CallStack
    kind: str

    @property
    def caller_frames(self) -> CallStack:
        """The stack without the event's own frame."""
        return self.stack[:-1]


#: the fields every event starts with
_HEAD = ("seq", "iid", "loc", "function", "stack")


class StoreEvent(
    namedtuple(
        "StoreEvent",
        _HEAD + ("addr", "size", "space", "nontemporal", "kind"),
        defaults=(0, 0, "pm", False, "store"),
    ),
    TraceEvent,
):
    """A store; ``space`` distinguishes PM from volatile targets.

    pmemcheck only logs PM stores; the recorder follows suit unless
    asked to log everything (volatile stores are useful to some tests).
    ``nontemporal`` marks MOVNT stores, which need no flush but still
    need a fence.
    """

    __slots__ = ()


class FlushEvent(
    namedtuple(
        "FlushEvent",
        _HEAD + ("addr", "line_addr", "flush_kind", "had_work", "kind"),
        defaults=(0, 0, "clwb", True, "flush"),
    ),
    TraceEvent,
):
    """A cache-line flush (clwb / clflushopt / clflush).

    ``had_work`` is False for a redundant flush of a clean line — the
    detector reports those as performance diagnostics.
    """

    __slots__ = ()


class FenceEvent(
    namedtuple(
        "FenceEvent", _HEAD + ("fence_kind", "kind"), defaults=("sfence", "fence")
    ),
    TraceEvent,
):
    """A memory fence (sfence / mfence)."""

    __slots__ = ()


class BoundaryEvent(
    namedtuple(
        "BoundaryEvent", _HEAD + ("label", "kind"), defaults=("exit", "boundary")
    ),
    TraceEvent,
):
    """A durability boundary: the instruction *I* of the paper's
    X -> F(X) -> M -> I obligation.

    Boundaries come from explicit ``checkpoint`` calls in the program
    under test (modelling transaction commits, replies to clients, and
    other points by which prior PM updates must be durable) and from
    program exit.
    """

    __slots__ = ()


def innermost(event: TraceEvent) -> Optional[StackFrame]:
    """The event's own frame (None for synthetic events)."""
    return event.stack[-1] if event.stack else None
