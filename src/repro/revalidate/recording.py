"""Recording a detection run for later revalidation.

The interpreter notifies a :class:`RunRecorder` at every *top-level*
driver call (``interp.call(...)`` with an empty frame stack).  Each call
becomes a :class:`CallRecord` — a segment of the run — carrying the
trace offset at call entry.  The checker pass over the recorded trace
forks its state at the entry of every ``stride``-th segment
(:meth:`RunRecorder.forked_segments`), so a re-check of a synthesized
trace resumes from the last fork before its first changed event instead
of from the start.  At most :data:`MAX_FORKS` segments are forked: the
stride is the smallest power of two that keeps the count under it, and
segment 0 is always forked.

The recorder also keeps one :class:`CalleeSpan` per module-function
call, the structural-synthesis witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..detect.durability import CheckerState
from ..detect.reports import DetectionResult
from ..trace.events import StoreEvent
from ..trace.trace import PMTrace, TraceRecorder

#: The most segment entries a recording forks the checker state at.
MAX_FORKS = 32


class VolAnchorOp(NamedTuple):
    """A volatile-target store or flush execution, by trace position.

    Volatile operations record no trace event, but a fence *inserted
    after* such an instruction would still execute and record — so the
    recording run notes them: ``pos`` is ``len(trace.events)`` at the
    moment of the operation (the op happened between baseline events
    ``pos - 1`` and ``pos``), ``iid`` the executing instruction.  The
    trace synthesizer uses these to place fences for volatile anchor
    executions (see :mod:`repro.revalidate.synthesize`).
    """

    pos: int
    iid: int
    kind: str  # "store" | "flush"


class RecordingTraceRecorder(TraceRecorder):
    """A trace recorder that also keeps the volatile-op side channel.

    The side channel never consumes sequence numbers and never touches
    the trace, so the recorded trace is byte-identical to a plain
    :class:`~repro.trace.trace.TraceRecorder`'s.  ``current_iid`` is
    attached by the engine after the interpreter exists (reading the
    executing instruction is much cheaper than capturing a stack).
    """

    record_vol_ops = True

    def __init__(self) -> None:
        super().__init__()
        self.vol_ops: List[VolAnchorOp] = []
        self.current_iid: Optional[Callable[[], int]] = None

    def record_store(
        self, addr: int, size: int, space: str, nontemporal: bool = False
    ) -> Optional[StoreEvent]:
        event = super().record_store(addr, size, space, nontemporal)
        if event is None and self.current_iid is not None:
            self.vol_ops.append(
                VolAnchorOp(len(self.trace.events), self.current_iid(), "store")
            )
        return event

    def note_vol_flush(self) -> None:
        if self.current_iid is not None:
            self.vol_ops.append(
                VolAnchorOp(len(self.trace.events), self.current_iid(), "flush")
            )


@dataclass(frozen=True)
class CalleeSpan:
    """One module-function call's footprint in the recorded run.

    Recorded at every intra-module call (not the top-level driver
    calls): the trace-event and volatile-op windows the callee's
    execution occupies, the call site's iid, and the frame depth at the
    call.  Structural synthesis uses spans to find the dynamic
    executions of a retargeted call site and rewrite exactly the events
    inside them (see :mod:`repro.revalidate.synthesize`).

    ``entry``/``exit`` are ``len(trace.events)`` at call and return;
    ``vol_entry``/``vol_exit`` are ``len(recorder.vol_ops)`` at the same
    instants, pinning the interleaving of the volatile side channel
    against the span boundaries.  ``depth`` is the caller's frame count
    *before* the callee frame is pushed — stack frames with index >=
    ``depth`` in an event recorded inside the span belong to the callee
    (or deeper), which is what lets the rewriter re-map exactly the
    cloned suffix of each call stack.
    """

    call_iid: int
    entry: int
    exit: int
    vol_entry: int
    vol_exit: int
    depth: int


@dataclass(frozen=True)
class CallRecord:
    """One top-level driver call of the recording run."""

    index: int
    #: ``len(trace.events)`` at call entry
    trace_start: int


class RunRecorder:
    """Collects segments and callee spans during a recorded run.

    Attach via ``Interpreter(..., run_recorder=recorder)``; the
    interpreter calls :meth:`begin_call` at each top-level call and
    :meth:`enter_callee`/:meth:`exit_callee` around each module call.
    """

    def __init__(self) -> None:
        self.segments: List[CallRecord] = []
        #: completed callee spans, in execution (return) order
        self.spans: List[CalleeSpan] = []
        self._open: List[Tuple[int, int, int, int]] = []
        #: False once an exception unwound past an open callee — the
        #: span record is then incomplete and structural synthesis must
        #: not trust it
        self.spans_ok = True

    # -- callee spans (structural-synthesis witness) ---------------------------

    def enter_callee(
        self, call_iid: int, trace_pos: int, vol_pos: int, depth: int
    ) -> None:
        """The interpreter is about to push a module-callee frame."""
        self._open.append((call_iid, trace_pos, vol_pos, depth))

    def exit_callee(self, trace_pos: int, vol_pos: int) -> None:
        """The innermost open callee just returned."""
        call_iid, entry, vol_entry, depth = self._open.pop()
        self.spans.append(
            CalleeSpan(
                call_iid=call_iid,
                entry=entry,
                exit=trace_pos,
                vol_entry=vol_entry,
                vol_exit=vol_pos,
                depth=depth,
            )
        )

    # -- segments ---------------------------------------------------------------

    def begin_call(self, trace_pos: int) -> None:
        """A top-level call starts at trace position ``trace_pos``."""
        # An exception that unwound out of the previous top-level call
        # left open callee entries behind; the span record is unusable
        # from here.
        if self._open:
            self.spans_ok = False
            self._open.clear()
        self.segments.append(CallRecord(len(self.segments), trace_pos))

    def forked_segments(self) -> List[CallRecord]:
        """The segments whose entry the checker pass forks at: every
        ``stride``-th, for the smallest power-of-two stride that keeps
        at most :data:`MAX_FORKS` of them."""
        stride = 1
        while -(-len(self.segments) // stride) > MAX_FORKS:
            stride *= 2
        return self.segments[::stride]


@dataclass
class RecordedRun:
    """A completed recording: the revalidation baseline.

    Everything needed to revalidate a fixed module without executing
    it: the segments, the full baseline trace, the detection result,
    and the checker-state forks memoized at the forked segments' trace
    offsets.

    ``module_iids`` is the id set of the module *as recorded* — a fix
    anchored at an instruction outside it post-dates the recording, so
    the engine cannot reason about it and falls back to a full run.
    """

    module_fingerprint: str
    module_iids: frozenset
    segments: List[CallRecord]
    trace: PMTrace
    detection: DetectionResult
    #: segment index -> checker state forked at that segment's trace_start
    forks: Dict[int, CheckerState]
    #: volatile-target anchor executions (the synthesis side channel)
    vol_ops: Tuple[VolAnchorOp, ...] = ()
    #: completed callee spans, in execution (return) order
    spans: Tuple[CalleeSpan, ...] = ()
    #: True when the span record is complete (no exception ever unwound
    #: past an open callee during recording)
    spans_ok: bool = True
