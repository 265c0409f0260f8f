"""Recording a detection run for later revalidation.

The interpreter notifies a :class:`RunRecorder` around every
module-function call; it keeps one :class:`CalleeSpan` per call, the
structural-synthesis witness.  The recording trace recorder adds the
volatile-op side channel (:class:`VolAnchorOp`) the flush/fence
synthesizer places fences with.  Nothing else is kept per call: a
synthesized trace is re-checked from its first event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..detect.reports import DetectionResult
from ..trace.events import StoreEvent
from ..trace.trace import PMTrace, TraceRecorder


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


class RunRecorder:
    """Collects callee spans during a recorded run.

    Attach via ``Interpreter(..., run_recorder=recorder)``; the
    interpreter calls :meth:`enter_callee`/:meth:`exit_callee` around
    each module call.
    """

    def __init__(self) -> None:
        #: completed callee spans, in execution (return) order
        self.spans: List[CalleeSpan] = []
        self._open: List[Tuple[int, int, int, int]] = []

    @property
    def spans_ok(self) -> bool:
        """True when no callee is still open: an exception that unwound
        past an open callee leaves its entry behind for good, and
        structural synthesis must not trust the span record then."""
        return not self._open

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


@dataclass
class RecordedRun:
    """A completed recording: the revalidation baseline.

    Everything needed to revalidate a fixed module without executing
    it: the full baseline trace, its detection result, and the
    synthesis witnesses (volatile ops and callee spans).

    ``module_iids`` is the id set of the module *as recorded* — a fix
    anchored at an instruction outside it post-dates the recording, so
    the engine cannot reason about it and falls back to a full run.
    """

    module_fingerprint: str
    module_iids: frozenset
    trace: PMTrace
    detection: DetectionResult
    #: volatile-target anchor executions (the synthesis side channel)
    vol_ops: Tuple[VolAnchorOp, ...] = ()
    #: completed callee spans, in execution (return) order
    spans: Tuple[CalleeSpan, ...] = ()
    #: True when the span record is complete (no callee was still open
    #: when the recording ended)
    spans_ok: bool = True
