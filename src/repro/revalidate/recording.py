"""Recording a detection run for later incremental revalidation.

The interpreter notifies a :class:`RunRecorder` at every *top-level*
driver call (``interp.call(...)`` with an empty frame stack).  Each call
becomes a :class:`CallRecord` — a segment of the run — carrying:

- the call spec (function name + arguments) and its recorded
  :class:`~repro.interp.interpreter.ExecutionResult`, so replay can
  skip the call and hand the driver the original result;
- the trace offset and recorder sequence value at call entry, so a
  replayed suffix splices seamlessly onto the baseline trace prefix;
- the set of instruction iids executed during the call — the
  *dependency index*: the segments' executed-iid sets are what decide
  whether a committed fix (whose anchor iid is known from the
  ``FixTransaction`` witness) can affect a segment;
- optionally a :class:`~repro.revalidate.snapshot.MachineSnapshot`
  taken at call entry.

Snapshot thinning bounds memory: when more than ``max_snapshots``
segments hold one, the stride doubles and off-stride snapshots are
dropped (segment 0 always keeps its snapshot, so a full-prefix replay
is always possible).  Per-segment metadata is never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..detect.durability import CheckerState
from ..detect.reports import DetectionResult
from ..interp.interpreter import ExecutionResult, Interpreter
from ..trace.events import StoreEvent
from ..trace.trace import PMTrace, TraceRecorder
from .snapshot import MachineSnapshot


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


@dataclass
class CallRecord:
    """One top-level driver call of the recording run."""

    index: int
    fn_name: str
    args: List[int]
    #: ``len(trace.events)`` at call entry
    trace_start: int
    #: the trace recorder's sequence counter at call entry
    seq_start: int
    #: interpreter steps consumed before this call
    steps_start: int
    #: iids of every instruction executed during this call
    iids: Set[int] = field(default_factory=set)
    snapshot: Optional[MachineSnapshot] = None
    result: Optional[ExecutionResult] = None


class RunRecorder:
    """Collects segments (and thinned snapshots) during a recorded run.

    Attach via ``Interpreter(..., run_recorder=recorder)``; the
    interpreter calls :meth:`begin_call`/:meth:`end_call` around each
    top-level call.
    """

    def __init__(self, max_snapshots: int = 32):
        if max_snapshots < 1:
            raise ValueError("max_snapshots must be >= 1")
        self.max_snapshots = max_snapshots
        self.segments: List[CallRecord] = []
        self._stride = 1
        self._snapshot_count = 0
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

    def _check_balanced(self) -> None:
        # An exception that unwound out of a top-level call leaves open
        # callee entries behind; the span record is unusable from here.
        if self._open:
            self.spans_ok = False
            self._open.clear()

    def begin_call(self, interp: Interpreter, fn_name: str, args: List[int]) -> None:
        self._check_balanced()
        segment = CallRecord(
            index=len(self.segments),
            fn_name=fn_name,
            args=list(args or []),
            trace_start=len(interp.trace.events),
            seq_start=interp.machine.recorder._seq,
            steps_start=interp.steps,
        )
        if segment.index % self._stride == 0:
            segment.snapshot = MachineSnapshot.capture(interp)
            self._snapshot_count += 1
        self.segments.append(segment)
        if self._snapshot_count > self.max_snapshots:
            self._thin()
        interp._seg_iids = segment.iids

    def end_call(self, interp: Interpreter, result: ExecutionResult) -> None:
        self._check_balanced()
        self.segments[-1].result = result
        interp._seg_iids = None

    def _thin(self) -> None:
        """Double the snapshot stride until back under budget.

        One doubling halves (roughly) the snapshot count, which is not
        necessarily enough — e.g. budget 32 exceeded at 33 thins to 17,
        but a budget lowered between runs, or accounting drift, can
        leave a single doubling still over.  Loop until under budget;
        termination is guaranteed because segment 0 is on-stride for
        every stride, so the count converges to 1 <= max_snapshots.
        """
        while self._snapshot_count > self.max_snapshots:
            self._stride *= 2
            for segment in self.segments:
                if segment.snapshot is not None and segment.index % self._stride:
                    segment.snapshot = None
                    self._snapshot_count -= 1


@dataclass
class RecordedRun:
    """A completed recording: the incremental-revalidation baseline.

    Everything needed to revalidate a flush/fence-fixed module without
    a full re-execution: the segments (with snapshots and executed-iid
    sets), the full baseline trace, the detection result, and
    checker-state forks memoized at each snapshot-bearing segment's
    trace offset.

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
    fuel: int
    #: volatile-target anchor executions (the synthesis side channel)
    vol_ops: Tuple[VolAnchorOp, ...] = ()
    #: completed callee spans, in execution (return) order
    spans: Tuple[CalleeSpan, ...] = ()
    #: True when the span record is complete (no exception ever unwound
    #: past an open callee during recording)
    spans_ok: bool = True

    def first_affected_segment(self, anchor_iids: Set[int]) -> Optional[int]:
        """Index of the earliest segment executing any anchor iid."""
        for segment in self.segments:
            if segment.iids & anchor_iids:
                return segment.index
        return None

    def replay_base(self, first_affected: int) -> CallRecord:
        """The last snapshot-bearing segment at or before ``first_affected``."""
        base = None
        for segment in self.segments[: first_affected + 1]:
            if segment.snapshot is not None:
                base = segment
        if base is None:  # pragma: no cover - segment 0 always snapshots
            raise ValueError("no snapshot at or before segment "
                             f"{first_affected}")
        return base
