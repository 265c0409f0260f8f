"""The incremental revalidation engine.

Post-fix revalidation re-runs the workload and re-checks the trace.
This engine makes the common case — flush/fence-only fixes, which is
what Hippocrates inserts for every intraprocedural repair — incremental:

1. **Record** (:meth:`IncrementalRevalidator.record`): the initial
   detection run executes under a
   :class:`~repro.revalidate.recording.RunRecorder`, memoizing machine
   snapshots and executed-iid sets per top-level call (the segments'
   executed-iid sets are the *dependency index* that maps a fix's
   anchors to the first segment it can affect), and the checker pass
   memoizes :class:`~repro.detect.durability.CheckerState` forks at
   every snapshot boundary.
2. **Witness** (:meth:`note_commit`): after each committed fix, the
   :class:`~repro.core.transaction.FixTransaction` reports the *anchor*
   iids — the existing instructions the fix inserted flushes/fences
   after — and whether the fix was structural.  Anchors accumulate
   across fix rounds against the same recording.
3. **Revalidate** (:meth:`revalidate`): flush/fence insertions change
   no control flow and no data, so the fixed module's trace is a pure
   function of the baseline trace.  With a complete witness
   (:class:`~repro.revalidate.witness.InsertionSpec` per fix) the
   engine *synthesizes* that trace — no execution at all — and
   re-checks from the last memoized checker fork before the first
   changed event.  With only anchor iids (no insertion specs) it
   *replays* the interpreter from the last snapshot at or before the
   first anchor-affected segment and feeds the replayed suffix through
   the forked checker state.  Either way report ids, occurrence
   counts, and orderings continue exactly as a full pass would —
   byte-identical results.

Structural (hoisted) fixes get their own synthesis tier: the recorder
keeps per-callee sub-trace spans
(:class:`~repro.revalidate.recording.CalleeSpan`), and a committed call
retarget with a complete clone witness
(:class:`~repro.revalidate.witness.StructuralSpec`) is revalidated by
*rewriting* the retargeted call site's recorded spans — re-mapped iids
and stacks, spliced covering flushes and the trailing sfence, cache
effects re-simulated — again with no execution at all (see
:func:`~repro.revalidate.synthesize.synthesize_structural_trace`).

Fallback rules (all full re-records, counted in
``revalidate.fallbacks``):

- a structural fix committed without a usable witness (an indescribable
  clone, an incomplete span record, a span overlap the rewriter cannot
  order, or plain ``structural=True`` with no specs at all);
- an anchor iid (or a retargeted call site) is not in the recorded
  module (the fix anchors at an instruction inserted *after*
  recording, e.g. a round-2 fix anchored on a round-1 flush);
- the module changed but no anchors were witnessed;
- the driver diverges during replay, or replay raises at all.

If the module fingerprint is unchanged — or every anchor sits in dead
code the recording never executed — the baseline detection is returned
as-is (``revalidate.noop_hits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Set, Tuple

from ..detect import Driver
from ..detect.durability import DurabilityChecker
from ..detect.reports import DetectionResult
from ..interp import make_interpreter
from ..interp.costs import CostModel
from ..interp.interpreter import Interpreter, Machine
from ..ir.module import Module
from ..memory.layout import lines_covering
from ..memory.pool import MachinePool
from ..obs.observability import NULL_OBS, Observability
from ..trace.events import FlushEvent, StoreEvent
from ..trace.trace import PMTrace
from .recording import RecordedRun, RecordingTraceRecorder, RunRecorder
from .replay import FlatReplayInterpreter, ReplayDivergence
from .synthesize import (
    SynthesisResult,
    synthesize_fixed_trace,
    synthesize_structural_trace,
)
from .witness import InsertionSpec, StructuralSpec


@dataclass
class RevalidationOutcome:
    """One revalidation's result plus how it was obtained.

    ``mode`` and ``fallback_reason`` are volatile diagnostics, never
    journaled: :meth:`~repro.core.hippocrates.Hippocrates.revalidate`
    puts them on its ``phase.revalidate`` span.

    - ``"baseline"`` — module unchanged (or only dead code changed);
      the recorded detection was returned without any execution.
    - ``"synthesized"`` — the post-fix trace was synthesized from the
      baseline trace and the mutation witness (no execution at all);
      only the suffix from the last memoized checker fork re-checked.
    - ``"incremental"`` — replayed from a snapshot, suffix re-checked.
    - ``"full"`` — fell back to (or started with) a full re-record.
    """

    mode: str
    detection: DetectionResult
    trace: PMTrace
    #: segment index the re-check resumed from (synthesized and
    #: incremental modes)
    replayed_from: Optional[int] = None
    #: chain (cache line) addresses the incremental pass re-checked
    rechecked_chains: Set[int] = field(default_factory=set)
    #: why a fallback was taken (full mode)
    fallback_reason: str = ""


class IncrementalRevalidator:
    """Records one workload execution and revalidates fixes against it.

    Recording, replay, and fallback runs all execute on the flat
    engine: the revalidator is the fast path, and its oracle is a full
    tree-walking re-run (``run_case(engine="reference")``).

    :param driver: the workload driver (same contract as
        :func:`~repro.detect.pmemcheck_run`).
    :param cost_model:, :param fuel: interpreter configuration, applied
        identically to recording, replay, and fallback runs.
    :param max_snapshots: snapshot memory bound (see
        :class:`~repro.revalidate.recording.RunRecorder`).
    :param obs: receives the ``revalidate.*`` counters and the
        interpreters' totals.
    :param pool: optional :class:`~repro.memory.pool.MachinePool`;
        recording, replay, and fallback machines then reuse pooled
        memory objects instead of building new ones (replay and
        fallback machines are retired back into the pool; the machine
        :meth:`record` returns to its caller is the caller's to release).
    """

    def __init__(
        self,
        driver: Driver,
        *,
        cost_model: Optional[CostModel] = None,
        fuel: int = 50_000_000,
        max_snapshots: int = 32,
        obs: Observability = NULL_OBS,
        pool: Optional[MachinePool] = None,
    ):
        self.driver = driver
        self.cost_model = cost_model
        self.fuel = fuel
        self.max_snapshots = max_snapshots
        self.obs = obs
        self.pool = pool
        self.baseline: Optional[RecordedRun] = None
        #: anchor iids committed since the current recording
        self._pending_anchors: Set[int] = set()
        self._pending_structural = False
        #: insertion specs for every committed fix, in commit order;
        #: None once any commit lacked one (synthesis then ineligible,
        #: snapshot replay still available)
        self._pending_specs: Optional[list] = []
        #: structural witnesses for every committed hoisted fix, in
        #: commit order; None once any structural commit lacked one
        #: (structural synthesis then ineligible — full re-record)
        self._pending_struct_specs: Optional[list] = []

    def _new_machine(self) -> Machine:
        if self.pool is None:
            return Machine()
        space, image = self.pool.acquire()
        return Machine(space=space, image=image)

    def _release_machine(self, machine: Machine) -> None:
        if self.pool is not None:
            self.pool.release(machine)

    # -- recording ------------------------------------------------------------

    def record(
        self, module: Module
    ) -> Tuple[DetectionResult, PMTrace, Interpreter]:
        """Execute the workload under recording; install the baseline.

        Drop-in replacement for the detection-phase
        :func:`~repro.detect.pmemcheck_run` — same return triple, same
        detection semantics — plus the side effect of memoizing the
        recording this engine revalidates against.
        """
        if self.baseline is not None:
            # Re-recording *is* the full-revalidation fallback path.
            self.obs.count("revalidate.fallbacks")
        self.obs.count("revalidate.records")
        recorder = RunRecorder(max_snapshots=self.max_snapshots)
        # A recording machine keeps the volatile-op side channel (for
        # trace synthesis); its trace stays byte-identical to a plain
        # machine's.
        machine = self._new_machine()
        trace_recorder = RecordingTraceRecorder()
        machine.recorder = trace_recorder
        interp = make_interpreter(
            module,
            machine=machine,
            cost_model=self.cost_model,
            fuel=self.fuel,
            obs=self.obs,
            run_recorder=recorder,
        )
        trace_recorder.current_iid = interp.current_iid
        self.driver(interp)
        trace = interp.finish()

        # One checker pass over the full trace, forking the state at
        # every snapshot-bearing segment boundary.
        snapshotted = [s for s in recorder.segments if s.snapshot is not None]
        fork_at = {segment.trace_start: None for segment in snapshotted}
        detection = DurabilityChecker().check(trace, fork_at)
        forks = {
            segment.index: fork_at[segment.trace_start] for segment in snapshotted
        }

        self.baseline = RecordedRun(
            module_fingerprint=module.fingerprint(),
            module_iids=frozenset(
                instr.iid for instr in module.instructions()
            ),
            segments=recorder.segments,
            trace=trace,
            detection=detection,
            forks=forks,
            fuel=self.fuel,
            vol_ops=tuple(trace_recorder.vol_ops),
            spans=tuple(recorder.spans),
            spans_ok=recorder.spans_ok,
        )
        self._pending_anchors.clear()
        self._pending_structural = False
        self._pending_specs = []
        self._pending_struct_specs = []
        self.obs.gauge(
            "revalidate.snapshot_bytes",
            sum(
                segment.snapshot.byte_size
                for segment in recorder.segments
                if segment.snapshot is not None
            ),
        )
        return detection, trace, interp

    # -- the mutation witness -------------------------------------------------

    def note_commit(
        self,
        anchor_iids: Iterable[int],
        structural: bool,
        insertions: Optional[Iterable[InsertionSpec]] = None,
        structural_specs: Optional[Iterable[StructuralSpec]] = None,
    ) -> None:
        """A fix transaction committed against the module.

        ``insertions`` carries the full mutation witness (what was
        inserted after each anchor); without it the synthesis tier is
        unavailable and revalidation uses snapshot replay instead.
        ``structural_specs`` carries the witnesses of a structural
        commit's call retargets; a structural commit without them (None
        *or* empty — some structural mutation went undescribed) makes
        structural synthesis ineligible and the next revalidation a
        full re-record.
        """
        self._pending_anchors.update(anchor_iids)
        if structural:
            self._pending_structural = True
            if not structural_specs:
                self._pending_struct_specs = None
            elif self._pending_struct_specs is not None:
                self._pending_struct_specs.extend(structural_specs)
        if insertions is None:
            self._pending_specs = None
        elif self._pending_specs is not None:
            self._pending_specs.extend(insertions)

    # -- revalidation ---------------------------------------------------------

    def revalidate(self, module: Module) -> RevalidationOutcome:
        """Detect against the (fixed) module, incrementally if possible."""
        base = self.baseline
        if base is None:
            return self._full(module, "no recording to revalidate against")
        if self._pending_structural:
            return self._structural(module, base)
        if module.fingerprint() == base.module_fingerprint:
            return self._unchanged(base)
        if not self._pending_anchors:
            return self._full(module, "module changed without a mutation witness")
        if not self._pending_anchors <= base.module_iids:
            return self._full(
                module, "fix anchored at an instruction inserted after recording"
            )
        first = base.first_affected_segment(self._pending_anchors)
        if first is None:
            # Every anchor sits in code the recording never executed, so
            # the inserted instructions never execute either: the trace
            # — and the verdict — are unchanged.
            return self._unchanged(base)
        try:
            if self._pending_specs is not None:
                return self._synthesize(module, base)
            return self._incremental(module, base, first)
        except Exception as exc:
            return self._full(
                module,
                f"incremental revalidation failed: {type(exc).__name__}: {exc}",
            )

    def _unchanged(self, base: RecordedRun) -> RevalidationOutcome:
        self.obs.count("revalidate.noop_hits")
        return RevalidationOutcome(
            mode="baseline", detection=base.detection, trace=base.trace
        )

    def _full(self, module: Module, reason: str) -> RevalidationOutcome:
        detection, trace, interp = self.record(module)
        self._release_machine(interp.machine)
        return RevalidationOutcome(
            mode="full", detection=detection, trace=trace, fallback_reason=reason
        )

    def _recheck_synthesis(
        self, base: RecordedRun, synthesis: SynthesisResult
    ) -> RevalidationOutcome:
        """Re-check a synthesized trace from the last memoized checker
        fork at or before its first changed position (every earlier
        event is the identical baseline object the fork already
        consumed)."""
        trace = synthesis.trace
        start = base.segments[0]
        for segment in base.segments:
            if (
                segment.index in base.forks
                and segment.trace_start <= synthesis.changed_from
            ):
                start = segment
        state = base.forks[start.index].fork()
        checker = DurabilityChecker()
        for event in trace.events[start.trace_start :]:
            checker.feed(state, event)
        detection = checker.finalize(state)

        self.obs.count("revalidate.incremental_hits")
        self.obs.count("revalidate.synth_hits")
        self.obs.count(
            "revalidate.chains_rechecked", len(synthesis.affected_lines)
        )
        return RevalidationOutcome(
            mode="synthesized",
            detection=detection,
            trace=trace,
            replayed_from=start.index,
            rechecked_chains=synthesis.affected_lines,
        )

    def _synthesize(
        self, module: Module, base: RecordedRun
    ) -> RevalidationOutcome:
        """The fast tier: no execution at all.

        The mutation witness is complete (every committed fix described
        its inserted flush/gep/fence run), so the post-fix trace is
        synthesized directly from the baseline trace and the volatile-op
        side channel, and the checker resumes from the last memoized
        fork before the first changed event.
        """
        assert self._pending_specs is not None
        synthesis = synthesize_fixed_trace(
            base.trace, base.vol_ops, self._pending_specs
        )
        return self._recheck_synthesis(base, synthesis)

    def _structural(
        self, module: Module, base: RecordedRun
    ) -> RevalidationOutcome:
        """Structural (hoisted-fix) synthesis, or a full re-record.

        A clone executes the same instructions on the same values, so a
        complete witness lets the engine rewrite the retargeted call
        sites' recorded spans instead of re-executing.  Every degraded
        input degrades to the full tier — never to guessing.
        """
        struct_specs = self._pending_struct_specs
        if not struct_specs:
            return self._full(
                module, "structural fix committed without a witness"
            )
        if self._pending_specs is None:
            return self._full(
                module,
                "structural commit alongside an unwitnessed insertion",
            )
        if not base.spans_ok:
            return self._full(module, "callee-span record incomplete")
        if not {s.call_iid for s in struct_specs} <= base.module_iids:
            return self._full(
                module,
                "structural fix at a call site inserted after recording",
            )
        if not self._pending_anchors <= base.module_iids:
            return self._full(
                module,
                "fix anchored at an instruction inserted after recording",
            )
        try:
            synthesis = synthesize_structural_trace(
                base.trace,
                base.vol_ops,
                base.spans,
                struct_specs,
                self._pending_specs,
            )
            outcome = self._recheck_synthesis(base, synthesis)
        except Exception as exc:
            return self._full(
                module,
                f"structural synthesis failed: {type(exc).__name__}: {exc}",
            )
        self.obs.count("revalidate.synth_structural_hits")
        return outcome

    def _incremental(
        self, module: Module, base: RecordedRun, first_affected: int
    ) -> RevalidationOutcome:
        start = base.replay_base(first_affected)
        snapshot = start.snapshot
        assert snapshot is not None
        machine = snapshot.materialize(self.pool)
        try:
            replay = FlatReplayInterpreter(
                module,
                machine,
                snapshot,
                skip=base.segments[: start.index],
                cost_model=self.cost_model,
                fuel=base.fuel,
                obs=self.obs,
            )
            self.driver(replay)
            suffix = replay.finish()
        finally:
            self._release_machine(machine)
        if replay.skipped_remaining:
            raise ReplayDivergence(
                f"driver made fewer calls than recorded "
                f"({replay.skipped_remaining} skip(s) unconsumed)"
            )

        combined = PMTrace(
            list(base.trace.events[: start.trace_start]) + list(suffix.events)
        )
        # The re-checked chains: every line the forked state still
        # tracks, plus every line a suffix store or flush touches.
        fork = base.forks[start.index]
        chains = set(fork.dirty) | set(fork.flushing)
        checker = DurabilityChecker()
        state = fork.fork()
        for event in suffix.events:
            checker.feed(state, event)
            if isinstance(event, StoreEvent) and event.space == "pm":
                chains.update(lines_covering(event.addr, event.size))
            elif isinstance(event, FlushEvent):
                chains.add(event.line_addr)
        detection = checker.finalize(state)

        self.obs.count("revalidate.incremental_hits")
        self.obs.count("revalidate.chains_rechecked", len(chains))
        self.obs.count(
            "revalidate.segments_replayed", len(base.segments) - start.index
        )
        return RevalidationOutcome(
            mode="incremental",
            detection=detection,
            trace=combined,
            replayed_from=start.index,
            rechecked_chains=chains,
        )
