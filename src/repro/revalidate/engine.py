"""The incremental revalidation engine.

Post-fix revalidation re-runs the workload and re-checks the trace.
This engine makes it incremental for every fix Hippocrates commits —
flush/fence insertions and hoisted (clone + retarget) fixes alike:

1. **Record** (:meth:`IncrementalRevalidator.record`): the initial
   detection run executes under a
   :class:`~repro.revalidate.recording.RunRecorder`, which notes each
   module call's callee span, and one checker pass gives the baseline
   verdict.
2. **Witness** (:meth:`note_commit`): after each committed fix, the
   :class:`~repro.core.transaction.FixTransaction` reports what it
   inserted (:class:`~repro.revalidate.witness.InsertionSpec` per
   flush/fence fix, :class:`~repro.revalidate.witness.StructuralSpec`
   per call retarget).  Witnesses accumulate across fix rounds against
   the same recording.
3. **Revalidate** (:meth:`revalidate`): flush/fence insertions change
   no control flow and no data, so the fixed module's trace is a pure
   function of the baseline trace.  With a complete witness the engine
   *synthesizes* that trace — no execution at all — and re-checks it
   from its first event, exactly as a full re-run's check would —
   byte-identical results.  A fix anchored only in
   code the recording never ran changes no event: synthesis returns
   the baseline trace and the baseline verdict.

Structural (hoisted) fixes are synthesized too: the recorder keeps
per-callee sub-trace spans
(:class:`~repro.revalidate.recording.CalleeSpan`), and a committed call
retarget with a complete clone witness
(:class:`~repro.revalidate.witness.StructuralSpec`) is revalidated by
*rewriting* the retargeted call site's recorded spans — re-mapped iids
and stacks, spliced covering flushes and the trailing sfence, cache
effects re-simulated — again with no execution at all (see
:func:`~repro.revalidate.synthesize.synthesize_structural_trace`).

Every other case is a full re-record (counted in
``revalidate.fallbacks``, its reason on the outcome):

- a fix committed without an insertion witness (``spec_for_fix``
  could not describe what it inserted);
- a structural fix committed without a usable witness (an
  indescribable clone, an incomplete span record, a span overlap the
  rewriter cannot order, or plain ``structural=True`` with no specs at
  all);
- an anchor iid (or a retargeted call site) is not in the recorded
  module (the fix anchors at an instruction inserted *after*
  recording, e.g. a round-2 fix anchored on a round-1 flush);
- the module changed but no fix was witnessed;
- synthesis raised at all.

If the module fingerprint is unchanged the baseline detection is
returned as-is (``revalidate.noop_hits``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..detect import Driver
from ..detect.durability import DurabilityChecker
from ..detect.reports import DetectionResult
from ..interp import make_interpreter
from ..interp.costs import CostModel
from ..interp.interpreter import Interpreter, Machine
from ..ir.module import Module
from ..obs.observability import NULL_OBS, Observability
from ..trace.trace import PMTrace
from .recording import RecordedRun, RecordingTraceRecorder, RunRecorder
from .synthesize import synthesize_fixed_trace, synthesize_structural_trace
from .witness import InsertionSpec, StructuralSpec


@dataclass
class RevalidationOutcome:
    """One revalidation's result plus how it was obtained.

    ``mode`` and ``fallback_reason`` are volatile diagnostics, never
    journaled: :meth:`~repro.core.hippocrates.Hippocrates.revalidate`
    puts them on its ``phase.revalidate`` span.

    - ``"baseline"`` — module unchanged; the recorded detection was
      returned without any execution.
    - ``"synthesized"`` — the post-fix trace was synthesized from the
      baseline trace and the mutation witness (no execution at all),
      then checked.
    - ``"full"`` — fell back to (or started with) a full re-record.
    """

    mode: str
    detection: DetectionResult
    trace: PMTrace
    #: why a fallback was taken (full mode)
    fallback_reason: str = ""


class IncrementalRevalidator:
    """Records one workload execution and revalidates fixes against it.

    Recording and fallback runs execute on the flat engine, each on a
    fresh machine: the revalidator is the fast path, and its oracle is
    a full tree-walking re-run (``run_case(engine="reference")``).

    :param driver: the workload driver (same contract as
        :func:`~repro.detect.pmemcheck_run`).
    :param cost_model:, :param fuel: interpreter configuration, applied
        identically to recording and fallback runs.
    :param obs: receives the ``revalidate.*`` counters and the
        interpreters' totals.
    """

    def __init__(
        self,
        driver: Driver,
        *,
        cost_model: Optional[CostModel] = None,
        fuel: int = 50_000_000,
        obs: Observability = NULL_OBS,
    ):
        self.driver = driver
        self.cost_model = cost_model
        self.fuel = fuel
        self.obs = obs
        self.baseline: Optional[RecordedRun] = None
        self._pending_structural = False
        #: insertion specs for every committed fix, in commit order;
        #: None once any commit lacked one (the next revalidation is
        #: then a full re-record)
        self._pending_specs: Optional[list] = []
        #: structural witnesses for every committed hoisted fix, in
        #: commit order; None once any structural commit lacked one
        #: (structural synthesis then ineligible — full re-record)
        self._pending_struct_specs: Optional[list] = []

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
        recorder = RunRecorder()
        # A recording machine keeps the volatile-op side channel (for
        # trace synthesis); its trace stays byte-identical to a plain
        # machine's.
        machine = Machine()
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
        detection = DurabilityChecker().check(trace)

        self.baseline = RecordedRun(
            module_fingerprint=module.fingerprint(),
            module_iids=frozenset(
                instr.iid for instr in module.instructions()
            ),
            trace=trace,
            detection=detection,
            vol_ops=tuple(trace_recorder.vol_ops),
            spans=tuple(recorder.spans),
            spans_ok=recorder.spans_ok,
        )
        self._pending_structural = False
        self._pending_specs = []
        self._pending_struct_specs = []
        return detection, trace, interp

    # -- the mutation witness -------------------------------------------------

    def note_commit(
        self,
        structural: bool,
        insertions: Optional[Iterable[InsertionSpec]] = None,
        structural_specs: Optional[Iterable[StructuralSpec]] = None,
    ) -> None:
        """A fix transaction committed against the module.

        ``insertions`` carries the mutation witness (what was inserted
        after each anchor); None — some insertion went undescribed —
        makes the next revalidation a full re-record.
        ``structural_specs`` carries the witnesses of a structural
        commit's call retargets; a structural commit without them (None
        *or* empty — some structural mutation went undescribed) makes
        structural synthesis ineligible and the next revalidation a
        full re-record.
        """
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
        """Detect against the (fixed) module, by synthesis if possible."""
        base = self.baseline
        if base is None:
            return self._full(module, "no recording to revalidate against")
        if self._pending_structural:
            return self._structural(module, base)
        if module.fingerprint() == base.module_fingerprint:
            self.obs.count("revalidate.noop_hits")
            return RevalidationOutcome(
                mode="baseline", detection=base.detection, trace=base.trace
            )
        specs = self._pending_specs
        if specs is None:
            return self._full(module, "fix committed without an insertion witness")
        if not specs:
            return self._full(module, "module changed without a mutation witness")
        if not self._anchored_before_recording(base):
            return self._full(
                module, "fix anchored at an instruction inserted after recording"
            )
        try:
            trace = synthesize_fixed_trace(base.trace, base.vol_ops, specs)
            return self._check_synthesized(trace)
        except Exception as exc:
            return self._full(
                module, f"trace synthesis failed: {type(exc).__name__}: {exc}"
            )

    def _anchored_before_recording(self, base: RecordedRun) -> bool:
        assert self._pending_specs is not None
        return all(spec.anchor_iid in base.module_iids for spec in self._pending_specs)

    def _full(self, module: Module, reason: str) -> RevalidationOutcome:
        detection, trace, _ = self.record(module)
        return RevalidationOutcome(
            mode="full", detection=detection, trace=trace, fallback_reason=reason
        )

    def _check_synthesized(self, trace: PMTrace) -> RevalidationOutcome:
        """Check a synthesized trace from its first event."""
        detection = DurabilityChecker().check(trace)
        self.obs.count("revalidate.synth_hits")
        return RevalidationOutcome(
            mode="synthesized", detection=detection, trace=trace
        )

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
        if not self._anchored_before_recording(base):
            return self._full(
                module,
                "fix anchored at an instruction inserted after recording",
            )
        try:
            trace = synthesize_structural_trace(
                base.trace,
                base.vol_ops,
                base.spans,
                struct_specs,
                self._pending_specs,
            )
            outcome = self._check_synthesized(trace)
        except Exception as exc:
            return self._full(
                module,
                f"structural synthesis failed: {type(exc).__name__}: {exc}",
            )
        self.obs.count("revalidate.synth_structural_hits")
        return outcome
