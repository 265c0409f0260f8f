"""Incremental revalidation: re-check repaired modules without
re-executing the whole workload.

Post-fix revalidation used to re-run the entire workload through the
interpreter — measured at ~90% of per-task time together with the
initial detection (EXPERIMENTS E11).  This package removes that cost
for the common case:

- :mod:`snapshot` — deep-copied machine state memoized at top-level
  call boundaries of the recording run.
- :mod:`recording` — the :class:`~repro.revalidate.recording.RunRecorder`
  the interpreter notifies at call boundaries; owns the segments, their
  executed-iid sets, and snapshot thinning.
- :mod:`replay` — a :class:`~repro.revalidate.replay.ReplayInterpreter`
  that resumes a driver from a materialized snapshot, skipping the
  already-executed calls.
- :mod:`witness` — the mutation witness: plain-data
  :class:`~repro.revalidate.witness.InsertionSpec` /
  :class:`~repro.revalidate.witness.StructuralSpec` descriptions of
  what each committed fix inserted (flush/fence events, or a cloned
  callee retargeted at one call site), built by the fix pipeline.
- :mod:`synthesize` — builds the post-fix trace *without executing
  anything*: inserted flushes/fences change no control flow and no
  data, so their events splice deterministically into the baseline
  trace (``had_work`` bits recomputed by a cache-line simulation);
  structural (clone + retarget) fixes rewrite the recorded callee span
  in place — same instructions on the same values, only iids, function
  names, and stack frames differ.
- :mod:`engine` — the
  :class:`~repro.revalidate.engine.IncrementalRevalidator` tying it to
  the fix pipeline.  Tiering per revalidation: unchanged module →
  baseline verdict; complete witness (flush/fence and/or structural) →
  trace synthesis (no execution); witness without insertion specs →
  snapshot replay from the last unaffected point; degraded witness or
  any failure → full re-record.

The engine's contract is *byte-identity*: detection results, canonical
reports, and do-no-harm verdicts are identical to the oracle's — the
tree-walking engine plus a full re-run, which is what ``repro batch
--engine reference`` selects instead of this package (enforced by
``tests/test_oracle_differential.py``, the synthesis suite in
``tests/test_revalidate_differential.py``, and the property suite).
"""

from .. import lazy_exports

_EXPORTS = {
    ".engine": ("IncrementalRevalidator", "RevalidationOutcome"),
    ".recording": ("CalleeSpan", "RecordedRun", "RunRecorder", "VolAnchorOp"),
    ".replay": ("FlatReplayInterpreter", "ReplayDivergence", "ReplayInterpreter"),
    ".snapshot": ("MachineSnapshot",),
    ".synthesize": (
        "SynthesisResult", "synthesize_fixed_trace",
        "synthesize_structural_trace",
    ),
    ".witness": (
        "CloneSpec", "InsertionSpec", "StructuralSpec", "SynthFence",
        "SynthFlush", "spec_for_fix",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
