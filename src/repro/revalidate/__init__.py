"""Incremental revalidation: re-check repaired modules without
re-executing the workload.

Post-fix revalidation used to re-run the entire workload through the
interpreter — measured at ~90% of per-task time together with the
initial detection (EXPERIMENTS E11).  This package removes that cost
for every fix Hippocrates commits:

- :mod:`recording` — the :class:`~repro.revalidate.recording.RunRecorder`
  the interpreter notifies around module calls; owns the callee spans.
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
  the fix pipeline.  Two tiers: a complete witness (flush/fence
  and/or structural) is revalidated by trace synthesis (no execution)
  and one checker pass over the synthesized trace; a degraded witness
  or any failure takes the full re-record.
  An unchanged module returns the baseline verdict without either.

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
    ".recording": (
        "CalleeSpan", "RecordedRun", "RunRecorder", "VolAnchorOp",
    ),
    ".synthesize": ("synthesize_fixed_trace", "synthesize_structural_trace"),
    ".witness": (
        "CloneSpec", "InsertionSpec", "StructuralSpec", "SynthFence",
        "SynthFlush", "spec_for_fix",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
