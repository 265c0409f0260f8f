"""Property-based equivalence for the incremental revalidation engine.

Over seeded random small PM programs and random flush/fence fix
sequences, after each committed fix round, incremental revalidation
(both tiers: synthesis and the full fallback) reaches exactly the
detection a from-scratch run on the same module reaches.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.hippocrates import Hippocrates
from repro.detect import pmemcheck_run
from repro.revalidate import IncrementalRevalidator
from repro.ir import I64, ModuleBuilder, PTR

#: Each element: (persist?, slot, value, via_helper?) — the same shape
#: as tests/test_prop_detector_fixer.py, so the generated programs mix
#: direct and helper-mediated PM stores with per-slot persistence.
action = st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=1000),
    st.booleans(),
)


def build(actions):
    mb = ModuleBuilder("gen")
    helper = mb.function("set_slot", [("p", PTR), ("v", I64)], source_file="gen.c")
    helper.store(helper.function.args[1], helper.function.args[0])
    helper.ret()

    b = mb.function("main", [], I64, source_file="gen.c")
    base = b.call("pm_alloc", [256], PTR)
    vol = b.call("vol_alloc", [256], PTR)
    b.call("set_slot", [vol, 1])  # volatile helper use
    for persist, slot, value, via_helper in actions:
        target = b.gep(base, slot * 64)
        if via_helper:
            b.call("set_slot", [target, value])
        else:
            b.store(value, target)
        if persist:
            b.flush(target)
            b.fence()
    b.call("checkpoint", [])
    b.ret(0)
    return mb.module


def drive(interp):
    interp.call("main")


def _bug_records(detection):
    return [b.as_record() for b in detection.bugs]


def _repair_incrementally(module):
    """Record, repair, revalidate; returns (engine, fixer, outcome).

    ``heuristic="off"`` keeps every repair intraprocedural — a
    flush/fence insertion at the store site, even inside the shared
    helper — so the module stays synthesis-eligible *and* the inserted
    instructions execute against volatile targets too (the vol-anchor
    side channel is load-bearing here)."""
    engine = IncrementalRevalidator(drive)
    _, trace, interp = engine.record(module)
    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    return engine, fixer, fixer.revalidate()


@settings(max_examples=30, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=8))
def test_incremental_matches_scratch_detection(actions):
    """Synthesis tier: the revalidated detection equals the oracle's —
    a from-scratch tree-walking run over the same repaired module —
    record for record."""
    module = build(actions)
    engine, fixer, outcome = _repair_incrementally(module)
    scratch, _, _ = pmemcheck_run(module, drive, engine="reference")
    assert outcome.mode in ("baseline", "synthesized")
    assert _bug_records(outcome.detection) == _bug_records(scratch)
    # same module instance on both sides, so describe() (which embeds
    # iids) is a sound canonical form for the perf diagnostics
    assert [p.describe() for p in outcome.detection.perf] == [
        p.describe() for p in scratch.perf
    ]
    assert outcome.detection.bug_count == 0  # Hippocrates converges


@settings(max_examples=20, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=8))
def test_replay_tier_matches_synthesis_tier(actions):
    """Degrading the witness (a commit without insertion specs) must
    route straight to a full re-record and still reach the verdict
    synthesis reached."""
    module = build(actions)
    engine, fixer, synth = _repair_incrementally(module)
    if synth.mode == "baseline":
        return
    assert synth.mode == "synthesized"
    engine.note_commit(structural=False, insertions=None)
    full = fixer.revalidate()
    assert full.mode == "full"
    assert full.fallback_reason == "fix committed without an insertion witness"
    assert _bug_records(full.detection) == _bug_records(synth.detection)
    assert [(type(e), e.seq, e.iid) for e in full.trace.events] == [
        (type(e), e.seq, e.iid) for e in synth.trace.events
    ]


@settings(max_examples=10, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=6))
def test_structural_commit_forces_full_rerecord(actions):
    module = build(actions)
    engine, fixer, first = _repair_incrementally(module)
    engine.note_commit(structural=True)
    outcome = fixer.revalidate()
    assert outcome.mode == "full"
    assert _bug_records(outcome.detection) == _bug_records(first.detection)
