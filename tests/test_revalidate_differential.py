"""Differential equivalence: incremental revalidation on vs off.

Against the same repaired module instance, the trace the revalidator
synthesizes — for flush/fence-only and structural (clone/retarget)
repairs alike — must equal a full re-run event for event.  Through the
oracle harness in ``test_oracle_differential.py``, the whole pipeline
with revalidation on (the fast pipeline) must produce the same records
and outcomes as with it off (the oracle), per corpus case, through the
CLI's older oracle flags, and across a kill/resume.
"""

from __future__ import annotations

import pytest

import repro.core.hippocrates
from repro.core.fixes import FixPlan, InsertFlushAndFence
from repro.core.hippocrates import Hippocrates
from repro.corpus.bugs import all_cases
from repro.detect import pmemcheck_run
from repro.errors import ReproError
from repro.ir import I64, ModuleBuilder, PTR
from repro.ir.instructions import Store
from repro.obs import Observability
from repro.revalidate import IncrementalRevalidator
from repro.trace import dump_trace

from test_oracle_differential import (
    CASE_IDS,
    assert_cli_flag_selects_matching_oracle,
    assert_killed_fast_batch_resumes_to_oracle,
    assert_outcomes_match,
    assert_records_match,
    assert_revalidation_on_vs_off,
    revalidation_tiers,
)

#: Cases whose repairs are flush/fence-only; every other corpus case
#: also needs a structural (clone/retarget) fix.  Both kinds now take
#: the synthesis tier — flush/fence via event splicing, structural via
#: callee-span rewriting — with zero re-execution.
SYNTH_CASES = {"PMDK-452", "PMDK-940", "PMDK-943", "P-CLHT"}
STRUCTURAL_CASES = sorted(
    case.case_id for case in all_cases() if case.case_id not in SYNTH_CASES
)


@pytest.mark.parametrize(
    "case_id", sorted(SYNTH_CASES) + STRUCTURAL_CASES
)
def test_synthesized_trace_and_detection_are_byte_exact(case_id):
    """Against the *same repaired module instance*, the synthesized
    trace must equal a from-scratch run event for event, and the
    detection records must match exactly."""
    case = next(c for c in all_cases() if c.case_id == case_id)
    module = case.build()
    engine = IncrementalRevalidator(case.drive)
    _, trace, interp = engine.record(module)
    recorded = dump_trace(trace)
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    fixer.apply(fixer.compute_fixes())
    outcome = fixer.revalidate()
    assert outcome.mode == "synthesized"
    # synthesis builds new events and never edits a baseline one
    assert dump_trace(engine.baseline.trace) == recorded

    scratch, scratch_trace, _ = pmemcheck_run(module, case.drive)
    assert len(outcome.trace.events) == len(scratch_trace.events)
    for ours, theirs in zip(outcome.trace.events, scratch_trace.events):
        assert ours == theirs
    assert [b.as_record() for b in outcome.detection.bugs] == [
        b.as_record() for b in scratch.bugs
    ]
    assert [p.describe() for p in outcome.detection.perf] == [
        p.describe() for p in scratch.perf
    ]


def test_revalidate_is_idempotent():
    """A second revalidation after the first (no new commits) is a
    baseline hit with the same detection."""
    case = next(c for c in all_cases() if c.case_id == "PMDK-452")
    module = case.build()
    engine = IncrementalRevalidator(case.drive)
    _, trace, interp = engine.record(module)
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    fixer.apply(fixer.compute_fixes())
    first = fixer.revalidate()
    assert first.mode == "synthesized"
    second = fixer.revalidate()
    # The module did not change since the recording was installed, but
    # the recording predates the fixes — so the engine re-synthesizes
    # (same witness, same baseline) and must reach the same verdict.
    assert second.mode == first.mode
    assert [b.as_record() for b in second.detection.bugs] == [
        b.as_record() for b in first.detection.bugs
    ]


@pytest.mark.parametrize("case_id", sorted(SYNTH_CASES))
def test_degraded_witness_rerecords_to_the_oracle_verdict(monkeypatch, case_id):
    """A fix whose insertions cannot be described leaves no witness to
    synthesize from: revalidation re-records the workload in full, says
    why on its ``phase.revalidate`` span, and reaches the oracle's
    verdict."""
    monkeypatch.setattr(
        repro.core.hippocrates, "spec_for_fix", lambda anchor, inserted: None
    )
    case = next(c for c in all_cases() if c.case_id == case_id)
    module = case.build()
    obs = Observability()
    engine = IncrementalRevalidator(case.drive, obs=obs)
    _, trace, interp = engine.record(module)
    fixer = Hippocrates(
        module, trace, interp.machine, revalidator=engine, obs=obs
    )
    fixer.apply(fixer.compute_fixes())
    outcome = fixer.revalidate()

    reason = "fix committed without an insertion witness"
    assert outcome.mode == "full"
    assert outcome.fallback_reason == reason
    assert revalidation_tiers(obs) == [{"mode": "full", "fallback": reason}]
    assert obs.metrics_snapshot()["counters"]["revalidate.fallbacks"] == 1
    oracle, _, _ = pmemcheck_run(module, case.drive, engine="reference")
    assert [b.describe() for b in outcome.detection.bugs] == [
        b.describe() for b in oracle.bugs
    ]
    assert outcome.detection.bug_count == 0


def build_cold_store_module():
    """``main`` leaves one PM store unpersisted; ``cold`` stores to PM
    too, but nothing ever calls it."""
    mb = ModuleBuilder("cold")
    b = mb.function("cold", [("p", PTR)], source_file="cold.c")
    b.store(9, b.function.args[0])
    b.ret()
    b = mb.function("main", [], I64, source_file="cold.c")
    root = b.call("pm_root", [64], PTR)
    b.store(1, root)
    b.call("checkpoint", [])
    b.ret(0)
    return mb.module


def test_fix_anchored_in_code_never_run_is_synthesized_to_the_baseline():
    """A fix anchored only in code the recording never ran inserts no
    event: synthesis reproduces the baseline trace, and the re-check
    the baseline's detection."""
    module = build_cold_store_module()
    engine = IncrementalRevalidator(lambda interp: interp.call("main"))
    detection, trace, interp = engine.record(module)
    assert detection.bug_count == 1
    cold = next(
        i for i in module.get_function("cold").instructions() if isinstance(i, Store)
    )
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    report = fixer.apply(FixPlan(fixes=[InsertFlushAndFence(store=cold)]))
    assert report.fixes_applied == 1

    outcome = fixer.revalidate()
    assert outcome.mode == "synthesized"
    assert outcome.trace.events == trace.events
    assert [b.describe() for b in outcome.detection.bugs] == [
        b.describe() for b in detection.bugs
    ]


def build_trapping_module():
    """``set_and_trap`` stores ``v`` to ``p`` and traps when ``v == 7``;
    ``main`` calls it on a volatile and a PM pointer, ``boom`` on PM
    with 7."""
    mb = ModuleBuilder("trapper")
    b = mb.function("set_and_trap", [("p", PTR), ("v", I64)], source_file="t.c")
    p, v = b.function.args
    b.store(v, p)
    b.call("require", [b.icmp("ne", v, 7)])
    b.ret()
    b = mb.function("main", [], I64, source_file="t.c")
    b.call("set_and_trap", [b.call("vol_alloc", [64], PTR), 1])
    b.call("set_and_trap", [b.call("pm_alloc", [64], PTR), 2])
    b.call("checkpoint", [])
    b.ret(0)
    b = mb.function("boom", [], I64, source_file="t.c")
    b.call("set_and_trap", [b.call("pm_alloc", [64], PTR), 7])
    b.ret(0)
    return mb.module


def drive_then_trap(interp):
    interp.call("main")
    try:
        interp.call("boom")
    except ReproError:
        pass


def test_recording_ending_inside_a_callee_rerecords_hoisted_fixes():
    """Regression: a recording whose *last* call unwound out of an open
    callee used to claim a complete span record, and structural
    synthesis then disagreed with the oracle (a missing flush&fence in
    ``set_and_trap`` where re-execution finds a missing fence in
    ``set_and_trap_PM``).  The record is complete only when no callee
    is still open at the end, so both hoisted fixes re-record."""
    module = build_trapping_module()
    engine = IncrementalRevalidator(drive_then_trap)
    _, trace, interp = engine.record(module)
    assert not engine.baseline.spans_ok
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    report = fixer.apply(fixer.compute_fixes())
    assert report.interprocedural_count == 2

    outcome = fixer.revalidate()
    assert outcome.mode == "full"
    assert outcome.fallback_reason == "callee-span record incomplete"
    oracle, _, _ = pmemcheck_run(module, drive_then_trap, engine="reference")
    assert [(b.kind.name, b.store.function) for b in oracle.bugs] == [
        ("MISSING_FENCE", "set_and_trap_PM")
    ]
    assert [b.describe() for b in outcome.detection.bugs] == [
        b.describe() for b in oracle.bugs
    ]


def trap_then_drive(interp):
    try:
        interp.call("boom")
    except ReproError:
        pass
    interp.call("main")


def test_callee_left_open_by_an_earlier_call_keeps_the_span_record_incomplete():
    """A callee unwound by an earlier top-level call stays open for the
    rest of the recording: later calls that complete do not make the
    span record trustworthy again, and revalidation agrees with the
    oracle through a full re-record."""
    module = build_trapping_module()
    engine = IncrementalRevalidator(trap_then_drive)
    _, trace, interp = engine.record(module)
    assert not engine.baseline.spans_ok
    fixer = Hippocrates(module, trace, interp.machine, revalidator=engine)
    fixer.apply(fixer.compute_fixes())

    outcome = fixer.revalidate()
    assert outcome.mode == "full"
    assert outcome.fallback_reason == "callee-span record incomplete"
    oracle, _, _ = pmemcheck_run(module, trap_then_drive, engine="reference")
    assert [b.describe() for b in outcome.detection.bugs] == [
        b.describe() for b in oracle.bugs
    ]


# ---------------------------------------------------------------------------
# the pipeline with revalidation on (fast) vs off (oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_records_byte_identical_on_vs_off(case_id):
    """The journaled record — the batch layer's unit of truth — must not
    depend on how revalidation ran, and it ran by synthesis on the fast
    side and by a full re-run on the oracle side."""
    assert_records_match(case_id)
    assert_revalidation_on_vs_off(case_id)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_outcome_equivalence_and_expected_mode(case_id):
    assert_outcomes_match(case_id)
    assert_revalidation_on_vs_off(case_id)


def test_batch_reports_byte_identical_across_flag(tmp_path):
    assert_cli_flag_selects_matching_oracle(
        tmp_path, "--no-incremental-revalidate"
    )


def test_batch_reports_byte_identical_across_machine_pool_flag(tmp_path):
    assert_cli_flag_selects_matching_oracle(tmp_path, "--no-machine-pool")


# ---------------------------------------------------------------------------
# kill/resume of a fast batch against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("torn", [False, True])
def test_kill_mid_incremental_batch_resumes_byte_identical(tmp_path, torn):
    """A worker killed mid-incremental-revalidation resumes to the
    oracle's bytes.  Boundary 4 lands after the first task-done, so the
    kill interrupts the second task (PMDK-940, a synthesis-tier case)."""
    suffix = "torn" if torn else "plain"
    assert_killed_fast_batch_resumes_to_oracle(
        str(tmp_path / f"kill-{suffix}.journal"), boundary=4, torn=torn
    )


def test_kill_resume_matches_non_incremental_baseline(tmp_path):
    """A fast (incremental) batch killed at boundary 5, right after the
    second task-done, resumes to the oracle's non-incremental bytes: the
    resume replays two records from the journal and runs only the last
    task."""
    assert_killed_fast_batch_resumes_to_oracle(
        str(tmp_path / "kill-5.journal"), boundary=5
    )


def test_kill_resume_pooled_matches_unpooled_baseline(tmp_path):
    """A fast batch killed at boundary 7, after the last task-done but
    before batch-end, resumes to the oracle's bytes: the resume replays
    every record and executes nothing."""
    assert_killed_fast_batch_resumes_to_oracle(
        str(tmp_path / "kill-7.journal"), boundary=7
    )
