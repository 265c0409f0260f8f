"""Resilience of the repair pipeline: quarantine, rollback, degraded
modes, budgets, and the do-no-harm diagnostics."""

from __future__ import annotations

import tracemalloc

import pytest

from conftest import build_listing5_module, drive_main
from repro.bench.harness import measure_fix
from repro.budget import Budget
from repro.core import (
    DOWNGRADE_CHAIN,
    FixTransaction,
    Hippocrates,
    assert_fixed,
    do_no_harm,
)
from repro.core.locate import Locator
from repro.detect import pmemcheck_run
from repro.errors import BudgetExceeded, LocateError, ValidationError
from repro.faultinject import FaultPlan, InjectedFault, install_faults
from repro.ir import I64, ModuleBuilder, PTR, format_module, verify_module
from repro.obs import Observability


def build_two_bug_module():
    """Two independent missing-flush bugs on separate cache lines."""
    mb = ModuleBuilder("twobugs")
    b = mb.function("main", [], I64)
    pm = b.call("pm_alloc", [128], PTR)
    b.store(1, pm)
    b.store(2, b.gep(pm, 64))
    b.fence()
    b.call("checkpoint", [1])
    b.ret(0)
    return mb.module


class ExplodingLocator(Locator):
    """Fails the first store resolution, then behaves normally."""

    def __init__(self, module):
        super().__init__(module)
        self.calls = 0

    def locate_store(self, event):
        self.calls += 1
        if self.calls == 1:
            raise LocateError("debug info missing for this store")
        return super().locate_store(event)


# ---------------------------------------------------------------------------
# per-bug fault isolation
# ---------------------------------------------------------------------------


def test_locate_failure_quarantines_one_bug_fixes_the_rest():
    module = build_two_bug_module()
    detection, trace, interp = pmemcheck_run(module, drive_main)
    assert detection.bug_count == 2

    fixer = Hippocrates(module, trace, interp.machine)
    fixer.locator = ExplodingLocator(module)
    report = fixer.fix()

    assert report.bugs_quarantined == 1
    assert report.bugs_fixed == 1
    q = report.quarantined[0]
    assert q.phase == "locate"
    assert q.error_type == "LocateError"
    assert "debug info" in q.error
    assert "locate_store" in q.traceback  # the stack is preserved
    assert q.bug is not None
    assert "quarantined" in report.summary()

    after, _, _ = pmemcheck_run(module, drive_main)
    assert after.bug_count == 1  # only the quarantined bug remains


def test_keep_going_false_restores_fail_fast():
    module = build_two_bug_module()
    _, trace, interp = pmemcheck_run(module, drive_main)
    fixer = Hippocrates(module, trace, interp.machine, keep_going=False)
    fixer.locator = ExplodingLocator(module)
    with pytest.raises(LocateError):
        fixer.fix()


def test_zero_fault_report_is_unchanged_by_resilience_options():
    import re

    reports = []
    plans = []
    for keep_going in (True, False):
        module = build_listing5_module()
        _, trace, interp = pmemcheck_run(module, drive_main)
        fixer = Hippocrates(module, trace, interp.machine, keep_going=keep_going)
        plan = fixer.compute_fixes()
        # instruction iids are globally unique across module builds;
        # normalize them so only real plan differences can fail this
        plans.append(re.sub(r"#\d+", "#N", plan.describe()))
        reports.append(fixer.apply(plan).summary())
    # byte-identical plans and summaries: resilience must be invisible
    # on a clean run
    assert plans[0] == plans[1]
    assert reports[0] == reports[1]
    assert "quarantined" not in reports[0]
    assert "degraded" not in reports[0]


# ---------------------------------------------------------------------------
# transactional application
# ---------------------------------------------------------------------------


def test_transformer_fault_rolls_module_back_to_original_text():
    module = build_listing5_module()
    original_text = format_module(module)
    _, trace, interp = pmemcheck_run(module, drive_main)

    fixer = Hippocrates(module, trace, interp.machine)
    install_faults(fixer, FaultPlan("transformer", nth=1))
    report = fixer.fix()

    # Listing 5's only fix is interprocedural; its mid-clone failure
    # must leave the module byte-identical to the original.
    assert report.bugs_quarantined >= 1
    assert report.quarantined[0].phase == "apply"
    assert report.quarantined[0].error_type == "InjectedFault"
    assert report.fixes_applied == 0
    assert format_module(module) == original_text
    verify_module(module)


def test_mid_clone_fault_rolls_back_partial_clones():
    # nth=2 lets the first persistent clone land before the recursive
    # clone of its callee raises — the half-mutated case.
    module = build_listing5_module()
    original_text = format_module(module)
    _, trace, interp = pmemcheck_run(module, drive_main)

    fixer = Hippocrates(module, trace, interp.machine)
    install_faults(fixer, FaultPlan("transformer", nth=2))
    report = fixer.fix()

    if report.bugs_quarantined:  # the fault fired mid-fix
        assert format_module(module) == original_text
    verify_module(module)
    do_no_harm(build_listing5_module(), module, drive_main)


def test_fail_fast_apply_error_still_rolls_back():
    module = build_listing5_module()
    original_text = format_module(module)
    _, trace, interp = pmemcheck_run(module, drive_main)

    fixer = Hippocrates(module, trace, interp.machine, keep_going=False)
    install_faults(fixer, FaultPlan("transformer", nth=1))
    with pytest.raises(InjectedFault):
        fixer.fix()
    # even without quarantine the module is never left half-mutated
    assert format_module(module) == original_text


def test_fix_transaction_unit_rollback():
    module = build_two_bug_module()
    main = module.functions["main"]
    block = main.blocks[0]
    count_before = len(block.instructions)

    class Probe:
        color = "red"

    probe = Probe()
    txn = FixTransaction(module)
    txn.track_attr(probe, "color")
    probe.color = "blue"
    txn.rollback()
    assert probe.color == "red"
    assert len(block.instructions) == count_before
    # rollback is idempotent and commit after rollback is a no-op
    txn.rollback()
    txn.commit()


# ---------------------------------------------------------------------------
# degraded-mode heuristics
# ---------------------------------------------------------------------------


def test_classifier_failure_downgrades_full_to_trace():
    module = build_listing5_module()
    _, trace, interp = pmemcheck_run(module, drive_main)
    fixer = Hippocrates(module, trace, interp.machine)
    install_faults(fixer, FaultPlan("classifier", nth=1))
    report = fixer.fix()

    assert report.heuristic == "full"
    assert report.heuristic_effective == "trace"
    assert [d.to_mode for d in report.downgrades] == ["trace"]
    assert "InjectedFault" in report.downgrades[0].reason
    assert "(degraded to trace)" in report.summary()
    # Trace-AA produces the same hoisted repair (the paper's E7 result)
    assert report.interprocedural_count >= 1
    assert_fixed(module, drive_main)


def test_classifier_failure_without_machine_degrades_to_off():
    module = build_listing5_module()
    _, trace, _ = pmemcheck_run(module, drive_main)
    fixer = Hippocrates(module, trace, machine=None)  # Trace-AA unavailable
    install_faults(fixer, FaultPlan("classifier", nth=1))
    report = fixer.fix()

    assert report.heuristic_effective == "off"
    assert report.interprocedural_count == 0
    assert report.intraprocedural_count >= 1
    assert_fixed(module, drive_main)  # intraprocedural is always safe


def test_budget_exhaustion_walks_the_whole_downgrade_chain():
    module = build_listing5_module()
    _, trace, interp = pmemcheck_run(module, drive_main)
    fixer = Hippocrates(
        module, trace, interp.machine, analysis_budget=Budget(max_items=0)
    )
    report = fixer.fix()

    # full -> trace -> off: the same exhausted budget fails both analyses
    assert [(d.from_mode, d.to_mode) for d in report.downgrades] == [
        ("full", "trace"),
        ("trace", "off"),
    ]
    assert all("BudgetExceeded" in d.reason for d in report.downgrades)
    assert report.heuristic_effective == "off"
    assert report.interprocedural_count == 0
    assert_fixed(module, drive_main)


def test_downgrade_chain_terminates_at_off():
    assert DOWNGRADE_CHAIN["full"] == "trace"
    assert DOWNGRADE_CHAIN["trace"] == "off"
    assert "off" not in DOWNGRADE_CHAIN


# ---------------------------------------------------------------------------
# satellite fixes: tracemalloc leak, do_no_harm diagnostics
# ---------------------------------------------------------------------------


def test_measure_overhead_stops_tracemalloc_on_failure():
    module = build_two_bug_module()
    _, trace, interp = pmemcheck_run(module, drive_main)
    fixer = Hippocrates(
        module, trace, interp.machine, keep_going=False, obs=Observability()
    )
    fixer.locator = ExplodingLocator(module)
    assert not tracemalloc.is_tracing()
    with pytest.raises(LocateError):
        measure_fix(fixer)
    assert not tracemalloc.is_tracing()


def _emitting_module(values):
    mb = ModuleBuilder("emitter")
    b = mb.function("main", [], I64)
    for v in values:
        b.call("emit", [v])
    b.ret(0)
    return mb.module


def test_do_no_harm_reports_first_diverging_index():
    with pytest.raises(ValidationError) as info:
        do_no_harm(
            _emitting_module([1, 2, 3]), _emitting_module([1, 9, 3]), drive_main
        )
    message = str(info.value)
    assert "index 1" in message
    assert "2" in message and "9" in message
    assert "lengths 3 (before) vs 3 (after)" in message


def test_do_no_harm_reports_length_divergence():
    with pytest.raises(ValidationError) as info:
        do_no_harm(
            _emitting_module([1, 2]), _emitting_module([1, 2, 3]), drive_main
        )
    message = str(info.value)
    assert "lengths 2 (before) vs 3 (after)" in message


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def test_budget_try_charge_and_strict_charge():
    budget = Budget(max_items=2, label="probe")
    assert budget.try_charge()
    assert budget.try_charge()
    assert not budget.try_charge()
    assert budget.exhausted
    with pytest.raises(BudgetExceeded) as info:
        budget.charge()
    assert info.value.limit == 2
    assert "probe" in str(info.value)


def test_budget_refuses_a_charge_past_its_cap():
    budget = Budget(max_items=5, label="probe")
    assert budget.try_charge(3)
    # 3 + 3 would pass the cap: refused, and nothing is consumed
    assert not budget.try_charge(3)
    assert budget.spent_items == 3
    assert not budget.exhausted
    with pytest.raises(BudgetExceeded):
        budget.charge(3)
    assert budget.spent_items == 3
    # a charge that lands exactly on the cap is accepted
    assert budget.try_charge(2)
    assert budget.spent_items == 5
    assert budget.exhausted
    assert not budget.try_charge()


def test_unlimited_budget_never_exhausts():
    budget = Budget()
    for _ in range(1000):
        assert budget.try_charge()
    assert not budget.exhausted


def test_andersen_respects_budget():
    from repro.analysis.andersen import PointsTo

    module = build_listing5_module()
    with pytest.raises(BudgetExceeded):
        PointsTo(module, budget=Budget(max_items=0, label="fixpoint"))
    # a generous budget completes normally
    PointsTo(module, budget=Budget(max_items=10_000))


def test_crash_explorer_budget_partial_results():
    from repro.memory import AddressSpace, CacheModel, CrashExplorer, PersistentImage

    space = AddressSpace()
    image = PersistentImage(space)
    cache = CacheModel(space, image)
    base = space.alloc_pm(64 * 4, align=64)
    for i in range(4):
        space.write_int(base + 64 * i, 8, i + 1)
        cache.on_store(base + 64 * i, 8)

    explorer = CrashExplorer(cache, image, budget=Budget(max_items=5))
    states = list(explorer.states())
    assert len(states) == 5  # graceful truncation, not an exception
    assert explorer.budget_exhausted

    strict = CrashExplorer(cache, image, budget=Budget(max_items=5))
    with pytest.raises(BudgetExceeded):
        strict.find_violation(lambda state: True, strict_budget=True)


# ---------------------------------------------------------------------------
# double failure: the rollback itself breaks
# ---------------------------------------------------------------------------


def test_rollback_failure_raises_rollback_error_with_context():
    from repro.errors import RollbackError

    class Fragile:
        @property
        def x(self):
            return 1

        @x.setter
        def x(self, value):
            raise RuntimeError("undo exploded")

    class Probe:
        color = "red"

    module = build_two_bug_module()
    probe, fragile = Probe(), Fragile()
    txn = FixTransaction(module)
    txn.track_attr(probe, "color")  # undone second (restores)
    txn.track_attr(fragile, "x")  # undone first (raises)
    probe.color = "blue"
    with pytest.raises(RollbackError) as info:
        txn.rollback()
    # the failing undo did not stop the rest of the rollback
    assert probe.color == "red"
    assert "1 undo action(s) raised" in str(info.value)
    assert "undo exploded" in str(info.value)
    # the undo's own exception is chained as __context__
    assert isinstance(info.value.__context__, RuntimeError)


def test_rollback_failure_collects_every_failing_undo():
    from repro.errors import RollbackError

    module = build_two_bug_module()
    txn = FixTransaction(module)

    class Fragile:
        @property
        def x(self):
            return 1

        @x.setter
        def x(self, value):
            raise RuntimeError("boom")

    txn.track_attr(Fragile(), "x")
    txn.track_attr(Fragile(), "x")
    with pytest.raises(RollbackError) as info:
        txn.rollback()
    assert "2 undo action(s) raised" in str(info.value)
    # the transaction is done: a second rollback is a no-op
    txn.rollback()


def test_double_failure_chains_original_cause_through_apply(monkeypatch):
    """apply(): when a fix fails AND its rollback fails, the raised
    RollbackError carries the original failure as ``__cause__`` — the
    root cause is never masked, and nothing is quarantined."""
    from repro.errors import RollbackError

    module = build_listing5_module()
    _, trace, interp = pmemcheck_run(module, drive_main)
    fixer = Hippocrates(module, trace, interp.machine, keep_going=True)
    install_faults(fixer, FaultPlan("transformer", nth=1))

    def broken_rollback(self):
        raise RollbackError("rollback failed (simulated)")

    monkeypatch.setattr(FixTransaction, "rollback", broken_rollback)
    with pytest.raises(RollbackError) as info:
        fixer.fix()
    # keep_going=True must NOT swallow a double failure
    assert isinstance(info.value.__cause__, InjectedFault)


def test_double_failure_makes_next_revalidation_full(monkeypatch):
    """Fail-closed: after a double failure the recorded baseline is
    never trusted again — the next revalidation re-records in full and
    reaches the oracle's verdict on whatever the module now is."""
    from repro.errors import RollbackError
    from repro.revalidate import IncrementalRevalidator

    module = build_listing5_module()
    revalidator = IncrementalRevalidator(drive_main)
    _, trace, interp = revalidator.record(module)
    fixer = Hippocrates(
        module, trace, interp.machine, keep_going=True, revalidator=revalidator
    )
    install_faults(fixer, FaultPlan("transformer", nth=1))

    def broken_rollback(self):
        raise RollbackError("rollback failed (simulated)")

    monkeypatch.setattr(FixTransaction, "rollback", broken_rollback)
    with pytest.raises(RollbackError):
        fixer.fix()
    monkeypatch.undo()

    outcome = fixer.revalidate()
    assert outcome.mode == "full"
    oracle, _, _ = pmemcheck_run(module, drive_main, engine="reference")
    # same module instance on both sides, so describe() (which embeds
    # iids) is a sound canonical form
    assert [(b.report_id, b.describe()) for b in outcome.detection.bugs] == [
        (b.report_id, b.describe()) for b in oracle.bugs
    ]
