"""End-to-end unit tests for the Hippocrates orchestrator."""

import pytest

from repro.bench.harness import measure_fix
from repro.core import Hippocrates, HoistedFix, fix_module
from repro.detect import check_trace, pmemcheck_run
from repro.errors import FixError
from repro.ir import (
    I64,
    ModuleBuilder,
    PTR,
    format_module,
    parse_module,
    verify_module,
)
from repro.obs import Observability
from repro.trace import dump_trace

from conftest import build_listing5_module, drive_main


class TestEndToEnd:
    def test_listing5_hoisted_fix(self, listing5):
        module, detection, trace, interp = listing5
        report = Hippocrates(module, trace, interp.machine).fix()
        assert report.bugs_fixed == 1
        assert report.interprocedural_count == 1
        assert module.has_function("modify_PM") and module.has_function("update_PM")
        after, _, _ = pmemcheck_run(module, drive_main)
        assert after.bug_count == 0
        verify_module(module)

    def test_heuristic_off_yields_intraprocedural(self, listing5):
        module, detection, trace, interp = listing5
        report = Hippocrates(module, trace, interp.machine, heuristic="off").fix()
        assert report.interprocedural_count == 0
        assert report.intraprocedural_count == 1
        after, _, _ = pmemcheck_run(module, drive_main)
        assert after.bug_count == 0

    def test_each_bug_kind_end_to_end(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [256], PTR)
            b.store(1, p)
            b.fence()  # a later fence exists: p is missing only a flush
            q = b.gep(p, 64)
            b.store(2, q)
            b.flush(q)  # flushed but never fenced: missing fence
            r = b.gep(p, 128)
            b.store(3, r)  # neither flushed nor fenced
            b.ret(0)

        mb = ModuleBuilder("kinds")
        build(mb)
        detection, trace, interp = pmemcheck_run(mb.module, drive_main)
        assert detection.bug_count == 3
        report = Hippocrates(mb.module, trace, interp.machine).fix()
        assert report.bugs_fixed == 3
        after, _, _ = pmemcheck_run(mb.module, drive_main)
        assert after.bug_count == 0

    def test_text_trace_input(self, listing5):
        """Hippocrates accepts the pmemcheck text log (Step 1)."""
        module, detection, trace, interp = listing5
        text = dump_trace(trace)
        report = Hippocrates(module, text, interp.machine).fix()
        assert report.bugs_fixed == 1
        after, _, _ = pmemcheck_run(module, drive_main)
        assert after.bug_count == 0

    def test_fix_reparsed_module(self):
        """Trace from one build, fixes applied to a re-parsed module."""
        module = build_listing5_module()
        detection, trace, interp = pmemcheck_run(module, drive_main)
        rebuilt = parse_module(format_module(module))
        # Trace-ids don't match the rebuilt module; Full-AA requires no
        # machine, and locate falls back to source lines.
        report = Hippocrates(rebuilt, trace, heuristic="full").fix()
        assert report.bugs_fixed == 1
        after, _, _ = pmemcheck_run(rebuilt, drive_main)
        assert after.bug_count == 0

    def test_clean_module_is_untouched(self):
        mb = ModuleBuilder("clean")
        b = mb.function("main", [], I64)
        p = b.call("pm_alloc", [64], PTR)
        b.store(1, p)
        b.flush(p)
        b.fence()
        b.ret(0)
        detection, trace, interp = pmemcheck_run(mb.module, drive_main)
        before = format_module(mb.module)
        report = Hippocrates(mb.module, trace, interp.machine).fix()
        assert report.fixes_applied == 0
        assert format_module(mb.module) == before


class TestReporting:
    def test_report_fields(self, listing5):
        module, _, trace, interp = listing5
        report, seconds, peak = measure_fix(
            Hippocrates(module, trace, interp.machine, obs=Observability())
        )
        assert report.ir_size_after > report.ir_size_before
        assert report.inserted_instructions >= 1
        assert seconds > 0
        assert peak > 0
        assert report.hoist_depths == [2]
        assert "interprocedural" in report.summary()
        assert report.ir_growth_percent > 0

    def test_plan_description(self, listing5):
        module, _, trace, interp = listing5
        plan = Hippocrates(module, trace, interp.machine).compute_fixes()
        assert "persistent subprogram" in plan.describe()
        assert len(plan.interprocedural()) == 1
        assert len(plan.intraprocedural()) == 0


class TestValidationArguments:
    def test_unknown_heuristic(self, listing5):
        module, _, trace, interp = listing5
        with pytest.raises(FixError):
            Hippocrates(module, trace, interp.machine, heuristic="magic")

    def test_trace_aa_requires_machine(self, listing5):
        module, _, trace, _ = listing5
        with pytest.raises(FixError):
            Hippocrates(module, trace, machine=None, heuristic="trace")

    def test_fix_module_convenience(self):
        module = build_listing5_module()
        _, trace, interp = pmemcheck_run(module, drive_main)
        report = fix_module(module, trace, interp.machine)
        assert report.bugs_fixed == 1
