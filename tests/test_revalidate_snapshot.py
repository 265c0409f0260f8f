"""Repeatable revalidation and fresh machines: what revalidation
starts from must never change under it.

A synthesis re-check runs the checker over the synthesized trace from
its first event, so two revalidations against one recording must agree
with each other and with the oracle.

A full re-record — the fallback for a degraded witness — must start
from a machine no earlier run has touched, and equal a plain detection
run byte for byte.
"""

from __future__ import annotations

from repro.core.hippocrates import Hippocrates
from repro.detect import pmemcheck_run
from repro.interp import Machine
from repro.ir import I64, ModuleBuilder, PTR
from repro.obs import Observability
from repro.revalidate import IncrementalRevalidator


def build_two_phase_module():
    """Two top-level entry points: ``setup`` leaves PM state pending
    (dirty lines at the call boundary), ``finish`` stores unpersisted."""
    mb = ModuleBuilder("twophase")

    b = mb.function("setup", [], I64, source_file="twophase.c")
    base = b.call("pm_root", [256], PTR)
    b.store(1, base)
    b.flush(base)  # flushing, never fenced: pending at the boundary
    slot = b.gep(base, 64)
    b.store(2, slot)  # dirty at the boundary
    b.ret(0)

    b = mb.function("finish", [], I64, source_file="twophase.c")
    root = b.call("pm_root", [256], PTR)
    # persist setup's pending lines: the flush covers the dirty slot,
    # the fence completes both it and setup's un-fenced flush — so the
    # only bug left anchors *in this segment*
    slot = b.gep(root, 64)
    b.flush(slot)
    b.fence()
    target = b.gep(root, 128)
    b.store(3, target)  # the bug the fix will repair
    b.call("checkpoint", [])
    b.ret(0)
    return mb.module


def drive(interp):
    interp.call("setup")
    interp.call("finish")


def _record(module, obs=None):
    engine = IncrementalRevalidator(drive, obs=obs or Observability())
    detection, trace, interp = engine.record(module)
    return engine, detection, trace, interp


def _bug_records(detection):
    # describe() embeds iids: sound here, every side runs one module
    return [b.describe() for b in detection.bugs]


def test_second_replay_from_same_snapshot_is_unaffected_by_first():
    """Two consecutive synthesis re-checks against one recording reach
    the same trace and verdict, the oracle's."""
    module = build_two_phase_module()
    engine, detection, trace, interp = _record(module)
    assert detection.bug_count >= 1

    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())

    first = fixer.revalidate()
    assert first.mode == "synthesized"
    second = fixer.revalidate()
    assert second.mode == "synthesized"
    assert _bug_records(second.detection) == _bug_records(first.detection)
    assert len(second.trace.events) == len(first.trace.events)
    for ours, theirs in zip(second.trace.events, first.trace.events):
        assert ours == theirs
    oracle, _, _ = pmemcheck_run(module, drive, engine="reference")
    assert _bug_records(second.detection) == _bug_records(oracle)


def _recording_state(base):
    return (
        list(base.trace.events),
        _bug_records(base.detection),
        base.vol_ops,
        base.spans,
        base.spans_ok,
    )


def test_snapshot_lines_survive_mutation_of_materialized_machine():
    """A synthesized revalidation leaves the recording it starts from
    as it was, even when the caller then mutates the outcome's trace
    and detection; the next revalidation reaches the same verdict."""
    module = build_two_phase_module()
    engine, _, trace, interp = _record(module)
    base = engine.baseline
    before = _recording_state(base)
    assert before[0]

    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    first = fixer.revalidate()
    assert first.mode == "synthesized"
    assert _recording_state(base) == before

    verdict = _bug_records(first.detection)
    first.trace.events.clear()
    first.detection.bugs.clear()
    assert _recording_state(base) == before

    second = fixer.revalidate()
    assert second.mode == "synthesized"
    assert second.trace.events
    assert _bug_records(second.detection) == verdict
    assert _recording_state(base) == before


def test_materialized_machines_share_no_mutable_state():
    """Two synthesized revalidations against one recording hand back
    independent traces and detections, neither aliasing the
    recording's."""
    module = build_two_phase_module()
    engine, _, trace, interp = _record(module)
    base = engine.baseline
    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    a = fixer.revalidate()
    b = fixer.revalidate()
    assert a.mode == b.mode == "synthesized"

    assert a.trace.events == b.trace.events and a.trace.events
    assert a.trace.events is not b.trace.events
    assert base.trace.events is not a.trace.events
    assert base.trace.events is not b.trace.events
    assert a.detection.bugs is not b.detection.bugs
    assert base.detection.bugs is not a.detection.bugs

    b_events = list(b.trace.events)
    b_bugs = _bug_records(b.detection)
    a.trace.events.clear()
    a.detection.bugs.clear()
    assert b.trace.events == b_events
    assert _bug_records(b.detection) == b_bugs


# ---------------------------------------------------------------------------
# fresh machines
# ---------------------------------------------------------------------------


def _region_state(region):
    return (bytes(region.data), region.brk, region.high_water)


def _machine_state(machine):
    """Every byte a reused machine could leak: region buffers,
    allocator watermarks, the durable view."""
    space = machine.space
    return (
        _region_state(space.vol),
        _region_state(space.stack),
        _region_state(space.pm),
        machine.image.snapshot_durable(),
    )


def test_pooled_detect_run_byte_identical_to_fresh():
    """A recording run must produce the same trace, detection, and final
    machine bytes as a plain detection run."""
    module = build_two_phase_module()
    fresh_detection, fresh_trace, fresh_interp = pmemcheck_run(module, drive)

    engine, detection, trace, interp = _record(module)
    assert [b.describe() for b in detection.bugs] == [
        b.describe() for b in fresh_detection.bugs
    ]
    assert len(trace.events) == len(fresh_trace.events)
    for ours, theirs in zip(trace.events, fresh_trace.events):
        assert ours == theirs
    assert _machine_state(interp.machine) == _machine_state(fresh_interp.machine)


def test_pooled_materialize_zeroes_stale_suffix():
    """A re-record after a run that wrote far above this run's
    high-water marks starts from zeroed memory: every recording builds
    its own machine."""
    module = build_two_phase_module()
    engine, _, _, first = _record(module)
    machine = first.machine
    # push every high-water mark well past anything the run wrote, then
    # poison the durable view too
    for region in (machine.space.vol, machine.space.stack, machine.space.pm):
        region.write_bytes(region.base + (1 << 20), b"\xab" * 4096)
    machine.image.restore(b"\xcd" * (1 << 21))

    _, _, again = engine.record(module)
    assert again.machine is not machine
    assert again.machine.space is not machine.space
    _, _, fresh = pmemcheck_run(module, drive)
    assert _machine_state(again.machine) == _machine_state(fresh.machine)


def test_rebooted_machine_pools_clean_and_snapshots_its_pm():
    """Regression: a reboot used to load the crash image straight into
    the PM buffer without raising the region's high-water mark, so the
    rebooted machine's own crash image captured none of its PM."""
    old = Machine()
    addr = old.space.alloc_pm(64, align=64)
    old.space.write_int(addr, 8, 0xDEADBEEF)
    old.image.write_back_line(addr)
    crash_image = old.image.crash()
    rebooted = Machine.reboot(old, crash_image)
    assert rebooted.space.read_int(addr, 8) == 0xDEADBEEF
    assert rebooted.image.durable_bytes(addr, 8) == (0xDEADBEEF).to_bytes(8, "little")
    assert rebooted.space.pm.high_water >= len(crash_image)
    assert rebooted.image.snapshot_durable() == crash_image
    assert rebooted.image.crash() == crash_image
    assert rebooted.image.line_divergence() == []

    # a machine built afterwards shares nothing with either
    clean = Machine()
    assert clean.space.read_int(addr, 8) == 0
    assert clean.space.pm.read_bytes(clean.space.pm.base, 4096) == bytes(4096)
    assert clean.image.durable_bytes(addr, 8) == bytes(8)
    assert clean.image.crash() == b""


def test_double_replay_from_one_snapshot_on_pooled_regions():
    """A degraded witness — a fix whose insertions could not be
    described — goes straight to a full re-record with its reason, to
    the oracle's verdict; that re-record is the baseline the next
    revalidation of the unchanged module returns."""
    module = build_two_phase_module()
    engine, detection, trace, interp = _record(module)
    assert detection.bug_count >= 1

    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    engine.note_commit(structural=False, insertions=None)
    first = fixer.revalidate()
    assert first.mode == "full"
    assert first.fallback_reason == "fix committed without an insertion witness"
    oracle, _, _ = pmemcheck_run(module, drive, engine="reference")
    assert _bug_records(first.detection) == _bug_records(oracle)

    # the re-record is the new baseline: revalidating the unchanged
    # module returns it as it stands
    second = fixer.revalidate()
    assert second.mode == "baseline"
    assert second.detection is first.detection
    assert second.trace is first.trace


# ---------------------------------------------------------------------------
# recording accounting
# ---------------------------------------------------------------------------


def test_snapshot_bytes_gauge_matches_byte_size():
    """A recording captures no machine state and no checker state: it
    reports no ``revalidate.snapshot_bytes`` gauge, and a synthesized
    revalidation counts one ``synth_hits`` and nothing of the deleted
    partial re-check."""
    module = build_two_phase_module()
    obs = Observability()
    engine, _, trace, interp = _record(module, obs)
    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    assert fixer.revalidate().mode == "synthesized"

    metrics = obs.metrics_snapshot()
    assert "revalidate.snapshot_bytes" not in metrics.get("gauges", {})
    counters = metrics["counters"]
    assert counters["revalidate.synth_hits"] == 1
    assert "revalidate.incremental_hits" not in counters
    assert "revalidate.chains_rechecked" not in counters
