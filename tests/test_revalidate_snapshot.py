"""Fork isolation and fresh machines: what revalidation resumes from must
never change under it.

A synthesis re-check resumes from a :class:`CheckerState` fork memoized
at a top-level call boundary of the recording.  Every store, flush and
fence the re-check feeds mutates the state's ``dirty`` and ``flushing``
line maps **in place**; if a fork shared them with the memoized state,
the first re-check would drain it and a second re-check from the same
boundary would see already-fenced lines — silently changing detection
results.  These are the regression tests for the fork-on-use contract
(see ``CheckerState.fork`` in ``src/repro/detect/durability.py``).

A full re-record — the fallback for a degraded witness — must start
from a machine no earlier run has touched, and equal a plain detection
run byte for byte.
"""

from __future__ import annotations

from repro.core.hippocrates import Hippocrates
from repro.detect import pmemcheck_run
from repro.detect.durability import DurabilityChecker
from repro.interp import Machine
from repro.ir import I64, ModuleBuilder, PTR
from repro.obs import Observability
from repro.revalidate import MAX_FORKS, IncrementalRevalidator


def build_two_phase_module():
    """Two top-level entry points: ``setup`` leaves PM state pending
    (dirty lines at the call boundary), ``finish`` stores unpersisted.
    The checker fork at the boundary carries non-empty line maps —
    exactly the state the aliasing hazard corrupts."""
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


def _boundary_fork(engine):
    """The checker state forked between ``setup`` and ``finish``."""
    base = engine.baseline
    segment = base.segments[1]
    assert segment.trace_start > 0
    return base, segment, base.forks[segment.index]


def _feed_rest(base, segment, state):
    checker = DurabilityChecker()
    for event in base.trace.events[segment.trace_start :]:
        checker.feed(state, event)
    return checker.finalize(state)


def _bug_records(detection):
    # describe() embeds iids: sound here, every side runs one module
    return [b.describe() for b in detection.bugs]


def test_snapshot_lines_survive_mutation_of_materialized_machine():
    module = build_two_phase_module()
    engine, detection, _, _ = _record(module)
    base, segment, memoized = _boundary_fork(engine)
    # the recording left a dirty and a flushing line at the boundary
    assert memoized.dirty and memoized.flushing
    before = (dict(memoized.dirty), dict(memoized.flushing))

    # finish's flush and fence drain both maps of the fork fed with it
    first = memoized.fork()
    assert _bug_records(_feed_rest(base, segment, first)) == _bug_records(detection)
    assert not first.dirty.keys() & before[0].keys()
    assert not first.flushing
    assert (memoized.dirty, memoized.flushing) == before

    second = memoized.fork()
    assert (second.dirty, second.flushing) == before


def test_materialized_machines_share_no_mutable_state():
    module = build_two_phase_module()
    engine, _, _, _ = _record(module)
    base, segment, memoized = _boundary_fork(engine)
    a = memoized.fork()
    b = memoized.fork()
    assert a.dirty == b.dirty and a.dirty
    assert a.dirty is not b.dirty
    assert a.flushing is not b.flushing
    # the pending-store lists are independent copies too
    for line, pairs in a.fresh_dirty.items():
        assert pairs is not b.fresh_dirty[line]
    a.dirty.clear()
    a.fresh_dirty.clear()
    assert b.dirty and b.fresh_dirty
    # feeding one fork to the end reports bugs the other never sees
    _feed_rest(base, segment, a)
    assert a.reports and not b.reports


def test_second_replay_from_same_snapshot_is_unaffected_by_first():
    """Two consecutive synthesis re-checks resume from the same
    memoized fork; if the first drained its line maps, the second would
    diverge."""
    module = build_two_phase_module()
    engine, detection, trace, interp = _record(module)
    assert detection.bug_count >= 1

    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())

    first = fixer.revalidate()
    assert first.mode == "synthesized"
    assert first.replayed_from == 1  # resumed at the setup/finish boundary
    second = fixer.revalidate()
    assert second.mode == "synthesized"
    assert second.replayed_from == first.replayed_from
    assert _bug_records(second.detection) == _bug_records(first.detection)
    assert len(second.trace.events) == len(first.trace.events)
    for ours, theirs in zip(second.trace.events, first.trace.events):
        assert ours == theirs
    oracle, _, _ = pmemcheck_run(module, drive, engine="reference")
    assert _bug_records(second.detection) == _bug_records(oracle)


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
# fork accounting
# ---------------------------------------------------------------------------


def test_snapshot_bytes_gauge_matches_byte_size():
    """A recording captures no machine state, so it reports no
    ``revalidate.snapshot_bytes`` gauge; it keeps one checker fork per
    segment entry (two segments, far under ``MAX_FORKS``), each equal
    to the state a checker fed the trace up to that entry holds."""
    module = build_two_phase_module()
    obs = Observability()
    engine, _, trace, _ = _record(module, obs)

    metrics = obs.metrics_snapshot()
    assert "revalidate.snapshot_bytes" not in metrics.get("gauges", {})
    base = engine.baseline
    assert len(base.segments) == 2 < MAX_FORKS
    assert sorted(base.forks) == [0, 1]
    for segment in base.segments:
        checker = DurabilityChecker()
        state = checker.new_state()
        for event in trace.events[: segment.trace_start]:
            checker.feed(state, event)
        fork = base.forks[segment.index]
        assert (fork.dirty, fork.flushing, fork.stamp, fork.last_fence) == (
            state.dirty, state.flushing, state.stamp, state.last_fence
        )
