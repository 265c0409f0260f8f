"""Snapshot isolation: replaying from a memoized snapshot must never
mutate it — and pooled machine reuse must never leak state between runs.

The latent hazard: :class:`MachineSnapshot` memoizes the machine's
cache-durability state, whose ``dirty`` and ``queued`` line sets every
store, flush and fence mutates **in place**.  If capture or
:meth:`materialize` shared those containers, the first replay's fences
would drain the snapshot's sets and a second replay from the same
snapshot would see already-fenced lines — silently changing detection
results.  These are the regression tests for the
deep-copy-both-ways contract (see ``src/repro/revalidate/snapshot.py``).

The pooled variants add a second hazard: a reused
:class:`~repro.memory.pool.MachinePool` buffer carries the *previous*
run's bytes above the new run's high-water mark.  A restore that only
copied its own prefix would leave that stale suffix in place — invisible
until some later allocation reads "zero" memory that isn't.
"""

from __future__ import annotations

import sys

from repro.core.hippocrates import Hippocrates
from repro.detect import check_trace, pmemcheck_run
from repro.interp import Machine, make_interpreter
from repro.ir import I64, ModuleBuilder, PTR
from repro.memory.pool import MachinePool
from repro.obs import Observability
from repro.revalidate import IncrementalRevalidator
from repro.revalidate.snapshot import MachineSnapshot


def build_two_phase_module():
    """Two top-level entry points: ``setup`` leaves PM state pending
    (dirty lines at the call boundary), ``finish`` stores unpersisted.
    The snapshot between the calls carries non-empty cache-line sets —
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


def _record(module):
    engine = IncrementalRevalidator(drive)
    detection, trace, interp = engine.record(module)
    return engine, detection, trace, interp


def _boundary_snapshot(engine):
    """The snapshot captured between ``setup`` and ``finish``."""
    base = engine.baseline
    segment = base.segments[1]
    assert segment.fn_name == "finish"
    assert segment.snapshot is not None
    return segment.snapshot


def test_snapshot_lines_survive_mutation_of_materialized_machine():
    module = build_two_phase_module()
    engine, _, _, _ = _record(module)
    snapshot = _boundary_snapshot(engine)
    # the recording left a dirty and a queued line at the boundary
    assert snapshot.dirty and snapshot.queued
    before = (snapshot.dirty, snapshot.queued)

    first = snapshot.materialize()
    # simulate what replayed flushes and fences do: drain both sets
    for line_addr in list(first.cache.dirty):
        first.cache.on_flush(line_addr, "clwb")
    first.cache.on_fence("sfence")
    assert not first.cache.pending_lines()
    assert (snapshot.dirty, snapshot.queued) == before

    second = snapshot.materialize()
    assert tuple(second.cache.dirty) == snapshot.dirty
    assert tuple(second.cache.queued) == snapshot.queued


def test_materialized_machines_share_no_mutable_state():
    module = build_two_phase_module()
    engine, _, _, _ = _record(module)
    snapshot = _boundary_snapshot(engine)
    a = snapshot.materialize()
    b = snapshot.materialize()
    assert a.cache.dirty == b.cache.dirty and a.cache.dirty
    assert a.cache.dirty is not b.cache.dirty
    assert a.cache.queued is not b.cache.queued
    # region bytes and the durable image are independent copies too
    a.space.pm.data[0] ^= 0xFF
    assert a.space.pm.data[0] != b.space.pm.data[0]
    a.image._durable[0] ^= 0xFF
    assert a.image._durable[0] != b.image._durable[0]
    # and the allocation registry is not shared
    a.allocations.append(None)
    assert len(b.allocations) == len(a.allocations) - 1


def test_second_replay_from_same_snapshot_is_unaffected_by_first():
    """Two consecutive replay-tier revalidations resume from the same
    memoized snapshot; if the first drained its cache-line sets, the
    second would diverge."""
    module = build_two_phase_module()
    engine, detection, trace, interp = _record(module)
    assert detection.bug_count >= 1

    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    # drop the insertion specs so revalidation must replay the
    # interpreter from the boundary snapshot (the "incremental" tier)
    engine.note_commit(set(), structural=False, insertions=None)

    first = fixer.revalidate()
    assert first.mode == "incremental"
    assert first.replayed_from == 1  # resumed at the setup/finish boundary
    second = fixer.revalidate()
    assert second.mode == "incremental"
    assert second.replayed_from == first.replayed_from
    assert [b.as_record() for b in second.detection.bugs] == [
        b.as_record() for b in first.detection.bugs
    ]
    assert len(second.trace.events) == len(first.trace.events)
    for ours, theirs in zip(second.trace.events, first.trace.events):
        assert ours == theirs


# ---------------------------------------------------------------------------
# pooled machine reuse
# ---------------------------------------------------------------------------


def _region_state(region):
    return (bytes(region.data), region.brk, region.high_water)


def _machine_state(machine):
    """Every byte a pooled-reuse bug could corrupt: full region buffers
    (not just live prefixes), allocator watermarks, the durable view."""
    space = machine.space
    return (
        _region_state(space.vol),
        _region_state(space.stack),
        _region_state(space.pm),
        machine.image.snapshot_durable(),
    )


def _pooled_run(module, pool):
    """A detection run on a machine acquired from ``pool``."""
    space, image = pool.acquire()
    interp = make_interpreter(module, machine=Machine(space=space, image=image))
    drive(interp)
    trace = interp.finish()
    return check_trace(trace), trace, interp


def test_pooled_detect_run_byte_identical_to_fresh():
    """A detection run on *reused* pooled buffers must produce the same
    trace, detection, and final machine bytes as a fresh-buffer run."""
    module = build_two_phase_module()
    fresh_detection, fresh_trace, fresh_interp = pmemcheck_run(module, drive)

    pool = MachinePool()
    _, _, cold = _pooled_run(module, pool)  # miss: fresh pair
    pool.release(cold.machine)
    warm_detection, warm_trace, warm = _pooled_run(module, pool)
    assert pool.hits >= 1  # the warm run actually reused buffers

    assert [b.describe() for b in warm_detection.bugs] == [
        b.describe() for b in fresh_detection.bugs
    ]
    assert len(warm_trace.events) == len(fresh_trace.events)
    for ours, theirs in zip(warm_trace.events, fresh_trace.events):
        assert ours == theirs
    assert _machine_state(warm.machine) == _machine_state(fresh_interp.machine)


def test_pooled_materialize_zeroes_stale_suffix():
    """Regression: materializing a snapshot into a pooled pair whose
    previous run wrote *above* this snapshot's high-water marks must
    zero the gap — prefix-only restores leave the stale suffix live."""
    module = build_two_phase_module()
    engine, _, _, interp = _record(module)
    snapshot = _boundary_snapshot(engine)

    pool = MachinePool()
    _, _, dirty_interp = _pooled_run(module, pool)
    machine = dirty_interp.machine
    # push every high-water mark well past anything the boundary
    # snapshot recorded, then poison the durable view too
    for region in (machine.space.vol, machine.space.stack, machine.space.pm):
        region.write_bytes(region.base + (1 << 20), b"\xab" * 4096)
    machine.image.restore(b"\xcd" * (1 << 21))
    pool.release(machine)

    pooled = snapshot.materialize(pool)
    assert pool.hits >= 1  # the dirty pair really was reused
    fresh = snapshot.materialize()
    assert _machine_state(pooled) == _machine_state(fresh)


def test_rebooted_machine_pools_clean_and_snapshots_its_pm():
    """Regression: a reboot used to load the crash image straight into
    the PM buffer without raising the region's high-water mark, so a
    pooled ``acquire`` handed the old bytes back out as "clean" and a
    snapshot of the rebooted machine captured none of its PM."""
    old = Machine()
    addr = old.space.alloc_pm(64, align=64)
    old.space.write_int(addr, 8, 0xDEADBEEF)
    old.image.write_back_line(addr)
    crash_image = old.image.crash()
    rebooted = Machine.reboot(old, crash_image)
    assert rebooted.space.read_int(addr, 8) == 0xDEADBEEF

    # capture/restore round-trips the rebooted image
    interp = make_interpreter(build_two_phase_module(), machine=rebooted)
    restored = MachineSnapshot.capture(interp).materialize()
    assert restored.space.read_int(addr, 8) == 0xDEADBEEF
    assert restored.image.durable_bytes(addr, 8) == (0xDEADBEEF).to_bytes(8, "little")
    assert restored.image.crash() == crash_image

    pool = MachinePool()
    pool.release(rebooted)
    space, image = pool.acquire()
    assert pool.hits == 1
    assert space.read_int(addr, 8) == 0
    assert space.pm.read_bytes(space.pm.base, 4096) == bytes(4096)
    assert image.durable_bytes(addr, 8) == bytes(8)
    assert image.line_divergence() == []


def test_double_replay_from_one_snapshot_on_pooled_regions():
    """The replay tier releases its machine back into the pool, so a
    second replay resumes onto the first replay's retired buffers —
    shrinking high-water marks between uses.  Verdicts must match."""
    module = build_two_phase_module()
    pool = MachinePool()
    engine = IncrementalRevalidator(drive, pool=pool)
    detection, trace, interp = engine.record(module)
    assert detection.bug_count >= 1

    fixer = Hippocrates(
        module, trace, interp.machine, heuristic="off", revalidator=engine
    )
    fixer.apply(fixer.compute_fixes())
    engine.note_commit(set(), structural=False, insertions=None)

    first = fixer.revalidate()
    assert first.mode == "incremental"
    second = fixer.revalidate()
    assert second.mode == "incremental"
    assert pool.hits >= 1  # second replay materialized onto pooled buffers
    assert [b.as_record() for b in second.detection.bugs] == [
        b.as_record() for b in first.detection.bugs
    ]
    assert len(second.trace.events) == len(first.trace.events)
    for ours, theirs in zip(second.trace.events, first.trace.events):
        assert ours == theirs


# ---------------------------------------------------------------------------
# snapshot accounting
# ---------------------------------------------------------------------------


def test_snapshot_bytes_gauge_matches_byte_size():
    """The ``revalidate.snapshot_bytes`` gauge must equal the summed
    ``byte_size`` of every retained snapshot, and ``byte_size`` itself
    must dominate a ``sys.getsizeof``-based floor over the payload it
    claims to count (region prefixes, durable prefix, dirty and queued
    line tuples, allocation registry)."""
    module = build_two_phase_module()
    obs = Observability()
    engine = IncrementalRevalidator(drive, obs=obs)
    engine.record(module)

    snapshots = [
        segment.snapshot
        for segment in engine.baseline.segments
        if segment.snapshot is not None
    ]
    assert snapshots
    total = sum(snap.byte_size for snap in snapshots)
    assert obs.metrics.gauge("revalidate.snapshot_bytes").value == total

    for snap in snapshots:
        floor = (
            len(snap.vol[2])
            + len(snap.stack[2])
            + len(snap.pm[2])
            + len(snap.durable)
            + sys.getsizeof(snap.dirty)
            + sys.getsizeof(snap.queued)
            + sum(sys.getsizeof(alloc) for alloc in snap.allocations)
        )
        assert snap.byte_size >= floor
