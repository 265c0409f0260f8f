"""Differential property tests: the two-set cache model and the
fresh-entry durability checker against their per-store references.

``reference_durability`` holds the implementations they replaced.  Random
PM event streams (single- and multi-line stores, non-temporal stores,
clwb/clflushopt/clflush including redundant flushes, fences, pmemcheck
boundaries and PMTest range assertions) drive both sides, and a checker
state is forked at a random event with both the original and the fork
fed on afterwards.  Every observable must agree: the finalized reports
(id, kind, occurrences, boundary, flush), the flush statuses, the number
of lines each fence completes, the durable bytes, the counters and the
pending lines.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from reference_durability import (
    ReferenceCacheModel,
    ReferenceDurabilityChecker,
    _pmtest_policy as reference_pmtest_policy,
)
from repro.detect.durability import DurabilityChecker, _pmtest_policy
from repro.ir.debuginfo import DebugLoc
from repro.memory import AddressSpace, CacheModel, PersistentImage, line_of
from repro.trace.events import (
    BoundaryEvent,
    FenceEvent,
    FlushEvent,
    StackFrame,
    StoreEvent,
)

N_LINES = 4
LOC = DebugLoc("prop.c", 1)
#: caller paths: the same store iid reached through different call sites
#: is a distinct report
CALLERS = (
    (),
    (StackFrame("caller_a", 900, LOC),),
    (StackFrame("caller_b", 901, LOC),),
)

store_op = st.tuples(
    st.just("store"),
    st.integers(0, 64 * N_LINES - 1),  # offset into the PM range
    st.sampled_from([1, 8, 8, 16, 70, 130]),  # multi-line sizes too
    st.booleans(),  # nontemporal
    st.integers(1, 3),  # store iid
    st.integers(0, len(CALLERS) - 1),
    st.integers(0, 255),  # byte value
)
flush_op = st.tuples(
    st.just("flush"),
    st.integers(0, 64 * N_LINES - 1),
    st.sampled_from(["clwb", "clflushopt", "clflush"]),
    st.integers(10, 11),  # flush iid
)
fence_op = st.tuples(st.just("fence"))
boundary_op = st.tuples(st.just("boundary"))
pmtest_op = st.tuples(
    st.just("pmtest"), st.integers(0, 64 * N_LINES - 1), st.integers(1, 96)
)
ops = st.lists(
    st.one_of(
        store_op, store_op, flush_op, flush_op, fence_op, boundary_op, pmtest_op
    ),
    max_size=40,
)


class Machines:
    """The new and the reference cache model over identical spaces."""

    def __init__(self) -> None:
        self.new = self._build(CacheModel)
        self.ref = self._build(ReferenceCacheModel)
        self.base = self.new.space.alloc_pm(64 * N_LINES, align=64)
        assert self.ref.space.alloc_pm(64 * N_LINES, align=64) == self.base

    @staticmethod
    def _build(model):
        space = AddressSpace()
        return model(space, PersistentImage(space))

    def compare(self) -> None:
        new, ref = self.new, self.ref
        assert new.pending_lines() == ref.pending_lines()
        assert (new.flush_count, new.clean_flush_count, new.fence_count) == (
            ref.flush_count,
            ref.clean_flush_count,
            ref.fence_count,
        )
        size = 64 * N_LINES + 64
        durable = new.image.durable_bytes(self.base, size)
        assert durable == ref.image.durable_bytes(self.base, size)
        assert new.image.writebacks == ref.image.writebacks


def build_events(program, machines: Machines, first_seq: int = 1):
    """Turn generated ops into trace events, driving both cache models
    (and comparing them) along the way."""
    events = []
    seq = first_seq
    for op in program:
        kind = op[0]
        if kind == "store":
            _, offset, size, nontemporal, iid, caller, value = op
            addr = machines.base + offset
            stack = CALLERS[caller] + (StackFrame("fn", iid, LOC),)
            for model in (machines.new, machines.ref):
                model.space.write_bytes(addr, bytes([value]) * size)
            if nontemporal:
                machines.new.on_nt_store(addr, size)
                machines.ref.on_nt_store(addr, size, seq)
            else:
                machines.new.on_store(addr, size)
                machines.ref.on_store(addr, size, seq)
            event = StoreEvent(
                seq, iid, LOC, "fn", stack,
                addr=addr, size=size, nontemporal=nontemporal,
            )
        elif kind == "flush":
            _, offset, flush_kind, iid = op
            addr = machines.base + offset
            status = machines.new.on_flush(addr, flush_kind)
            assert status == machines.ref.on_flush(addr, flush_kind)
            event = FlushEvent(
                seq, iid, LOC, "fn", (StackFrame("fn", iid, LOC),),
                addr=addr, line_addr=line_of(addr), flush_kind=flush_kind,
                had_work=status != "redundant",
            )
        elif kind == "fence":
            completed = machines.new.on_fence("sfence")
            assert len(completed) == len(machines.ref.on_fence("sfence"))
            event = FenceEvent(seq, 20, LOC, "fn", (StackFrame("fn", 20, LOC),))
        elif kind == "boundary":
            event = BoundaryEvent(seq, 30, LOC, "fn", (), label="checkpoint")
        else:
            _, offset, size = op
            label = f"pmtest:{machines.base + offset:x}:{size}"
            event = BoundaryEvent(seq, 31, LOC, "fn", (), label=label)
        machines.compare()
        events.append(event)
        seq += 1
    return events


def records(result):
    bugs = [
        (
            bug.report_id,
            bug.kind,
            bug.occurrences,
            bug.store.seq,
            bug.boundary.seq,
            bug.flush.seq if bug.flush is not None else None,
        )
        for bug in result.bugs
    ]
    perf = [(note.flush.seq, note.occurrences) for note in result.perf]
    return bugs, perf


CHECKER_PAIRS = (
    (DurabilityChecker(), ReferenceDurabilityChecker()),
    (
        DurabilityChecker(_pmtest_policy),
        ReferenceDurabilityChecker(reference_pmtest_policy),
    ),
)


@settings(max_examples=300, deadline=None)
@given(program=ops)
def test_cache_model_matches_reference(program):
    machines = Machines()
    build_events(program, machines)
    machines.compare()


@settings(max_examples=300, deadline=None)
@given(prefix=ops, tail=ops, trailing_exit=st.booleans())
def test_checker_matches_reference_across_a_fork(prefix, tail, trailing_exit):
    machines = Machines()
    head = build_events(prefix, machines)
    rest = build_events(tail, machines, first_seq=len(head) + 1)
    if trailing_exit:
        exit_seq = len(head) + len(rest) + 1
        rest.append(BoundaryEvent(exit_seq, 32, LOC, "fn", (), label="exit"))
    for new, ref in CHECKER_PAIRS:
        new_state, ref_state = new.new_state(), ref.new_state()
        for event in head + rest:
            new.feed(new_state, event)
            ref.feed(ref_state, event)
        assert records(new.finalize(new_state)) == records(ref.finalize(ref_state))
        assert set(new_state.dirty) | set(new_state.flushing) == {
            line for line, stores in ref_state.dirty.items() if stores
        } | {line for line, pairs in ref_state.flushing.items() if pairs}
