"""Property-based tests of the PM durability state machine.

Invariants checked over random store/flush/fence sequences:

1. The cache view always reads the latest store (loads never observe
   stale data, regardless of flush state).
2. The durable view changes only through write-backs; an adversarial
   crash equals the durable view exactly.
3. After flush+fence of every touched line, the two views agree.
4. The detector's pending-store accounting matches the cache model's.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.memory import AddressSpace, CacheModel, PersistentImage, line_of

N_SLOTS = 4

op = st.tuples(
    st.sampled_from(["store", "clwb", "clflush", "fence"]),
    st.integers(min_value=0, max_value=N_SLOTS - 1),
    st.integers(min_value=1, max_value=(1 << 64) - 1),
)


def replay(ops):
    space = AddressSpace()
    image = PersistentImage(space)
    cache = CacheModel(space, image)
    base = space.alloc_pm(64 * N_SLOTS, align=64)
    slots = [base + 64 * i for i in range(N_SLOTS)]
    latest = {}
    for kind, index, value in ops:
        addr = slots[index]
        if kind == "store":
            space.write_int(addr, 8, value)
            cache.on_store(addr, 8)
            latest[addr] = value & ((1 << 64) - 1)
        elif kind in ("clwb", "clflush"):
            cache.on_flush(addr, kind)
        else:
            cache.on_fence("sfence")
    return space, image, cache, slots, latest


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_cache_view_reads_latest_store(ops):
    space, image, cache, slots, latest = replay(ops)
    for addr, value in latest.items():
        assert space.read_int(addr, 8) == value


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_adversarial_crash_equals_durable_view(ops):
    space, image, cache, slots, latest = replay(ops)
    assert image.crash() == image.snapshot_durable()


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_flush_fence_everything_syncs_views(ops):
    space, image, cache, slots, latest = replay(ops)
    for addr in slots:
        cache.on_flush(addr, "clwb")
    cache.on_fence("sfence")
    assert image.line_divergence() == []
    for addr, value in latest.items():
        assert int.from_bytes(image.durable_bytes(addr, 8), "little") == value


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_pending_iff_diverged(ops):
    """A line is pending in the cache model iff its views diverge...
    except lines written back by eviction-free luck (none here) — so
    pending ⊇ diverged always holds, and after draining, both empty."""
    space, image, cache, slots, latest = replay(ops)
    diverged = set(image.line_divergence())
    pending = set(cache.pending_lines())
    assert diverged <= pending


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, max_size=24))
def test_crash_state_count_bounded(ops):
    from repro.memory import CrashExplorer

    space, image, cache, slots, latest = replay(ops)
    explorer = CrashExplorer(cache, image)
    pending = explorer.pending_lines()
    states = list(explorer.states(max_states=64))
    assert len(states) <= min(64, 2 ** len(pending))
    seen = {s.surviving_lines for s in states}
    assert () in seen
