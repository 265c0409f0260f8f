"""Unit tests for crash-state enumeration."""

from repro.memory import (
    AddressSpace,
    CacheModel,
    CrashExplorer,
    PersistentImage,
    line_of,
)


def build(n_pending_lines: int):
    space = AddressSpace()
    image = PersistentImage(space)
    cache = CacheModel(space, image)
    base = space.alloc_pm(64 * max(1, n_pending_lines), align=64)
    for i in range(n_pending_lines):
        addr = base + 64 * i
        space.write_int(addr, 8, i + 1)
        cache.on_store(addr, 8)
    return space, image, cache, base


def test_exhaustive_state_count():
    _, image, cache, _ = build(3)
    explorer = CrashExplorer(cache, image)
    states = list(explorer.states())
    assert len(states) == 2 ** 3

    # first state is the adversarial all-lost one
    assert states[0].surviving_lines == ()


def test_states_read_values():
    space, image, cache, base = build(2)
    explorer = CrashExplorer(cache, image)
    full = [s for s in explorer.states() if len(s.surviving_lines) == 2][0]
    assert full.read_int(base, 8) == 1
    assert full.read_int(base + 64, 8) == 2
    empty = [s for s in explorer.states() if not s.surviving_lines][0]
    assert empty.read_int(base, 8) == 0


def test_find_violation_detects_inconsistency():
    space, image, cache, base = build(2)
    explorer = CrashExplorer(cache, image)
    # Consistency predicate: both fields persist together or not at all.
    def consistent(state):
        a, b = state.read_int(base, 8), state.read_int(base + 64, 8)
        return (a == 0) == (b == 0)

    violation = explorer.find_violation(consistent)
    assert violation is not None
    assert len(violation.surviving_lines) == 1


def test_all_consistent_after_writeback():
    space, image, cache, base = build(2)
    cache.on_flush(base, "clwb")
    cache.on_flush(base + 64, "clwb")
    cache.on_fence("sfence")
    explorer = CrashExplorer(cache, image)
    assert explorer.pending_lines() == []
    assert explorer.all_consistent(
        lambda s: s.read_int(base, 8) == 1 and s.read_int(base + 64, 8) == 2
    )


def test_sampling_for_large_pending_sets():
    _, image, cache, _ = build(CrashExplorer.EXHAUSTIVE_LIMIT + 4)
    explorer = CrashExplorer(cache, image, seed=1)
    states = list(explorer.states(max_states=32))
    assert len(states) == 32
    # extremes always included
    assert states[0].surviving_lines == ()
    assert len(states[1].surviving_lines) == CrashExplorer.EXHAUSTIVE_LIMIT + 4


def test_max_states_caps_exhaustive():
    _, image, cache, _ = build(4)
    explorer = CrashExplorer(cache, image)
    assert len(list(explorer.states(max_states=5))) == 5
