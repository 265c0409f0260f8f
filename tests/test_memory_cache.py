"""Unit tests for the CPU cache durability model."""

import pytest

from repro.memory import AddressSpace, CacheModel, PersistentImage


@pytest.fixture
def machine_parts():
    space = AddressSpace()
    image = PersistentImage(space)
    cache = CacheModel(space, image)
    addr = space.alloc_pm(256, align=64)
    return space, image, cache, addr


class TestStoreFlushFenceLifecycle:
    def test_store_dirties_line(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr, 8)
        assert cache.pending_lines() == [addr]
        assert list(cache.dirty) == [addr]
        assert not cache.queued

    def test_clwb_queues_until_fence(self, machine_parts):
        space, image, cache, addr = machine_parts
        space.write_int(addr, 8, 42)
        cache.on_store(addr, 8)
        status = cache.on_flush(addr, "clwb")
        assert status == "writeback"
        # still not durable: weakly ordered
        assert image.durable_bytes(addr, 8) != space.read_bytes(addr, 8)
        assert not cache.dirty
        assert list(cache.queued) == [addr]
        assert cache.pending_lines() == [addr]
        completed = cache.on_fence("sfence")
        assert completed == [addr]
        assert image.durable_bytes(addr, 8) == space.read_bytes(addr, 8)
        assert not cache.pending_lines()

    def test_clflush_is_immediately_durable(self, machine_parts):
        space, image, cache, addr = machine_parts
        space.write_int(addr, 8, 7)
        cache.on_store(addr, 8)
        status = cache.on_flush(addr, "clflush")
        assert status == "writeback"
        assert image.durable_bytes(addr, 8) == space.read_bytes(addr, 8)
        assert not cache.pending_lines()

    def test_redundant_flush_of_clean_line(self, machine_parts):
        _, _, cache, addr = machine_parts
        assert cache.on_flush(addr, "clwb") == "redundant"
        assert cache.clean_flush_count == 1

    def test_coalesced_flush(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr, 8)
        assert cache.on_flush(addr, "clwb") == "writeback"
        cache.on_store(addr + 8, 8)
        # Same line, already queued: the WPQ entry absorbs it.
        assert cache.on_flush(addr, "clwb") == "coalesced"
        cache.on_fence("sfence")
        assert not cache.pending_lines()

    def test_flush_of_queued_line_without_new_store(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr, 8)
        cache.on_flush(addr, "clwb")
        assert cache.on_flush(addr, "clwb") == "coalesced"

    def test_store_spanning_lines(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr + 60, 8)
        assert cache.pending_lines() == [addr, addr + 64]

    def test_fence_with_nothing_queued(self, machine_parts):
        _, _, cache, _ = machine_parts
        assert cache.on_fence("sfence") == []

    def test_dirty_not_drained_by_fence(self, machine_parts):
        """A fence only completes *flushed* lines; dirty-but-unflushed
        lines stay pending — that is the missing-flush bug."""
        _, image, cache, addr = machine_parts
        cache.on_store(addr, 8)
        cache.on_fence("sfence")
        assert cache.pending_lines() == [addr]
        assert list(cache.dirty) == [addr]

    def test_clflush_completes_queued_stores_too(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr, 8)
        cache.on_flush(addr, "clwb")  # queued
        cache.on_store(addr, 8)
        cache.on_flush(addr, "clflush")
        assert not cache.pending_lines()

    @pytest.mark.parametrize("queue", ["clwb", "clflushopt", "nt"])
    def test_clflush_completes_a_queued_clean_line(self, machine_parts, queue):
        """A clflush of a line that is clean but still queued (by a
        weakly ordered flush or a non-temporal store) completes the
        queued write-back; it stays priced as coalesced."""
        space, image, cache, addr = machine_parts
        space.write_int(addr, 8, 42)
        if queue == "nt":
            cache.on_nt_store(addr, 8)
        else:
            cache.on_store(addr, 8)
            cache.on_flush(addr, queue)
        assert cache.on_flush(addr, "clflush") == "coalesced"
        assert not cache.pending_lines()
        assert image.durable_bytes(addr, 8) == space.read_bytes(addr, 8)
        assert cache.on_fence("sfence") == []


class TestStatistics:
    def test_counts(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr, 8)
        cache.on_flush(addr, "clwb")
        cache.on_flush(addr, "clwb")
        cache.on_fence("sfence")
        assert cache.flush_count == 2
        assert cache.fence_count == 1

    def test_pending_store_seqs_union(self, machine_parts):
        _, _, cache, addr = machine_parts
        cache.on_store(addr, 8)
        cache.on_flush(addr, "clwb")
        cache.on_store(addr + 64, 8)
        # one line queued, the other dirty: pending is their union
        assert list(cache.queued) == [addr]
        assert list(cache.dirty) == [addr + 64]
        assert cache.pending_lines() == [addr, addr + 64]
