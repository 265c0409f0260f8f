"""Unit tests for mini-PMDK (libpmem + objpool)."""

import pytest

from repro.apps.pmdk_mini import build_pmdk_module
from repro.apps.pmdk_mini.objpool import (
    OFF_HEAP_TOP,
    OFF_LAYOUT,
    OFF_MAGIC,
    POOL_MAGIC,
)
from repro.detect import check_trace
from repro.interp import Interpreter
from repro.ir import I64, PTR, verify_module


def fresh(seeds=()):
    mb = build_pmdk_module(seeds=seeds)
    b = mb.function("get_root", [], PTR)
    b.ret(b.call("pm_root", [128], PTR))
    verify_module(mb.module)
    interp = Interpreter(mb.module)
    return mb.module, interp


def create_pool(interp, arena=1 << 16):
    layout = interp.machine.space.alloc_vol(16)
    interp.machine.space.write_bytes(layout, b"testlayout123456")
    interp.call("pool_create", [arena, layout, 16])
    return interp.call("get_root", []).value


class TestLibpmem:
    def test_pmem_persist_makes_range_durable(self):
        module, interp = fresh()
        root = create_pool(interp)
        addr = interp.call("pmalloc", [128]).value
        interp.machine.space.write_bytes(addr, b"A" * 100)
        # write via host; simulate the stores through the cache model
        interp.machine.cache.on_store(addr, 100)
        interp.call("pmem_persist", [addr, 100])
        assert interp.machine.image.is_line_durable(addr)
        assert interp.machine.image.is_line_durable(addr + 64)

    def test_pmem_flush_covers_straddling_range(self):
        module, interp = fresh()
        create_pool(interp)
        addr = interp.call("pmalloc", [192]).value
        interp.machine.cache.on_store(addr + 60, 8)  # straddles
        interp.call("pmem_flush", [addr + 60, 8])
        interp.call("pmem_drain", [])
        assert not interp.machine.cache.pending_lines()

    def test_pmem_memcpy_persist(self):
        module, interp = fresh()
        create_pool(interp)
        dst = interp.call("pmalloc", [64]).value
        src = interp.machine.space.alloc_vol(32)
        interp.machine.space.write_bytes(src, b"0123456789abcdef" * 2)
        interp.call("pmem_memcpy_persist", [dst, src, 32])
        assert interp.machine.space.read_bytes(dst, 32) == b"0123456789abcdef" * 2
        assert not interp.machine.cache.pending_lines()

    def test_pmem_memset_persist(self):
        module, interp = fresh()
        create_pool(interp)
        dst = interp.call("pmalloc", [64]).value
        interp.call("pmem_memset_persist", [dst, 0x5A, 48])
        assert interp.machine.space.read_bytes(dst, 48) == b"\x5A" * 48
        assert not interp.machine.cache.pending_lines()


class TestObjpool:
    def test_pool_create_writes_header(self):
        module, interp = fresh()
        root = create_pool(interp)
        space = interp.machine.space
        assert space.read_int(root + OFF_MAGIC, 8) == POOL_MAGIC
        assert space.read_bytes(root + OFF_LAYOUT, 10) == b"testlayout"

    def test_pmalloc_bump_and_alignment(self):
        module, interp = fresh()
        root = create_pool(interp)
        a = interp.call("pmalloc", [100]).value
        b = interp.call("pmalloc", [10]).value
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 100
        assert interp.machine.space.is_pm(a)
        top = interp.machine.space.read_int(root + OFF_HEAP_TOP, 8)
        assert top >= 100 + 10

    def test_clean_library_has_no_bugs(self):
        module, interp = fresh()
        create_pool(interp)
        obj = interp.call("pmalloc", [64]).value
        src = interp.machine.space.alloc_vol(64)
        interp.call("obj_alloc_construct", [src, 64])
        interp.call("redo_log_append", [src, 32])
        oid = interp.call("pmalloc", [16]).value
        interp.call("set_oid_persist", [oid, 1, 2])
        trace = interp.finish()
        assert check_trace(trace).bug_count == 0

    @pytest.mark.parametrize("seed", ["447", "452", "458", "459", "460", "461"])
    def test_each_seed_introduces_bugs(self, seed):
        module, interp = fresh(seeds=(seed,))
        create_pool(interp)
        src = interp.machine.space.alloc_vol(64)
        interp.call("pmalloc", [64])
        interp.call("obj_alloc_construct", [src, 64])
        interp.call("redo_log_append", [src, 32])
        oid = interp.call("pmalloc", [16]).value
        interp.call("set_oid_persist", [oid, 1, 2])
        trace = interp.finish()
        assert check_trace(trace).bug_count >= 1

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError):
            build_pmdk_module(seeds=("9999",))

    def test_helpers_store_without_persisting(self):
        """set_flag/checksum_update/oid_write leave persistence to the
        caller (that is the point of the 940/943/460 bug classes)."""
        module, interp = fresh()
        create_pool(interp)
        obj = interp.call("pmalloc", [64]).value
        interp.call("set_flag", [obj, 5])
        interp.call("checksum_update", [obj, 77])
        assert interp.machine.space.read_int(obj, 8) == 5
        assert interp.machine.space.read_int(obj + 8, 8) == 77
        assert interp.machine.cache.pending_lines()  # nothing flushed
