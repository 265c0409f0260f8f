"""Unit tests for the simulated address space."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import MemoryError_, SegmentationFault
from repro.memory import (
    AddressSpace,
    CACHE_LINE,
    PM_BASE,
    STACK_BASE,
    VOL_BASE,
    line_of,
    lines_covering,
)


class TestLineMath:
    def test_line_of(self):
        assert line_of(PM_BASE) == PM_BASE
        assert line_of(PM_BASE + 63) == PM_BASE
        assert line_of(PM_BASE + 64) == PM_BASE + 64

    def test_lines_covering_single(self):
        assert lines_covering(PM_BASE + 8, 8) == [PM_BASE]

    def test_lines_covering_straddle(self):
        assert lines_covering(PM_BASE + 60, 8) == [PM_BASE, PM_BASE + 64]

    def test_lines_covering_large(self):
        lines = lines_covering(PM_BASE, 3 * CACHE_LINE)
        assert lines == [PM_BASE, PM_BASE + 64, PM_BASE + 128]

    def test_lines_covering_zero(self):
        assert lines_covering(PM_BASE, 0) == []


class TestAllocation:
    def test_regions_disjoint(self):
        space = AddressSpace()
        vol = space.alloc_vol(64)
        pm = space.alloc_pm(64)
        stack = space.alloc_stack(64)
        assert VOL_BASE <= vol < STACK_BASE
        assert STACK_BASE <= stack < PM_BASE
        assert pm >= PM_BASE

    def test_overlapping_region_sizes_are_refused(self):
        """The flat engine serves stack addresses without searching the
        regions, which is exact only while no region shadows another."""
        AddressSpace(STACK_BASE - VOL_BASE, PM_BASE - STACK_BASE)  # abutting
        with pytest.raises(MemoryError_, match="overlap"):
            AddressSpace(vol_size=STACK_BASE - VOL_BASE + 1)
        with pytest.raises(MemoryError_, match="overlap"):
            AddressSpace(stack_size=PM_BASE - STACK_BASE + 1)

    def test_alignment(self):
        space = AddressSpace()
        space.alloc_pm(3)
        second = space.alloc_pm(8, align=64)
        assert second % 64 == 0

    def test_exhaustion(self):
        space = AddressSpace(pm_size=128)
        space.alloc_pm(100)
        with pytest.raises(MemoryError_):
            space.alloc_pm(100)

    def test_bad_size(self):
        space = AddressSpace()
        with pytest.raises(MemoryError_):
            space.alloc_vol(0)

    def test_stack_mark_release(self):
        space = AddressSpace()
        mark = space.stack_mark()
        first = space.alloc_stack(64)
        space.stack_release(mark)
        second = space.alloc_stack(64)
        assert first == second


class TestAccess:
    def test_int_roundtrip_little_endian(self):
        space = AddressSpace()
        addr = space.alloc_vol(16)
        space.write_int(addr, 8, 0x0102030405060708)
        assert space.read_int(addr, 8) == 0x0102030405060708
        assert space.read_int(addr, 1) == 0x08  # little endian low byte

    def test_bytes_roundtrip(self):
        space = AddressSpace()
        addr = space.alloc_pm(32)
        space.write_bytes(addr, b"hello world")
        assert space.read_bytes(addr, 11) == b"hello world"

    def test_copy(self):
        space = AddressSpace()
        src = space.alloc_vol(16)
        dst = space.alloc_pm(16)
        space.write_bytes(src, b"0123456789abcdef")
        space.copy(dst, src, 16)
        assert space.read_bytes(dst, 16) == b"0123456789abcdef"

    def test_unmapped_access(self):
        space = AddressSpace()
        with pytest.raises(SegmentationFault):
            space.read_int(0x10, 8)
        with pytest.raises(SegmentationFault):
            space.write_int(0xDEAD, 8, 1)

    def test_out_of_region_access(self):
        space = AddressSpace(pm_size=64)
        addr = space.alloc_pm(64)
        with pytest.raises(SegmentationFault):
            space.read_bytes(addr + 60, 8)  # crosses the region end

    def test_write_truncates_value(self):
        space = AddressSpace()
        addr = space.alloc_vol(8)
        space.write_int(addr, 1, 0x1FF)
        assert space.read_int(addr, 1) == 0xFF


class TestSpaceQueries:
    def test_is_pm(self):
        space = AddressSpace()
        assert space.is_pm(space.alloc_pm(8))
        assert not space.is_pm(space.alloc_vol(8))
        assert not space.is_pm(space.alloc_stack(8))

    def test_space_of(self):
        space = AddressSpace()
        assert space.space_of(space.alloc_pm(8)) == "pm"
        assert space.space_of(space.alloc_stack(8)) == "vol"

    def test_pm_bounds(self):
        space = AddressSpace(pm_size=1 << 20)
        lo, hi = space.pm_bounds()
        assert hi - lo == 1 << 20


# -- typed access against the region byte path --------------------------------
# ``read_int``/``write_int`` inline the region lookup and byte access; the
# reference below is the path they replace, built from ``region_of`` and
# ``Region.read_bytes``/``write_bytes``.  Small regions make every edge
# reachable: first/last bytes, straddled ends, gaps, the written prefix.

_SIZES = (96, 64, 128)  # vol, stack, pm
_BASES = (VOL_BASE, STACK_BASE, PM_BASE)


def _ref_read_int(space, addr, size):
    region = space.region_of(addr, size)
    return int.from_bytes(region.read_bytes(addr, size), "little")


def _ref_write_int(space, addr, size, value):
    region = space.region_of(addr, size)
    region.write_bytes(
        addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    )


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


_access_addr = st.one_of(
    # in and around each region, down to straddling either end
    st.builds(
        lambda base, offset: base + offset,
        st.sampled_from(_BASES),
        st.integers(-9, max(_SIZES) + 9),
    ),
    # unmapped gaps between and below the regions
    st.sampled_from(
        [0, VOL_BASE - 8, VOL_BASE + _SIZES[0] + 64, STACK_BASE - 1,
         STACK_BASE + _SIZES[1] + 1, PM_BASE - 4, PM_BASE + (1 << 20)]
    ),
)
_access_size = st.sampled_from([1, 2, 4, 8])
_accesses = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            _access_addr,
            _access_size,
            st.integers(-(1 << 70), 1 << 70),
        ),
        st.tuples(st.just("read"), _access_addr, _access_size),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(ops=_accesses)
# a write past the prefix opens a gap; reads there and past it are zero
@example(
    ops=[
        ("write", PM_BASE + 40, 8, -1),
        ("read", PM_BASE + 20, 8),
        ("read", PM_BASE + 44, 8),
        ("read", PM_BASE + 60, 4),
    ]
)
# last bytes of each region, then one byte over its end
@example(
    ops=[
        ("write", VOL_BASE + _SIZES[0] - 8, 8, 1 << 63),
        ("write", STACK_BASE + _SIZES[1] - 1, 1, 0x1FF),
        ("read", PM_BASE + _SIZES[2] - 2, 2),
        ("write", PM_BASE + _SIZES[2] - 1, 2, 7),
        ("read", PM_BASE + _SIZES[2], 1),
        ("read", STACK_BASE + _SIZES[1] - 3, 4),
    ]
)
def test_typed_access_matches_region_byte_path(ops):
    fast = AddressSpace(*_SIZES)
    ref = AddressSpace(*_SIZES)
    for op in ops:
        if op[0] == "write":
            _, addr, size, value = op
            got = _outcome(lambda: fast.write_int(addr, size, value))
            want = _outcome(lambda: _ref_write_int(ref, addr, size, value))
        else:
            _, addr, size = op
            got = _outcome(lambda: fast.read_int(addr, size))
            want = _outcome(lambda: _ref_read_int(ref, addr, size))
        assert got == want, op
        assert fast.is_pm(addr) == ref.pm.contains(addr)
        for mine, theirs in zip(
            (fast.vol, fast.stack, fast.pm), (ref.vol, ref.stack, ref.pm)
        ):
            assert mine.data == theirs.data, mine.name
            assert mine.high_water == theirs.high_water, mine.name
            # what lets an in-prefix write skip the high-water update
            assert len(mine.data) <= mine.high_water, mine.name


def test_typed_access_of_an_undefined_address_is_a_type_error():
    """The layer raises ``TypeError`` on a ``None`` address or value.
    Verified code never passes one: the verifier refuses a use its
    definition does not dominate, so the engine has nothing to map."""
    space = AddressSpace()
    with pytest.raises(TypeError):
        space.read_int(None, 8)
    with pytest.raises(TypeError):
        space.write_int(None, 8, 1)
    # an undefined value, both inside and past the written prefix
    addr = space.alloc_stack(16)
    space.write_int(addr, 8, 5)
    for where in (addr, addr + 8):
        with pytest.raises(TypeError):
            space.write_int(where, 8, None)
    assert space.stack.data == (5).to_bytes(8, "little")
    with pytest.raises(TypeError):
        space.is_pm(None)
