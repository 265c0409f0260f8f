"""Lazy machine memory against an eager reference model.

Regions and the durable image grow on write and read zeros past their
written prefix.  The property test below drives random allocate /
write / read / ``set_brk`` / write-back / crash / crash-image restore
sequences through a real ``AddressSpace`` +
``PersistentImage`` and through a full-size ``bytearray`` model that
lives only here; every observable answer (bytes, allocator results,
high-water marks and out-of-range errors) must agree.
"""

from __future__ import annotations

import tracemalloc

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import MemoryError_, SegmentationFault
from repro.interp import Machine
from repro.memory import CACHE_LINE, AddressSpace, CrashState, PersistentImage

SIZES = {"vol": 512, "stack": 256, "pm": 1024}
REGIONS = tuple(SIZES)


class EagerRegion:
    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.brk = 0
        self.high = 0

    def in_range(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.base + self.size

    def allocate(self, size: int, align: int):
        brk = (self.brk + align - 1) & ~(align - 1)
        if brk + size > self.size:
            return MemoryError_
        self.brk = brk + size
        self.high = max(self.high, self.brk)
        return self.base + brk

    def write(self, addr: int, payload: bytes):
        if not self.in_range(addr, len(payload)):
            return SegmentationFault
        offset = addr - self.base
        self.data[offset : offset + len(payload)] = payload
        self.high = max(self.high, offset + len(payload))
        return None

    def read(self, addr: int, size: int):
        if not self.in_range(addr, size):
            return SegmentationFault
        offset = addr - self.base
        return bytes(self.data[offset : offset + size])

    def set_brk(self, brk: int):
        if brk < 0 or brk > self.size:
            return MemoryError_
        self.brk = brk
        return None


class EagerMachine:
    """Eager full-size model of the address space and durable view."""

    def __init__(self, space: AddressSpace):
        self.regions = {
            name: EagerRegion(getattr(space, name).base, size)
            for name, size in SIZES.items()
        }
        self.durable = bytearray(SIZES["pm"])

    @property
    def pm(self) -> EagerRegion:
        return self.regions["pm"]

    def crash(self, lines):
        image = bytearray(self.durable)
        for line_addr in lines:
            offset = line_addr - self.pm.base
            image[offset : offset + CACHE_LINE] = self.pm.data[
                offset : offset + CACHE_LINE
            ]
        return bytes(image)

    def diverged(self):
        pm, durable = self.pm, self.durable
        return [
            pm.base + offset
            for offset in range(0, pm.size, CACHE_LINE)
            if pm.data[offset : offset + CACHE_LINE]
            != durable[offset : offset + CACHE_LINE]
        ]


def outcome(call):
    try:
        return call()
    except (MemoryError_, SegmentationFault, IndexError) as exc:
        return type(exc)


region = st.sampled_from(REGIONS)
#: offsets straddle both ends of every region
offset = st.integers(min_value=-16, max_value=max(SIZES.values()) + 16)
payload = st.binary(min_size=1, max_size=96)
lines = st.lists(
    st.integers(min_value=0, max_value=SIZES["pm"] // CACHE_LINE - 1),
    max_size=4,
    unique=True,
)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"), region, st.integers(1, 200), st.sampled_from([1, 8, 64])
        ),
        st.tuples(st.just("write"), region, offset, payload),
        st.tuples(st.just("end_write"), region, payload),
        st.tuples(st.just("read"), region, offset, st.integers(1, 96)),
        st.tuples(st.just("set_brk"), region, offset),
        st.tuples(st.just("durable_read"), offset, st.integers(1, 96)),
        st.tuples(st.just("write_back"), lines),
        st.tuples(st.just("crash"), lines),
        st.tuples(st.just("restore"), lines),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops)
# loading a crash image whose surviving line lies past the durable prefix
@example(
    ops=[
        ("write", "pm", 100, b"\x01"),
        ("write_back", [1]),
        ("write", "pm", 300, b"\x02"),
        ("restore", [4]),
    ]
)
def test_lazy_memory_matches_eager_model(ops):
    space = AddressSpace(SIZES["vol"], SIZES["stack"], SIZES["pm"])
    image = PersistentImage(space)
    model = EagerMachine(space)
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            _, name, size, align = op
            got = outcome(lambda: getattr(space, name).allocate(size, align))
            assert got == model.regions[name].allocate(size, align)
        elif kind in ("write", "end_write"):
            name = op[1]
            ref = model.regions[name]
            if kind == "write":
                addr, data = ref.base + op[2], op[3]
            else:  # a write ending exactly at Region.end
                data = op[2][: ref.size]
                addr = ref.base + ref.size - len(data)
            got = outcome(lambda: space.write_bytes(addr, data))
            assert got == ref.write(addr, data)
        elif kind == "read":
            _, name, off, size = op
            ref = model.regions[name]
            got = outcome(lambda: space.read_bytes(ref.base + off, size))
            assert got == ref.read(ref.base + off, size)
        elif kind == "set_brk":
            _, name, brk = op
            got = outcome(lambda: getattr(space, name).set_brk(brk))
            assert got == model.regions[name].set_brk(brk)
        elif kind == "durable_read":
            _, off, size = op
            got = outcome(lambda: image.durable_bytes(space.pm.base + off, size))
            want = (
                IndexError
                if off < 0 or off + size > SIZES["pm"]
                else bytes(model.durable[off : off + size])
            )
            assert got == want
        elif kind == "write_back":
            for index in op[1]:
                image.write_back_line(space.pm.base + index * CACHE_LINE)
                start = index * CACHE_LINE
                model.durable[start : start + CACHE_LINE] = model.pm.data[
                    start : start + CACHE_LINE
                ]
        elif kind == "crash":
            line_addrs = [space.pm.base + i * CACHE_LINE for i in op[1]]
            want = model.crash(line_addrs)
            crash_image = image.crash(line_addrs)
            # the canonical image is the PM region's live prefix
            assert crash_image == want[: space.pm.high_water]
            state = CrashState(tuple(line_addrs), crash_image, space.pm.base)
            assert state.read(space.pm.base, SIZES["pm"]) == want
            assert image.crash() == image.snapshot_durable()
        else:  # restore: load a crash image as the durable view
            line_addrs = [space.pm.base + i * CACHE_LINE for i in op[1]]
            crash_image = image.crash(line_addrs)
            image.restore(crash_image)
            model.durable[: len(crash_image)] = crash_image

        for name, ref in model.regions.items():
            lazy = getattr(space, name)
            assert lazy.high_water == ref.high
            assert lazy.brk == ref.brk
            assert lazy.read_bytes(ref.base, ref.size) == bytes(ref.data)
        assert image.durable_bytes(space.pm.base, SIZES["pm"]) == bytes(model.durable)
        assert image.line_divergence() == model.diverged()


def test_building_a_machine_allocates_under_one_mib():
    Machine()  # warm imports and class-level caches
    tracemalloc.start()
    try:
        machine = Machine()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert machine.space.pm.size == 1 << 24  # the region is still 16 MiB
    assert peak < 1 << 20


def test_image_of_an_empty_region_is_empty():
    image = PersistentImage(AddressSpace())
    assert image.snapshot_durable() == b""
    assert image.crash() == b""
    assert image.line_divergence() == []
