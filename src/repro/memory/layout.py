"""Simulated 64-bit address space with persistent and volatile regions.

The layout mirrors a PM-enabled process:

=============  ==================  =======================================
region         base address        contents
=============  ==================  =======================================
volatile heap  ``0x1000_0000``     ``vol_alloc`` allocations, vol globals
stack          ``0x7000_0000``     ``alloca`` frames (bump, per call)
PM pool        ``0x1_0000_0000``   ``pm_alloc`` allocations, pm globals
=============  ==================  =======================================

Addresses carry their region implicitly (by range), which is how the
durability checker and the Trace-AA classifier tell PM stores from
volatile stores — exactly the information pmemcheck derives from the
mapped PM file range.
"""

from __future__ import annotations

from struct import Struct
from typing import List, Tuple

from ..errors import MemoryError_, SegmentationFault

#: Cache-line size in bytes (x86).
CACHE_LINE = 64

VOL_BASE = 0x1000_0000
STACK_BASE = 0x7000_0000
PM_BASE = 0x1_0000_0000

_DEFAULT_REGION_SIZE = 1 << 24  # 16 MiB per region

#: Little-endian unsigned codec per typed-access width.  A typed access
#: that ends inside its region's written prefix (``offset + size <=
#: len(region.data)``) is one ``unpack_from``/``pack_into`` on
#: ``region.data``.  Such a write needs no ``_high_water`` update:
#: ``len(data) <= high_water`` always holds (every write that grows
#: ``data`` raises the mark to its new end), so the access ends at or
#: below the mark already.
#: The flat engine's stack path uses the same table.
CODECS = {1: Struct("<B"), 2: Struct("<H"), 4: Struct("<I"), 8: Struct("<Q")}


def line_of(addr: int) -> int:
    """The base address of the cache line containing ``addr``."""
    return addr & ~(CACHE_LINE - 1)


def lines_covering(addr: int, size: int) -> List[int]:
    """All cache-line base addresses touched by ``[addr, addr+size)``."""
    if size <= 0:
        return []
    first = line_of(addr)
    last = line_of(addr + size - 1)
    return list(range(first, last + 1, CACHE_LINE))


class Region:
    """A contiguous byte-addressable region with a bump allocator.

    Memory is lazy: ``data`` holds only the written prefix of the
    region and grows on write; every byte past its end reads as zero.
    Bounds are checked against ``size``, never against ``len(data)``.
    """

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.data = bytearray()
        self._brk = 0
        self._high_water = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end

    def allocate(self, size: int, align: int = 8) -> int:
        """Bump-allocate ``size`` bytes, returning the address."""
        if size <= 0:
            raise MemoryError_(f"bad allocation size {size}")
        start = (self._brk + align - 1) & ~(align - 1)
        if start + size > self.size:  # a failed allocation moves nothing
            raise MemoryError_(f"region {self.name!r} exhausted")
        self._brk = start + size
        if self._brk > self._high_water:
            self._high_water = self._brk
        return self.base + start

    @property
    def brk(self) -> int:
        """Current allocation watermark (offset from base)."""
        return self._brk

    def set_brk(self, brk: int) -> None:
        """Reset the watermark (used for stack frame pop)."""
        if brk < 0 or brk > self.size:
            raise MemoryError_(f"bad brk {brk} for region {self.name!r}")
        self._brk = brk

    @property
    def high_water(self) -> int:
        """Highest offset ever allocated or written.

        Every byte at or beyond this offset is zero, so it bounds the
        live prefix a crash image has to copy.
        """
        return self._high_water

    def note_high_water(self, offset: int) -> None:
        """Raise the high-water mark (a durable image was loaded)."""
        if offset > self._high_water:
            self._high_water = offset

    # -- raw byte access --------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        if not self.contains(addr, size):
            raise SegmentationFault(
                f"read of {size}B at {addr:#x} outside region {self.name!r}"
            )
        offset = addr - self.base
        chunk = bytes(self.data[offset : offset + size])
        if len(chunk) < size:  # past the written prefix: zeros
            chunk += bytes(size - len(chunk))
        return chunk

    def write_bytes(self, addr: int, payload: bytes) -> None:
        if not self.contains(addr, len(payload)):
            raise SegmentationFault(
                f"write of {len(payload)}B at {addr:#x} outside region {self.name!r}"
            )
        offset = addr - self.base
        end = offset + len(payload)
        data = self.data
        if offset > len(data):  # grow over the unwritten gap
            data.extend(bytes(offset - len(data)))
        data[offset:end] = payload
        if end > self._high_water:
            self._high_water = end


class AddressSpace:
    """The whole simulated address space.

    Integer reads/writes are little-endian, matching x86.
    """

    def __init__(
        self,
        vol_size: int = _DEFAULT_REGION_SIZE,
        stack_size: int = _DEFAULT_REGION_SIZE,
        pm_size: int = _DEFAULT_REGION_SIZE,
    ):
        self.vol = Region("vol", VOL_BASE, vol_size)
        self.stack = Region("stack", STACK_BASE, stack_size)
        self.pm = Region("pm", PM_BASE, pm_size)
        self._regions = (self.vol, self.stack, self.pm)
        # An address belongs to at most one region: ``region_of``'s
        # search order never matters, and the flat engine may serve a
        # stack address without searching.
        if self.vol.end > self.stack.base or self.stack.end > self.pm.base:
            raise MemoryError_("region sizes make the regions overlap")
        # Regions never move or resize, so the typed accessors and
        # ``is_pm`` check against bounds fixed here, in ``region_of``'s
        # search order.
        self._bounds = tuple(
            (region.base, region.end, region) for region in self._regions
        )
        self._pm_base, self._pm_end = self.pm.base, self.pm.end

    # -- region queries ----------------------------------------------------------

    def region_of(self, addr: int, size: int = 1) -> Region:
        for region in self._regions:
            if region.contains(addr, size):
                return region
        raise SegmentationFault(f"access of {size}B at {addr:#x} is unmapped")

    def is_pm(self, addr: int) -> bool:
        """True if the address lies in the persistent region."""
        return self._pm_base <= addr < self._pm_end

    def space_of(self, addr: int) -> str:
        """``"pm"`` or ``"vol"`` (stack counts as volatile)."""
        return "pm" if self.is_pm(addr) else "vol"

    # -- allocation -----------------------------------------------------------------

    def alloc_vol(self, size: int, align: int = 8) -> int:
        return self.vol.allocate(size, align)

    def alloc_pm(self, size: int, align: int = 8) -> int:
        return self.pm.allocate(size, align)

    def alloc_stack(self, size: int, align: int = 8) -> int:
        return self.stack.allocate(size, align)

    def stack_mark(self) -> int:
        return self.stack.brk

    def stack_release(self, mark: int) -> None:
        self.stack.set_brk(mark)

    # -- typed access ------------------------------------------------------------------

    # ``read_int``/``write_int`` are the interpreters' per-load/store
    # path: they inline ``region_of`` and the ``Region`` byte access so
    # each access checks its bounds once, and an access inside the
    # written prefix is one ``CODECS`` call.  Behaviour is the same as
    # going through ``region_of(addr, size).read_bytes``/``write_bytes``.

    def read_int(self, addr: int, size: int) -> int:
        stop = addr + size
        for base, end, region in self._bounds:
            if base <= addr and stop <= end:
                offset = addr - base
                data = region.data
                if offset + size <= len(data):
                    return CODECS[size].unpack_from(data, offset)[0]
                # Bytes past the written prefix are zero, which is what a
                # short little-endian slice decodes to.
                return int.from_bytes(data[offset : offset + size], "little")
        raise SegmentationFault(f"access of {size}B at {addr:#x} is unmapped")

    def write_int(self, addr: int, size: int, value: int) -> None:
        stop = addr + size
        for base, end, region in self._bounds:
            if base <= addr and stop <= end:
                value &= (1 << (8 * size)) - 1
                offset = addr - base
                data = region.data
                if offset + size <= len(data):  # no growth, no new high water
                    CODECS[size].pack_into(data, offset, value)
                    return
                payload = value.to_bytes(size, "little")
                if offset > len(data):  # grow over the unwritten gap
                    data.extend(bytes(offset - len(data)))
                data[offset : offset + size] = payload
                if offset + size > region._high_water:
                    region._high_water = offset + size
                return
        raise SegmentationFault(f"access of {size}B at {addr:#x} is unmapped")

    def read_bytes(self, addr: int, size: int) -> bytes:
        if size == 0:
            return b""
        return self.region_of(addr, size).read_bytes(addr, size)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        if not payload:
            return
        self.region_of(addr, len(payload)).write_bytes(addr, payload)

    def copy(self, dst: int, src: int, size: int) -> None:
        self.write_bytes(dst, self.read_bytes(src, size))

    def pm_bounds(self) -> Tuple[int, int]:
        return self._pm_base, self._pm_end
