"""The durable image of persistent memory.

The address space's PM region (:class:`~repro.memory.layout.Region`)
holds the *cache view*: what the program observes through loads, i.e.
the most recent stores, whether flushed or not.  This module maintains
the *durable view*: the bytes that have actually reached the PM media.
A store's journey (the paper's §4.2 lifecycle) is::

    store X        -> cache view updated, line dirty
    flush F(X)     -> line queued for write-back (weakly ordered)
    fence M        -> write-back completes: durable view updated

On a crash, the program (and the cache view) is lost; only the durable
view survives — plus, nondeterministically, any pending line (dirty or
queued) that the hardware happened to evict in time.  The checker is
adversarial: it assumes pending lines did *not* survive.
"""

from __future__ import annotations

from typing import Iterable, List

from .layout import AddressSpace, CACHE_LINE, line_of


def _line(buffer: bytearray, offset: int) -> bytes:
    """One cache line of a lazy buffer, zero-padded past its end."""
    line = bytes(buffer[offset : offset + CACHE_LINE])
    return line + bytes(CACHE_LINE - len(line))


class PersistentImage:
    """Tracks the durable bytes of the PM region.

    Like the region's cache view, the durable view is lazy: ``_durable``
    holds a prefix that grows on write-back, and every byte past its
    end is zero.
    """

    def __init__(self, space: AddressSpace):
        self.space = space
        self._durable = bytearray(space.pm.data)  # starts in sync
        #: number of line write-backs performed (a persistence-traffic
        #: counter used by performance benchmarks)
        self.writebacks = 0

    # -- write-back ------------------------------------------------------------

    def write_back_line(self, line_addr: int) -> None:
        """Copy one cache line from the cache view to the durable view."""
        offset = line_addr - self.space.pm.base
        durable = self._durable
        if offset > len(durable):  # grow over the unwritten gap
            durable.extend(bytes(offset - len(durable)))
        durable[offset : offset + CACHE_LINE] = _line(self.space.pm.data, offset)
        self.writebacks += 1

    def write_back_lines(self, line_addrs: Iterable[int]) -> None:
        for line_addr in sorted(line_addrs):
            self.write_back_line(line_addr)

    # -- inspection -------------------------------------------------------------

    def durable_bytes(self, addr: int, size: int) -> bytes:
        """Read from the durable view (what a post-crash program sees)."""
        offset = addr - self.space.pm.base
        if offset < 0 or offset + size > self.space.pm.size:
            raise IndexError(f"durable read out of range at {addr:#x}")
        chunk = bytes(self._durable[offset : offset + size])
        return chunk + bytes(size - len(chunk))

    def cache_bytes(self, addr: int, size: int) -> bytes:
        """Read from the cache view (what the running program sees)."""
        return self.space.read_bytes(addr, size)

    def line_divergence(self) -> List[int]:
        """Lines whose cache view differs from the durable view.

        Only lines below the longer of the two live prefixes can differ.
        """
        data, durable = self.space.pm.data, self._durable
        return [
            self.space.pm.base + offset
            for offset in range(0, max(len(data), len(durable)), CACHE_LINE)
            if _line(data, offset) != _line(durable, offset)
        ]

    def is_line_durable(self, addr: int) -> bool:
        """True if the line containing ``addr`` is identical in both views."""
        offset = line_of(addr) - self.space.pm.base
        return _line(self.space.pm.data, offset) == _line(
            self._durable, offset
        )

    # -- crash ---------------------------------------------------------------------

    def crash(self, surviving_lines: Iterable[int] = ()) -> bytes:
        """Simulate a crash and return the post-crash PM contents.

        ``surviving_lines`` models the hardware nondeterminism: pending
        lines that happened to be written back before power was lost.
        The adversarial default is that none survive.

        Like :meth:`snapshot_durable`, the image covers the PM region's
        live prefix (up to its high-water mark); every byte past it is
        zero.
        """
        pm = self.space.pm
        image = bytearray(self.snapshot_durable())
        for line_addr in surviving_lines:
            offset = line_addr - pm.base
            image[offset : offset + CACHE_LINE] = _line(pm.data, offset)
        del image[pm.high_water :]  # a line may straddle the mark
        return bytes(image)

    def snapshot_durable(self) -> bytes:
        """The durable view of the PM region's live prefix."""
        pm = self.space.pm
        return self.durable_bytes(pm.base, pm.high_water)

    def restore(self, image: bytes) -> None:
        """Load a post-crash image as the durable contents.

        Used when rebooting a machine from a crash state: the durable
        view becomes the image and nothing is pending.  ``image`` may
        be any prefix of the region; the rest of the view is unchanged.
        """
        if len(image) > self.space.pm.size:
            raise IndexError("restore image larger than the PM region")
        self._durable[: len(image)] = image
        # keep the image inside the live prefix that crash images cover
        self.space.pm.note_high_water(len(image))
