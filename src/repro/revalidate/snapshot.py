"""Memoized machine state: capture at a call boundary, replay later.

A :class:`MachineSnapshot` is taken between top-level driver calls,
when the interpreter's frame stack is empty — so the *only* state that
matters is the machine's: region bytes, allocator watermarks, the
durable PM image, per-line cache durability state, the allocation
registry, and the trace recorder's sequence counter.

Two properties make snapshots cheap and safe:

- **Prefix copies.** Regions hold only their written prefix (every
  byte beyond it is zero — :class:`~repro.memory.layout.Region` is
  lazy), so a snapshot costs kilobytes, not 3×16 MiB.
- **Deep copies both ways.** Capture copies every mutable layer out of
  the live machine, and :meth:`materialize` builds fresh containers
  from the snapshot — in particular the cache's ``dirty`` and
  ``queued`` line sets, which every store, flush and fence mutates.  A
  second replay from the same snapshot is therefore unaffected by the
  first (the latent aliasing hazard this module exists to prevent; see
  ``tests/test_revalidate_snapshot.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from ..interp.interpreter import Allocation, Interpreter, Machine
from ..memory.cache import CacheModel
from ..memory.layout import AddressSpace, Region
from ..memory.persistence import PersistentImage
from ..memory.pool import MachinePool
from ..trace.trace import TraceRecorder

#: (brk, high_water, written prefix) for one region
_RegionState = Tuple[int, int, bytes]


def _capture_region(region: Region) -> _RegionState:
    return (region.brk, region.high_water, bytes(region.data))


def _restore_region(region: Region, state: _RegionState) -> None:
    brk, high, data = state
    region.data[:] = data
    region.set_brk(brk)
    region.reset_high_water(high)


@dataclass(frozen=True)
class MachineSnapshot:
    """Frozen machine state at one top-level call boundary."""

    vol: _RegionState
    stack: _RegionState
    pm: _RegionState
    pm_size: int
    vol_size: int
    stack_size: int
    #: durable image bytes up to the PM high-water mark
    durable: bytes
    writebacks: int
    #: the cache's dirty and queued line sets, in insertion order
    dirty: Tuple[int, ...]
    queued: Tuple[int, ...]
    flush_count: int
    clean_flush_count: int
    fence_count: int
    allocations: Tuple[Allocation, ...]
    global_addrs: Tuple[Tuple[str, int], ...]
    pm_root_addr: Optional[int]
    pm_root_size: int
    volatile_flushes: int
    #: the trace recorder's sequence counter (replay events continue it)
    seq: int
    #: interpreter steps consumed so far (replay fuel accounting)
    steps: int
    #: observable output so far (``emit`` values)
    output: Tuple[int, ...]

    @classmethod
    def capture(cls, interp: Interpreter) -> "MachineSnapshot":
        if interp.frames:
            raise ValueError(
                "machine snapshots are only valid at top-level call "
                "boundaries (the frame stack must be empty)"
            )
        machine = interp.machine
        space = machine.space
        return cls(
            vol=_capture_region(space.vol),
            stack=_capture_region(space.stack),
            pm=_capture_region(space.pm),
            pm_size=space.pm.size,
            vol_size=space.vol.size,
            stack_size=space.stack.size,
            durable=machine.image.snapshot_durable(),
            writebacks=machine.image.writebacks,
            dirty=tuple(machine.cache.dirty),
            queued=tuple(machine.cache.queued),
            flush_count=machine.cache.flush_count,
            clean_flush_count=machine.cache.clean_flush_count,
            fence_count=machine.cache.fence_count,
            allocations=tuple(machine.allocations),
            global_addrs=tuple(machine.global_addrs.items()),
            pm_root_addr=machine.pm_root_addr,
            pm_root_size=machine.pm_root_size,
            volatile_flushes=machine.volatile_flushes,
            seq=machine.recorder._seq,
            steps=interp.steps,
            output=tuple(interp.output),
        )

    def materialize(self, pool: Optional[MachinePool] = None) -> Machine:
        """Build an independent machine in this snapshot's state.

        Every mutable container is freshly constructed (or, with a
        ``pool``, reset in place from a retired pair), so concurrent or
        repeated replays from one snapshot never alias state.
        """
        parts = None
        if pool is not None:
            parts = pool.acquire_raw(
                self.vol_size, self.stack_size, self.pm_size
            )
        if parts is None:
            space = AddressSpace(
                vol_size=self.vol_size,
                stack_size=self.stack_size,
                pm_size=self.pm_size,
            )
            image = None
        else:
            space, image = parts
        _restore_region(space.vol, self.vol)
        _restore_region(space.stack, self.stack)
        _restore_region(space.pm, self.pm)
        if image is None:
            image = PersistentImage(space)
        image.restore_prefix(self.durable)
        image.writebacks = self.writebacks
        cache = CacheModel(space, image)
        cache.dirty = dict.fromkeys(self.dirty)
        cache.queued = dict.fromkeys(self.queued)
        cache.flush_count = self.flush_count
        cache.clean_flush_count = self.clean_flush_count
        cache.fence_count = self.fence_count
        # Assemble the machine without Machine.__init__ (which would
        # build and immediately discard a second address space).
        machine = Machine.__new__(Machine)
        machine.space = space
        machine.image = image
        machine.cache = cache
        machine.recorder = TraceRecorder()
        machine.recorder._seq = self.seq
        machine.allocations = list(self.allocations)
        machine.global_addrs = dict(self.global_addrs)
        machine.pm_root_addr = self.pm_root_addr
        machine.pm_root_size = self.pm_root_size
        machine.volatile_flushes = self.volatile_flushes
        return machine

    @property
    def byte_size(self) -> int:
        """Approximate retained payload (observability/thinning).

        Counts the region/durable prefixes plus the dirty and queued
        line tuples and the allocation registry — the containers that
        can dominate a snapshot on store-heavy, allocation-heavy
        workloads.
        """
        payload = (
            len(self.vol[2])
            + len(self.stack[2])
            + len(self.pm[2])
            + len(self.durable)
        )
        payload += sys.getsizeof(self.dirty) + sys.getsizeof(self.queued)
        for alloc in self.allocations:
            payload += sys.getsizeof(alloc)
        return payload
