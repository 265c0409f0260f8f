"""Pooled reuse of machine memory objects across runs.

Machine memory is lazy (:class:`~repro.memory.layout.Region` and
:class:`~repro.memory.persistence.PersistentImage` grow on write), so
building a machine costs O(live bytes) and a reset is a truncation.
:class:`MachinePool` keeps retired ``(AddressSpace, PersistentImage)``
pairs and hands them back out; all it saves is object allocation.

The pool is a pure allocation cache: a machine built from pooled parts
is byte-for-byte indistinguishable from one built from fresh buffers.
Two reset disciplines cover the two construction paths:

* ``acquire`` — for fresh-machine construction (detect, re-record).
  The pair comes back fully reset: empty regions, an empty durable
  view, zeroed counters.
* ``acquire_raw`` — for :meth:`MachineSnapshot.materialize`, which
  overwrites every region, watermark and the durable view anyway.

Pairs are released raw (no reset on release), so a release is O(1).
The pool is not thread-safe — each supervisor worker (one process per
task) or in-process batch loop owns its own pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .layout import _DEFAULT_REGION_SIZE, AddressSpace
from .persistence import PersistentImage

_SizeKey = Tuple[int, int, int]
_Pair = Tuple[AddressSpace, PersistentImage]


class MachinePool:
    """A bounded free-list of ``(AddressSpace, PersistentImage)`` pairs."""

    def __init__(self, max_idle: int = 4):
        if max_idle < 1:
            raise ValueError("max_idle must be >= 1")
        self.max_idle = max_idle
        self._idle: Dict[_SizeKey, List[_Pair]] = {}
        self._idle_ids: set = set()
        #: reuse statistics (observability; never affect semantics)
        self.hits = 0
        self.misses = 0
        self.releases = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        idle = sum(len(pairs) for pairs in self._idle.values())
        return f"MachinePool(idle={idle}, hits={self.hits}, misses={self.misses})"

    # -- internal ----------------------------------------------------------------

    def _take(self, key: _SizeKey) -> Optional[_Pair]:
        pairs = self._idle.get(key)
        if not pairs:
            return None
        pair = pairs.pop()
        self._idle_ids.discard(id(pair[0]))
        self.hits += 1
        return pair

    # -- acquire ------------------------------------------------------------------

    def acquire(
        self,
        vol_size: int = _DEFAULT_REGION_SIZE,
        stack_size: int = _DEFAULT_REGION_SIZE,
        pm_size: int = _DEFAULT_REGION_SIZE,
    ) -> Tuple[AddressSpace, PersistentImage]:
        """A clean pair, indistinguishable from freshly constructed."""
        pair = self._take((vol_size, stack_size, pm_size))
        if pair is None:
            self.misses += 1
            space = AddressSpace(vol_size, stack_size, pm_size)
            return space, PersistentImage(space)
        space, image = pair
        space.reset()
        image.reset()
        return space, image

    def acquire_raw(
        self,
        vol_size: int,
        stack_size: int,
        pm_size: int,
    ) -> Optional[Tuple[AddressSpace, PersistentImage]]:
        """A dirty pair for snapshot restore, or ``None`` on a miss.

        The caller owns overwriting region contents, brk and high-water
        marks, and the durable view.
        """
        pair = self._take((vol_size, stack_size, pm_size))
        if pair is None:
            self.misses += 1
        return pair

    # -- release ------------------------------------------------------------------

    def release(self, machine) -> None:
        """Retire a machine's buffers into the pool.

        The machine must not be used afterwards.  Double releases and
        machines whose image belongs to a different space are ignored
        (defensive: a pooled buffer must never sit on the free list
        twice, or two live machines would alias it).
        """
        space = getattr(machine, "space", None)
        image = getattr(machine, "image", None)
        if space is None or image is None or image.space is not space:
            return
        self.release_parts(space, image)

    def release_parts(self, space: AddressSpace, image: PersistentImage) -> None:
        if id(space) in self._idle_ids:
            return
        key = (space.vol.size, space.stack.size, space.pm.size)
        pairs = self._idle.setdefault(key, [])
        if len(pairs) >= self.max_idle:
            return
        pairs.append((space, image))
        self._idle_ids.add(id(space))
        self.releases += 1
