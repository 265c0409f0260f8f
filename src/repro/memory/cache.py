"""CPU cache model for persistent memory lines.

Implements the durability semantics from the paper's §2.1/§4.2:

- Stores to PM dirty the containing cache line; the data is visible to
  loads immediately but is *not durable*.
- ``clwb``/``clflushopt`` are weakly ordered: they move the line into a
  pending write-back queue which only completes at the next fence.
- ``clflush`` is self-serializing with respect to the flushed line: the
  write-back completes immediately.
- ``sfence``/``mfence`` drain the pending queue, completing durability
  for every line flushed since the last fence.

:class:`LineStates` is that per-line state machine on its own: two
insertion-ordered sets of line addresses, ``dirty`` and ``queued``,
which a line leaves once it is durable.  The cache model adds the
durable-image write-backs and the flush/fence counters; trace synthesis
(:mod:`repro.revalidate.synthesize`) runs the bare machine to recompute
each flush's ``had_work`` bit.  Neither keeps which store made a line
dirty: the durability checker re-derives that from the trace.
"""

from __future__ import annotations

from typing import Dict, List

from .layout import AddressSpace, line_of, lines_covering
from .persistence import PersistentImage


class LineStates:
    """Per-line durability state: which PM lines are dirty or queued.

    A line may be in both sets (re-dirtied after a weakly ordered
    flush).  Sets are dicts with ``None`` values, kept in insertion
    order.
    """

    def __init__(self) -> None:
        #: lines holding a store no flush has covered yet
        self.dirty: Dict[int, None] = {}
        #: lines whose write-back a flush (or a non-temporal store) has
        #: queued and no fence has completed yet
        self.queued: Dict[int, None] = {}

    def on_store(self, addr: int, size: int) -> None:
        """A store of ``size`` bytes at ``addr`` (PM only)."""
        for line_addr in lines_covering(addr, size):
            self.dirty[line_addr] = None

    def on_nt_store(self, addr: int, size: int) -> None:
        """A non-temporal store: bypasses the cache into the write-
        combining buffer.  No flush is needed, but the write-back only
        completes at the next fence (weakly ordered) — so the bytes go
        straight to the *queued* state."""
        for line_addr in lines_covering(addr, size):
            self.queued[line_addr] = None

    def flush_line(self, line_addr: int, kind: str) -> str:
        """Move one line through a flush of ``kind``; see
        :meth:`CacheModel.on_flush` for the returned statuses.  A
        ``clflush`` is strongly ordered: the line leaves both sets, and
        the caller writes back every line it does not call
        ``"redundant"``."""
        if line_addr in self.dirty:
            del self.dirty[line_addr]
            if kind == "clflush":
                # Completes anything queued too.
                self.queued.pop(line_addr, None)
                return "writeback"
            if line_addr in self.queued:
                return "coalesced"
            self.queued[line_addr] = None
            return "writeback"
        if line_addr not in self.queued:
            return "redundant"
        # A clean queued line: coalesced into its queued write-back,
        # which a clflush completes.
        if kind == "clflush":
            del self.queued[line_addr]
        return "coalesced"

    def drain(self) -> List[int]:
        """A fence: empty the queue, returning the lines it completes."""
        completed = list(self.queued)
        self.queued.clear()
        return completed

    def pending_lines(self) -> List[int]:
        """Lines with un-durable data (dirty or queued), sorted."""
        return sorted(self.dirty.keys() | self.queued.keys())


class CacheModel(LineStates):
    """Tracks per-line durability state for the PM region."""

    def __init__(self, space: AddressSpace, image: PersistentImage):
        super().__init__()
        self.space = space
        self.image = image
        #: statistics used by benchmarks and the redundant-flush report
        self.flush_count = 0
        self.clean_flush_count = 0
        self.fence_count = 0

    # -- events ----------------------------------------------------------------

    def on_flush(self, addr: int, kind: str) -> str:
        """A flush of the line containing ``addr``.

        Returns the flush's effect, which the cost model prices:

        - ``"writeback"`` — the line was dirty and not yet queued: this
          flush schedules a real media write-back (full cost).
        - ``"coalesced"`` — the line already sits in the write-pending
          queue from an earlier flush or non-temporal store: the WPQ
          entry absorbs the new bytes, if any (cheap).  This is why
          flush-per-store code (Hippocrates's clones) is not much
          slower than flush-per-line code (``pmem_flush``).
        - ``"redundant"`` — the line was completely clean: the raw
          material of PM *performance* bugs, which the detector reports
          but Hippocrates deliberately never "fixes" (§7).

        A ``clflush`` that is not redundant completes the line's
        write-back at once, queued part included.
        """
        self.flush_count += 1
        line_addr = line_of(addr)
        status = self.flush_line(line_addr, kind)
        if status == "redundant":
            self.clean_flush_count += 1
        elif kind == "clflush":
            self.image.write_back_line(line_addr)
        return status

    def on_fence(self, kind: str) -> List[int]:
        """A fence: complete all queued write-backs.

        Returns the line addresses whose durability completed.
        """
        self.fence_count += 1
        completed = self.drain()
        for line_addr in completed:
            self.image.write_back_line(line_addr)
        return completed
