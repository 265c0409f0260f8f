"""Source-level debug information attached to IR instructions.

The paper's pipeline maps pmemcheck trace events (which carry source
file/line and a call stack) back to IR instructions.  To reproduce that
faithfully, every instruction in our IR carries a :class:`DebugLoc`.
Applications built with the :class:`~repro.ir.builder.IRBuilder` get a
fresh, monotonically increasing line number per emitted instruction
(emulating unoptimized, uninlined clang output, where the mapping is
one-to-one), unless the app sets explicit locations.
"""

from __future__ import annotations

from typing import NamedTuple


class DebugLoc(NamedTuple):
    """A source position: ``file:line``.

    Immutable, hashable and ordered by ``(file, line)``.  A named tuple
    rather than a frozen dataclass: the parser builds one per line, and
    a frozen dataclass pays an ``object.__setattr__`` per field.
    """

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"

    @classmethod
    def parse(cls, text: str) -> "DebugLoc":
        """Parse ``file:line`` back into a :class:`DebugLoc`."""
        file, _, line = text.rpartition(":")
        if not file or not line.isdigit():
            raise ValueError(f"bad debug location: {text!r}")
        return cls(file, int(line))


#: Placeholder location for synthesized instructions (e.g., fixes that
#: Hippocrates inserts — they have no original source line).
SYNTHETIC = DebugLoc("<synthetic>", 0)


class LineAllocator:
    """Hands out increasing line numbers for one pseudo source file."""

    def __init__(self, file: str, start: int = 1):
        self.file = file
        self._next = start

    def next(self) -> DebugLoc:
        loc = DebugLoc(self.file, self._next)
        self._next += 1
        return loc

    def skip(self, count: int = 1) -> None:
        """Leave a gap in the line numbering (blank lines / comments)."""
        self._next += count
