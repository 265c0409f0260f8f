"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from ..errors import IRError
from .instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock:
    """An ordered list of instructions with a single entry point.

    Blocks support positional insertion (used heavily by Hippocrates,
    which inserts flushes and fences *after* specific instructions).
    """

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure ----------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's terminator, or None if the block is unfinished."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []  # type: ignore[attr-defined]

    # -- mutation ------------------------------------------------------------

    def _bump_module_epoch(self) -> None:
        """Propagate a change of this block to the owning module's epoch
        and to its function's stamp (see :meth:`Module.bump_epoch`)."""
        fn = self.parent
        if fn is not None and fn.parent is not None:
            fn.parent.bump_epoch(fn)

    def append(self, instr: Instruction) -> Instruction:
        """Append an instruction to the end of the block."""
        instructions = self.instructions
        if instructions and instructions[-1].is_terminator:
            raise IRError(
                f"block {self.name!r} already has a terminator; cannot append"
            )
        instr.parent = self
        instructions.append(instr)
        self._bump_module_epoch()
        return instr

    def insert_after(self, anchor: Instruction, instr: Instruction) -> Instruction:
        """Insert ``instr`` immediately after ``anchor``.

        This is the primitive behind intraprocedural fixes: a flush is
        inserted after the buggy store, and a fence after the flush.
        """
        idx = self.index_of(anchor)
        if anchor.is_terminator:
            raise IRError("cannot insert after a terminator")
        instr.parent = self
        self.instructions.insert(idx + 1, instr)
        self._bump_module_epoch()
        return instr

    def insert_before(self, anchor: Instruction, instr: Instruction) -> Instruction:
        """Insert ``instr`` immediately before ``anchor``."""
        idx = self.index_of(anchor)
        instr.parent = self
        self.instructions.insert(idx, instr)
        self._bump_module_epoch()
        return instr

    def remove(self, instr: Instruction) -> None:
        """Remove an instruction from the block."""
        self.instructions.remove(instr)
        instr.parent = None
        self._bump_module_epoch()

    def index_of(self, instr: Instruction) -> int:
        for i, existing in enumerate(self.instructions):
            if existing is instr:
                return i
        raise IRError(f"instruction #{instr.iid} not in block {self.name!r}")

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self)} instrs)>"
