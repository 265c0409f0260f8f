"""Functions: named, typed collections of basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import IRError
from .basicblock import BasicBlock
from .instructions import Call, Instruction, Store
from .types import Type, VOID
from .values import Argument

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module


class Function:
    """An IR function.

    :param name: the function's symbol name (unique within a module).
    :param params: ``(name, type)`` pairs for the formal parameters.
    :param return_type: the return type (``VOID`` by default).
    :param source_file: pseudo source file used for debug locations.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, Type]] = (),
        return_type: Type = VOID,
        source_file: str = "",
    ):
        self.name = name
        self.return_type = return_type
        self.source_file = source_file or f"{name}.c"
        self.args: List[Argument] = []
        for index, (pname, ptype) in enumerate(params):
            arg = Argument(pname, ptype, index)
            arg.parent = self
            self.args.append(arg)
        self.blocks: List[BasicBlock] = []
        self.parent: Optional["Module"] = None
        #: module epoch of this body's last change (moved by
        #: :meth:`Module.bump_epoch`)
        self.stamp = 0
        #: module epoch at which :func:`~repro.ir.verifier.verify_function`
        #: last accepted this function; -1 when never
        self.verified_at = -1
        #: Set by the persistent-subprogram transformation on clones:
        #: the name of the function this one was cloned from.
        self.cloned_from: Optional[str] = None

    # -- structure ------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    def add_block(self, name: str = "") -> BasicBlock:
        """Create a new basic block with a unique name and append it."""
        base = name or f"bb{len(self.blocks)}"
        existing = {b.name for b in self.blocks}
        candidate, suffix = base, 0
        while candidate in existing:
            suffix += 1
            candidate = f"{base}.{suffix}"
        block = BasicBlock(candidate, self)
        self.blocks.append(block)
        if self.parent is not None:
            self.parent.bump_epoch(self)
        return block

    def get_block(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise IRError(f"no block {name!r} in function {self.name!r}")

    # -- queries ---------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block

    def stores(self) -> List[Store]:
        """All store instructions (the potential durability obligations)."""
        return [i for i in self.instructions() if isinstance(i, Store)]

    def calls(self) -> List[Call]:
        """All call instructions."""
        return [i for i in self.instructions() if isinstance(i, Call)]

    def find_instruction(self, iid: int) -> Optional[Instruction]:
        for instr in self.instructions():
            if instr.iid == iid:
                return instr
        return None

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def value_names(self) -> Dict[str, int]:
        """How many times each local value name is used (for uniquing)."""
        counts: Dict[str, int] = {}
        for arg in self.args:
            counts[arg.name] = counts.get(arg.name, 0) + 1
        for instr in self.instructions():
            if instr.name:
                counts[instr.name] = counts.get(instr.name, 0) + 1
        return counts

    def __repr__(self) -> str:
        kind = "decl" if self.is_declaration else f"{len(self.blocks)} blocks"
        return f"<Function @{self.name} ({kind})>"
