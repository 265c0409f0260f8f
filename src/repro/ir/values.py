"""Value hierarchy for the reproduction IR.

Everything an instruction can reference as an operand is a
:class:`Value`: constants, function arguments, global variables, and
instructions themselves (an instruction *is* the value it produces,
exactly as in LLVM).
"""

from __future__ import annotations

from typing import Optional

from .types import I64, PTR, Type


class Value:
    """Base class for everything that can appear as an operand."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name

    def short(self) -> str:
        """A compact printable reference to this value (``%x``, ``42``)."""
        return f"%{self.name}" if self.name else "%?"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """An integer (or pointer-valued) literal."""

    def __init__(self, value: int, type_: Type = I64):
        # Value.__init__ inlined: the parser builds one per literal.
        self.type = type_
        self.name = ""
        self.value = value & type_.mask

    def short(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.value == self.value
            and other.type == self.type
        )

    def __hash__(self) -> int:
        return hash((self.value, repr(self.type)))


#: The null pointer constant, shared for convenience.
NULL = Constant(0, PTR)


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, name: str, type_: Type, index: int):
        self.type = type_
        self.name = name
        self.index = index
        self.parent: Optional[object] = None  # set by Function

    def short(self) -> str:
        return f"%{self.name}"


class GlobalVariable(Value):
    """A module-level variable living in PM or volatile memory.

    Globals are pointer-valued: referencing the global in an operand
    position yields its address, as in LLVM.  The backing storage is
    allocated by the interpreter when a module is loaded.

    :param space: ``"pm"`` for persistent storage or ``"vol"`` for
        volatile storage.
    :param size: storage size in bytes.
    :param initializer: optional initial bytes (zero-filled otherwise).
    """

    def __init__(
        self,
        name: str,
        size: int,
        space: str = "vol",
        initializer: Optional[bytes] = None,
    ):
        if space not in ("pm", "vol"):
            raise ValueError(f"bad global space: {space!r}")
        if size <= 0:
            raise ValueError("global size must be positive")
        if initializer is not None and len(initializer) > size:
            raise ValueError("initializer larger than global")
        super().__init__(PTR, name)
        self.size = size
        self.space = space
        self.initializer = initializer

    def short(self) -> str:
        return f"@{self.name}"
