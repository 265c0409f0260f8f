"""Type system for the reproduction IR.

The IR is deliberately small: integer types of a few fixed widths, an
opaque pointer type (pointers are untyped byte addresses, as in modern
LLVM), and ``void`` for functions with no return value.  Types are
interned singletons, so identity comparison (``is``) works, but ``==``
is also defined for clarity.
"""

from __future__ import annotations

from typing import Dict


class Type:
    """Base class for IR types."""

    #: Size of a value of this type in bytes (0 for void).
    size: int = 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Type) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)


class IntType(Type):
    """An integer type of a fixed bit width (i8, i16, i32, i64)."""

    _instances: Dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        if bits not in cls._instances:
            instance = super().__new__(cls)
            instance.bits = bits
            cls._instances[bits] = instance
        return cls._instances[bits]

    def __init__(self, bits: int):
        self.bits = bits

    @property
    def size(self) -> int:  # type: ignore[override]
        return max(1, self.bits // 8)

    @property
    def mask(self) -> int:
        """Bit mask for truncating a Python int to this width."""
        return (1 << self.bits) - 1

    def __repr__(self) -> str:
        return f"i{self.bits}"


class PointerType(Type):
    """An opaque pointer (a 64-bit byte address)."""

    _instance: "PointerType" = None  # type: ignore[assignment]

    def __new__(cls) -> "PointerType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def size(self) -> int:  # type: ignore[override]
        return 8

    @property
    def mask(self) -> int:
        return (1 << 64) - 1

    def __repr__(self) -> str:
        return "ptr"


class VoidType(Type):
    """The type of instructions that produce no value."""

    _instance: "VoidType" = None  # type: ignore[assignment]

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "void"


#: Canonical singletons, used throughout the package.
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
PTR = PointerType()
VOID = VoidType()

_BY_NAME = {repr(t): t for t in (I1, I8, I16, I32, I64, PTR, VOID)}

#: The byte widths a load or store can have (every non-void type's size).
STORE_WIDTHS = frozenset(t.size for t in (I1, I8, I16, I32, I64, PTR))


def type_from_name(name: str) -> Type:
    """Look a type up by its textual spelling (``i64``, ``ptr``, ...)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown type name: {name!r}") from None
