"""Type system for the reproduction IR.

The IR is deliberately small: integer types of a few fixed widths, an
opaque pointer type (pointers are untyped byte addresses, as in modern
LLVM), and ``void`` for functions with no return value.  Types are
interned singletons, so identity comparison (``is``) works, but ``==``
is also defined for clarity.

Because every type is a singleton, its facts are plain attributes set
once: ``name`` (the textual spelling), ``size``, ``mask`` and the
``is_*`` predicates.  The parser, printer, verifier and instruction
constructors read them once per operand, so none of them is a property.
"""

from __future__ import annotations

from typing import Dict

_U64 = (1 << 64) - 1


class Type:
    """Base class for IR types."""

    #: The textual spelling (``i64``, ``ptr``, ``void``).
    name: str = "?"
    #: Size of a value of this type in bytes (0 for void).
    size: int = 0
    #: Bit mask truncating a Python int to a value of this type.
    mask: int = _U64
    is_pointer: bool = False
    is_integer: bool = False
    is_void: bool = False

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Type) and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


class IntType(Type):
    """An integer type of a fixed bit width (i8, i16, i32, i64)."""

    _instances: Dict[int, "IntType"] = {}
    is_integer = True

    def __new__(cls, bits: int) -> "IntType":
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        if bits not in cls._instances:
            instance = super().__new__(cls)
            instance.bits = bits
            instance.name = f"i{bits}"
            instance.size = max(1, bits // 8)
            instance.mask = (1 << bits) - 1
            cls._instances[bits] = instance
        return cls._instances[bits]


class PointerType(Type):
    """An opaque pointer (a 64-bit byte address)."""

    _instance: "PointerType" = None  # type: ignore[assignment]
    name = "ptr"
    size = 8
    is_pointer = True

    def __new__(cls) -> "PointerType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


class VoidType(Type):
    """The type of instructions that produce no value."""

    _instance: "VoidType" = None  # type: ignore[assignment]
    name = "void"
    is_void = True

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


#: Canonical singletons, used throughout the package.
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
PTR = PointerType()
VOID = VoidType()

_BY_NAME = {t.name: t for t in (I1, I8, I16, I32, I64, PTR, VOID)}

#: The byte widths a load or store can have (every non-void type's size).
STORE_WIDTHS = frozenset(t.size for t in (I1, I8, I16, I32, I64, PTR))


def type_from_name(name: str) -> Type:
    """Look a type up by its textual spelling (``i64``, ``ptr``, ...)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown type name: {name!r}") from None
