"""The reproduction IR: a small LLVM-like intermediate representation.

This package provides the program representation every other subsystem
works on: the bug-finding tools trace executions of IR programs, and
Hippocrates repairs durability bugs by rewriting IR (inserting flushes
and fences, cloning subprograms).

Public API re-exported here:

- types: :data:`I1`/:data:`I8`/:data:`I16`/:data:`I32`/:data:`I64`/:data:`PTR`/:data:`VOID`
- values: :class:`Constant`, :class:`Argument`, :class:`GlobalVariable`
- instructions: :class:`Store`, :class:`Load`, :class:`Flush`, :class:`Fence`, ...
- structure: :class:`BasicBlock`, :class:`Function`, :class:`Module`
- construction: :class:`IRBuilder`, :class:`ModuleBuilder`
- text: :func:`format_module`, :func:`parse_module`
- checking: :func:`verify_module`, :func:`verify_function`
"""

from .. import lazy_exports

#: submodule -> the names it defines that this package re-exports; each
#: name loads its submodule on first use
_EXPORTS = {
    ".basicblock": ("BasicBlock",),
    ".builder": ("IRBuilder", "ModuleBuilder"),
    ".debuginfo": ("DebugLoc", "LineAllocator", "SYNTHETIC"),
    ".function": ("Function",),
    ".instructions": (
        "Alloca", "BINARY_OPS", "BinOp", "Branch", "Call", "Cast",
        "FENCE_KINDS", "FLUSH_KINDS", "Fence", "Flush", "Gep", "ICMP_PREDS",
        "ICmp", "Instruction", "Jump", "Load", "Ret", "Select", "Store",
        "Trap", "const",
    ),
    ".module": ("Module",),
    ".parser": ("parse_module",),
    ".printer": ("format_function", "format_instruction", "format_module"),
    ".types": (
        "I1", "I8", "I16", "I32", "I64", "IntType", "PTR", "PointerType",
        "Type", "VOID", "VoidType", "type_from_name",
    ),
    ".values": ("Argument", "Constant", "GlobalVariable", "NULL", "Value"),
    ".verifier": ("verify_function", "verify_module"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
