"""Instruction set of the reproduction IR.

The instruction set mirrors the subset of LLVM that Hippocrates's
analyses care about: memory operations (``alloca``/``load``/``store``/
``gep``), integer arithmetic and comparisons, control flow
(``br``/``jmp``/``ret``), calls, and — centrally for this paper — the
persistence primitives ``flush`` (CLWB / CLFLUSHOPT / CLFLUSH) and
``fence`` (SFENCE / MFENCE).

Instructions are values (the value they compute).  The IR is *not* SSA
with phi nodes; like unoptimized clang output it uses ``alloca`` +
``load``/``store`` for mutable locals, which keeps the mapping between
"source lines" and instructions one-to-one — exactly the property the
paper relies on by disabling optimizations during trace generation.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, TYPE_CHECKING

from ..errors import IRError
from .debuginfo import SYNTHETIC, DebugLoc
from .types import I1, I64, PTR, VOID, IntType, Type
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .basicblock import BasicBlock
    from .function import Function

#: Hands out instruction ids in construction order (the parser builds
#: instructions in textual order, so a module's iids follow its text).
_iid_counter = itertools.count(1)


#: Flush instruction flavors (x86 names; ARM's DC CVAP behaves like CLWB).
FLUSH_KINDS = ("clwb", "clflushopt", "clflush")
#: Fence instruction flavors.
FENCE_KINDS = ("sfence", "mfence")
#: Supported binary integer operations.
BINARY_OPS = ("add", "sub", "mul", "udiv", "urem", "and", "or", "xor", "shl", "lshr")
#: Supported integer comparison predicates (all unsigned or equality).
ICMP_PREDS = ("eq", "ne", "ult", "ule", "ugt", "uge")


class Instruction(Value):
    """Base class of all instructions.

    :ivar iid: a globally unique instruction id, stable across the life
        of the instruction; trace events reference instructions by iid.
    :ivar loc: source-level debug location.
    :ivar parent: the owning :class:`BasicBlock` (set on insertion).
    """

    opcode: str = "?"
    #: True for instructions that end a basic block.
    is_terminator: bool = False

    def __init__(self, type_: Type, operands: List[Value], name: str = ""):
        # Value.__init__ inlined: one frame per instruction, not two.  The
        # instruction owns ``operands``: subclasses pass a fresh list.
        self.type = type_
        self.name = name
        self.operands = operands
        self.iid = next(_iid_counter)
        self.loc: DebugLoc = SYNTHETIC
        self.parent: Optional["BasicBlock"] = None

    @property
    def function(self) -> Optional["Function"]:
        """The function containing this instruction, if inserted."""
        return self.parent.parent if self.parent is not None else None

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` among the operands.

        Returns the number of replacements made.
        """
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        return count

    def operand_repr(self) -> str:
        return ", ".join(op.short() for op in self.operands)

    def __repr__(self) -> str:
        prefix = f"{self.short()} = " if not self.type.is_void else ""
        return f"<{prefix}{self.opcode} {self.operand_repr()} #{self.iid}>"


# ---------------------------------------------------------------------------
# Memory instructions
# ---------------------------------------------------------------------------


class Alloca(Instruction):
    """Allocate ``size`` bytes of (volatile) stack storage; yields ptr."""

    opcode = "alloca"

    def __init__(self, size: int, name: str = ""):
        if size <= 0:
            raise IRError("alloca size must be positive")
        Instruction.__init__(self, PTR, [], name)
        self.size = size

    def operand_repr(self) -> str:
        return str(self.size)


class Load(Instruction):
    """Load an integer of the given type from a pointer."""

    opcode = "load"

    def __init__(self, ptr: Value, type_: Type, name: str = ""):
        if not ptr.type.is_pointer:
            raise IRError("load requires a pointer operand")
        if type_.is_void:
            raise IRError("cannot load void")
        Instruction.__init__(self, type_, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def size(self) -> int:
        return self.type.size


class Store(Instruction):
    """Store a value through a pointer.

    Stores are the protagonists of this paper: a store whose target is
    persistent memory creates a durability obligation that must be met
    by a following flush and fence.

    ``nontemporal`` models x86 MOVNT stores (§2.1's second durability
    mechanism): the data bypasses the cache straight into the
    write-combining buffer, so it needs *no flush* — but it is weakly
    ordered and still needs a fence before it is durable.
    """

    opcode = "store"

    def __init__(self, value: Value, ptr: Value, nontemporal: bool = False):
        if not ptr.type.is_pointer:
            raise IRError("store requires a pointer target")
        if value.type.is_void:
            raise IRError("cannot store void")
        Instruction.__init__(self, VOID, [value, ptr])
        self.nontemporal = nontemporal

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    @property
    def size(self) -> int:
        return self.value.type.size


class Gep(Instruction):
    """Pointer arithmetic: ``result = base + offset`` (byte offset)."""

    opcode = "gep"

    def __init__(self, base: Value, offset: Value, name: str = ""):
        if not base.type.is_pointer:
            raise IRError("gep base must be a pointer")
        if not offset.type.is_integer:
            raise IRError("gep offset must be an integer")
        Instruction.__init__(self, PTR, [base, offset], name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def offset(self) -> Value:
        return self.operands[1]


# ---------------------------------------------------------------------------
# Arithmetic / logic
# ---------------------------------------------------------------------------


class BinOp(Instruction):
    """A binary integer operation (see :data:`BINARY_OPS`)."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise IRError(f"unknown binary op: {op!r}")
        if not (lhs.type.is_integer and rhs.type.is_integer):
            raise IRError(f"{op} requires integer operands")
        if lhs.type != rhs.type:
            raise IRError(f"{op} operand types differ: {lhs.type} vs {rhs.type}")
        Instruction.__init__(self, lhs.type, [lhs, rhs], name)
        self.op = op

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return self.op


class ICmp(Instruction):
    """Integer comparison producing an ``i1``."""

    opcode = "icmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in ICMP_PREDS:
            raise IRError(f"unknown icmp predicate: {pred!r}")
        if lhs.type != rhs.type:
            raise IRError("icmp operand types differ")
        Instruction.__init__(self, I1, [lhs, rhs], name)
        self.pred = pred

    def operand_repr(self) -> str:
        return f"{self.pred} {self.operands[0].short()}, {self.operands[1].short()}"


class Select(Instruction):
    """``result = cond ? a : b``."""

    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, name: str = ""):
        if a.type != b.type:
            raise IRError("select arm types differ")
        Instruction.__init__(self, a.type, [cond, a, b], name)


class Cast(Instruction):
    """Convert between integer widths or between int and pointer.

    ``kind`` is one of ``zext``, ``trunc``, ``ptrtoint``, ``inttoptr``.
    """

    CAST_KINDS = ("zext", "trunc", "ptrtoint", "inttoptr")
    opcode = "cast"

    def __init__(self, kind: str, value: Value, to_type: Type, name: str = ""):
        if kind not in self.CAST_KINDS:
            raise IRError(f"unknown cast kind: {kind!r}")
        if kind == "inttoptr" and not to_type.is_pointer:
            raise IRError("inttoptr must produce a pointer")
        if kind == "ptrtoint" and not value.type.is_pointer:
            raise IRError("ptrtoint requires a pointer operand")
        Instruction.__init__(self, to_type, [value], name)
        self.kind = kind

    def operand_repr(self) -> str:
        return f"{self.kind} {self.operands[0].short()} to {self.type}"


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class Branch(Instruction):
    """Conditional branch on an ``i1``."""

    opcode = "br"
    is_terminator = True

    def __init__(self, cond: Value, then_block: "BasicBlock", else_block: "BasicBlock"):
        Instruction.__init__(self, VOID, [cond])
        self.then_block = then_block
        self.else_block = else_block

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def successors(self) -> List["BasicBlock"]:
        return [self.then_block, self.else_block]

    def operand_repr(self) -> str:
        return (
            f"{self.cond.short()}, %{self.then_block.name}, %{self.else_block.name}"
        )


class Jump(Instruction):
    """Unconditional branch."""

    opcode = "jmp"
    is_terminator = True

    def __init__(self, target: "BasicBlock"):
        Instruction.__init__(self, VOID, [])
        self.target = target

    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def operand_repr(self) -> str:
        return f"%{self.target.name}"


class Ret(Instruction):
    """Return from the current function (optionally with a value)."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        Instruction.__init__(self, VOID, [] if value is None else [value])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class Trap(Instruction):
    """Abort execution (models assert failure / abort())."""

    opcode = "trap"
    is_terminator = True

    def __init__(self):
        Instruction.__init__(self, VOID, [])

    def successors(self) -> List["BasicBlock"]:
        return []


class Call(Instruction):
    """Call a function by name.

    The callee is referenced *by name* so that modules can be rewritten
    (function cloning in the persistent-subprogram transformation simply
    retargets ``callee`` to the ``_PM`` clone).  Names not defined in the
    module resolve to interpreter intrinsics (``pm_alloc``, ``memcpy_i``,
    ``checkpoint``, ...).
    """

    opcode = "call"

    def __init__(self, callee: str, args: Sequence[Value], type_: Type, name: str = ""):
        Instruction.__init__(self, type_, list(args), name)
        self.callee = callee

    @property
    def args(self) -> List[Value]:
        return self.operands

    def pointer_args(self) -> List[Value]:
        """The pointer-typed arguments (used by the hoisting heuristic)."""
        return [a for a in self.operands if a.type.is_pointer]

    def operand_repr(self) -> str:
        args = ", ".join(op.short() for op in self.operands)
        return f"@{self.callee}({args})"


# ---------------------------------------------------------------------------
# Persistence primitives
# ---------------------------------------------------------------------------


class Flush(Instruction):
    """Flush the cache line containing the pointed-to address.

    ``clwb`` and ``clflushopt`` are *weakly ordered*: the write-back is
    not guaranteed to complete until a subsequent fence.  ``clflush`` is
    self-ordering (serializing with respect to the flushed line).
    """

    opcode = "flush"

    def __init__(self, ptr: Value, kind: str = "clwb"):
        if kind not in FLUSH_KINDS:
            raise IRError(f"unknown flush kind: {kind!r}")
        if not ptr.type.is_pointer:
            raise IRError("flush requires a pointer operand")
        Instruction.__init__(self, VOID, [ptr])
        self.kind = kind

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def operand_repr(self) -> str:
        return f"{self.kind}, {self.pointer.short()}"


class Fence(Instruction):
    """A store fence (SFENCE) or full fence (MFENCE).

    Fences drain pending weakly-ordered flushes, establishing the
    durability ordering X -> F(X) -> M -> I from the paper's §4.2.
    """

    opcode = "fence"

    def __init__(self, kind: str = "sfence"):
        if kind not in FENCE_KINDS:
            raise IRError(f"unknown fence kind: {kind!r}")
        Instruction.__init__(self, VOID, [])
        self.kind = kind

    def operand_repr(self) -> str:
        return self.kind


def const(value: int, type_: Type = I64) -> Constant:
    """Shorthand constructor for integer constants."""
    if isinstance(type_, IntType) or type_.is_pointer:
        return Constant(value, type_)
    raise IRError(f"cannot make a constant of type {type_}")
