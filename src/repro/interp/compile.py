"""The per-function compiler behind the flat execution engine.

Lowers IR functions into :class:`CompiledFunction` objects the flat
engine (:mod:`repro.interp.engine`) dispatches over:

- every SSA value (argument, instruction result, constant, global
  address) gets a dense **register slot**; operands are resolved to
  slot indexes at compile time, so the engine reads ``regs[slot]``
  instead of hashing a ``Dict[Value, int]`` per operand;
- constants are folded into the frame **template** (copied per
  activation), so a constant operand costs the same list index as any
  other register;
- global variables get template slots too, filled with their machine
  addresses at *link* time (the compiled program itself is
  machine-independent — one compile serves every machine);
- basic blocks are concatenated into one flat instruction stream and
  branch targets resolved to **pc offsets**, killing the
  ``frame.block.instructions[frame.index]`` double-indexing;
- call instructions pre-resolve their callee: module function, known
  intrinsic, declaration (error when executed), or unknown (ditto) —
  sound because any module change that could alter resolution bumps the
  module epoch and changes the caller's :func:`function_signature`.

Each instruction becomes a flat tuple ``(opcode, iid, ...)`` whose
layout is opcode-specific (see the ``_encode_*`` helpers; loads and
stores end with their width's :data:`~repro.memory.layout.CODECS`
entry, stores then with the value mask); a parallel
``insts`` tuple keeps the original :class:`Instruction` objects for the
cold paths that need source locations or stack frames.

**Incremental recompilation**: :func:`compile_module` accepts the
previous :class:`CompiledProgram` and reuses any function whose
:func:`function_signature` is unchanged, so the repair loop's
flush/fence insertions recompile only the touched function(s).
:func:`cached_program` is the module-level entry point — a weak
per-module cache validated against the mutation epoch, shared by every
engine (and by the analysis manager's ``compiled_program`` key) so
detection, replay, and revalidation all link against one compile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from ..errors import InterpreterError
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Fence,
    Flush,
    Gep,
    ICmp,
    Instruction,
    Jump,
    Load,
    Ret,
    Select,
    Store,
    Trap,
)
from ..ir.module import Module
from ..ir.opcodes import (
    BINOP_OPCODES,
    ICMP_OPCODES,
    OP_ALLOCA,
    OP_BR,
    OP_CALL,
    OP_CAST,
    OP_FELL_OFF,
    OP_FENCE,
    OP_FLUSH,
    OP_GEP,
    OP_JMP,
    OP_LOAD,
    OP_RET,
    OP_SELECT,
    OP_STORE,
    OP_TRAP,
)
from ..ir.types import IntType
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..memory.layout import CODECS
from .intrinsics import is_intrinsic, lookup

_U64 = (1 << 64) - 1

#: Call resolution kinds (slot 6 of an OP_CALL tuple).
CALL_MODULE = 0
CALL_INTRINSIC = 1
CALL_DECLARATION = 2
CALL_UNKNOWN = 3


def _mask_of(type_) -> int:
    """The truncation mask for a value of ``type_`` (pointer = 64-bit),
    mirroring ``Interpreter._truncate``."""
    if isinstance(type_, IntType):
        return type_.mask
    return _U64


def function_signature(fn: Function, module: Module) -> Tuple:
    """A cheap per-function change detector for incremental recompiles.

    Captures, in block order: every instruction's globally unique iid
    (insertions/removals/clones always mint fresh iids) and, for calls,
    the callee name plus whether it currently resolves to a module
    function (a call retarget changes the name; adding/removing the
    callee function flips the resolution bit).  Equal signatures at
    different epochs mean the compiled form is still exact.
    """
    sig: List = []
    for block in fn.blocks:
        for instr in block:
            if isinstance(instr, Call):
                sig.append(
                    (instr.iid, instr.callee, module.has_function(instr.callee))
                )
            else:
                sig.append(instr.iid)
    return tuple(sig)


class CompiledFunction:
    """One function lowered to the flat format.

    :ivar code: tuple of per-instruction opcode tuples (pc-indexed).
    :ivar insts: parallel tuple of the source :class:`Instruction`
        objects (``None`` at fell-off pseudo-slots); cold paths use it
        for source locations and stack capture.
    :ivar base_template: machine-independent register file prototype —
        constants pre-stored, everything else ``None``.  Engines link it
        against a machine by filling :attr:`global_slots`.
    :ivar global_slots: ``(slot, global_name)`` pairs to resolve at link
        time.
    :ivar arg_masks: per-formal truncation masks (args occupy register
        slots ``0..len(arg_masks)-1``).
    :ivar slots: the value -> slot map (debugging / error translation
        only — never on the execution hot path).
    :ivar signature: the :func:`function_signature` this was compiled
        from, compared on recompiles for reuse.
    """

    __slots__ = (
        "name",
        "code",
        "insts",
        "base_template",
        "global_slots",
        "arg_masks",
        "slots",
        "signature",
    )

    def __init__(self, name: str, signature: Tuple):
        self.name = name
        self.signature = signature
        self.code: Tuple[tuple, ...] = ()
        self.insts: Tuple[Optional[Instruction], ...] = ()
        self.base_template: List = []
        self.global_slots: Tuple[Tuple[int, str], ...] = ()
        self.arg_masks: Tuple[int, ...] = ()
        self.slots: Dict[Value, int] = {}

    def __repr__(self) -> str:
        return (
            f"<CompiledFunction @{self.name}: {len(self.code)} slots, "
            f"{len(self.base_template)} regs>"
        )


class CompiledProgram:
    """A module compiled at one mutation epoch."""

    __slots__ = ("module_name", "epoch", "functions")

    def __init__(
        self, module_name: str, epoch: int, functions: Dict[str, CompiledFunction]
    ):
        self.module_name = module_name
        self.epoch = epoch
        self.functions = functions

    def reused_from(self, previous: Optional["CompiledProgram"]) -> int:
        """How many functions were carried over from ``previous``
        (identity comparison; diagnostics for tests and benchmarks)."""
        if previous is None:
            return 0
        return sum(
            1
            for name, cf in self.functions.items()
            if previous.functions.get(name) is cf
        )

    def __repr__(self) -> str:
        return (
            f"<CompiledProgram {self.module_name!r} epoch={self.epoch} "
            f"({len(self.functions)} functions)>"
        )


class _FunctionCompiler:
    """Single-use lowering context for one function."""

    def __init__(self, fn: Function, module: Module):
        self.fn = fn
        self.module = module
        self.slots: Dict[Value, int] = {}
        self.template: List = []
        self.const_slots: Dict[int, int] = {}
        self.global_slots: List[Tuple[int, str]] = []

    def _new_slot(self, initial=None) -> int:
        slot = len(self.template)
        self.template.append(initial)
        return slot

    def slot_of(self, value: Value) -> int:
        slot = self.slots.get(value)
        if slot is not None:
            return slot
        if isinstance(value, Constant):
            slot = self.const_slots.get(value.value)
            if slot is None:
                slot = self._new_slot(value.value)
                self.const_slots[value.value] = slot
        elif isinstance(value, GlobalVariable):
            slot = self._new_slot()
            self.global_slots.append((slot, value.name))
        else:
            # Instruction result (possibly referenced before its
            # definition — the verifier flags that, but the compiler
            # must still produce something; the slot stays None and
            # reads of it reproduce the "undefined value" error) or a
            # foreign value, which likewise reads as undefined.
            slot = self._new_slot()
        self.slots[value] = slot
        return slot

    def result_slot(self, instr: Instruction) -> int:
        return self.slot_of(instr)

    def compile(self) -> CompiledFunction:
        fn, module = self.fn, self.module
        cf = CompiledFunction(fn.name, function_signature(fn, module))

        # Formals first: slots 0..n-1, filled (masked) at frame push.
        for arg in fn.args:
            self.slots[arg] = self._new_slot()
        arg_masks = tuple(_mask_of(arg.type) for arg in fn.args)

        # Block layout: blocks concatenate in order, each followed by a
        # fell-off pseudo-slot (reached only when a block lacks a
        # terminator — same error, same timing as the tree-walker).
        block_pc: Dict[object, int] = {}
        pc = 0
        for block in fn.blocks:
            block_pc[block] = pc
            pc += len(block.instructions) + 1

        code: List[tuple] = []
        insts: List[Optional[Instruction]] = []
        for block in fn.blocks:
            for instr in block.instructions:
                code.append(self._encode(instr, block_pc))
                insts.append(instr)
            code.append((OP_FELL_OFF, 0, block.name))
            insts.append(None)

        cf.code = tuple(code)
        cf.insts = tuple(insts)
        cf.base_template = self.template
        cf.global_slots = tuple(self.global_slots)
        cf.arg_masks = arg_masks
        cf.slots = self.slots
        return cf

    def _encode(self, instr: Instruction, block_pc: Dict[object, int]) -> tuple:
        slot = self.slot_of
        if isinstance(instr, Store):
            return (
                OP_STORE,
                instr.iid,
                slot(instr.value),
                slot(instr.pointer),
                instr.size,
                instr.nontemporal,
                CODECS[instr.size],
                (1 << (8 * instr.size)) - 1,
            )
        if isinstance(instr, Load):
            return (
                OP_LOAD,
                instr.iid,
                self.result_slot(instr),
                slot(instr.pointer),
                instr.size,
                CODECS[instr.size],
            )
        if isinstance(instr, BinOp):
            return (
                BINOP_OPCODES[instr.op],
                instr.iid,
                self.result_slot(instr),
                slot(instr.operands[0]),
                slot(instr.operands[1]),
                instr.type.mask,
            )
        if isinstance(instr, ICmp):
            return (
                ICMP_OPCODES[instr.pred],
                instr.iid,
                self.result_slot(instr),
                slot(instr.operands[0]),
                slot(instr.operands[1]),
            )
        if isinstance(instr, Gep):
            return (
                OP_GEP,
                instr.iid,
                self.result_slot(instr),
                slot(instr.base),
                slot(instr.offset),
            )
        if isinstance(instr, Branch):
            return (
                OP_BR,
                instr.iid,
                slot(instr.cond),
                block_pc[instr.then_block],
                block_pc[instr.else_block],
            )
        if isinstance(instr, Jump):
            return (OP_JMP, instr.iid, block_pc[instr.target])
        if isinstance(instr, Call):
            return self._encode_call(instr)
        if isinstance(instr, Ret):
            value_slot = -1 if instr.value is None else slot(instr.value)
            return (OP_RET, instr.iid, value_slot)
        if isinstance(instr, Flush):
            return (
                OP_FLUSH,
                instr.iid,
                slot(instr.pointer),
                instr.kind,
                instr.kind == "clflush",
            )
        if isinstance(instr, Fence):
            return (OP_FENCE, instr.iid, instr.kind)
        if isinstance(instr, Alloca):
            return (OP_ALLOCA, instr.iid, self.result_slot(instr), instr.size)
        if isinstance(instr, Select):
            cond, a, b = instr.operands
            return (
                OP_SELECT,
                instr.iid,
                self.result_slot(instr),
                slot(cond),
                slot(a),
                slot(b),
            )
        if isinstance(instr, Cast):
            return (
                OP_CAST,
                instr.iid,
                self.result_slot(instr),
                slot(instr.operands[0]),
                _mask_of(instr.type),
            )
        if isinstance(instr, Trap):
            return (OP_TRAP, instr.iid)
        raise InterpreterError(f"cannot compile {instr!r}")

    def _encode_call(self, instr: Call) -> tuple:
        # (op, iid, dst, arg_slots, callee, ret_mask, kind, intrinsic_fn)
        dst = -1
        ret_mask = 0
        if not instr.type.is_void:
            dst = self.result_slot(instr)
            ret_mask = _mask_of(instr.type)
        arg_slots = tuple(self.slot_of(a) for a in instr.args)
        callee = instr.callee
        if self.module.has_function(callee):
            if self.module.get_function(callee).is_declaration:
                kind, fn_ref = CALL_DECLARATION, None
            else:
                kind, fn_ref = CALL_MODULE, None
        elif is_intrinsic(callee):
            kind, fn_ref = CALL_INTRINSIC, lookup(callee)
        else:
            kind, fn_ref = CALL_UNKNOWN, None
        return (OP_CALL, instr.iid, dst, arg_slots, callee, ret_mask, kind, fn_ref)


def compile_function(fn: Function, module: Module) -> CompiledFunction:
    """Lower one (defined) function to its flat form."""
    return _FunctionCompiler(fn, module).compile()


def compile_module(
    module: Module, previous: Optional[CompiledProgram] = None
) -> CompiledProgram:
    """Compile every defined function, reusing unchanged ones.

    ``previous`` (a compile of an earlier epoch of the *same* module) is
    consulted per function: equal :func:`function_signature` means the
    lowered form is still exact and the object is shared, so a
    flush-insertion into one function recompiles one function.
    """
    prev_fns = previous.functions if previous is not None else {}
    functions: Dict[str, CompiledFunction] = {}
    for name, fn in module.functions.items():
        if fn.is_declaration:
            continue
        prev = prev_fns.get(name)
        if prev is not None and prev.signature == function_signature(fn, module):
            functions[name] = prev
        else:
            functions[name] = compile_function(fn, module)
    return CompiledProgram(module.name, module.epoch, functions)


#: module -> its latest CompiledProgram (weak: dropping the module
#: drops the compile).
_PROGRAMS: "WeakKeyDictionary[Module, CompiledProgram]" = WeakKeyDictionary()


def cached_program(module: Module) -> CompiledProgram:
    """The module's compiled program at its current epoch.

    Recompiles (incrementally, against the cached previous compile) when
    the mutation epoch moved; otherwise returns the cached object.  All
    engines executing one module share this, so a detection run, a
    snapshot replay, and a revalidation re-record never repeat a
    compile.
    """
    program = _PROGRAMS.get(module)
    if program is not None and program.epoch == module.epoch:
        return program
    program = compile_module(module, previous=program)
    _PROGRAMS[module] = program
    return program
