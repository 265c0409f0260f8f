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
- every function is verified first (:func:`compile_function` raises
  :class:`~repro.errors.VerificationError`), so each block ends in its
  one terminator and every register is written before it is read;
- call instructions pre-resolve their callee: module function, known
  intrinsic, declaration (error when executed), or unknown (ditto) —
  sound because any module change that could alter resolution (a
  function added or removed, a call retargeted) moves the module's
  shape epoch, which recompiles every function.

Each instruction becomes a flat tuple ``(opcode, iid, ...)`` whose
layout is opcode-specific (see the ``_encode_*`` helpers; loads and
stores carry their width's :data:`~repro.memory.layout.CODECS` entry,
stores then the value mask; stores, flushes, fences, calls, binary
operations and traps end with their own pc); a parallel
``insts`` tuple keeps the original :class:`Instruction` objects for the
cold paths that need source locations or stack frames.

**Runs**: the flat code splits into straight-line runs, each ending at
a terminator or a call.  The engine charges a run's
steps and per-kind counts when it enters the run, so
:attr:`CompiledFunction.runs` records each of them once, at compile
time (see :func:`static_kind`).  A hot loop — a cycle of runs that
each got hot — is translated into a Python function
(:mod:`repro.interp.translate`), and its code object is kept in
:attr:`CompiledFunction.translations` for every engine.

**Incremental recompilation**: :func:`compile_module` accepts the
previous :class:`CompiledProgram` and reuses a function exactly when
the verifier would still count it as verified: it is
:func:`~repro.ir.verifier.unchanged_since` the epoch it was compiled
at.  The repair loop's flush/fence insertions recompile only the
touched function(s); a change to the module's shape recompiles every
function, as it re-verifies every function.  :func:`cached_program` is
the module-level entry point — a per-module cache held by the module
itself (so it dies with the module) and validated against the mutation
epoch, shared by every engine so detection, replay, and revalidation
all link against one compile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    NUM_OPCODES,
    OP_ALLOCA,
    OP_BR,
    OP_CALL,
    OP_CAST,
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
from ..ir.values import Constant, GlobalVariable, Value
from ..ir.verifier import is_verified, unchanged_since, verify_function
from ..memory.layout import CODECS
from .costs import KIND_INDEX
from .intrinsics import is_intrinsic, lookup

_U64 = (1 << 64) - 1

#: Call resolution kinds (slot 6 of an OP_CALL tuple).
CALL_MODULE = 0
CALL_INTRINSIC = 1
CALL_DECLARATION = 2
CALL_UNKNOWN = 3

#: Opcode -> the :data:`~repro.interp.costs.KIND_INDEX` slot one
#: execution counts under; None for a trap, which raises before any
#: charge.  Calls depend on their resolution (:func:`static_kind`).
_OPCODE_KINDS: List[Optional[int]] = [None] * NUM_OPCODES
for _op in BINOP_OPCODES.values():
    _OPCODE_KINDS[_op] = KIND_INDEX["arith"]
for _op in ICMP_OPCODES.values():
    _OPCODE_KINDS[_op] = KIND_INDEX["compare"]
for _op, _kind in (
    (OP_LOAD, "load"),
    (OP_STORE, "store"),
    (OP_GEP, "gep"),
    (OP_BR, "branch"),
    (OP_JMP, "branch"),
    (OP_RET, "ret"),
    (OP_FLUSH, "flush"),
    (OP_FENCE, "fence"),
    (OP_ALLOCA, "alloca"),
    (OP_SELECT, "select"),
    (OP_CAST, "cast"),
):
    _OPCODE_KINDS[_op] = KIND_INDEX[_kind]
_OPCODE_KINDS = tuple(_OPCODE_KINDS)

#: Call resolution kind -> charged kind: a declaration or unknown
#: callee raises before any charge.
_CALL_KINDS = (KIND_INDEX["call"], KIND_INDEX["intrinsic"], None, None)

#: Opcodes that end a run: the terminators and calls.
_RUN_ENDS = frozenset((OP_BR, OP_JMP, OP_RET, OP_TRAP, OP_CALL))


def static_kind(inst: tuple) -> Optional[int]:
    """The kind slot one execution of ``inst`` counts under, or None."""
    if inst[0] == OP_CALL:
        return _CALL_KINDS[inst[6]]
    return _OPCODE_KINDS[inst[0]]


def _run_entry(counts: Dict[int, int], body: List[tuple]) -> tuple:
    """One run-table entry: ``(steps, counts, body)``."""
    return (len(body), tuple(counts.items()), tuple(body))


def _mask_of(type_) -> int:
    """The truncation mask for a value of ``type_`` (pointer = 64-bit),
    mirroring ``Interpreter._truncate``."""
    if isinstance(type_, IntType):
        return type_.mask
    return _U64


class CompiledFunction:
    """One function lowered to the flat format.

    :ivar code: tuple of per-instruction opcode tuples (pc-indexed).
    :ivar runs: the run table, pc-indexed: at each run's start pc a
        ``(steps, counts, body)`` tuple — its step count,
        ``(kind slot, count)`` pairs and its slice of :attr:`code` —
        and ``None`` at every other pc.
    :ivar insts: parallel tuple of the source :class:`Instruction`
        objects; cold paths use it for source locations and stack
        capture.
    :ivar base_template: machine-independent register file prototype —
        constants pre-stored, everything else ``None``.  Engines link it
        against a machine by filling :attr:`global_slots`.
    :ivar global_slots: ``(slot, global_name)`` pairs to resolve at link
        time.
    :ivar arg_masks: per-formal truncation masks (args occupy register
        slots ``0..len(arg_masks)-1``).
    :ivar epoch: the module epoch this was compiled at; a recompile
        reuses it while the function is
        :func:`~repro.ir.verifier.unchanged_since` then.
    :ivar translations: the start pcs of a hot loop's runs -> the
        loop's :class:`~repro.interp.translate.Translation`, filled in
        by the engines as loops get hot and shared by every engine
        linked against this compile.
    """

    __slots__ = (
        "name",
        "code",
        "runs",
        "insts",
        "base_template",
        "global_slots",
        "arg_masks",
        "epoch",
        "translations",
    )

    def __init__(self, name: str, epoch: int):
        self.name = name
        self.epoch = epoch
        self.code: Tuple[tuple, ...] = ()
        self.runs: Tuple[Optional[tuple], ...] = ()
        self.insts: Tuple[Instruction, ...] = ()
        self.base_template: List = []
        self.global_slots: Tuple[Tuple[int, str], ...] = ()
        self.arg_masks: Tuple[int, ...] = ()
        self.translations: Dict[Tuple[int, ...], object] = {}

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
            # An instruction result: the verifier has checked that its
            # definition dominates every use, so the slot is written
            # before any read.
            slot = self._new_slot()
        self.slots[value] = slot
        return slot

    def result_slot(self, instr: Instruction) -> int:
        return self.slot_of(instr)

    def compile(self) -> CompiledFunction:
        fn, module = self.fn, self.module
        cf = CompiledFunction(fn.name, module.epoch)

        # Formals first: slots 0..n-1, filled (masked) at frame push.
        for arg in fn.args:
            self.slots[arg] = self._new_slot()
        arg_masks = tuple(_mask_of(arg.type) for arg in fn.args)

        # Block layout: blocks concatenate in order.
        block_pc: Dict[object, int] = {}
        pc = 0
        for block in fn.blocks:
            block_pc[block] = pc
            pc += len(block.instructions)

        # One pass encodes the instructions and closes a run at each
        # terminator and call, so runs start at pc 0, at every block
        # start, and after every call.
        code: List[tuple] = []
        insts: List[Instruction] = []
        runs: List[Optional[tuple]] = [None] * pc
        run_start = 0
        counts: Dict[int, int] = {}
        for block in fn.blocks:
            for instr in block.instructions:
                inst = self._encode(instr, block_pc, len(code))
                code.append(inst)
                insts.append(instr)
                op = inst[0]
                # static_kind, inlined: this runs once per instruction
                kind = _CALL_KINDS[inst[6]] if op == OP_CALL else _OPCODE_KINDS[op]
                if kind in counts:
                    counts[kind] += 1
                elif kind is not None:
                    counts[kind] = 1
                if op in _RUN_ENDS:
                    runs[run_start] = _run_entry(counts, code[run_start:])
                    run_start = len(code)
                    counts = {}

        cf.code = tuple(code)
        cf.runs = tuple(runs)
        cf.insts = tuple(insts)
        cf.base_template = self.template
        cf.global_slots = tuple(self.global_slots)
        cf.arg_masks = arg_masks
        return cf

    def _encode(
        self, instr: Instruction, block_pc: Dict[object, int], pc: int
    ) -> tuple:
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
                pc,
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
            # the pc locates a division's trap message
            return (
                BINOP_OPCODES[instr.op],
                instr.iid,
                self.result_slot(instr),
                slot(instr.operands[0]),
                slot(instr.operands[1]),
                instr.type.mask,
                pc,
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
            return self._encode_call(instr, pc)
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
                pc,
            )
        if isinstance(instr, Fence):
            return (OP_FENCE, instr.iid, instr.kind, pc)
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
            return (OP_TRAP, instr.iid, pc)
        raise InterpreterError(f"cannot compile {instr!r}")

    def _encode_call(self, instr: Call, pc: int) -> tuple:
        # (op, iid, dst, arg_slots, callee, ret_mask, kind, intrinsic_fn, pc)
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
        return (
            OP_CALL, instr.iid, dst, arg_slots, callee, ret_mask, kind, fn_ref, pc
        )


def compile_function(fn: Function, module: Module) -> CompiledFunction:
    """Lower one (defined) function to its flat form; raises
    :class:`~repro.errors.VerificationError` if the verifier rejects it.
    A function verified since its last change is not verified again."""
    if not is_verified(fn):
        verify_function(fn)
    return _FunctionCompiler(fn, module).compile()


def compile_module(
    module: Module, previous: Optional[CompiledProgram] = None
) -> CompiledProgram:
    """Compile every defined function, reusing unchanged ones.

    ``previous`` (a compile of an earlier epoch of the *same* module) is
    consulted per function: a function
    :func:`~repro.ir.verifier.unchanged_since` its compile keeps its
    compiled object, so a flush insertion into one function recompiles
    one function.
    """
    prev_fns = previous.functions if previous is not None else {}
    functions: Dict[str, CompiledFunction] = {}
    for name, fn in module.functions.items():
        if fn.is_declaration:
            continue
        prev = prev_fns.get(name)
        if prev is not None and unchanged_since(fn, prev.epoch):
            functions[name] = prev
        else:
            functions[name] = compile_function(fn, module)
    return CompiledProgram(module.name, module.epoch, functions)


def cached_program(module: Module) -> CompiledProgram:
    """The module's compiled program at its current epoch.

    Recompiles (incrementally, against the cached previous compile) when
    the mutation epoch moved; otherwise returns the cached object.  All
    engines executing one module share this, so a detection run, a
    snapshot replay, and a revalidation re-record never repeat a
    compile.
    """
    program = module.compiled_program
    if program is not None and program.epoch == module.epoch:
        return program
    program = compile_module(module, previous=program)
    module.compiled_program = program
    return program
