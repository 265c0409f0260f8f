"""The flat execution engine: register-compiled dispatch.

A drop-in :class:`~repro.interp.interpreter.Interpreter` subclass that
replaces the tree-walking ``_run`` with a loop over
:class:`~repro.interp.compile.CompiledFunction` instruction tuples:

- dispatch is one integer compare chain over pre-ordered hot opcodes
  plus an opcode-indexed handler table for the cold ones — no
  ``isinstance``;
- operands are ``regs[slot]`` list reads — no per-operand dict hash;
- steps, cycles, and per-kind cost counts accumulate in locals / a
  dense list and fold back into the interpreter fields in a ``finally``
  — no attribute traffic on the hot path.

Everything observable is **byte-identical** to the reference engine:
trace events (including stack captures — caller frames expose the call
instruction, the active frame the executing instruction), cost cycles
and counts, execution results, error messages and their timing (the
fell-off-block check still precedes step accounting; fuel still charges
the step first), the revalidation recorder's per-segment iid sets, and
snapshot capture points.  The differential suite
(``tests/test_engine_differential.py``) enforces this corpus-wide.

One documented divergence: the reference engine raises ``undefined
value`` the moment an instruction *reads* a value that was never
computed, even if the result is never used in an observable way.  The
flat engine stores ``None`` in never-written registers, so most
arithmetic on an undefined value raises ``TypeError`` at the same
instruction — which the loop translates back into the reference
engine's ``InterpreterError`` — but an undefined value flowing only
through comparisons/branches is silently treated as absent.  The
verifier's definition-before-use check rejects such programs, and every
in-tree producer runs it; programs that bypass the verifier should use
``engine="reference"``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import FuelExhausted, InterpreterError, TrapError
from ..ir.function import Function
from ..ir.opcodes import (
    NUM_OPCODES,
    OP_ALLOCA,
    OP_ADD,
    OP_AND,
    OP_BR,
    OP_CALL,
    OP_CAST,
    OP_FELL_OFF,
    OP_FENCE,
    OP_FLUSH,
    OP_GEP,
    OP_ICMP_EQ,
    OP_ICMP_NE,
    OP_ICMP_UGE,
    OP_ICMP_UGT,
    OP_ICMP_ULE,
    OP_ICMP_ULT,
    OP_JMP,
    OP_LOAD,
    OP_LSHR,
    OP_MUL,
    OP_OR,
    OP_RET,
    OP_SELECT,
    OP_SHL,
    OP_STORE,
    OP_SUB,
    OP_TRAP,
    OP_UDIV,
    OP_UREM,
    OP_XOR,
)
from ..trace.events import StackFrame
from .compile import (
    CALL_DECLARATION,
    CALL_INTRINSIC,
    CALL_MODULE,
    CompiledFunction,
    CompiledProgram,
    cached_program,
)
from .costs import KIND_INDEX
from .interpreter import Interpreter

_U64 = (1 << 64) - 1

_K_LOAD = KIND_INDEX["load"]
_K_STORE = KIND_INDEX["store"]
_K_ARITH = KIND_INDEX["arith"]
_K_COMPARE = KIND_INDEX["compare"]
_K_BRANCH = KIND_INDEX["branch"]
_K_CALL = KIND_INDEX["call"]
_K_RET = KIND_INDEX["ret"]
_K_ALLOCA = KIND_INDEX["alloca"]
_K_GEP = KIND_INDEX["gep"]
_K_SELECT = KIND_INDEX["select"]
_K_CAST = KIND_INDEX["cast"]
_K_INTRINSIC = KIND_INDEX["intrinsic"]
_K_FLUSH = KIND_INDEX["flush"]
_K_FENCE = KIND_INDEX["fence"]


class _LinkedFunction:
    """A :class:`CompiledFunction` bound to one machine: the frame
    template has this machine's global addresses filled in."""

    __slots__ = ("cf", "name", "code", "insts", "template", "arg_masks")

    def __init__(self, cf: CompiledFunction, global_addrs: Dict[str, int]):
        self.cf = cf
        self.name = cf.name
        self.code = cf.code
        self.insts = cf.insts
        template = list(cf.base_template)
        for slot, gname in cf.global_slots:
            template[slot] = global_addrs[gname]
        self.template = template
        self.arg_masks = cf.arg_masks


# Flat frame layout (a plain list for cheap mutation):
#   [linked_fn, regs, pc, ret_dst, ret_mask, stack_mark]
_F_FN = 0
_F_REGS = 1
_F_PC = 2
_F_RET_DST = 3
_F_RET_MASK = 4
_F_MARK = 5


class FlatEngine(Interpreter):
    """Register-compiled interpreter (the default engine).

    Accepts every :class:`Interpreter` constructor argument, plus
    ``program_provider``: a zero-argument callable returning the
    :class:`CompiledProgram` to execute (defaults to the shared
    :func:`~repro.interp.compile.cached_program` cache; the analysis
    manager's ``compiled_program`` key plugs in here).
    """

    def __init__(
        self,
        module,
        machine=None,
        cost_model=None,
        fuel: int = 50_000_000,
        record_volatile_stores: bool = False,
        metrics=None,
        run_recorder=None,
        program_provider: Optional[Callable[[], CompiledProgram]] = None,
    ):
        super().__init__(
            module,
            machine=machine,
            cost_model=cost_model,
            fuel=fuel,
            record_volatile_stores=record_volatile_stores,
            metrics=metrics,
            run_recorder=run_recorder,
        )
        self._program_provider = program_provider or (
            lambda: cached_program(self.module)
        )
        self._program: Optional[CompiledProgram] = None
        self._linked: Dict[str, _LinkedFunction] = {}
        self._cold = _COLD_HANDLERS
        self._relink()

    # -- linking ---------------------------------------------------------------

    def _relink(self) -> None:
        """(Re)compile + bind global addresses for the current epoch.

        Links lazily reuse: a function whose CompiledFunction object
        survived the incremental recompile keeps its linked form.
        """
        program = self._program_provider()
        previous = self._linked
        linked: Dict[str, _LinkedFunction] = {}
        global_addrs = self.machine.global_addrs
        for name, cf in program.functions.items():
            old = previous.get(name)
            if old is not None and old.cf is cf:
                linked[name] = old
            else:
                linked[name] = _LinkedFunction(cf, global_addrs)
        self._program = program
        self._linked = linked

    # -- stack capture ----------------------------------------------------------

    def _capture_stack(self) -> Tuple[StackFrame, ...]:
        frames = []
        for frame in self.frames:
            lf = frame[_F_FN]
            instr = lf.insts[frame[_F_PC]]
            if instr is None:
                continue
            frames.append(StackFrame(lf.name, instr.iid, instr.loc))
        return tuple(frames)

    def current_iid(self) -> int:
        if self.frames:
            frame = self.frames[-1]
            instr = frame[_F_FN].insts[frame[_F_PC]]
            if instr is not None:
                return instr.iid
        return 0

    # -- frame management -------------------------------------------------------

    def _push_frame(self, fn: Function, args: List[int]) -> None:
        if len(self.frames) > 512:
            raise InterpreterError("call stack overflow (depth > 512)")
        lf = self._linked.get(fn.name)
        if lf is None:
            # Only declarations are unlinked; raise the same IRError the
            # reference engine's Frame() constructor does.
            fn.entry
            raise InterpreterError(f"@{fn.name} is not linked")
        regs = lf.template.copy()
        for index, mask in enumerate(lf.arg_masks):
            if index < len(args):
                regs[index] = args[index] & mask
        self.frames.append(
            [lf, regs, 0, -1, 0, self.machine.space.stack_mark()]
        )

    def _pop_frame(self) -> None:
        frame = self.frames.pop()
        self.machine.space.stack_release(frame[_F_MARK])

    # -- main loop --------------------------------------------------------------

    def _run(self, fn: Function, args: List[int]) -> int:
        if self._program.epoch != self.module.epoch:
            self._relink()
        self._push_frame(fn, args)

        # Hot locals: every machine/cost object and model constant the
        # loop touches, bound once per entry-point call.
        frames = self.frames
        base_depth = len(frames) - 1
        machine = self.machine
        space = machine.space
        cache = machine.cache
        recorder = machine.recorder
        # A volatile store records nothing unless one of these is set, so
        # the loop skips the no-op ``record_store`` call otherwise.
        record_vol_stores = (
            recorder.record_volatile_stores or recorder.record_vol_ops
        )
        read_int = space.read_int
        write_int = space.write_int
        # Loads and stores of already-written stack bytes (every IR local
        # is an alloca) are served here with the instruction's codec.
        # The bytearray is never rebound: resets clear it and snapshot
        # restores assign a slice, so this binding stays current.
        stack_base = space.stack.base
        stack_data = space.stack.data
        pm_base, pm_end = space.pm_bounds()
        alloc_stack = space.alloc_stack
        stack_mark = space.stack_mark
        stack_release = space.stack_release
        linked = self._linked
        costs = self.costs
        dense = costs._dense
        model = costs.model
        m_load = model.load
        m_store = model.store
        m_store_pm = model.store + model.pm_store_extra
        m_arith = model.arith
        m_compare = model.compare
        m_branch = model.branch
        m_call = model.call
        m_ret = model.ret
        m_alloca = model.alloca
        m_gep = model.gep
        m_intrinsic = model.intrinsic
        m_flush = model.flush
        m_flush_clean = model.flush_clean
        m_clflush_serial = model.clflush_serial
        m_fence = model.fence
        m_fence_per_line = model.fence_per_line
        fuel = self.fuel
        seg_iids = self._seg_iids
        run_rec = self._run_recorder
        trace_events = recorder.trace.events
        steps = self.steps
        cycles = costs.cycles
        cold = self._cold

        frame = frames[-1]
        lf = frame[_F_FN]
        regs = frame[_F_REGS]
        code = lf.code
        pc = 0
        return_value = 0

        try:
            while True:
                inst = code[pc]
                op = inst[0]
                if op == OP_FELL_OFF:
                    # Checked before step accounting, like the
                    # tree-walker's fell-off-block guard.
                    raise InterpreterError(
                        f"fell off block {inst[2]} in @{lf.name}"
                    )
                steps += 1
                if steps > fuel:
                    raise FuelExhausted(
                        f"exceeded fuel of {fuel} instructions"
                    )
                if seg_iids is not None:
                    seg_iids.add(inst[1])

                if op == OP_LOAD:
                    # Any other address (PM, the heap, a stack slot past
                    # the written prefix, unmapped) goes to ``read_int``;
                    # ``None`` raises its ``TypeError`` in the subtraction.
                    addr = regs[inst[3]]
                    offset = addr - stack_base
                    if 0 <= offset <= len(stack_data) - inst[4]:
                        regs[inst[2]] = inst[5].unpack_from(stack_data, offset)[0]
                    else:
                        regs[inst[2]] = read_int(addr, inst[4])
                    dense[_K_LOAD] += 1
                    cycles += m_load
                    pc += 1
                elif op == OP_GEP:
                    regs[inst[2]] = (regs[inst[3]] + regs[inst[4]]) & _U64
                    dense[_K_GEP] += 1
                    cycles += m_gep
                    pc += 1
                elif op == OP_STORE:
                    frame[_F_PC] = pc
                    addr = regs[inst[3]]
                    size = inst[4]
                    offset = addr - stack_base
                    if 0 <= offset <= len(stack_data) - size:
                        # Never PM: this falls to the volatile branch.
                        inst[6].pack_into(
                            stack_data, offset, regs[inst[2]] & inst[7]
                        )
                    else:
                        write_int(addr, size, regs[inst[2]])
                    if pm_base <= addr < pm_end:
                        nontemporal = inst[5]
                        event = recorder.record_store(
                            addr, size, "pm", nontemporal=nontemporal
                        )
                        if nontemporal:
                            cache.on_nt_store(addr, size, event.seq)
                        else:
                            cache.on_store(addr, size, event.seq)
                        cycles += m_store_pm
                    else:
                        if record_vol_stores:
                            recorder.record_store(addr, size, "vol")
                        cycles += m_store
                    dense[_K_STORE] += 1
                    pc += 1
                elif op == OP_ADD:
                    regs[inst[2]] = (regs[inst[3]] + regs[inst[4]]) & inst[5]
                    dense[_K_ARITH] += 1
                    cycles += m_arith
                    pc += 1
                elif OP_ICMP_EQ <= op <= OP_ICMP_UGE:
                    lhs = regs[inst[3]]
                    rhs = regs[inst[4]]
                    if op == OP_ICMP_EQ:
                        result = lhs == rhs
                    elif op == OP_ICMP_NE:
                        result = lhs != rhs
                    elif op == OP_ICMP_ULT:
                        result = lhs < rhs
                    elif op == OP_ICMP_ULE:
                        result = lhs <= rhs
                    elif op == OP_ICMP_UGT:
                        result = lhs > rhs
                    else:
                        result = lhs >= rhs
                    regs[inst[2]] = 1 if result else 0
                    dense[_K_COMPARE] += 1
                    cycles += m_compare
                    pc += 1
                elif op == OP_BR:
                    pc = inst[3] if regs[inst[2]] else inst[4]
                    dense[_K_BRANCH] += 1
                    cycles += m_branch
                elif op == OP_JMP:
                    pc = inst[2]
                    dense[_K_BRANCH] += 1
                    cycles += m_branch
                elif op == OP_SUB:
                    regs[inst[2]] = (regs[inst[3]] - regs[inst[4]]) & inst[5]
                    dense[_K_ARITH] += 1
                    cycles += m_arith
                    pc += 1
                elif op == OP_CALL:
                    frame[_F_PC] = pc
                    kind = inst[6]
                    if kind == CALL_MODULE:
                        dense[_K_CALL] += 1
                        cycles += m_call
                        if len(frames) > 512:
                            raise InterpreterError(
                                "call stack overflow (depth > 512)"
                            )
                        callee = linked[inst[4]]
                        callee_regs = callee.template.copy()
                        arg_slots = inst[3]
                        for index, mask in enumerate(callee.arg_masks):
                            if index < len(arg_slots):
                                callee_regs[index] = (
                                    regs[arg_slots[index]] & mask
                                )
                        frame = [
                            callee,
                            callee_regs,
                            0,
                            inst[2],
                            inst[5],
                            stack_mark(),
                        ]
                        if run_rec is not None:
                            run_rec.enter_callee(
                                inst[1],
                                len(trace_events),
                                len(recorder.vol_ops),
                                len(frames),
                            )
                        frames.append(frame)
                        lf = callee
                        regs = callee_regs
                        code = callee.code
                        pc = 0
                    elif kind == CALL_INTRINSIC:
                        dense[_K_INTRINSIC] += 1
                        cycles += m_intrinsic
                        result = inst[7](
                            self, [regs[s] for s in inst[3]]
                        )
                        dst = inst[2]
                        if dst >= 0:
                            regs[dst] = result & inst[5]
                        pc += 1
                    elif kind == CALL_DECLARATION:
                        raise InterpreterError(
                            f"call to declaration @{inst[4]}"
                        )
                    else:
                        raise InterpreterError(
                            f"call to unknown function @{inst[4]}"
                        )
                elif op == OP_RET:
                    value_slot = inst[2]
                    value = regs[value_slot] if value_slot >= 0 else 0
                    done = frames.pop()
                    stack_release(done[_F_MARK])
                    dense[_K_RET] += 1
                    cycles += m_ret
                    if len(frames) > base_depth:
                        if run_rec is not None:
                            run_rec.exit_callee(
                                len(trace_events), len(recorder.vol_ops)
                            )
                        frame = frames[-1]
                        lf = frame[_F_FN]
                        regs = frame[_F_REGS]
                        code = lf.code
                        ret_dst = done[_F_RET_DST]
                        if ret_dst >= 0:
                            regs[ret_dst] = value & done[_F_RET_MASK]
                        pc = frame[_F_PC] + 1
                    else:
                        return_value = value
                        break
                elif op == OP_FLUSH:
                    frame[_F_PC] = pc
                    addr = regs[inst[2]]
                    if pm_base <= addr < pm_end:
                        kind = inst[3]
                        status = cache.on_flush(addr, kind)
                        recorder.record_flush(
                            addr, addr & ~63, kind, status != "redundant"
                        )
                        if status == "writeback":
                            cycles += m_flush
                            if inst[4]:
                                cycles += m_clflush_serial
                        else:
                            cycles += m_flush_clean
                    else:
                        machine.volatile_flushes += 1
                        if recorder.record_vol_ops:
                            recorder.note_vol_flush()
                        cycles += m_flush
                    dense[_K_FLUSH] += 1
                    pc += 1
                elif op == OP_FENCE:
                    frame[_F_PC] = pc
                    completed = cache.on_fence(inst[2])
                    recorder.record_fence(inst[2])
                    dense[_K_FENCE] += 1
                    cycles += m_fence + m_fence_per_line * len(completed)
                    pc += 1
                elif op == OP_ALLOCA:
                    regs[inst[2]] = alloc_stack(inst[3])
                    dense[_K_ALLOCA] += 1
                    cycles += m_alloca
                    pc += 1
                else:
                    kind_index, cost = cold[op](self, inst, regs, lf, pc)
                    dense[kind_index] += 1
                    cycles += cost
                    pc += 1
        except BaseException as exc:
            if len(frames) > base_depth:
                frames[-1][_F_PC] = pc
            if isinstance(exc, TypeError):
                self._translate_undefined(lf, regs, pc)
            raise
        finally:
            self.steps = steps
            costs.cycles = cycles

        return return_value

    def _translate_undefined(self, lf: _LinkedFunction, regs, pc: int) -> None:
        """Map a ``TypeError`` from a ``None`` register read onto the
        reference engine's ``undefined value`` error (best effort — a
        genuine TypeError from e.g. an intrinsic re-raises unchanged)."""
        instr = lf.insts[pc]
        if instr is None:
            return
        slots = lf.cf.slots
        for operand in instr.operands:
            slot = slots.get(operand)
            if slot is not None and regs[slot] is None:
                raise InterpreterError(
                    f"undefined value {operand.short()} in @{lf.name}"
                ) from None


# -- cold handlers ----------------------------------------------------------
# Signature: (engine, inst, regs, linked_fn, pc) -> (kind_index, cost).
# The loop applies the count/cycle charge and the pc increment.


def _h_mul(self, inst, regs, lf, pc):
    regs[inst[2]] = (regs[inst[3]] * regs[inst[4]]) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_udiv(self, inst, regs, lf, pc):
    rhs = regs[inst[4]]
    if rhs == 0:
        raise TrapError(f"division by zero at {lf.insts[pc].loc}")
    regs[inst[2]] = (regs[inst[3]] // rhs) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_urem(self, inst, regs, lf, pc):
    rhs = regs[inst[4]]
    if rhs == 0:
        raise TrapError(f"remainder by zero at {lf.insts[pc].loc}")
    regs[inst[2]] = (regs[inst[3]] % rhs) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_and(self, inst, regs, lf, pc):
    regs[inst[2]] = (regs[inst[3]] & regs[inst[4]]) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_or(self, inst, regs, lf, pc):
    regs[inst[2]] = (regs[inst[3]] | regs[inst[4]]) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_xor(self, inst, regs, lf, pc):
    regs[inst[2]] = (regs[inst[3]] ^ regs[inst[4]]) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_shl(self, inst, regs, lf, pc):
    regs[inst[2]] = (regs[inst[3]] << (regs[inst[4]] & 63)) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_lshr(self, inst, regs, lf, pc):
    regs[inst[2]] = (regs[inst[3]] >> (regs[inst[4]] & 63)) & inst[5]
    return _K_ARITH, self.costs.model.arith


def _h_select(self, inst, regs, lf, pc):
    regs[inst[2]] = regs[inst[4]] if regs[inst[3]] else regs[inst[5]]
    return _K_SELECT, self.costs.model.select


def _h_cast(self, inst, regs, lf, pc):
    regs[inst[2]] = regs[inst[3]] & inst[4]
    return _K_CAST, self.costs.model.cast


def _h_trap(self, inst, regs, lf, pc):
    raise TrapError(f"trap at {lf.insts[pc].loc} in @{lf.name}")


def _h_unreachable(self, inst, regs, lf, pc):  # pragma: no cover
    raise InterpreterError(f"flat engine cannot execute opcode {inst[0]}")


_COLD_HANDLERS = [_h_unreachable] * NUM_OPCODES
_COLD_HANDLERS[OP_MUL] = _h_mul
_COLD_HANDLERS[OP_UDIV] = _h_udiv
_COLD_HANDLERS[OP_UREM] = _h_urem
_COLD_HANDLERS[OP_AND] = _h_and
_COLD_HANDLERS[OP_OR] = _h_or
_COLD_HANDLERS[OP_XOR] = _h_xor
_COLD_HANDLERS[OP_SHL] = _h_shl
_COLD_HANDLERS[OP_LSHR] = _h_lshr
_COLD_HANDLERS[OP_SELECT] = _h_select
_COLD_HANDLERS[OP_CAST] = _h_cast
_COLD_HANDLERS[OP_TRAP] = _h_trap
_COLD_HANDLERS = tuple(_COLD_HANDLERS)
