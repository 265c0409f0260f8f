"""The flat execution engine: register-compiled dispatch.

A drop-in :class:`~repro.interp.interpreter.Interpreter` subclass that
replaces the tree-walking ``_run`` with a loop over
:class:`~repro.interp.compile.CompiledFunction` instruction tuples:

- the loop enters a straight-line **run** (see the compiler's run
  table) and charges its steps, static cycles and per-kind counts at
  once; the inner ``for inst in body`` does no accounting and no pc
  arithmetic — terminators and calls pick the next run, and only the cycles that depend on machine state (flushes,
  the PM-store premium, a fence's per-line drain) are charged inline;
- a hot loop — a cycle of runs ending in a branch or jump, each
  entered ``_TRANSLATE_AFTER`` times — is translated into one Python
  function (:mod:`repro.interp.translate`) when its last run gets hot;
  from then on the engine makes one call per entry into the cycle.
  The translation runs the cycle inside itself, keeps the stack slots
  it alone touches in Python locals when it can, and returns only when
  control leaves the cycle, at a fuel cut or on a fault; ``_fold`` then
  charges the run entries it counted;
- every other run — not yet hot, on no hot cycle, or cut by the fuel
  limit — is dispatched one instruction at a time: an integer compare
  chain over the hot opcodes, ordered by measured frequency, plus an
  opcode-indexed handler table for the cold ones — no ``isinstance``;
- operands are ``regs[slot]`` list reads — no per-operand dict hash;
- steps, cycles and the packed per-kind counts live in locals and
  fold back into the interpreter fields in a ``finally`` — no
  attribute traffic on the hot path.

Everything observable is **byte-identical** to the reference engine:
trace events (including stack captures — caller frames expose the call
instruction, the active frame the executing instruction), cost cycles
and counts, execution results, error messages and their timing, and
the revalidation recorder's call boundaries and callee spans.  A fault
settles the innermost run as the reference's per-instruction
accounting would have left it (fuel runs out at the same instruction;
see ``_abandon_run``, which finds a fault inside
translated code — its run and instruction — from the traceback's line
number).  The differential suite (``tests/test_engine_differential.py``)
enforces this corpus-wide and on random branching and looping programs,
including fuel sweeps that cut runs at every position.

The engine runs only verified code: the compiler refuses a function
the verifier rejects, so the engine is never built over a block that
lacks a terminator or a use its definition does not dominate.  The
reference engine's ``fell off block`` and ``undefined value`` errors
are for code nobody verified.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from ..obs.observability import NULL_OBS
from ..trace.events import StackFrame
from .compile import (
    CALL_DECLARATION,
    CALL_INTRINSIC,
    CALL_MODULE,
    CompiledFunction,
    CompiledProgram,
    cached_program,
    static_kind,
)
from .costs import KIND_INDEX, KIND_ORDER, CostModel
from .interpreter import Interpreter

_U64 = (1 << 64) - 1


#: Per-kind counts travel packed into one int, a _COUNT_BITS-bit field
#: per kind slot, so entering a run charges all of them with one
#: addition; ``_run`` unpacks the total into the dense slots on exit.
#: A field holds at most the steps of one entry-point call.
_COUNT_BITS = 64
_COUNT_MASK = (1 << _COUNT_BITS) - 1

#: A run is hot from its ``_TRANSLATE_AFTER``-th untranslated entry on,
#: and a cycle of hot runs is translated (:mod:`repro.interp.translate`)
#: when its last run gets hot.  A translation costs ~0.4 ms per run and
#: then saves ~0.1 us per step, so it pays for itself after ~4,000 steps
#: through the run: ~1,000 entries of a typical 4-step run.  Translating
#: once every run of a loop has been entered that often bounds the waste
#: either way.  The corpus's busiest run is entered 623 times per engine
#: (at 128, 20 of its runs would get hot and never pay back); a loop
#: that runs for millions of steps translates within its first
#: iterations.  A hot run on no hot cycle is never translated: it leaves
#: the dispatch chain only by joining a cycle whose last run gets hot
#: later.
_TRANSLATE_AFTER = 1024


def _static_costs(model: CostModel) -> Tuple[int, ...]:
    """Per kind slot, the cycles one execution costs whatever it does.

    A flush's whole cost, a PM store's premium and a fence's per-line
    drain depend on the machine state, so the loop charges them where
    they happen."""
    static = [getattr(model, kind) for kind in KIND_ORDER]
    static[KIND_INDEX["flush"]] = 0
    return tuple(static)


class _LinkedFunction:
    """A :class:`CompiledFunction` bound to one machine and cost model:
    the frame template has this machine's global addresses filled in,
    and each run's entry its static cycles and packed counts.

    :ivar runs: pc-indexed; at a run's start pc ``(steps, cycles,
        packed counts, iids, body, translated)``, else ``None``;
        ``translated`` is the function of the loop translation the run
        belongs to, else ``None``.
    :ivar entries: pc-indexed count of a run's untranslated entries.
    :ivar translated: run start -> the
        :class:`~repro.interp.translate.Translation` its loop's function
        was bound from.
    """

    __slots__ = (
        "cf", "name", "runs", "entries", "translated", "insts", "template",
        "arg_masks",
    )

    def __init__(
        self,
        cf: CompiledFunction,
        global_addrs: Dict[str, int],
        static_costs: Tuple[int, ...],
    ):
        self.cf = cf
        self.name = cf.name
        runs = list(cf.runs)
        for pc, run in enumerate(runs):
            if run is not None:
                steps, counts, iids, body = run
                cycles = packed = 0
                for kind, count in counts:
                    cycles += static_costs[kind] * count
                    packed += count << (_COUNT_BITS * kind)
                runs[pc] = (steps, cycles, packed, iids, body, None)
        self.runs = runs
        self.entries = [0] * len(runs)
        self.translated: Dict[int, object] = {}
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

    Accepts every :class:`Interpreter` constructor argument and executes
    the module's shared :func:`~repro.interp.compile.cached_program`.
    """

    def __init__(
        self,
        module,
        machine=None,
        cost_model=None,
        fuel: int = 50_000_000,
        obs=NULL_OBS,
        run_recorder=None,
    ):
        super().__init__(
            module,
            machine=machine,
            cost_model=cost_model,
            fuel=fuel,
            obs=obs,
            run_recorder=run_recorder,
        )
        self._program: Optional[CompiledProgram] = None
        self._linked: Dict[str, _LinkedFunction] = {}
        self._cold = _COLD_HANDLERS
        #: cycles charged by translated loops, folded in when ``_run`` exits
        self._dyn = [0]
        #: the run entry counts loop translations leave on exit
        self._tally: List[tuple] = []
        self._bindings: Optional[Dict[str, object]] = None
        self._runs_translated = 0
        self._loops_translated = 0
        self._loops_promoted = 0
        self._relink()

    # -- linking ---------------------------------------------------------------

    def _relink(self) -> None:
        """(Re)compile + bind global addresses for the current epoch.

        Links lazily reuse: a function whose CompiledFunction object
        survived the incremental recompile keeps its linked form.
        """
        program = cached_program(self.module)
        previous = self._linked
        linked: Dict[str, _LinkedFunction] = {}
        global_addrs = self.machine.global_addrs
        static_costs = _static_costs(self.costs.model)
        for name, cf in program.functions.items():
            old = previous.get(name)
            if old is not None and old.cf is cf:
                linked[name] = old
            else:
                linked[name] = _LinkedFunction(cf, global_addrs, static_costs)
        self._program = program
        self._linked = linked

    # -- translation -------------------------------------------------------------

    def _translate(self, lf: _LinkedFunction, start: int):
        """Give the hot run at ``start`` and the other untranslated hot
        runs it shares a cycle with
        (:func:`~repro.interp.translate.loop_of`) their loop's translated
        function, bound to this engine; returns it, or None for a run on
        no hot cycle.  The code object is made once per compiled function
        and loop, and shared by every engine linked against it."""
        # Imported on the first hot run: a process whose runs never get
        # hot (most repairs) skips compiling the translator.
        from .translate import bind, loop_of, machine_bindings, translate

        translated = lf.translated
        hot = {
            pc
            for pc, entries in enumerate(lf.entries)
            if entries >= _TRANSLATE_AFTER and pc not in translated
        }
        members = loop_of(lf.cf, start, hot)
        if not members:
            return None
        translations = lf.cf.translations
        translation = translations.get(members)
        if translation is None:
            translation = translations[members] = translate(lf.cf, members)
        if self._bindings is None:
            self._bindings = machine_bindings(
                self.machine, self.costs.model, self._dyn, self._tally
            )
        fast = bind(translation, self._bindings)
        runs = lf.runs
        for pc in members:
            runs[pc] = runs[pc][:5] + (fast,)
            translated[pc] = translation
        self._runs_translated += len(members)
        self._loops_translated += 1
        if translation.promoted and not self._bindings["_rvo"]:
            self._loops_promoted += 1
        return fast

    def _fold(self, lf, tally, steps, cycles, counts):
        """Charge the run entries a translated loop counted in ``tally``
        (``(run start, entries)`` pairs): their steps, static cycles and
        packed counts, returned with the totals.  The last entry of a
        run that faulted is charged too; ``_abandon_run`` settles it."""
        runs = lf.runs
        for start, entries in tally:
            if entries:
                run_steps, run_cycles, run_counts = runs[start][:3]
                steps += entries * run_steps
                cycles += entries * run_cycles
                counts += entries * run_counts
        return steps, cycles, counts

    def finish(self):
        if not self._finished:
            obs = self.obs
            obs.count("interp.runs_translated", self._runs_translated)
            obs.count("interp.loops_translated", self._loops_translated)
            obs.count("interp.loops_promoted", self._loops_promoted)
        return super().finish()

    # -- stack capture ----------------------------------------------------------

    def _capture_stack(self) -> Tuple[StackFrame, ...]:
        frames = []
        for frame in self.frames:
            lf = frame[_F_FN]
            instr = lf.insts[frame[_F_PC]]
            frames.append(StackFrame(lf.name, instr.iid, instr.loc))
        return tuple(frames)

    def current_iid(self) -> int:
        if self.frames:
            frame = self.frames[-1]
            return frame[_F_FN].insts[frame[_F_PC]].iid
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
        # A volatile store records nothing unless the recorder keeps the
        # volatile-op side channel, so the loop skips the no-op
        # ``record_store`` call otherwise.
        record_vol_ops = recorder.record_vol_ops
        read_int = space.read_int
        write_int = space.write_int
        # Loads and stores of already-written stack bytes (every IR local
        # is an alloca) are served here with the instruction's codec.
        # The bytearray is never rebound, so this binding stays current.
        stack_base = space.stack.base
        stack_data = space.stack.data
        pm_base, pm_end = space.pm_bounds()
        alloc_stack = space.alloc_stack
        stack_mark = space.stack_mark
        stack_release = space.stack_release
        linked = self._linked
        costs = self.costs
        dense = costs._dense
        # The dynamic costs; each run's static cycles are charged on entry.
        model = costs.model
        m_pm_store_extra = model.pm_store_extra
        m_flush = model.flush
        m_flush_clean = model.flush_clean
        m_clflush_serial = model.clflush_serial
        m_fence_per_line = model.fence_per_line
        fuel = self.fuel
        run_rec = self._run_recorder
        trace_events = recorder.trace.events
        steps = self.steps
        cycles = costs.cycles
        counts = 0
        dyn = self._dyn
        tally = self._tally
        cold = self._cold

        frame = frames[-1]
        lf = frame[_F_FN]
        regs = frame[_F_REGS]
        runs = lf.runs
        pc = 0  # the current run's start; only run changes move it
        inst = None  # the executing instruction, for ``_abandon_run``

        try:
            while True:
                run_steps, run_cycles, run_counts, _, body, fast = runs[pc]
                steps += run_steps
                cycles += run_cycles
                counts += run_counts
                if steps > fuel:
                    # Cut the body before the instruction that crosses
                    # the limit; the ``else`` below raises there.
                    body = body[: run_steps - (steps - fuel)]
                else:
                    if fast is None:
                        entries = lf.entries
                        entries[pc] += 1
                        if entries[pc] == _TRANSLATE_AFTER:
                            fast = self._translate(lf, pc)
                    if fast is not None:
                        next_pc = fast(regs, frame, pc, fuel - steps)
                        steps, cycles, counts = self._fold(
                            lf, tally.pop(), steps, cycles, counts
                        )
                        pc = next_pc
                        continue

                for inst in body:
                    op = inst[0]
                    if op == OP_ADD:
                        regs[inst[2]] = (regs[inst[3]] + regs[inst[4]]) & inst[5]
                    elif op == OP_LOAD:
                        # Any other address (PM, the heap, a stack slot
                        # past the written prefix, unmapped) goes to
                        # ``read_int``.
                        addr = regs[inst[3]]
                        offset = addr - stack_base
                        if 0 <= offset <= len(stack_data) - inst[4]:
                            regs[inst[2]] = inst[5].unpack_from(
                                stack_data, offset
                            )[0]
                        else:
                            regs[inst[2]] = read_int(addr, inst[4])
                    elif op == OP_STORE:
                        frame[_F_PC] = inst[8]
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
                            recorder.record_store(
                                addr, size, "pm", nontemporal=nontemporal
                            )
                            if nontemporal:
                                cache.on_nt_store(addr, size)
                            else:
                                cache.on_store(addr, size)
                            cycles += m_pm_store_extra
                        elif record_vol_ops:
                            recorder.record_store(addr, size, "vol")
                    elif OP_ICMP_EQ <= op <= OP_ICMP_UGE:
                        lhs = regs[inst[3]]
                        rhs = regs[inst[4]]
                        if op == OP_ICMP_ULT:
                            result = lhs < rhs
                        elif op == OP_ICMP_EQ:
                            result = lhs == rhs
                        elif op == OP_ICMP_NE:
                            result = lhs != rhs
                        elif op == OP_ICMP_ULE:
                            result = lhs <= rhs
                        elif op == OP_ICMP_UGT:
                            result = lhs > rhs
                        else:
                            result = lhs >= rhs
                        regs[inst[2]] = 1 if result else 0
                    elif op == OP_BR:
                        pc = inst[3] if regs[inst[2]] else inst[4]
                        break
                    elif op == OP_JMP:
                        pc = inst[2]
                        break
                    elif op == OP_MUL:
                        regs[inst[2]] = (regs[inst[3]] * regs[inst[4]]) & inst[5]
                    elif op == OP_GEP:
                        regs[inst[2]] = (regs[inst[3]] + regs[inst[4]]) & _U64
                    elif op == OP_SUB:
                        regs[inst[2]] = (regs[inst[3]] - regs[inst[4]]) & inst[5]
                    elif op == OP_CALL:
                        frame[_F_PC] = inst[8]
                        kind = inst[6]
                        if kind == CALL_MODULE:
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
                            runs = callee.runs
                            pc = 0
                        elif kind == CALL_INTRINSIC:
                            result = inst[7](self, [regs[s] for s in inst[3]])
                            dst = inst[2]
                            if dst >= 0:
                                regs[dst] = result & inst[5]
                            pc = inst[8] + 1
                        elif kind == CALL_DECLARATION:
                            raise InterpreterError(
                                f"call to declaration @{inst[4]}"
                            )
                        else:
                            raise InterpreterError(
                                f"call to unknown function @{inst[4]}"
                            )
                        break
                    elif op == OP_RET:
                        value_slot = inst[2]
                        value = regs[value_slot] if value_slot >= 0 else 0
                        done = frames.pop()
                        stack_release(done[_F_MARK])
                        if len(frames) == base_depth:
                            return value
                        if run_rec is not None:
                            run_rec.exit_callee(
                                len(trace_events), len(recorder.vol_ops)
                            )
                        frame = frames[-1]
                        lf = frame[_F_FN]
                        regs = frame[_F_REGS]
                        runs = lf.runs
                        ret_dst = done[_F_RET_DST]
                        if ret_dst >= 0:
                            regs[ret_dst] = value & done[_F_RET_MASK]
                        pc = frame[_F_PC] + 1
                        break
                    elif op == OP_ALLOCA:
                        regs[inst[2]] = alloc_stack(inst[3])
                    elif op == OP_FENCE:
                        frame[_F_PC] = inst[3]
                        completed = cache.on_fence(inst[2])
                        recorder.record_fence(inst[2])
                        cycles += m_fence_per_line * len(completed)
                    elif op == OP_FLUSH:
                        frame[_F_PC] = inst[5]
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
                            if record_vol_ops:
                                recorder.note_vol_flush()
                            cycles += m_flush
                    else:
                        cold[op](self, inst, regs, lf)
                else:
                    # Every run ends in a break, a return or a raise, so
                    # only a body cut at the fuel limit gets here.
                    inst = runs[pc][4][len(body)]
                    raise FuelExhausted(f"exceeded fuel of {fuel} instructions")
        except BaseException as exc:
            if len(frames) > base_depth:
                steps, cycles, counts = self._abandon_run(
                    exc, frames[-1], lf, pc, inst, steps, cycles, counts
                )
            raise
        finally:
            self.steps = steps
            costs.cycles = cycles + dyn[0]
            dyn[0] = 0
            index = 0
            while counts:
                dense[index] += counts & _COUNT_MASK
                counts >>= _COUNT_BITS
                index += 1

    def _abandon_run(self, exc, frame, lf, start, inst, steps, cycles, counts):
        """Settle the innermost run when ``inst`` raised ``exc`` in it.

        The run was charged in full on entry; refund what did not run:
        the steps after the faulting instruction, and the static cycles
        and counts from it on — except that a module or intrinsic call
        keeps its charge, which the reference takes before the depth
        check or the intrinsic runs.  The faulting pc becomes
        ``frame``'s pc.  Returns the settled ``(steps, cycles,
        counts)``.

        A fault inside a translated loop names its run and instruction
        through the traceback instead of ``inst``: the line it was
        raised from maps back to a run start and body index.  The loop,
        entered at ``start``, may have faulted in a later run; the
        entries it counted are charged first (``_fold``).
        """
        run = lf.runs[start]
        index = None
        if run is not None:
            if run[5] is not None:
                from .translate import fault_index

                where = fault_index(exc.__traceback__, lf.translated[start])
                if self._tally:
                    steps, cycles, counts = self._fold(
                        lf, self._tally.pop(), steps, cycles, counts
                    )
                if where is not None:
                    start, index = where
                    run = lf.runs[start]
                    inst = run[4][index]
            if index is None:
                index = next((i for i, x in enumerate(run[4]) if x is inst), None)
        if index is None:
            # An asynchronous exception (e.g. KeyboardInterrupt) landed
            # between runs: everything charged so far ran.
            return steps, cycles, counts
        run_steps, _, _, _, body, _ = run
        cut = isinstance(exc, FuelExhausted)
        steps -= run_steps - index - 1
        dense = self.costs._dense
        static_costs = _static_costs(self.costs.model)
        kept = 0 if cut or inst[0] != OP_CALL else 1
        for x in body[index + kept :]:
            kind = static_kind(x)
            if kind is not None:
                dense[kind] -= 1
                cycles -= static_costs[kind]
        frame[_F_PC] = start + index
        return steps, cycles, counts


# -- cold handlers ----------------------------------------------------------
# Signature: (engine, inst, regs, linked_fn).  The run charged the step,
# count and static cycles on entry.


def _h_udiv(self, inst, regs, lf):
    rhs = regs[inst[4]]
    if rhs == 0:
        raise TrapError(f"division by zero at {lf.insts[inst[6]].loc}")
    regs[inst[2]] = (regs[inst[3]] // rhs) & inst[5]


def _h_urem(self, inst, regs, lf):
    rhs = regs[inst[4]]
    if rhs == 0:
        raise TrapError(f"remainder by zero at {lf.insts[inst[6]].loc}")
    regs[inst[2]] = (regs[inst[3]] % rhs) & inst[5]


def _h_and(self, inst, regs, lf):
    regs[inst[2]] = (regs[inst[3]] & regs[inst[4]]) & inst[5]


def _h_or(self, inst, regs, lf):
    regs[inst[2]] = (regs[inst[3]] | regs[inst[4]]) & inst[5]


def _h_xor(self, inst, regs, lf):
    regs[inst[2]] = (regs[inst[3]] ^ regs[inst[4]]) & inst[5]


def _h_shl(self, inst, regs, lf):
    regs[inst[2]] = (regs[inst[3]] << (regs[inst[4]] & 63)) & inst[5]


def _h_lshr(self, inst, regs, lf):
    regs[inst[2]] = (regs[inst[3]] >> (regs[inst[4]] & 63)) & inst[5]


def _h_select(self, inst, regs, lf):
    regs[inst[2]] = regs[inst[4]] if regs[inst[3]] else regs[inst[5]]


def _h_cast(self, inst, regs, lf):
    regs[inst[2]] = regs[inst[3]] & inst[4]


def _h_trap(self, inst, regs, lf):
    raise TrapError(f"trap at {lf.insts[inst[2]].loc} in @{lf.name}")


def _h_unreachable(self, inst, regs, lf):  # pragma: no cover
    raise InterpreterError(f"flat engine cannot execute opcode {inst[0]}")


_COLD_HANDLERS = [_h_unreachable] * NUM_OPCODES
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
