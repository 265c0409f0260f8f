"""Hot straight-line runs translated into Python functions.

The flat engine (:mod:`repro.interp.engine`) interprets a run — a
straight-line stretch of flat code ending at a branch, return, trap or
call — one instruction tuple at a time.  Once a run has been entered
often enough, the engine asks :func:`translate_run` for its Python
source, compiled once into a code object, and from then on makes one
call per run entry instead of stepping through the tuples:

- the generated function is ``run(regs, frame, <bound names>)``: it
  executes the run's instructions up to, not including, a closing call
  or return, and returns the next pc (``-1`` when a closing call or
  return still has to run through the engine's loop; a closing trap
  raises);
- the code object is machine-independent: register slots holding
  constants are inlined as literals, and every machine object or cost
  constant it needs is a trailing parameter whose default
  :func:`bind_run` fills in per engine (:func:`machine_bindings` names
  them);
- a value read only inside the run that defines it stays a Python
  local; only values another run, or the closing call or return, reads
  are written back to ``regs``;
- each instruction's code starts on its own source line, and
  :attr:`Translation.lines` maps every line back to the instruction's
  index in the run body, so :func:`fault_index` can locate a fault from
  the traceback alone — the function keeps no per-instruction state.

The generated code mirrors the engine loop's handling of each opcode:
the same stack fast path and codecs, ``frame[2]`` (the frame's pc) set
before every store, flush or fence event, the same trap messages.  The
cycles that depend on machine state (the PM-store premium, flushes, a
fence's per-line drain) accumulate in the engine's one-element
``_dyn`` cell, which the engine folds into its cycle count.
"""

from __future__ import annotations

import builtins
from types import CodeType, FunctionType
from typing import Dict, List, Optional, Tuple

from ..errors import TrapError
from ..ir.opcodes import (
    OP_ADD,
    OP_ALLOCA,
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
from ..memory.layout import CODECS
from .compile import CompiledFunction

_U64 = (1 << 64) - 1

_GLOBALS = {"__builtins__": builtins, "TrapError": TrapError}

_BINOP_SYMBOLS = {
    OP_ADD: "+",
    OP_SUB: "-",
    OP_MUL: "*",
    OP_AND: "&",
    OP_OR: "|",
    OP_XOR: "^",
}
_SHIFT_SYMBOLS = {OP_SHL: "<<", OP_LSHR: ">>"}
_ICMP_SYMBOLS = {
    OP_ICMP_EQ: "==",
    OP_ICMP_NE: "!=",
    OP_ICMP_ULT: "<",
    OP_ICMP_ULE: "<=",
    OP_ICMP_UGT: ">",
    OP_ICMP_UGE: ">=",
}


class Translation:
    """One run's compiled Python function, machine-independent.

    :ivar code: the function's code object.
    :ivar params: the :func:`machine_bindings` names it takes, in order.
    :ivar lines: source line -> index of the body instruction whose
        code the line belongs to.
    """

    __slots__ = ("code", "params", "lines")

    def __init__(self, code: CodeType, params: Tuple[str, ...], lines: Tuple):
        self.code = code
        self.params = params
        self.lines = lines


def _reads(inst: tuple) -> Tuple[int, ...]:
    """The register slots ``inst`` reads."""
    op = inst[0]
    if op == OP_STORE:
        return (inst[2], inst[3])
    if op in (OP_LOAD, OP_CAST):
        return (inst[3],)
    if op == OP_SELECT:
        return (inst[3], inst[4], inst[5])
    if op in (OP_BR, OP_FLUSH):
        return (inst[2],)
    if op == OP_CALL:
        return inst[3]
    if op == OP_RET:
        return (inst[2],) if inst[2] >= 0 else ()
    if op in (OP_JMP, OP_FENCE, OP_ALLOCA, OP_TRAP):
        return ()
    return (inst[3], inst[4])  # binary operations, comparisons, gep


def _escaping(code: Tuple[tuple, ...], start: int, stop: int) -> set:
    """Slots read anywhere outside ``code[start:stop]``."""
    slots = set()
    for pc, inst in enumerate(code):
        if not start <= pc < stop:
            slots.update(_reads(inst))
    return slots


class _Writer:
    """Source lines of one generated function, each tagged with the
    body index it belongs to."""

    def __init__(self, cf: CompiledFunction, escaping: set):
        self.template = cf.base_template
        self.escaping = escaping
        self.lines: List[str] = []
        self.owners: List[Optional[int]] = []
        self.loaded: set = set()
        self.used: set = set()
        self.index: Optional[int] = None
        self.stack_len = False  # whether ``_n`` holds ``len(_sd)``

    def emit(self, text: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + text)
        self.owners.append(self.index)

    def use(self, name: str) -> str:
        self.used.add(name)
        return name

    def read(self, slot: int) -> str:
        """An expression for register ``slot``: a literal for a
        constant, else a local (loaded from ``regs`` on first use)."""
        value = self.template[slot]
        if value is not None:
            return repr(value)
        if slot not in self.loaded:
            self.loaded.add(slot)
            self.emit(f"v{slot} = regs[{slot}]")
        return f"v{slot}"

    def stack_offset(self, ptr: str, size: int) -> None:
        """Open the stack fast path's test for a ``size``-byte access at
        ``ptr``.  The stack's written prefix only grows while a run
        executes, and only through ``write_int``, after which ``_n`` is
        re-read; a stale ``_n`` would only send an access the slow way."""
        if not self.stack_len:
            self.emit(f"_n = len({self.use('_sd')})")
            self.stack_len = True
        self.emit(f"_o = {ptr} - {self.use('_sb')}")
        self.emit(f"if 0 <= _o <= _n - {size}:")

    def write(self, slot: int, expr: str, depth: int = 1) -> None:
        """Define register ``slot``; written back to ``regs`` only when
        read outside the translated code."""
        self.loaded.add(slot)
        if slot in self.escaping:
            self.emit(f"regs[{slot}] = v{slot} = {expr}", depth)
        else:
            self.emit(f"v{slot} = {expr}", depth)


def translate_run(cf: CompiledFunction, start: int) -> Optional[Translation]:
    """Translate the run starting at ``start``; None when the run is a
    lone call or return, which leaves nothing to translate."""
    body = cf.runs[start][3]
    closer = body[-1][0]
    count = len(body) - 1 if closer in (OP_CALL, OP_RET) else len(body)
    if count == 0:
        return None
    w = _Writer(cf, _escaping(cf.code, start, start + count))
    for index in range(count):
        w.index = index
        _translate_inst(w, body[index], cf)
    if count < len(body):
        w.emit("return -1")
    params = tuple(sorted(w.used))
    header = ", ".join(("regs", "frame") + tuple(f"{p}=None" for p in params))
    name = f"run_{start}"
    source = "\n".join([f"def {name}({header}):", *w.lines]) + "\n"
    unit = compile(source, f"<run @{cf.name}:{start}>", "exec")
    code = next(c for c in unit.co_consts if isinstance(c, CodeType))
    # line 1 is the ``def``; line k + 2 is w.lines[k]
    return Translation(code, params, (None, None, *w.owners))


def machine_bindings(machine, model, dyn: List[int]) -> Dict[str, object]:
    """What the parameters of translated runs are bound to in one
    engine: its machine's state, its cost model's machine-dependent
    costs, and ``dyn``, the cell their cycles go to."""
    space = machine.space
    recorder = machine.recorder
    pm_base, pm_end = space.pm_bounds()
    bindings = dict(
        _sb=space.stack.base,
        _sd=space.stack.data,  # never rebound
        _ri=space.read_int,
        _wi=space.write_int,
        _pmb=pm_base,
        _pme=pm_end,
        _rec=recorder,
        # a volatile store reaches the recorder only if this is set
        _rvs=recorder.record_volatile_stores or recorder.record_vol_ops,
        _cache=machine.cache,
        _m=machine,
        _as=space.alloc_stack,
        _dyn=dyn,
        _pse=model.pm_store_extra,
        _cfl=model.flush,
        _cflc=model.flush_clean,
        _ccs=model.clflush_serial,
        _cfpl=model.fence_per_line,
    )
    for size, codec in CODECS.items():
        bindings[f"_u{size}"] = codec.unpack_from
        bindings[f"_p{size}"] = codec.pack_into
    return bindings


def bind_run(translation: Translation, bindings: Dict[str, object]) -> FunctionType:
    """The translated function with its parameters bound to one engine."""
    code = translation.code
    defaults = tuple(bindings[name] for name in translation.params)
    return FunctionType(code, _GLOBALS, code.co_name, defaults)


def fault_index(tb, translation: Translation) -> Optional[int]:
    """The body index of the instruction a fault in ``translation``'s
    code was raised from, or None if its traceback never entered it."""
    code = translation.code
    while tb is not None:
        if tb.tb_frame.f_code is code:
            return translation.lines[tb.tb_lineno]
        tb = tb.tb_next
    return None


def _translate_inst(w: _Writer, inst: tuple, cf: CompiledFunction) -> None:
    op = inst[0]
    symbol = _BINOP_SYMBOLS.get(op)
    if symbol is not None:
        a, b = w.read(inst[3]), w.read(inst[4])
        w.write(inst[2], f"({a} {symbol} {b}) & {inst[5]}")
    elif op == OP_LOAD:
        ptr, size = w.read(inst[3]), inst[4]
        w.stack_offset(ptr, size)
        w.write(inst[2], f"{w.use(f'_u{size}')}(_sd, _o)[0]", 2)
        w.emit("else:")
        w.write(inst[2], f"{w.use('_ri')}({ptr}, {size})", 2)
    elif op in _ICMP_SYMBOLS:
        a, b = w.read(inst[3]), w.read(inst[4])
        w.write(inst[2], f"1 if {a} {_ICMP_SYMBOLS[op]} {b} else 0")
    elif op == OP_BR:
        w.emit(f"return {inst[3]} if {w.read(inst[2])} else {inst[4]}")
    elif op == OP_JMP:
        w.emit(f"return {inst[2]}")
    elif op == OP_GEP:
        a, b = w.read(inst[3]), w.read(inst[4])
        w.write(inst[2], f"({a} + {b}) & {_U64}")
    elif op == OP_STORE:
        _translate_store(w, inst)
    elif op == OP_FLUSH:
        _translate_flush(w, inst)
    elif op == OP_FENCE:
        kind = repr(inst[2])
        w.emit(f"frame[2] = {inst[3]}")
        w.emit(f"_lines = len({w.use('_cache')}.on_fence({kind}))")
        w.emit(f"{w.use('_rec')}.record_fence({kind})")
        w.emit(f"{w.use('_dyn')}[0] += {w.use('_cfpl')} * _lines")
    elif op == OP_ALLOCA:
        w.write(inst[2], f"{w.use('_as')}({inst[3]})")
    elif op in (OP_UDIV, OP_UREM):
        a, b = w.read(inst[3]), w.read(inst[4])
        what, symbol = ("division", "//") if op == OP_UDIV else ("remainder", "%")
        message = f"{what} by zero at {cf.insts[inst[6]].loc}"
        w.emit(f"if {b} == 0:")
        w.emit(f"raise TrapError({message!r})", 2)
        w.write(inst[2], f"({a} {symbol} {b}) & {inst[5]}")
    elif op in _SHIFT_SYMBOLS:
        a, b = w.read(inst[3]), w.read(inst[4])
        w.write(inst[2], f"({a} {_SHIFT_SYMBOLS[op]} ({b} & 63)) & {inst[5]}")
    elif op == OP_SELECT:
        cond, a, b = w.read(inst[3]), w.read(inst[4]), w.read(inst[5])
        w.write(inst[2], f"{a} if {cond} else {b}")
    elif op == OP_CAST:
        w.write(inst[2], f"{w.read(inst[3])} & {inst[4]}")
    elif op == OP_TRAP:
        message = f"trap at {cf.insts[inst[2]].loc} in @{cf.name}"
        w.emit(f"raise TrapError({message!r})")
    else:  # pragma: no cover - calls and returns close a run untranslated
        raise AssertionError(f"cannot translate opcode {op}")


def _translate_store(w: _Writer, inst: tuple) -> None:
    _, _, value_slot, ptr_slot, size, nontemporal, _, mask, pc = inst
    value, ptr = w.read(value_slot), w.read(ptr_slot)
    rec, rvs = w.use("_rec"), w.use("_rvs")
    w.stack_offset(ptr, size)
    # an already-written stack byte range: never PM
    w.emit(f"{w.use(f'_p{size}')}(_sd, _o, {value} & {mask})", 2)
    w.emit(f"if {rvs}:", 2)
    w.emit(f"frame[2] = {pc}", 3)
    w.emit(f"{rec}.record_store({ptr}, {size}, 'vol')", 3)
    w.emit("else:")
    w.emit(f"{w.use('_wi')}({ptr}, {size}, {value})", 2)
    w.emit("_n = len(_sd)", 2)
    w.emit(f"if {w.use('_pmb')} <= {ptr} < {w.use('_pme')}:", 2)
    w.emit(f"frame[2] = {pc}", 3)
    w.emit(
        f"_seq = {rec}.record_store({ptr}, {size}, 'pm', "
        f"nontemporal={nontemporal!r}).seq",
        3,
    )
    on_store = "on_nt_store" if nontemporal else "on_store"
    w.emit(f"{w.use('_cache')}.{on_store}({ptr}, {size}, _seq)", 3)
    w.emit(f"{w.use('_dyn')}[0] += {w.use('_pse')}", 3)
    w.emit(f"elif {rvs}:", 2)
    w.emit(f"frame[2] = {pc}", 3)
    w.emit(f"{rec}.record_store({ptr}, {size}, 'vol')", 3)


def _translate_flush(w: _Writer, inst: tuple) -> None:
    _, _, ptr_slot, kind, clflush, pc = inst
    ptr, kind = w.read(ptr_slot), repr(kind)
    rec, dyn, flush = w.use("_rec"), w.use("_dyn"), w.use("_cfl")
    w.emit(f"if {w.use('_pmb')} <= {ptr} < {w.use('_pme')}:")
    w.emit(f"frame[2] = {pc}", 2)
    w.emit(f"_status = {w.use('_cache')}.on_flush({ptr}, {kind})", 2)
    w.emit(
        f"{rec}.record_flush({ptr}, {ptr} & ~63, {kind}, _status != 'redundant')",
        2,
    )
    w.emit("if _status == 'writeback':", 2)
    charge = f"{flush} + {w.use('_ccs')}" if clflush else flush
    w.emit(f"{dyn}[0] += {charge}", 3)
    w.emit("else:", 2)
    w.emit(f"{dyn}[0] += {w.use('_cflc')}", 3)
    w.emit("else:")
    w.emit(f"frame[2] = {pc}", 2)
    w.emit(f"{w.use('_m')}.volatile_flushes += 1", 2)
    w.emit(f"if {rec}.record_vol_ops:", 2)
    w.emit(f"{rec}.note_vol_flush()", 3)
    w.emit(f"{dyn}[0] += {flush}", 2)
