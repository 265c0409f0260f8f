"""Hot loops translated into Python functions.

The flat engine (:mod:`repro.interp.engine`) interprets a run — a
straight-line stretch of flat code ending at a branch, return, trap or
call — one instruction tuple at a time.  Once a run has been entered
often enough, the engine asks :func:`loop_of` whether it lies on a
cycle of hot runs that end in a branch or jump, and :func:`translate`
for the Python source of that cycle, compiled once into a code object.
A run on no such cycle stays on the engine's dispatch chain.

A translation covers a strongly connected set of hot runs.  It runs
them in a ``while`` loop, dispatching on ``pc``, and returns the next
pc only when control leaves the set, when the next run's steps exceed
the fuel left (it returns that run's pc, and the engine cuts the run
as it cuts any other), or raises on a fault.  The entry run was
charged by the engine; the loop counts each later run entry in a
local, and on every exit appends those counts to the engine's
``_tally`` list, so the engine charges their steps, cycles, per-kind
counts and segment iids (``FlatEngine._fold``).

The generated function is ``name(regs, frame, pc, left, <bound
names>)``: ``pc`` is the run being entered, ``left`` the steps of fuel
left after it.  The code object is machine-independent: register slots
holding constants are inlined as literals, and every machine object or
cost constant it needs is a trailing parameter whose default
:func:`bind` fills in per engine (:func:`machine_bindings` names them).
Every register the translated code reads and does not define first is
loaded from ``regs`` once, on entry.  A value is written to ``regs``
where it is defined only when code outside the translation reads it;
the values the runs pass to each other are written back on exit,
since control may come back into the loop at any of its runs.

**Promotion.**  A loop whose only memory accesses are loads and stores
through registers defined outside it, each register always at one
width, and that has no flush, fence or alloca, keeps those stack slots
in Python locals.  At each entry a guard checks that the engine records
no volatile stores and that every slot lies inside the stack's written
prefix, disjoint from the others — so none of them is PM, no access can
grow the stack, and no event can fire inside the loop.  A ``finally``
writes every slot back to the stack bytes on any exit.  When the guard
fails, the entry runs the unpromoted copy of the loop that follows in
the same function.

Each instruction's code starts on its own source line, and
:attr:`Translation.lines` maps every line back to ``(run start, body
index)``, so :func:`fault_index` can locate a fault from the traceback
alone — the function keeps no per-instruction state.

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
from typing import Collection, Dict, List, Optional, Tuple

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

#: Opcodes of a loop's runs that define no register.  (A call, return
#: or trap closes a run that is never a loop member.)
_NO_RESULT = frozenset((OP_STORE, OP_BR, OP_JMP, OP_FLUSH, OP_FENCE))
#: Opcodes that keep a loop's stack slots in memory.
_UNPROMOTABLE = frozenset((OP_FLUSH, OP_FENCE, OP_ALLOCA))


class Translation:
    """One loop's compiled Python function, machine-independent.

    :ivar code: the function's code object.
    :ivar params: the :func:`machine_bindings` names it takes, in order.
    :ivar lines: source line -> ``(run start, body index)`` of the
        instruction whose code the line belongs to, or None.
    :ivar promoted: how many stack slots the loop keeps in locals.
    """

    __slots__ = ("code", "params", "lines", "promoted")

    def __init__(self, code: CodeType, params: Tuple[str, ...], lines: Tuple,
                 promoted: int):
        self.code = code
        self.params = params
        self.lines = lines
        self.promoted = promoted


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


def _writes(inst: tuple) -> Optional[int]:
    """The register slot a loop's instruction ``inst`` defines, if any."""
    return None if inst[0] in _NO_RESULT else inst[2]


def _successors(closer: tuple) -> Tuple[int, ...]:
    """The run starts a run ending in ``closer`` can continue at."""
    if closer[0] == OP_BR:
        return (closer[3], closer[4])
    if closer[0] == OP_JMP:
        return (closer[2],)
    return ()


def loop_of(cf: CompiledFunction, start: int, hot: Collection[int]) -> Tuple[int, ...]:
    """The start pcs of the loop to translate with the run at ``start``:
    its strongly connected component in the graph of the ``hot`` runs
    that end in a branch or jump, when the component has a cycle; else
    ``()``, since a run on no hot cycle is not translated."""

    def successors(pc):
        return tuple(t for t in _successors(cf.runs[pc][3][-1]) if t in hot)

    reached = set()
    todo = list(successors(start))
    while todo:
        pc = todo.pop()
        if pc not in reached:
            reached.add(pc)
            todo.extend(successors(pc))
    if start not in reached:
        return ()
    members = {start}
    grown = True
    while grown:
        grown = False
        for pc in reached - members:
            if any(t in members for t in successors(pc)):
                members.add(pc)
                grown = True
    return tuple(sorted(members))


def _promotable(cf: CompiledFunction, members: Tuple[int, ...]) -> Dict[int, int]:
    """Address register -> access width of every stack slot the loop
    over ``members`` may keep in a local; empty when it may keep none."""
    bodies = [cf.runs[start][3] for start in members]
    defined = {_writes(inst) for body in bodies for inst in body}
    widths: Dict[int, int] = {}
    for body in bodies:
        for inst in body:
            op = inst[0]
            if op in _UNPROMOTABLE:
                return {}
            if op in (OP_LOAD, OP_STORE):
                ptr, size = inst[3], inst[4]
                if ptr in defined or widths.setdefault(ptr, size) != size:
                    return {}
    return widths


class _Writer:
    """Source lines of one generated function, each tagged with the
    ``(run start, body index)`` it belongs to."""

    def __init__(self, cf: CompiledFunction, members: Tuple[int, ...],
                 escaping: set, carried: Tuple[int, ...]):
        self.cf = cf
        self.template = cf.base_template
        self.members = members
        self.escaping = escaping
        self.carried = carried
        self.lines: List[str] = []
        self.owners: List[Optional[tuple]] = []
        self.used: set = set()
        self.entry_loads: Dict[int, None] = {}  # an ordered set
        self.defined: set = set()  # defined earlier in the current run
        self.owner: Optional[tuple] = None
        self.indent = 0
        self.stack = False  # whether the code reads ``_n``
        self.promoted: Dict[int, int] = {}  # in the promoted copy

    def emit(self, text: str, depth: int = 1) -> None:
        self.lines.append("    " * (self.indent + depth) + text)
        self.owners.append(self.owner)

    def use(self, name: str) -> str:
        self.used.add(name)
        return name

    def read(self, slot: int) -> str:
        """An expression for register ``slot``: a literal for a
        constant, else a local (loaded from ``regs`` on entry unless
        the current run defines it first)."""
        value = self.template[slot]
        if value is not None:
            return repr(value)
        if slot not in self.defined:
            self.entry_loads[slot] = None
        return f"v{slot}"

    def stack_offset(self, ptr: str, size: int) -> None:
        """Open the stack fast path's test for a ``size``-byte access at
        ``ptr``.  ``_n`` is ``len(_sd)``, read on entry: the stack's
        written prefix only grows while translated code executes, and
        only through ``write_int``, after which ``_n`` is re-read; a
        stale ``_n`` would only send an access the slow way."""
        self.stack = True
        self.emit(f"_o = {ptr} - {self.use('_sb')}")
        self.emit(f"if 0 <= _o <= _n - {size}:")

    def write(self, slot: int, expr: str, depth: int = 1) -> None:
        """Define register ``slot``; written back to ``regs`` only when
        read outside the translated code."""
        self.defined.add(slot)
        if slot in self.escaping:
            self.emit(f"regs[{slot}] = v{slot} = {expr}", depth)
        else:
            self.emit(f"v{slot} = {expr}", depth)

    def goto(self, target: int, depth: int) -> None:
        """Continue at run ``target``: inside the loop if it is a
        member and its steps fit the fuel left, else return it."""
        if target not in self.members:
            self.emit(f"return {target}", depth)
            return
        steps = self.cf.runs[target][0]
        self.emit(f"if left < {steps}:", depth)
        self.emit(f"return {target}", depth + 1)
        self.emit(f"left -= {steps}", depth)
        self.emit(f"n{target} += 1", depth)
        if len(self.members) > 1:
            self.emit(f"pc = {target}", depth)

    def run(self, start: int) -> None:
        """The code of the run at ``start``."""
        self.defined = set()
        for index, inst in enumerate(self.cf.runs[start][3]):
            self.owner = (start, index)
            _translate_inst(self, inst, self.cf)
        self.owner = None

    def loop(self) -> None:
        """A ``while`` loop over the member runs, dispatching on ``pc``."""
        self.emit("while True:")
        self.indent += 1
        last = len(self.members) - 1
        for position, start in enumerate(self.members):
            if last:
                test = "else" if position == last else f"if pc == {start}"
                self.emit(f"{'el' if 0 < position < last else ''}{test}:")
                self.indent += 1
            self.run(start)
            if last:
                self.indent -= 1
        self.indent -= 1


def _slots_read(code: Tuple[tuple, ...], pcs) -> set:
    slots: set = set()
    for pc in pcs:
        slots.update(_reads(code[pc]))
    return slots


def translate(cf: CompiledFunction, members: Tuple[int, ...]) -> Translation:
    """Translate the loop over the runs starting at ``members`` (see
    :func:`loop_of`)."""
    code = cf.code
    spans = {start: range(start, start + cf.runs[start][0]) for start in members}
    inside = {pc for span in spans.values() for pc in span}
    escaping = _slots_read(code, (pc for pc in range(len(code)) if pc not in inside))
    carried: set = set()
    for start, span in spans.items():
        defined = {_writes(code[pc]) for pc in span}
        others = inside.difference(span)
        carried.update(defined & _slots_read(code, others))
    w = _Writer(cf, members, escaping, tuple(sorted(carried)))
    promoted = _promotable(cf, members)
    name = f"loop_{members[0]}"
    w.indent = 1
    if promoted:
        _promoted_loop(w, promoted)
    w.loop()
    w.indent = 0
    w.emit("finally:")
    for slot in w.carried:
        w.emit(f"regs[{slot}] = v{slot}", 2)
    tally = ", ".join(f"({start}, n{start})" for start in members)
    w.emit(f"{w.use('_tally')}.append(({tally},))", 2)
    prologue = [f"    v{slot} = regs[{slot}]" for slot in w.entry_loads]
    if w.stack:
        prologue.append(f"    _n = len({w.use('_sd')})")
    prologue.append("    " + " = ".join(f"n{start}" for start in members) + " = 0")
    prologue.append("    try:")
    params = tuple(sorted(w.used))
    header = ", ".join(
        ("regs", "frame", "pc", "left") + tuple(f"{p}=None" for p in params)
    )
    source = "\n".join([f"def {name}({header}):", *prologue, *w.lines]) + "\n"
    unit = compile(source, f"<{name} @{cf.name}>", "exec")
    function = next(c for c in unit.co_consts if isinstance(c, CodeType))
    # line 1 is the ``def``, then the prologue, then w.lines
    lines = (None,) * (2 + len(prologue)) + tuple(w.owners)
    return Translation(function, params, lines, len(promoted))


def _promoted_loop(w: _Writer, promoted: Dict[int, int]) -> None:
    """The loop with the slots at ``promoted``'s address registers in
    locals ``m<slot>``, behind the entry guard; returns or raises,
    never falls through to the unpromoted copy after it."""
    sb = w.use("_sb")
    tests = [f"not {w.use('_rvo')}"]
    slots = sorted(promoted)
    for slot in slots:
        w.emit(f"o{slot} = {w.read(slot)} - {sb}")
        tests.append(f"0 <= o{slot} <= _n - {promoted[slot]}")
    for i, slot in enumerate(slots):
        for other in slots[i + 1 :]:
            tests.append(
                f"(o{slot} + {promoted[slot]} <= o{other}"
                f" or o{other} + {promoted[other]} <= o{slot})"
            )
    w.stack = True
    w.emit(f"if {' and '.join(tests)}:")
    for slot in slots:
        w.emit(f"m{slot} = {w.use(f'_u{promoted[slot]}')}(_sd, o{slot})[0]", 2)
    w.emit("try:", 2)
    w.indent += 2
    w.promoted = promoted
    w.loop()
    w.promoted = {}
    w.indent -= 2
    w.emit("finally:", 2)
    for slot in slots:
        w.emit(f"{w.use(f'_p{promoted[slot]}')}(_sd, o{slot}, m{slot})", 3)


def machine_bindings(machine, model, dyn: List[int], tally: list) -> Dict[str, object]:
    """What the parameters of translated code are bound to in one
    engine: its machine's state, its cost model's machine-dependent
    costs, ``dyn``, the cell their cycles go to, and ``tally``, where
    loops leave their run entry counts."""
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
        _rvo=recorder.record_vol_ops,
        _cache=machine.cache,
        _m=machine,
        _as=space.alloc_stack,
        _dyn=dyn,
        _tally=tally,
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


def bind(translation: Translation, bindings: Dict[str, object]) -> FunctionType:
    """The translated function with its parameters bound to one engine."""
    code = translation.code
    defaults = tuple(bindings[name] for name in translation.params)
    return FunctionType(code, _GLOBALS, code.co_name, defaults)


def fault_index(tb, translation: Translation) -> Optional[Tuple[int, int]]:
    """The ``(run start, body index)`` of the instruction a fault in
    ``translation``'s code was raised from, or None if its traceback
    never entered that code or left it between instructions."""
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
        if inst[3] in w.promoted:
            w.write(inst[2], f"m{inst[3]}")
            return
        w.stack_offset(ptr, size)
        w.write(inst[2], f"{w.use(f'_u{size}')}(_sd, _o)[0]", 2)
        w.emit("else:")
        w.write(inst[2], f"{w.use('_ri')}({ptr}, {size})", 2)
    elif op in _ICMP_SYMBOLS:
        a, b = w.read(inst[3]), w.read(inst[4])
        w.write(inst[2], f"1 if {a} {_ICMP_SYMBOLS[op]} {b} else 0")
    elif op == OP_BR:
        w.emit(f"if {w.read(inst[2])}:")
        w.goto(inst[3], 2)
        w.emit("else:")
        w.goto(inst[4], 2)
    elif op == OP_JMP:
        w.goto(inst[2], 1)
    elif op == OP_GEP:
        a, b = w.read(inst[3]), w.read(inst[4])
        w.write(inst[2], f"({a} + {b}) & {_U64}")
    elif op == OP_STORE:
        if inst[3] in w.promoted:
            w.emit(f"m{inst[3]} = {w.read(inst[2])} & {inst[7]}")
        else:
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
    else:  # pragma: no cover - a call, return or trap closes no loop's run
        raise AssertionError(f"cannot translate opcode {op}")


def _translate_store(w: _Writer, inst: tuple) -> None:
    _, _, value_slot, ptr_slot, size, nontemporal, _, mask, pc = inst
    value, ptr = w.read(value_slot), w.read(ptr_slot)
    rec, rvo = w.use("_rec"), w.use("_rvo")
    w.stack_offset(ptr, size)
    # an already-written stack byte range: never PM
    w.emit(f"{w.use(f'_p{size}')}(_sd, _o, {value} & {mask})", 2)
    w.emit(f"if {rvo}:", 2)
    w.emit(f"frame[2] = {pc}", 3)
    w.emit(f"{rec}.record_store({ptr}, {size}, 'vol')", 3)
    w.emit("else:")
    w.emit(f"{w.use('_wi')}({ptr}, {size}, {value})", 2)
    w.emit("_n = len(_sd)", 2)
    w.emit(f"if {w.use('_pmb')} <= {ptr} < {w.use('_pme')}:", 2)
    w.emit(f"frame[2] = {pc}", 3)
    w.emit(f"{rec}.record_store({ptr}, {size}, 'pm', nontemporal={nontemporal!r})", 3)
    on_store = "on_nt_store" if nontemporal else "on_store"
    w.emit(f"{w.use('_cache')}.{on_store}({ptr}, {size})", 3)
    w.emit(f"{w.use('_dyn')}[0] += {w.use('_pse')}", 3)
    w.emit(f"elif {rvo}:", 2)
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
