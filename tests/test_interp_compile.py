"""The per-function compiler and its caches.

Covers the register-compiled form itself (flat pc space, every block
ending in its terminator, stable opcode numbering, the run table the
engine charges a straight-line run at a time from), the incremental
recompile (a function :func:`~repro.ir.verifier.unchanged_since` its
compile keeps the compiled object; a body edit recompiles that
function, a shape change every function), and the per-module program
cache — in particular that *any* epoch movement (flush/fence commit,
structural commit, even a clean rollback) leaves the cached program
stamped at the module's current epoch, because the flat engine relinks
whenever the two disagree and a stale program would relink forever.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.core.transaction import FixTransaction
from repro.corpus.bugs import all_cases
from repro.errors import VerificationError
from repro.interp import make_interpreter
from repro.interp.compile import cached_program, compile_function, compile_module
from repro.interp.costs import KIND_INDEX
from repro.interp.intrinsics import is_intrinsic
from repro.ir import I1, I8, I16, I32, I64, ModuleBuilder, PTR, opcodes
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Fence,
    Flush,
    Gep,
    ICmp,
    Jump,
    Load,
    Ret,
    Select,
    Store,
)
from repro.ir.opcodes import (
    NUM_OPCODES,
    OP_BR,
    OP_CALL,
    OP_FLUSH,
    OP_JMP,
    OP_LOAD,
    OP_RET,
    OP_STORE,
    OP_TRAP,
    OPCODE_NAMES,
)
from repro.ir.types import STORE_WIDTHS
from repro.memory.layout import CODECS


def build_module():
    mb = ModuleBuilder("cmp")
    helper = mb.function("set_slot", [("p", PTR), ("v", I64)], source_file="c.c")
    helper.store(helper.function.args[1], helper.function.args[0])
    helper.ret()
    b = mb.function("main", [], I64, source_file="c.c")
    p = b.call("pm_alloc", [64], PTR)
    b.call("set_slot", [p, 7])
    b.flush(p)
    b.fence()
    b.ret(0)
    return mb.module


# ---------------------------------------------------------------------------
# the compiled form
# ---------------------------------------------------------------------------


#: Every opcode's number; 0 is retired and never reused.
OPCODE_NUMBERS = {
    "load": 1, "store": 2, "gep": 3, "add": 4, "sub": 5,
    "icmp.eq": 6, "icmp.ne": 7, "icmp.ult": 8, "icmp.ule": 9,
    "icmp.ugt": 10, "icmp.uge": 11, "br": 12, "jmp": 13, "call": 14,
    "ret": 15, "flush": 16, "fence": 17, "alloca": 18, "mul": 19,
    "udiv": 20, "urem": 21, "and": 22, "or": 23, "xor": 24, "shl": 25,
    "lshr": 26, "select": 27, "cast": 28, "trap": 29,
}


def test_opcode_numbering_is_stable():
    """The numbering is part of the engine/compiler contract: handlers
    index by opcode, so renumbering silently breaks dispatch."""
    assert {name: op for op, name in OPCODE_NAMES.items()} == OPCODE_NUMBERS
    assert NUM_OPCODES == max(OPCODE_NAMES) + 1
    defined = {
        value for name, value in vars(opcodes).items() if name.startswith("OP_")
    }
    assert defined == set(OPCODE_NAMES)


def test_every_block_ends_in_fell_off_sentinel():
    """Named for the sentinel slot the compiler once appended after each
    block.  Every block now ends in its terminator, so a block's code is
    exactly its instructions, and a block without one does not compile."""
    module = build_module()
    for fn in module.functions.values():
        cf = compile_function(fn, module)
        assert len(cf.code) == sum(len(block.instructions) for block in fn.blocks)
        pc = 0
        for block in fn.blocks:
            pc += len(block.instructions)
            assert cf.code[pc - 1][0] in TERMINATORS
            assert cf.insts[pc - 1] is block.terminator
    mb = ModuleBuilder("unterminated")
    b = mb.function("main", [], I64, source_file="u.c")
    b.add(1, 2)
    with pytest.raises(VerificationError, match="lacks a terminator"):
        compile_function(b.function, mb.module)


def test_loads_and_stores_carry_their_width_codec():
    """The flat engine's stack path reads the codec (and a store's value
    mask) off the instruction tuple; it never looks them up.  A store
    ends with its own pc, which the engine writes to the frame before
    the store's effects."""
    mb = ModuleBuilder("widths")
    b = mb.function("main", [], I64, source_file="w.c")
    slot = b.alloca(8)
    p = b.call("pm_alloc", [64], PTR)
    for type_ in (I1, I8, I16, I32, I64, PTR):
        b.store(1, slot, type_)
        b.load(slot, type_)
    b.store(p, p, PTR, nontemporal=True)
    b.ret(0)
    cf = compile_function(mb.module.get_function("main"), mb.module)
    seen = 0
    for pc, (inst, instr) in enumerate(zip(cf.code, cf.insts)):
        if inst[0] == OP_LOAD:
            assert inst[4] == instr.size
            assert inst[5:] == (CODECS[instr.size],)
            seen += 1
        elif inst[0] == OP_STORE:
            assert inst[4] == instr.size
            assert inst[5] is instr.nontemporal
            assert inst[6:] == (
                CODECS[instr.size], (1 << (8 * instr.size)) - 1, pc
            )
            seen += 1
    assert seen == 13
    # one codec per load/store width, decoding exactly that many bytes
    assert set(CODECS) == STORE_WIDTHS
    assert all(codec.size == size for size, codec in CODECS.items())


# ---------------------------------------------------------------------------
# the run table
# ---------------------------------------------------------------------------

TERMINATORS = {OP_BR, OP_JMP, OP_RET, OP_TRAP}
RUN_ENDS = TERMINATORS | {OP_CALL}


def build_odd_module():
    """Runs of every shape: a block that is only its terminator, calls
    back to back (a run that is one call), a call right before the
    terminator, straight-line code, and a trap."""
    mb = ModuleBuilder("odd")
    helper = mb.function("helper", [], I64, source_file="o.c")
    helper.ret(1)
    b = mb.function("main", [("x", I64)], I64, source_file="o.c")
    bare = b.new_block("bare")
    after_call = b.new_block("after_call")
    plain = b.new_block("plain")
    trapped = b.new_block("trapped")
    b.br(b.icmp("eq", b.function.args[0], 0), bare, after_call)
    b.position_at_end(bare)
    b.jmp(trapped)
    b.position_at_end(after_call)
    b.add(b.call("helper", [], I64), 1)
    b.call("emit", [2])
    b.call("emit", [3])
    b.jmp(plain)
    b.position_at_end(plain)
    b.ret(b.mul(b.function.args[0], 3))
    b.position_at_end(trapped)
    b.trap()
    return mb.module


def _expected_kind(instr, module):
    """The kind the reference engine charges ``instr`` under, or None."""
    if isinstance(instr, Call):
        if module.has_function(instr.callee):
            if module.get_function(instr.callee).is_declaration:
                return None
            return KIND_INDEX["call"]
        return KIND_INDEX["intrinsic"] if is_intrinsic(instr.callee) else None
    for cls, kind in (
        (Load, "load"), (Store, "store"), (BinOp, "arith"),
        (ICmp, "compare"), (Branch, "branch"), (Jump, "branch"),
        (Ret, "ret"), (Flush, "flush"), (Fence, "fence"),
        (Alloca, "alloca"), (Select, "select"), (Cast, "cast"),
        (Gep, "gep"),
    ):
        if isinstance(instr, cls):
            return KIND_INDEX[kind]
    return None  # trap


def _run_table_functions():
    modules = [build_module(), build_odd_module()]
    modules += [case.build() for case in all_cases()]
    for module in modules:
        for fn in module.functions.values():
            if not fn.is_declaration:
                yield fn, module, compile_function(fn, module)


def test_run_table_invariants():
    for fn, module, cf in _run_table_functions():
        code, runs = cf.code, cf.runs
        assert len(runs) == len(code)
        block_starts, pc = set(), 0
        for block in fn.blocks:
            block_starts.add(pc)
            pc += len(block.instructions)
        starts = [pc for pc, run in enumerate(runs) if run is not None]
        summed = Counter()
        for pc in starts:
            # a run starts at pc 0, a block start, or after a run end
            assert (
                pc == 0 or pc in block_starts or code[pc - 1][0] in RUN_ENDS
            ), (fn.name, pc)
            steps, counts, body = runs[pc]
            assert body == code[pc : pc + len(body)]
            # it ends at its first run end
            assert all(inst[0] not in RUN_ENDS for inst in body[:-1])
            assert body[-1][0] in RUN_ENDS
            assert steps == len(body)
            assert tuple(inst[1] for inst in body) == tuple(
                i.iid for i in cf.insts[pc : pc + steps]
            )
            summed.update(dict(counts))
        # every branch target and call continuation is a run start
        for pc, inst in enumerate(code):
            if inst[0] == OP_BR:
                targets = inst[3:5]
            elif inst[0] == OP_JMP:
                targets = inst[2:3]
            elif inst[0] == OP_CALL:
                targets = (pc + 1,)
            else:
                targets = ()
            for target in targets:
                assert runs[target] is not None, (fn.name, pc, target)
        # steps and counts add up over the runs
        assert sum(runs[pc][0] for pc in starts) == len(code)
        expected = Counter(
            kind
            for kind in (_expected_kind(i, module) for i in cf.insts)
            if kind is not None
        )
        assert summed == expected, fn.name


def test_only_fell_off_slots_after_a_terminator_have_no_run():
    """Named for the unreachable sentinel slot that once followed each
    terminator.  With no such slots, a slot starts a run exactly when it
    is pc 0 or follows a terminator or a call."""
    module = build_odd_module()
    cf = compile_function(module.get_function("main"), module)
    for pc in range(len(cf.code)):
        starts_run = pc == 0 or cf.code[pc - 1][0] in RUN_ENDS
        assert (cf.runs[pc] is not None) == starts_run, pc


def main_call(module):
    """main's ``pm_alloc`` call."""
    return next(i for i in module.get_function("main").entry if i.opcode == "call")


def add_flush_to_main(module):
    """A repair-style body edit: a flush of main's ``pm_alloc`` result,
    inserted through the block primitive that moves main's stamp."""
    call = main_call(module)
    call.parent.insert_after(call, Flush(call))


def retarget_main_call(module):
    """A shape change: main's ``pm_alloc`` call retargeted, as the
    subprogram transformation does, with the bare epoch bump it uses."""
    main_call(module).callee = "vol_alloc"
    module.bump_epoch()


def test_incremental_recompile_reuses_run_tables():
    module = build_module()
    interp = make_interpreter(module)
    first = cached_program(module)
    linked = dict(interp._linked)
    add_flush_to_main(module)
    interp.call("main")  # relinks against the recompile
    second = cached_program(module)
    assert second.functions["set_slot"] is first.functions["set_slot"]
    assert interp._linked["set_slot"] is linked["set_slot"]
    assert second.functions["main"].runs is not first.functions["main"].runs
    assert interp._linked["main"] is not linked["main"]


def test_constants_are_prefilled_in_template():
    module = build_module()
    cf = compile_function(module.get_function("main"), module)
    # pm_alloc's size argument (64) must already sit in the template
    assert 64 in [v for v in cf.base_template if v is not None]


# ---------------------------------------------------------------------------
# incremental recompiles
# ---------------------------------------------------------------------------


def test_unchanged_functions_are_reused_across_epochs():
    """A body edit recompiles only the edited function."""
    module = build_module()
    first = compile_module(module)
    add_flush_to_main(module)
    second = compile_module(module, previous=first)
    assert second.epoch == module.epoch
    assert second.functions["set_slot"] is first.functions["set_slot"]
    assert second.functions["main"] is not first.functions["main"]
    assert second.functions["main"].epoch == module.epoch
    assert [op[0] for op in second.functions["main"].code].count(OP_FLUSH) == 2


def add_function(module):
    module.add_function("extra", [], I64)


@pytest.mark.parametrize(
    "change", [retarget_main_call, add_function, lambda m: m.bump_epoch()],
    ids=["retarget", "add-function", "bare-bump"],
)
def test_shape_change_recompiles_every_function(change):
    """Like re-verification, a change to the module's shape recompiles
    every function, edited or not."""
    module = build_module()
    first = compile_module(module)
    change(module)
    second = compile_module(module, previous=first)
    for name, cf in first.functions.items():
        assert second.functions[name] is not cf
        assert second.functions[name].epoch == module.epoch


def test_cached_program_is_shared_until_epoch_moves():
    module = build_module()
    first = cached_program(module)
    assert cached_program(module) is first
    module.bump_epoch()
    second = cached_program(module)
    assert second is not first
    assert second.epoch == module.epoch
    assert all(
        second.functions[name] is not cf for name, cf in first.functions.items()
    )


def test_cached_program_dies_with_its_module():
    """The compile references the module's instructions, so a cache
    keyed by the module would keep every module compiled in a process
    alive — in a batch worker serving many tasks, every task's."""
    module = build_module()
    cached_program(module)
    dropped = weakref.ref(module)
    del module
    gc.collect()
    assert dropped() is None


# ---------------------------------------------------------------------------
# the program cache across fix transactions
# ---------------------------------------------------------------------------


def count_relinks(interp, monkeypatch):
    calls = []
    relink = interp._relink

    def counting():
        calls.append(1)
        relink()

    monkeypatch.setattr(interp, "_relink", counting)
    return calls


@pytest.mark.parametrize("structural", [False, True])
def test_commit_leaves_compiled_program_at_current_epoch(structural, monkeypatch):
    module = build_module()
    interp = make_interpreter(module)
    before = cached_program(module)
    relinks = count_relinks(interp, monkeypatch)

    txn = FixTransaction(module)
    if structural:
        txn.track_attr(main_call(module), "callee")
        retarget_main_call(module)
    else:
        txn.touch("main")
        add_flush_to_main(module)
    txn.commit()

    after = cached_program(module)
    assert after is not before
    assert after.epoch == module.epoch
    reused = after.functions["set_slot"] is before.functions["set_slot"]
    assert reused is not structural
    interp.call("main")
    interp.call("main")
    assert len(relinks) == 1
    assert interp._program is after


def test_clean_rollback_still_resyncs_compiled_epoch(monkeypatch):
    """A rolled-back transaction restores the IR but the epoch has
    moved; the program cache recompiles at the new epoch (a rolled-back
    retarget is a shape change, so every function), and the flat engine
    relinks once, not on every run."""
    module = build_module()
    interp = make_interpreter(module)
    before = cached_program(module)
    relinks = count_relinks(interp, monkeypatch)

    txn = FixTransaction(module)
    call = main_call(module)
    txn.track_attr(call, "callee")
    retarget_main_call(module)
    txn.rollback()

    assert call.callee == "pm_alloc"  # IR restored
    after = cached_program(module)
    assert after.epoch == module.epoch
    assert all(
        after.functions[name] is not cf for name, cf in before.functions.items()
    )
    for _ in range(3):
        interp.call("main")
    assert len(relinks) == 1
    assert interp._program is after
    assert cached_program(module) is after
