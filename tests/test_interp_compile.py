"""The per-function compiler and its caches.

Covers the register-compiled form itself (flat pc space, the FELL_OFF
sentinel after every block, stable opcode numbering), the incremental
recompile (equal :func:`function_signature` at a newer epoch reuses
the compiled object), the module-keyed program cache, and the analysis
manager's ``COMPILED`` entry — in particular that *any* epoch movement
(flush/fence commit, structural commit, even a clean rollback) leaves
the cached program stamped at the module's current epoch, because the
flat engine relinks whenever the two disagree and a stale re-stamped
program would relink forever.
"""

from __future__ import annotations

import pytest

from repro.analysis.manager import COMPILED, AnalysisManager
from repro.core.transaction import FixTransaction
from repro.interp.compile import (
    cached_program,
    compile_function,
    compile_module,
    function_signature,
)
from repro.ir import I1, I8, I16, I32, I64, ModuleBuilder, PTR
from repro.ir.opcodes import (
    NUM_OPCODES,
    OP_FELL_OFF,
    OP_LOAD,
    OP_STORE,
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


def test_opcode_numbering_is_stable():
    """The numbering is part of the engine/compiler contract: handlers
    index by opcode, so renumbering silently breaks dispatch."""
    assert OP_FELL_OFF == 0
    assert len(OPCODE_NAMES) == NUM_OPCODES
    assert len(set(OPCODE_NAMES)) == NUM_OPCODES  # no duplicate names


def test_every_block_ends_in_fell_off_sentinel():
    module = build_module()
    for fn in module.functions.values():
        cf = compile_function(fn, module)
        sentinels = [code for code in cf.code if code[0] == OP_FELL_OFF]
        assert len(sentinels) == len(fn.blocks)
        # the sentinel carries the block name for the diagnostic
        assert {code[2] for code in sentinels} == {
            block.name for block in fn.blocks
        }


def test_loads_and_stores_carry_their_width_codec():
    """The flat engine's stack path reads the codec (and a store's value
    mask) off the instruction tuple; it never looks them up."""
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
    for inst, instr in zip(cf.code, cf.insts):
        if inst[0] == OP_LOAD:
            assert inst[4] == instr.size
            assert inst[5:] == (CODECS[instr.size],)
            seen += 1
        elif inst[0] == OP_STORE:
            assert inst[4] == instr.size
            assert inst[5] is instr.nontemporal
            assert inst[6:] == (CODECS[instr.size], (1 << (8 * instr.size)) - 1)
            seen += 1
    assert seen == 13
    # one codec per load/store width, decoding exactly that many bytes
    assert set(CODECS) == STORE_WIDTHS
    assert all(codec.size == size for size, codec in CODECS.items())


def test_constants_are_prefilled_in_template():
    module = build_module()
    cf = compile_function(module.get_function("main"), module)
    # pm_alloc's size argument (64) must already sit in the template
    assert 64 in [v for v in cf.base_template if v is not None]


# ---------------------------------------------------------------------------
# incremental recompiles
# ---------------------------------------------------------------------------


def test_unchanged_functions_are_reused_across_epochs():
    module = build_module()
    first = compile_module(module)
    module.bump_epoch()
    second = compile_module(module, previous=first)
    assert second.epoch == module.epoch
    assert second.reused_from(first) == len(first.functions)
    for name, cf in first.functions.items():
        assert second.functions[name] is cf


def test_signature_change_recompiles_only_that_function():
    module = build_module()
    first = compile_module(module)
    call = next(
        i for i in module.get_function("main").entry if i.opcode == "call"
    )
    call.callee = "vol_alloc"  # retarget: changes main's signature only
    module.bump_epoch()
    second = compile_module(module, previous=first)
    assert second.functions["set_slot"] is first.functions["set_slot"]
    assert second.functions["main"] is not first.functions["main"]
    assert second.reused_from(first) == 1


def test_function_signature_tracks_callee_resolution():
    module = build_module()
    before = function_signature(module.get_function("main"), module)
    call = next(
        i for i in module.get_function("main").entry if i.opcode == "call"
    )
    call.callee = "vol_alloc"
    assert function_signature(module.get_function("main"), module) != before


def test_cached_program_is_shared_until_epoch_moves():
    module = build_module()
    first = cached_program(module)
    assert cached_program(module) is first
    module.bump_epoch()
    second = cached_program(module)
    assert second is not first
    assert second.epoch == module.epoch
    assert second.reused_from(first) == len(first.functions)


# ---------------------------------------------------------------------------
# the analysis manager's COMPILED entry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("structural", [False, True])
def test_commit_leaves_compiled_program_at_current_epoch(structural):
    module = build_module()
    manager = AnalysisManager(module)
    before = manager.get(COMPILED)
    assert before is cached_program(module)

    txn = FixTransaction(module, manager=manager)
    if structural:
        call = next(
            i for i in module.get_function("main").entry if i.opcode == "call"
        )
        txn.track_attr(call, "callee")
        call.callee = "vol_alloc"
    else:
        txn.touch("main")
    module.bump_epoch()
    txn.commit()

    after = manager.get(COMPILED)
    assert after is not before
    assert after.epoch == module.epoch


def test_clean_rollback_still_resyncs_compiled_epoch():
    """A rolled-back transaction restores the IR but the epoch has
    moved; re-stamping the old program (as the manager does for other
    surviving analyses) would make the flat engine relink on every
    run, so COMPILED must be dropped and recomputed at the new epoch."""
    module = build_module()
    manager = AnalysisManager(module)
    before = manager.get(COMPILED)

    txn = FixTransaction(module, manager=manager)
    call = next(
        i for i in module.get_function("main").entry if i.opcode == "call"
    )
    txn.track_attr(call, "callee")
    call.callee = "vol_alloc"
    module.bump_epoch()
    txn.rollback()

    assert call.callee == "pm_alloc"  # IR restored
    after = manager.get(COMPILED)
    assert after.epoch == module.epoch
    # the recompile reuses every function object: signatures are equal
    assert after.reused_from(before) == len(before.functions)


def test_manager_lookup_hits_cache_at_same_epoch():
    module = build_module()
    manager = AnalysisManager(module)
    assert manager.get(COMPILED) is manager.get(COMPILED)
