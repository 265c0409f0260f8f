"""Epoch and fingerprint correctness for the analysis manager's cache.

Two properties underpin every cached analysis:

- **Epoch monotonicity**: every structural mutation — builder emission,
  positional block insertion/removal, function/global/block addition,
  function removal, transaction rollback — strictly increases the
  module's mutation epoch.  A missed bump would let a stale analysis
  validate against changed content.
- **Fingerprint determinism**: the content fingerprint is a pure
  function of the printed text, so parser→printer→parser round trips
  agree, it is stable between mutations, and it changes when content
  changes.
- **Verified state follows the epoch**: every primitive that moves the
  epoch also drops the verified state of what it changed — the edited
  function for a body edit, every function for a change of the
  module's shape (a function added, inserted or removed, a global
  added, a call retargeted or restored, a failed rollback).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.transaction import FixTransaction
from repro.errors import RollbackError
from repro.ir import (
    I64,
    ModuleBuilder,
    PTR,
    format_module,
    parse_module,
    verify_function,
    verify_module,
)
from repro.ir.instructions import Fence, Flush
from repro.ir import verifier
from repro.ir.verifier import is_verified, verify_changed


def build_base():
    mb = ModuleBuilder("epoch")
    b = mb.function("main", [], I64, source_file="e.c")
    base = b.call("pm_alloc", [64], PTR)
    b.store(7, base)
    b.flush(base)
    b.fence()
    b.ret(0)
    return mb, b


# ---------------------------------------------------------------------------
# Property: every mutating operation bumps the epoch
# ---------------------------------------------------------------------------

#: builder ops exercised by the property test, all of which must bump
gen_op = st.sampled_from(
    ["add", "store", "load", "gep", "flush", "fence", "call", "alloca"]
)


@given(st.lists(gen_op, min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_every_builder_emission_bumps_epoch(ops):
    mb = ModuleBuilder("gen")
    helper = mb.function("helper", [("x", I64)], I64, source_file="g.c")
    helper.ret(helper.function.args[0])
    b = mb.function("main", [], I64, source_file="g.c")
    module = mb.module
    base = b.call("pm_alloc", [256], PTR)
    acc = b.add(0, 1)
    for op in ops:
        before = module.epoch
        if op == "add":
            acc = b.add(acc, 1)
        elif op == "store":
            b.store(acc, base)
        elif op == "load":
            acc = b.load(base, I64)
        elif op == "gep":
            base = b.gep(base, 8)
        elif op == "flush":
            b.flush(base)
        elif op == "fence":
            b.fence()
        elif op == "call":
            acc = b.call("helper", [acc], I64)
        elif op == "alloca":
            b.alloca(16)
        assert module.epoch == before + 1, f"{op} did not bump the epoch"
    b.ret(acc)


def test_module_level_construction_bumps_epoch():
    mb, b = build_base()
    module = mb.module

    before = module.epoch
    fn = module.add_function("fresh", [("p", PTR)], I64)
    assert module.epoch == before + 1

    before = module.epoch
    fn.add_block("extra")
    assert module.epoch == before + 1

    before = module.epoch
    module.add_global("g", 64, "pm")
    assert module.epoch == before + 1

    before = module.epoch
    removed = module.remove_function("fresh")
    assert removed is fn
    assert module.epoch == before + 1

    before = module.epoch
    module.insert_function(fn)
    assert module.epoch == before + 1

    # Removing a function that is not present is not a mutation.
    before = module.epoch
    assert module.remove_function("never-existed") is None
    assert module.epoch == before


def test_positional_insertion_and_removal_bump_epoch():
    mb, b = build_base()
    module = mb.module
    block = module.get_function("main").entry
    store = next(i for i in block if i.opcode == "store")

    before = module.epoch
    flush = block.insert_after(store, Flush(store.pointer))
    assert module.epoch == before + 1

    before = module.epoch
    block.insert_before(flush, Fence())
    assert module.epoch == before + 1

    before = module.epoch
    block.remove(flush)
    assert module.epoch == before + 1


def test_transaction_rollback_bumps_epoch():
    mb, b = build_base()
    module = mb.module
    call = next(i for i in module.get_function("main").entry if i.opcode == "call")

    txn = FixTransaction(module)
    txn.track_attr(call, "callee")
    call.callee = "pm_alloc_PM"
    module.bump_epoch()
    mutated_epoch = module.epoch
    txn.rollback()
    # The undo restored the attribute — different content than the
    # mutated state, so the epoch must move again, not rewind.
    assert call.callee == "pm_alloc"
    assert module.epoch > mutated_epoch


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_stable_between_mutations():
    mb, b = build_base()
    module = mb.module
    assert module.fingerprint() == module.fingerprint()


def test_fingerprint_tracks_content_changes():
    mb, b = build_base()
    module = mb.module
    original = module.fingerprint()
    store = next(
        i for i in module.get_function("main").entry if i.opcode == "store"
    )
    block = store.parent
    flush = block.insert_after(store, Flush(store.pointer))
    assert module.fingerprint() != original
    block.remove(flush)
    # Same content again -> same fingerprint (even though the epoch moved).
    assert module.fingerprint() == original


@given(st.lists(gen_op, min_size=0, max_size=20))
@settings(max_examples=30, deadline=None)
def test_roundtrip_fingerprints_agree(ops):
    mb = ModuleBuilder("gen")
    b = mb.function("main", [], I64, source_file="g.c")
    base = b.call("pm_alloc", [256], PTR)
    acc = b.add(0, 1)
    for op in ops:
        if op == "add":
            acc = b.add(acc, 1)
        elif op == "store":
            b.store(acc, base)
        elif op == "load":
            acc = b.load(base, I64)
        elif op == "gep":
            base = b.gep(base, 8)
        elif op == "flush":
            b.flush(base)
        elif op == "fence":
            b.fence()
        elif op == "call":
            base = b.call("pm_alloc", [64], PTR)
        elif op == "alloca":
            b.alloca(16)
    b.ret(acc)
    module = mb.module

    reparsed = parse_module(format_module(module))
    assert reparsed.fingerprint() == module.fingerprint()
    # And once more: the fingerprint is a fixed point of the round trip.
    again = parse_module(format_module(reparsed))
    assert again.fingerprint() == reparsed.fingerprint()


# ---------------------------------------------------------------------------
# Per-function verified state: the primitives that move the epoch also
# say which function changed
# ---------------------------------------------------------------------------


def _verified(module):
    return {name for name, fn in module.functions.items() if is_verified(fn)}


def build_two_functions():
    mb, b = build_base()
    h = mb.function("helper", [("x", I64)], I64, source_file="e.c")
    h.ret(h.function.args[0])
    return mb, b


def _body_edits():
    """(name, mutation of main's body) for each function-local primitive."""

    def emit(module, builder):
        builder.at_new_block("tail")
        builder.ret(0)

    def insert_after(module, builder):
        store = next(i for i in module.get_function("main").entry if i.opcode == "store")
        store.parent.insert_after(store, Fence())

    def insert_before(module, builder):
        store = next(i for i in module.get_function("main").entry if i.opcode == "store")
        store.parent.insert_before(store, Fence())

    def remove(module, builder):
        fence = next(i for i in module.get_function("main").entry if i.opcode == "fence")
        fence.parent.remove(fence)

    def add_block(module, builder):
        module.get_function("main").add_block("extra")

    return [emit, insert_after, insert_before, remove, add_block]


@pytest.mark.parametrize("edit", _body_edits(), ids=lambda f: f.__name__)
def test_body_edits_drop_only_that_functions_verified_state(edit):
    mb, b = build_two_functions()
    module = mb.module
    verify_module(module)
    assert _verified(module) == {"main", "helper"}
    before = module.epoch
    edit(module, b)
    assert module.epoch > before
    assert _verified(module) == {"helper"}


def test_verify_changed_verifies_only_the_edited_function(monkeypatch):
    mb, b = build_two_functions()
    module = mb.module
    verify_module(module)
    store = next(i for i in module.get_function("main").entry if i.opcode == "store")
    store.parent.insert_after(store, Fence())
    checked = []
    original = verifier.verify_function
    monkeypatch.setattr(
        verifier, "verify_function", lambda fn: (checked.append(fn.name), original(fn))
    )
    verify_changed(module)
    assert checked == ["main"]
    verify_changed(module)
    assert checked == ["main"]
    assert _verified(module) == {"main", "helper"}


def _shape_edits():
    """Mutations that can change whether an untouched function verifies."""

    def add_function(module):
        module.add_function("fresh", [("p", PTR)], I64)

    def remove_function(module):
        module.remove_function("helper")

    def insert_function(module):
        fn = module.remove_function("helper")
        verify_module(module)
        module.insert_function(fn)

    def add_global(module):
        module.add_global("g", 64, "pm")

    def retarget(module):
        call = next(i for i in module.get_function("main").entry if i.opcode == "call")
        call.callee = "pm_alloc_PM"
        module.bump_epoch()

    def rolled_back_retarget(module):
        call = next(i for i in module.get_function("main").entry if i.opcode == "call")
        txn = FixTransaction(module)
        txn.track_attr(call, "callee")
        call.callee = "pm_alloc_PM"
        module.bump_epoch()
        verify_module(module)
        txn.rollback()

    return [add_function, remove_function, insert_function, add_global,
            retarget, rolled_back_retarget]


@pytest.mark.parametrize("edit", _shape_edits(), ids=lambda f: f.__name__)
def test_shape_edits_drop_every_functions_verified_state(edit):
    mb, b = build_two_functions()
    module = mb.module
    verify_module(module)
    before = module.epoch
    edit(module)
    assert module.epoch > before
    assert _verified(module) == set()


def test_a_failed_rollback_drops_every_functions_verified_state():
    class Fragile:
        @property
        def x(self):
            return 1

        @x.setter
        def x(self, value):
            raise RuntimeError("undo exploded")

    mb, b = build_two_functions()
    module = mb.module
    verify_module(module)
    txn = FixTransaction(module)
    txn.track_attr(Fragile(), "x")
    with pytest.raises(RollbackError):
        txn.rollback()
    assert _verified(module) == set()


def test_a_function_outside_any_module_never_counts_as_verified():
    mb, b = build_two_functions()
    module = mb.module
    fn = module.get_function("helper")
    verify_function(fn)
    assert is_verified(fn)
    module.remove_function("helper")
    assert not is_verified(fn)
    verify_function(fn)
    assert not is_verified(fn)


def test_parsing_leaves_every_function_unverified():
    mb, b = build_two_functions()
    module = parse_module(format_module(mb.module))
    assert _verified(module) == set()
    verify_module(module)
    assert _verified(module) == {"main", "helper"}
