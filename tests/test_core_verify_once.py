"""Hippocrates verifies each function once per change, and fails closed.

A function's verified state is keyed on the stamps the mutation
primitives move (``tests/test_ir_epoch.py`` checks the primitives).
Here the pipeline: after a flush/fence-only repair the final check
(``phase.verify``) re-verifies only what the repair touched; a clone, a
retarget or a failed rollback makes it verify the whole module; and a
module nobody verified is verified whole, so a broken function the
repair never touched still fails the repair.
"""

import pytest

from repro.core import Hippocrates
from repro.core.transaction import FixTransaction
from repro.detect import pmemcheck_run
from repro.errors import RollbackError, VerificationError
from repro.ir import I64, ModuleBuilder, PTR, verify_module
from repro.ir import verifier
from repro.ir.verifier import is_verified, verify_changed
from repro.trace import dump_trace

from conftest import drive_main


@pytest.fixture
def checked(monkeypatch):
    """Names of the functions verified by the repair's checks, in call
    order: ``verify_changed`` per fix and at the end (the flat engine's
    compiler is not counted)."""
    names = []
    original = verifier.verify_function

    def recording(fn):
        names.append(fn.name)
        original(fn)

    monkeypatch.setattr(verifier, "verify_function", recording)
    return names


def build_module(broken: bool = False):
    """``main`` stores an unflushed value to PM; two helpers stay
    untouched by the repair.  ``broken`` adds a function that does not
    verify (a value-less ``ret`` in an ``i64`` function)."""
    mb = ModuleBuilder("scoped")
    for name in ("helper_a", "helper_b"):
        h = mb.function(name, [("x", I64)], I64, source_file="helpers.c")
        h.ret(h.add(h.function.args[0], 1))
    b = mb.function("main", [], I64, source_file="main.c")
    p = b.call("pm_alloc", [64], PTR)
    b.store(b.call("helper_a", [1], I64), p)
    b.ret(0)
    if broken:
        mb.function("broken", [], I64, source_file="broken.c").ret()
    return mb.module


def test_a_flush_fence_repair_reverifies_only_what_it_touched(checked):
    module = build_module()
    _, trace, interp = pmemcheck_run(module, drive_main)
    report = Hippocrates(module, trace, interp.machine).fix()
    assert report.intraprocedural_count == 1
    assert report.interprocedural_count == 0
    # The scoped check verifies the edited function; the final check
    # has nothing left to do.
    assert checked == ["main"]
    assert all(is_verified(fn) for fn in module.functions.values())


def test_a_clone_makes_the_repair_verify_the_whole_module(listing5, checked):
    module, _, trace, interp = listing5
    report = Hippocrates(module, trace, interp.machine).fix()
    assert report.functions_created
    # The clones and the retargeted caller verify in the scoped check;
    # the final check verifies every other function once more.
    assert sorted(checked) == sorted(module.functions)


def test_a_retarget_makes_the_final_check_verify_the_whole_module(checked):
    module = build_module()
    verify_module(module)
    del checked[:]
    txn = FixTransaction(module)
    call = next(i for i in module.get_function("main").entry if i.opcode == "call")
    txn.track_attr(call, "callee")
    call.callee = "pm_alloc_PM"
    module.bump_epoch()
    txn.commit()
    verify_changed(module)
    assert sorted(checked) == sorted(module.functions)


def test_a_failed_rollback_makes_the_final_check_verify_the_whole_module(checked):
    class Fragile:
        @property
        def x(self):
            return 1

        @x.setter
        def x(self, value):
            raise RuntimeError("undo exploded")

    module = build_module()
    verify_module(module)
    del checked[:]
    txn = FixTransaction(module)
    txn.track_attr(Fragile(), "x")
    with pytest.raises(RollbackError):
        txn.rollback()
    verify_changed(module)
    assert sorted(checked) == sorted(module.functions)


def test_an_unverified_module_with_a_broken_untouched_function_fails():
    _, trace, _ = pmemcheck_run(build_module(), drive_main)
    module = build_module(broken=True)
    fixer = Hippocrates(module, dump_trace(trace))
    with pytest.raises(VerificationError, match="@broken"):
        fixer.fix()
