"""Unit tests for the IR verifier, and the flat engine refusing every
function it rejects."""

import sys

import pytest

from repro.errors import VerificationError
from repro.interp import Machine, make_interpreter
from repro.ir import (
    Alloca,
    BasicBlock,
    Call,
    Constant,
    Function,
    I64,
    Jump,
    ModuleBuilder,
    PTR,
    Ret,
    Store,
    verify_function,
    verify_module,
)


def valid_module():
    mb = ModuleBuilder("ok")
    b = mb.function("callee", [("x", I64)], I64)
    b.ret(b.function.args[0])
    b = mb.function("caller", [], I64)
    v = b.call("callee", [7], I64)
    b.ret(v)
    return mb.module


def test_valid_module_passes():
    verify_module(valid_module())


def test_missing_terminator():
    mb = ModuleBuilder("m")
    b = mb.function("f", [], I64)
    b.add(1, 2)  # no ret
    with pytest.raises(VerificationError, match="terminator"):
        verify_module(mb.module)


def test_ret_type_mismatch():
    mb = ModuleBuilder("m")
    b = mb.function("f", [], I64)
    fn = b.function
    fn.entry.append(Ret())  # missing value in non-void function
    with pytest.raises(VerificationError, match="ret"):
        verify_function(fn)


def test_call_arity_mismatch():
    module = valid_module()
    caller = module.get_function("caller")
    bad = Call("callee", [Constant(1, I64), Constant(2, I64)], I64)
    caller.entry.insert_before(caller.entry.instructions[0], bad)
    with pytest.raises(VerificationError, match="arity"):
        verify_module(module)


def test_call_return_type_mismatch():
    module = valid_module()
    caller = module.get_function("caller")
    bad = Call("callee", [Constant(1, I64)], PTR)
    caller.entry.insert_before(caller.entry.instructions[0], bad)
    with pytest.raises(VerificationError, match="type"):
        verify_module(module)


def test_cross_function_operand():
    mb = ModuleBuilder("m")
    b1 = mb.function("f", [], I64)
    foreign = b1.add(1, 2)
    b1.ret(foreign)
    b2 = mb.function("g", [], I64)
    b2.block.append(Ret(foreign))  # uses f's instruction
    with pytest.raises(VerificationError):
        verify_module(mb.module)


def test_use_before_definition():
    mb = ModuleBuilder("m")
    b = mb.function("f", [], I64)
    early = b.new_block("early")
    late = b.new_block("late")
    b.jmp(early)
    b.position_at_end(early)
    # Build the late block first so its value exists, then reference it
    # from the earlier block.
    b.position_at_end(late)
    value = b.add(1, 2)
    b.ret(value)
    b.position_at_end(early)
    store_target = Alloca(8)
    early.append(store_target)
    early.append(Store(value, store_target))  # value defined later in layout
    early.append(Jump(late))
    with pytest.raises(VerificationError, match="before definition"):
        verify_function(b.function)


def test_use_not_dominated_by_definition():
    """``value`` is defined on one branch and used after the join:
    textually after its definition, but not dominated by it."""
    mb = ModuleBuilder("m")
    b = mb.function("f", [("c", I64)], I64)
    (c,) = b.function.args
    then = b.new_block("then")
    join = b.new_block("join")
    b.br(b.icmp("ne", c, 0), then, join)
    b.position_at_end(then)
    value = b.add(c, 1)
    b.jmp(join)
    b.position_at_end(join)
    b.ret(value)
    with pytest.raises(VerificationError) as excinfo:
        verify_module(mb.module)
    assert str(excinfo.value) == f"undefined value {value.short()} in @f"


def test_dominated_cross_block_uses_pass():
    """A loop header's value read in the body and after the exit, one
    read two blocks below its definition, and one read in a block no
    path reaches."""
    mb = ModuleBuilder("m")
    b = mb.function("f", [("n", I64)], I64)
    (n,) = b.function.args
    header, body, deeper, done, dead = (
        b.new_block(name) for name in ("header", "body", "deeper", "done", "dead")
    )
    b.jmp(header)
    b.position_at_end(header)
    count = b.sub(n, 1)
    b.br(b.icmp("ne", count, 0), body, done)
    b.position_at_end(body)
    scaled = b.mul(count, 2)
    b.jmp(deeper)
    b.position_at_end(deeper)
    b.store(scaled, b.alloca(8))
    b.jmp(header)
    b.position_at_end(done)
    b.ret(count)
    b.position_at_end(dead)
    b.ret(scaled)
    verify_module(mb.module)


def test_terminator_in_middle():
    mb = ModuleBuilder("m")
    b = mb.function("f", [], I64)
    b.ret(1)
    # Force a second instruction after the terminator.
    fn = b.function
    fn.entry.instructions.append(Ret(Constant(2, I64)))
    with pytest.raises(VerificationError):
        verify_function(fn)


def test_foreign_block_target():
    mb = ModuleBuilder("m")
    b = mb.function("f", [], I64)
    stray = BasicBlock("stray")
    stray_jump = Jump(stray)
    b.function.entry.append(stray_jump)
    with pytest.raises(VerificationError, match="foreign"):
        verify_function(b.function)


def test_declaration_passes():
    mb = ModuleBuilder("m")
    mb.module.add_function("ext", [("p", PTR)], I64)
    verify_module(mb.module)


def test_void_value_operand():
    mb = ModuleBuilder("m")
    b = mb.function("f", [], I64)
    b.call("emit", [b.fence()])
    b.ret(0)
    with pytest.raises(VerificationError, match="uses void"):
        verify_module(mb.module)


# ---------------------------------------------------------------------------
# the flat engine fails closed
# ---------------------------------------------------------------------------
# Its compiler verifies every function it lowers.  Each malformed case
# above runs again with the verifier replaced by building the flat
# engine over the module, which must raise the same VerificationError.

MALFORMED = [
    test_missing_terminator,
    test_ret_type_mismatch,
    test_call_arity_mismatch,
    test_call_return_type_mismatch,
    test_cross_function_operand,
    test_use_before_definition,
    test_use_not_dominated_by_definition,
    test_terminator_in_middle,
    test_foreign_block_target,
    test_void_value_operand,
]


def _build_flat_engine(target):
    """Stands in for ``verify_module``/``verify_function``: the flat
    engine must refuse the module before recording any trace event."""
    module = target.parent if isinstance(target, Function) else target
    machine = Machine()
    try:
        make_interpreter(module, engine="flat", machine=machine)
    finally:
        assert not machine.trace.events


@pytest.mark.parametrize("case", MALFORMED, ids=lambda case: case.__name__[5:])
def test_flat_engine_refuses_malformed_functions(case, monkeypatch):
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "verify_module", _build_flat_engine)
    monkeypatch.setattr(this, "verify_function", _build_flat_engine)
    case()


def test_flat_engine_refuses_to_relink_malformed_functions():
    """A function broken after the engine was built fails the relink at
    the next call, before any step or trace event."""
    module = valid_module()
    interp = make_interpreter(module, engine="flat")
    caller = module.get_function("caller")
    bad = Call("callee", [], I64)
    caller.entry.insert_before(caller.entry.instructions[0], bad)
    module.bump_epoch()
    with pytest.raises(VerificationError, match="arity"):
        interp.call("caller")
    assert interp.steps == 0
    assert not interp.trace.events
