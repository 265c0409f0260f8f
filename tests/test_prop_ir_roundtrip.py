"""Property-based round-trip tests for the textual IR.

Random modules — arithmetic chains, memory traffic, calls, persistence
ops, forward branches — must print back to the same text after one
parse, and the re-parsed module must execute identically.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.interp import Interpreter
from repro.ir import (
    I64,
    ModuleBuilder,
    PTR,
    format_module,
    parse_module,
    verify_module,
)

#: program steps for the generator
gen_step = st.tuples(
    st.sampled_from(
        [
            "add", "mul", "xor", "store", "load", "flush", "fence", "call",
            "emit", "skip",
        ]
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=9999),
)


def build(steps):
    mb = ModuleBuilder("gen")
    helper = mb.function("twice", [("x", I64)], I64, source_file="g.c")
    helper.ret(helper.mul(helper.function.args[0], 2))

    b = mb.function("main", [], I64, source_file="g.c")
    base = b.call("pm_alloc", [256], PTR)
    acc = b.add(0, 1)
    for op, slot, value in steps:
        target = b.gep(base, slot * 64)
        if op in ("add", "mul", "xor"):
            acc = b.binop(op, acc, value)
        elif op == "store":
            b.store(acc, target)
        elif op == "load":
            acc = b.add(b.load(target), value)
        elif op == "flush":
            b.flush(target)
        elif op == "fence":
            b.fence()
        elif op == "call":
            acc = b.call("twice", [acc], I64)
        elif op == "skip":
            # a branch that names its later target first
            body, join = b.new_block(), b.new_block()
            b.br(b.icmp("ult", acc, value), join, body)
            b.position_at_end(body)
            b.call("emit", [value])
            b.jmp(join)
            b.position_at_end(join)
        else:
            b.call("emit", [acc])
    b.call("emit", [acc])
    b.ret(acc)
    return mb.module


def run(module):
    interp = Interpreter(module)
    result = interp.call("main")
    return result.value, list(interp.output)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(gen_step, max_size=20))
def test_print_parse_fixpoint(steps):
    module = build(steps)
    text = format_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert format_module(reparsed) == text
    assert [b.name for b in reparsed.get_function("main").blocks] == [
        b.name for b in module.get_function("main").blocks
    ]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(gen_step, max_size=20))
def test_reparsed_module_executes_identically(steps):
    module = build(steps)
    reparsed = parse_module(format_module(module))
    assert run(module) == run(reparsed)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(gen_step, max_size=20))
def test_reparsed_module_produces_same_bug_reports(steps):
    from repro.detect import pmemcheck_run

    module = build(steps)
    reparsed = parse_module(format_module(module))

    def key(bug):
        return (bug.store.function, bug.store.loc.line, bug.kind)

    original, _, _ = pmemcheck_run(module, lambda i: i.call("main"))
    again, _, _ = pmemcheck_run(reparsed, lambda i: i.call("main"))
    assert {key(b) for b in original.bugs} == {key(b) for b in again.bugs}
