"""Unit tests for call-graph construction."""

from repro.analysis import CallGraph
from repro.ir import I64, ModuleBuilder, PTR


# ---------------------------------------------------------------------------
# decoders: the graph keeps only its edges; the tests ask questions of them
# ---------------------------------------------------------------------------


def callees(cg, name):
    """Defined functions directly called by ``name``."""
    return set(cg._callees.get(name, set()))


def callers(cg, name):
    """Functions containing at least one call to ``name``."""
    return {caller for caller, called in cg._callees.items() if name in called}


def call_sites_of(module, name):
    """Every call instruction (in any function) targeting ``name``."""
    return [
        call
        for fn in module.functions.values()
        for call in fn.calls()
        if call.callee == name
    ]


def reachable_from(cg, name):
    """Defined functions transitively reachable from ``name``."""
    seen, stack = set(), [name]
    while stack:
        current = stack.pop()
        if current in seen or current not in cg._callees:
            continue
        seen.add(current)
        stack.extend(cg._callees[current])
    return seen


def diamond_module():
    mb = ModuleBuilder("cg")
    b = mb.function("leaf", [("p", PTR)], I64)
    b.store(1, b.function.args[0])
    b.ret(0)
    b = mb.function("left", [("p", PTR)], I64)
    b.ret(b.call("leaf", [b.function.args[0]], I64))
    b = mb.function("right", [("p", PTR)], I64)
    b.ret(b.call("leaf", [b.function.args[0]], I64))
    b = mb.function("top", [], I64)
    p = b.call("pm_alloc", [64], PTR)
    b.call("left", [p], I64)
    b.call("right", [p], I64)
    b.ret(0)
    b = mb.function("island", [], I64)
    b.ret(0)
    return mb.module


def test_callees():
    cg = CallGraph(diamond_module())
    assert callees(cg, "top") == {"left", "right"}
    assert callees(cg, "left") == {"leaf"}
    assert callees(cg, "leaf") == set()
    assert callees(cg, "island") == set()


def test_callers():
    cg = CallGraph(diamond_module())
    assert callers(cg, "leaf") == {"left", "right"}
    assert callers(cg, "top") == set()


def test_call_sites_of():
    module = diamond_module()
    cg = CallGraph(module)
    sites = call_sites_of(module, "leaf")
    assert len(sites) == 2
    assert {call.function.name for call in sites} == callers(cg, "leaf")
    # an intrinsic call site adds no node and no edge
    assert len(call_sites_of(module, "pm_alloc")) == 1
    assert callers(cg, "pm_alloc") == set()
    assert set(cg._callees) == set(module.functions)


def test_reachable_from():
    cg = CallGraph(diamond_module())
    assert reachable_from(cg, "top") == {"top", "left", "right", "leaf"}
    assert reachable_from(cg, "leaf") == {"leaf"}


def test_transitive_predicate():
    module = diamond_module()
    cg = CallGraph(module)
    has_store = cg.transitive_predicate(lambda fn: bool(fn.stores()))
    assert has_store == {"leaf", "left", "right", "top"}


def test_recursion_terminates():
    mb = ModuleBuilder("rec")
    b = mb.function("a", [], I64)
    b.ret(b.call("b", [], I64))
    b = mb.function("b", [], I64)
    b.ret(b.call("a", [], I64))
    cg = CallGraph(mb.module)
    assert reachable_from(cg, "a") == {"a", "b"}
    assert cg.transitive_predicate(lambda fn: False) == set()
