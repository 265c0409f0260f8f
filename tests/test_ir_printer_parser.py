"""Round-trip and error tests for the textual IR form."""

import pytest

from repro.errors import IRParseError
from repro.ir import (
    I8,
    I64,
    ModuleBuilder,
    PTR,
    format_module,
    parse_module,
    verify_module,
)


def sample_module():
    mb = ModuleBuilder("sample")
    mb.global_("table", 64, "pm")
    mb.global_("buf", 32, "vol", b"abc")
    b = mb.function("helper", [("p", PTR), ("n", I64)], I64, source_file="s.c")
    v = b.load(b.function.args[0], I64)
    total = b.add(v, b.function.args[1])
    b.store(total, b.function.args[0])
    b.flush(b.function.args[0], "clwb")
    b.fence("sfence")
    b.ret(total)
    b = mb.function("main", [], I64, source_file="s.c")
    p = b.call("pm_alloc", [64], PTR)
    b.store(5, p, I8)
    loop = b.new_block("loop")
    done = b.new_block("done")
    cond = b.icmp("ult", b.load(p, I8), 10)
    b.br(cond, loop, done)
    b.position_at_end(loop)
    result = b.call("helper", [p, 3], I64, name="r")
    sel = b.select(b.icmp("eq", result, 8), 1, 0)
    addr = b.cast("ptrtoint", p, I64)
    back = b.cast("inttoptr", addr, PTR)
    b.store(sel, back)
    b.jmp(done)
    b.position_at_end(done)
    b.ret(0)
    return mb.module


def test_roundtrip_reaches_fixpoint():
    module = sample_module()
    text1 = format_module(module)
    reparsed = parse_module(text1)
    verify_module(reparsed)
    text2 = format_module(reparsed)
    assert format_module(parse_module(text2)) == text2


def test_roundtrip_preserves_structure():
    module = sample_module()
    reparsed = parse_module(format_module(module))
    assert sorted(reparsed.functions) == sorted(module.functions)
    assert sorted(reparsed.globals) == sorted(module.globals)
    for name, fn in module.functions.items():
        clone = reparsed.get_function(name)
        assert clone.instruction_count() == fn.instruction_count()
        assert [a.type for a in clone.args] == [a.type for a in fn.args]


def test_roundtrip_preserves_debug_locs():
    module = sample_module()
    reparsed = parse_module(format_module(module))
    original_locs = [i.loc for i in module.get_function("helper").instructions()]
    reparsed_locs = [i.loc for i in reparsed.get_function("helper").instructions()]
    assert original_locs == reparsed_locs


def test_roundtrip_preserves_global_initializer():
    module = sample_module()
    reparsed = parse_module(format_module(module))
    assert reparsed.get_global("buf").initializer == b"abc"
    assert reparsed.get_global("table").space == "pm"


def test_parse_simple_function():
    module = parse_module(
        """
module "tiny"

func @id(%x: i64) -> i64 {
entry:
  ret i64 %x
}
"""
    )
    fn = module.get_function("id")
    assert fn.return_type is I64
    assert len(fn.blocks) == 1


def test_parse_forward_block_reference():
    module = parse_module(
        """
module "fwd"

func @f(%c: i1) -> i64 {
entry:
  br %c, %yes, %no
yes:
  ret i64 1
no:
  ret i64 0
}
"""
    )
    verify_module(module)


#: malformed module text -> the line its IRParseError names (0: none)
PARSE_ERRORS = {
    "func @f() -> i64 {\nentry:\n  ret i64 %missing\n}": 3,
    "func @f() -> i64 {\nentry:\n  %x = bogus 1\n  ret i64 %x\n}": 3,
    "func @f() -> i64 {\nentry:\n  ret i64 0\n": 0,  # missing }
    "wibble": 1,
    "func @f() -> i64 {\n  ret i64 0\n}": 2,  # instr outside block
    # Rejected by a constructor or a literal's conversion, or naming
    # a type that does not exist: still a parse error with its line.
    "func @f(%p: ptr) -> i64 {\nentry:\n  %a = load i65, %p\n  ret i64 0\n}": 3,
    "func @f() -> i64 {\nentry:\n  %a = alloca x\n  ret i64 0\n}": 3,
    "func @f(%p: i65) -> i64 {\nentry:\n  ret i64 0\n}": 1,
    "func @f() -> i65 {\nentry:\n  ret i64 0\n}": 1,
    "func @f() -> i64 {\nentry:\n  %a = alloca 0\n  ret i64 0\n}": 3,
    "func @f(%p: ptr) -> i64 {\nentry:\n  flush bogus, %p\n  ret i64 0\n}": 3,
    "func @f() -> i64 {\nentry:\n  fence nope\n  ret i64 0\n}": 3,
    "func @f() -> i64 {\nentry:\n  %c = icmp zz i64 1, 2\n  ret i64 0\n}": 3,
    "func @f() -> i64 {\nentry:\n  ret i64 0\n  ret i64 1\n}": 4,
    "func @f(%p: i64) -> i64 {\nentry:\n  %g = gep %p, i64 8\n  ret i64 0\n}": 3,
    "global @g 0 pm\n": 1,
    'module "m"\n\nglobal @g 8 pm init 0\n': 3,
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(IRParseError) as exc:
        parse_module(text)
    assert exc.value.line == PARSE_ERRORS[text]


def test_parse_redefinition_rejected():
    with pytest.raises(IRParseError):
        parse_module(
            """
func @f() -> i64 {
entry:
  %x = add i64 1, 2
  %x = add i64 3, 4
  ret i64 %x
}
"""
        )


def test_declaration_roundtrip():
    module = parse_module('module "d"\n\nfunc @ext(%p: ptr) -> void\n')
    assert module.get_function("ext").is_declaration
