"""The table-driven parser against a reference transcription of the
regex-per-line parser it replaced.

``reference_parse_module`` below is that earlier parser, kept as the
oracle (like ``ReferencePointsTo`` in ``test_analysis_andersen.py``): a
search for the debug location, a chain of ``op ==`` tests, and an
operand lookup that strips every operand.  Over the printed corpus
modules, the benchmark's pointer-web and hot-loop modules, and the
round-trip property's random programs, both parsers must build the same
module: equal fingerprints, block order, value names, debug locations,
and instruction ids in the same relative order.  On the malformed
inputs both already rejected, they must raise the same message at the
same line.
"""

from __future__ import annotations

import importlib.util
import os
import re
from typing import Dict, List, Optional, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.corpus.bugs import all_cases
from repro.errors import IRParseError
from repro.ir import format_module, parse_module
from repro.ir.basicblock import BasicBlock
from repro.ir.debuginfo import DebugLoc
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BINARY_OPS,
    BinOp,
    Branch,
    Call,
    Cast,
    Fence,
    Flush,
    Gep,
    ICmp,
    Instruction,
    Jump,
    Load,
    Ret,
    Select,
    Store,
    Trap,
)
from repro.ir.module import Module
from repro.ir.types import Type, type_from_name
from repro.ir.values import Constant, Value
from repro.supervisor.tasks import run_case

from test_ir_printer_parser import PARSE_ERRORS
from test_prop_ir_roundtrip import build, gen_step

# ---------------------------------------------------------------------------
# The reference parser
# ---------------------------------------------------------------------------

_MODULE_RE = re.compile(r'^module\s+"([^"]+)"$')
_GLOBAL_RE = re.compile(
    r"^global\s+@(\w[\w.]*)\s+(\d+)\s+(pm|vol)(?:\s+init\s+([0-9a-fA-F]+))?$"
)
_FUNC_RE = re.compile(r"^func\s+@([\w.$]+)\((.*)\)\s*->\s*(\w+)\s*(\{)?$")
_PARAM_RE = re.compile(r"^%(\w[\w.]*)\s*:\s*(\w+)$")
_LABEL_RE = re.compile(r"^([\w.]+):$")
_LOC_RE = re.compile(r"\s+!([^\s!]+:\d+)\s*$")
_CALL_RE = re.compile(r"^call\s+(\w+)\s+@([\w.$]+)\((.*)\)$")


class _ReferenceFunctionParser:
    def __init__(self, fn: Function):
        self.fn = fn
        self.values: Dict[str, Value] = {a.name: a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.current: Optional[BasicBlock] = None

    def block(self, label: str) -> BasicBlock:
        if label not in self.blocks:
            block = BasicBlock(label, self.fn)
            self.blocks[label] = block
        return self.blocks[label]

    def value(self, text: str, type_: Type, lineno: int) -> Value:
        text = text.strip()
        if text.startswith("%"):
            name = text[1:]
            if name not in self.values:
                raise IRParseError(f"use of undefined value %{name}", lineno)
            return self.values[name]
        if text.startswith("@"):
            module = self.fn.parent
            if module is None or text[1:] not in module.globals:
                raise IRParseError(f"unknown global {text}", lineno)
            return module.globals[text[1:]]
        try:
            literal = int(text, 0)
        except ValueError:
            raise IRParseError(f"bad operand {text!r}", lineno) from None
        return Constant(literal, type_)

    def typed_value(self, text: str, lineno: int) -> Value:
        parts = text.strip().split(None, 1)
        if len(parts) != 2:
            raise IRParseError(f"expected 'type value', got {text!r}", lineno)
        return self.value(parts[1], type_from_name(parts[0]), lineno)

    def define(self, name: str, value: Value, lineno: int) -> None:
        if name in self.values:
            raise IRParseError(f"redefinition of %{name}", lineno)
        value.name = name
        self.values[name] = value

    def parse_line(self, line: str, lineno: int) -> None:
        loc = None
        loc_match = _LOC_RE.search(line)
        if loc_match:
            loc = DebugLoc.parse(loc_match.group(1))
            line = line[: loc_match.start()].rstrip()
        label = _LABEL_RE.match(line)
        if label:
            self.current = self.block(label.group(1))
            if self.current not in self.fn.blocks:  # placed at its label
                self.fn.blocks.append(self.current)
            return
        if self.current is None:
            raise IRParseError("instruction outside any block", lineno)
        result_name = None
        if line.startswith("%"):
            result_name, _, rest = line.partition("=")
            result_name = result_name.strip()[1:]
            line = rest.strip()
        instr = self.instruction(line, lineno)
        if loc is not None:
            instr.loc = loc
        if result_name is not None:
            if instr.type.is_void:
                raise IRParseError("void instruction cannot define a value", lineno)
            self.define(result_name, instr, lineno)
        self.current.append(instr)

    def instruction(self, line: str, lineno: int) -> Instruction:
        ptr = type_from_name("ptr")
        op, _, rest = line.partition(" ")
        rest = rest.strip()
        if op == "alloca":
            return Alloca(int(rest))
        if op == "load":
            type_text, _, ptr_text = rest.partition(",")
            return Load(
                self.value(ptr_text, ptr, lineno), type_from_name(type_text.strip())
            )
        if op in ("store", "store.nt"):
            value_text, _, ptr_text = rest.partition(",")
            value = self.typed_value(value_text, lineno)
            return Store(
                value, self.value(ptr_text, ptr, lineno), nontemporal=(op == "store.nt")
            )
        if op == "gep":
            base_text, _, off_text = rest.partition(",")
            base = self.value(base_text, ptr, lineno)
            return Gep(base, self.typed_value(off_text, lineno))
        if op in BINARY_OPS:
            type_text, _, operands = rest.partition(" ")
            lhs_text, _, rhs_text = operands.partition(",")
            type_ = type_from_name(type_text)
            return BinOp(
                op, self.value(lhs_text, type_, lineno), self.value(rhs_text, type_, lineno)
            )
        if op == "icmp":
            pred, _, rest2 = rest.partition(" ")
            type_text, _, operands = rest2.strip().partition(" ")
            lhs_text, _, rhs_text = operands.partition(",")
            type_ = type_from_name(type_text)
            return ICmp(
                pred, self.value(lhs_text, type_, lineno), self.value(rhs_text, type_, lineno)
            )
        if op == "select":
            cond_text, _, rest2 = rest.partition(",")
            cond = self.value(cond_text, type_from_name("i1"), lineno)
            type_text, _, arms = rest2.strip().partition(" ")
            a_text, _, b_text = arms.partition(",")
            type_ = type_from_name(type_text)
            return Select(
                cond, self.value(a_text, type_, lineno), self.value(b_text, type_, lineno)
            )
        if op == "cast":
            match = re.match(r"^(\w+)\s+(\w+)\s+(\S+)\s+to\s+(\w+)$", rest)
            if not match:
                raise IRParseError(f"bad cast: {rest!r}", lineno)
            kind, from_type, value_text, to_type = match.groups()
            return Cast(
                kind,
                self.value(value_text, type_from_name(from_type), lineno),
                type_from_name(to_type),
            )
        if op == "br":
            cond_text, _, targets = rest.partition(",")
            then_text, _, else_text = targets.partition(",")
            cond = self.value(cond_text, type_from_name("i1"), lineno)
            return Branch(
                cond,
                self.block(then_text.strip().lstrip("%")),
                self.block(else_text.strip().lstrip("%")),
            )
        if op == "jmp":
            return Jump(self.block(rest.strip().lstrip("%")))
        if op == "ret" or line == "ret":
            if not rest:
                return Ret()
            return Ret(self.typed_value(rest, lineno))
        if line == "trap":
            return Trap()
        if op == "call":
            match = _CALL_RE.match(line)
            if not match:
                raise IRParseError(f"bad call: {line!r}", lineno)
            ret_type, callee, args_text = match.groups()
            args = []
            if args_text.strip():
                depth = 0
                current: List[str] = []
                pieces: List[str] = []
                for ch in args_text:
                    if ch == "," and depth == 0:
                        pieces.append("".join(current))
                        current = []
                    else:
                        if ch == "(":
                            depth += 1
                        elif ch == ")":
                            depth -= 1
                        current.append(ch)
                pieces.append("".join(current))
                args = [self.typed_value(p, lineno) for p in pieces]
            return Call(callee, args, type_from_name(ret_type))
        if op == "flush":
            kind, _, ptr_text = rest.partition(",")
            return Flush(self.value(ptr_text, ptr, lineno), kind.strip())
        if op == "fence":
            return Fence(rest.strip())
        raise IRParseError(f"unknown instruction: {line!r}", lineno)


def reference_parse_module(text: str) -> Module:
    module = Module()
    fn_parser: Optional[_ReferenceFunctionParser] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip() if raw.lstrip().startswith(";") else raw.strip()
        if not line:
            continue
        if fn_parser is not None:
            if line == "}":
                fn_parser = None
                continue
            fn_parser.parse_line(line, lineno)
            continue
        module_match = _MODULE_RE.match(line)
        if module_match:
            module.name = module_match.group(1)
            continue
        global_match = _GLOBAL_RE.match(line)
        if global_match:
            name, size, space, init_hex = global_match.groups()
            initializer = bytes.fromhex(init_hex) if init_hex else None
            module.add_global(name, int(size), space, initializer)
            continue
        func_match = _FUNC_RE.match(line)
        if func_match:
            name, params_text, ret_name, has_body = func_match.groups()
            params = []
            if params_text.strip():
                for piece in params_text.split(","):
                    param_match = _PARAM_RE.match(piece.strip())
                    if not param_match:
                        raise IRParseError(f"bad parameter {piece!r}", lineno)
                    params.append(
                        (param_match.group(1), type_from_name(param_match.group(2)))
                    )
            fn = module.add_function(name, params, type_from_name(ret_name))
            if has_body:
                fn_parser = _ReferenceFunctionParser(fn)
            continue
        raise IRParseError(f"unexpected top-level line: {line!r}", lineno)
    if fn_parser is not None:
        raise IRParseError("unterminated function body (missing '}')")
    return module


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def _shape(module: Module) -> Tuple:
    """Everything a parse decides besides the printed text: block order,
    names, debug locations, and iids relative to the first one."""
    instrs = list(module.instructions())
    first = min((i.iid for i in instrs), default=0)
    return (
        [
            (fn.name, [b.name for b in fn.blocks], [a.name for a in fn.args])
            for fn in module.functions.values()
        ],
        [(i.iid - first, i.name, i.loc, i.opcode) for i in instrs],
    )


def assert_parsers_agree(text: str) -> Optional[Module]:
    """Both parsers accept ``text`` and build the same module, or both
    reject it with the same message and line.  Returns the new parse."""
    try:
        expected = reference_parse_module(text)
    except IRParseError as exc:
        with pytest.raises(IRParseError) as got:
            parse_module(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return None
    module = parse_module(text)
    assert module.fingerprint() == expected.fingerprint()
    assert _shape(module) == _shape(expected)
    return module


def _e2ebench_workloads():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "e2ebench",
        "workloads.py",
    )
    spec = importlib.util.spec_from_file_location("e2ebench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_parsers_agree_on_printed_corpus_modules(case):
    module = assert_parsers_agree(format_module(case.build()))
    assert module is not None


def test_parsers_agree_on_repaired_corpus_modules():
    """Repaired modules include unnamed ``% = gep`` values; where two
    share a function, both parsers must reject the text the same way."""
    for case in all_cases():
        assert_parsers_agree(format_module(run_case(case).module))


def test_parsers_agree_on_benchmark_modules():
    workloads = _e2ebench_workloads()
    for module in (
        workloads.build_web_module(0, 4242),
        workloads.build_hot_module(0),
    ):
        assert assert_parsers_agree(format_module(module)) is not None


def test_parsers_agree_on_hand_spaced_text():
    """Blanks the printer never writes: runs of spaces, tabs, blanks
    around ``=``, ``,`` and ``!``, comment lines."""
    text = (
        'module   "spaced"\n'
        "; a comment line\n"
        "global @g 16 pm\n"
        "func @f( %a : ptr ,%n:i64 ) -> i64 {\n"
        "entry:\n"
        "  %x  =   add   i64 %n ,  1   !f.c:3\n"
        "\t%y=load i64,%a\t!f.c:4\n"
        "  store  i64  %x ,  @g  !f.c:5\n"
        "  %p = gep %a,i64   8 !f.c:6\n"
        "  %c = icmp  ult  i64 %x,%y\n"
        "  %s = select %c,  i64 %x ,%y\n"
        "  %r = call i64 @h( ptr %p ,i64 0x10 )\n"
        "  flush   clwb ,%p\n"
        "  fence   sfence\n"
        "  br %c , %yes ,  %no\n"
        "yes:\n"
        "  ret   i64 %s\n"
        "no:\n"
        "  ret i64 %r   !f.c:9\n"
        "}\n"
        "func @h(%p: ptr, %v: i64) -> i64\n"
    )
    assert assert_parsers_agree(text) is not None


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(gen_step, max_size=20))
def test_parsers_agree_on_random_programs(steps):
    assert assert_parsers_agree(format_module(build(steps))) is not None


@pytest.mark.parametrize(
    "text",
    list(PARSE_ERRORS)[:5]
    + [
        "func @f() -> i64 {\nentry:\n  %x = add i64 1, 2\n"
        "  %x = add i64 3, 4\n  ret i64 %x\n}",
        "func @f() -> i64 {\nentry:\n  % = add i64 1, 2\n"
        "  % = add i64 3, 4\n  ret i64 0\n}",
        "func @f() -> i64 {\nentry:\n  store i64 1, %nowhere\n  ret i64 0\n}",
        "func @f() -> i64 {\nentry:\n  %x = fence sfence\n  ret i64 0\n}",
        "func @f() -> i64 {\nentry:\n  %x = cast zext i64 1 into i32\n  ret i64 0\n}",
        "func @f() -> i64 {\nentry:\n  %x = call i64 @g(i64)\n  ret i64 0\n}",
        "func @f(%p ptr) -> i64 {\nentry:\n  ret i64 0\n}",
    ],
)
def test_parsers_agree_on_malformed_inputs(text):
    assert assert_parsers_agree(text) is None
