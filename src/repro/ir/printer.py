"""Textual serialization of IR modules.

The textual form is both a debugging aid and a storage format: it
round-trips through :mod:`repro.ir.parser`.  The syntax is a simplified
LLVM dialect::

    module "kvstore"

    global @table 4096 pm

    func @put(%key: ptr, %len: i64) -> i64 {
    entry:
      %t0 = load i64, %key                  !kv.c:10
      store i64 %t0, %key                   !kv.c:11
      flush clwb, %key                      !kv.c:12
      fence sfence                          !kv.c:13
      %t1 = call i64 @hash(%key, %len)      !kv.c:14
      ret i64 %t1                           !kv.c:15
    }
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import IRError
from .debuginfo import SYNTHETIC
from .function import Function
from .instructions import (
    Alloca,
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
from .module import Module
from .values import Argument, Constant, GlobalVariable, Value


def format_value(value: Value) -> str:
    """Render an operand reference (``%x``, ``@g``, or a literal)."""
    if isinstance(value, (Instruction, Argument)):
        return "%" + value.name
    if isinstance(value, Constant):
        return str(value.value)
    if isinstance(value, GlobalVariable):
        return "@" + value.name
    raise IRError(f"cannot format value {value!r}")


def _typed(value: Value) -> str:
    """``<type> <operand>``; the common operand kinds skip a frame."""
    if isinstance(value, (Instruction, Argument)):
        return f"{value.type.name} %{value.name}"
    if isinstance(value, Constant):
        return f"{value.type.name} {value.value}"
    return f"{value.type.name} {format_value(value)}"


#: One formatter per instruction class, rendering the instruction body
#: (without result name or debug location), keyed by exact class.
_FORMATTERS: Dict[type, Callable[..., str]] = {
    Alloca: lambda i: f"alloca {i.size}",
    Load: lambda i: f"load {i.type.name}, {format_value(i.operands[0])}",
    Store: lambda i: (
        f"{'store.nt' if i.nontemporal else 'store'} {_typed(i.operands[0])}, "
        f"{format_value(i.operands[1])}"
    ),
    Gep: lambda i: f"gep {format_value(i.operands[0])}, {_typed(i.operands[1])}",
    BinOp: lambda i: (
        f"{i.op} {i.type.name} {format_value(i.operands[0])}, "
        f"{format_value(i.operands[1])}"
    ),
    ICmp: lambda i: (
        f"icmp {i.pred} {i.operands[0].type.name} "
        f"{format_value(i.operands[0])}, {format_value(i.operands[1])}"
    ),
    Select: lambda i: (
        f"select {format_value(i.operands[0])}, {i.operands[1].type.name} "
        f"{format_value(i.operands[1])}, {format_value(i.operands[2])}"
    ),
    Cast: lambda i: f"cast {i.kind} {_typed(i.operands[0])} to {i.type.name}",
    Branch: lambda i: (
        f"br {format_value(i.operands[0])}, "
        f"%{i.then_block.name}, %{i.else_block.name}"
    ),
    Jump: lambda i: f"jmp %{i.target.name}",
    Ret: lambda i: f"ret {_typed(i.operands[0])}" if i.operands else "ret",
    Trap: lambda i: "trap",
    Call: lambda i: (
        f"call {i.type.name} @{i.callee}"
        f"({', '.join([_typed(a) for a in i.operands])})"
    ),
    Flush: lambda i: f"flush {i.kind}, {format_value(i.operands[0])}",
    Fence: lambda i: f"fence {i.kind}",
}


def format_instruction(instr: Instruction) -> str:
    """Render one instruction line: result, body and debug location."""
    formatter = _FORMATTERS.get(instr.__class__)
    if formatter is None:
        raise IRError(f"cannot print instruction {instr!r}")
    body = formatter(instr)
    if not instr.type.is_void:
        body = f"%{instr.name} = {body}"
    loc = instr.loc
    if loc is not SYNTHETIC and loc.line:
        body = f"{body}  !{loc.file}:{loc.line}"
    return body


def format_function(fn: Function) -> str:
    params = ", ".join(f"%{a.name}: {a.type.name}" for a in fn.args)
    header = f"func @{fn.name}({params}) -> {fn.return_type.name}"
    if fn.is_declaration:
        return header
    lines: List[str] = [header + " {"]
    append = lines.append
    for block in fn.blocks:
        append(f"{block.name}:")
        for instr in block.instructions:
            append("  " + format_instruction(instr))
    append("}")
    return "\n".join(lines)


def format_module(module: Module) -> str:
    """Render a whole module as text."""
    parts: List[str] = [f'module "{module.name}"', ""]
    for gv in module.globals.values():
        init = f" init {gv.initializer.hex()}" if gv.initializer else ""
        parts.append(f"global @{gv.name} {gv.size} {gv.space}{init}")
    if module.globals:
        parts.append("")
    for name in sorted(module.functions):
        parts.append(format_function(module.functions[name]))
        parts.append("")
    return "\n".join(parts)
