"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

The parser is line-oriented: every instruction occupies one line, block
labels end with ``:``, and functions are delimited by ``func ... {`` /
``}``.  Forward references to blocks create the block at first mention,
but a block takes its place in the function at its label, so blocks
keep their textual order; a label referenced but never defined is an
error.  Forward references to values are an error (the IR requires
definition before use in textual order, which the builder guarantees).

Each instruction line is split once: the debug location is cut off at
the last ``!``, the result name at the first ``=``, and the opcode at
the first blank.  The opcode selects a handler from :data:`_HANDLERS`,
one per instruction form, and the handler splits only its own operands.
Local values are kept under their ``%name`` spelling, so an operand
resolves with one dictionary lookup.  Instructions are built in textual
order, so a module's instruction ids follow its text.

Every malformed input raises :class:`~repro.errors.IRParseError` with
the number of the offending line, whichever layer noticed the problem
(a constructor's :class:`~repro.errors.IRError`, a bad literal's
``ValueError``).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import IRError, IRParseError
from .basicblock import BasicBlock
from .debuginfo import DebugLoc
from .function import Function
from .instructions import (
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
from .module import Module
from .types import I1, PTR, Type, _BY_NAME
from .values import Constant, Value

_MODULE_RE = re.compile(r'^module\s+"([^"]+)"$')
_GLOBAL_RE = re.compile(
    r"^global\s+@(\w[\w.]*)\s+(\d+)\s+(pm|vol)(?:\s+init\s+([0-9a-fA-F]+))?$"
)
_FUNC_RE = re.compile(r"^func\s+@([\w.$]+)\((.*)\)\s*->\s*(\w+)\s*(\{)?$")
_PARAM_RE = re.compile(r"^%(\w[\w.]*)\s*:\s*(\w+)$")
_LABEL_RE = re.compile(r"^([\w.]+):$")
#: what follows the last ``!`` of a line that carries a debug location
_LOC_RE = re.compile(r"([^\s!]+):(\d+)")
_CAST_RE = re.compile(r"^(\w+)\s+(\w+)\s+(\S+)\s+to\s+(\w+)$")
_CALL_RE = re.compile(r"^(\w+)\s+@([\w.$]+)\((.*)\)$")


class _TypeNames(dict):
    """The types by spelling.  A miss raises ``IRError``, which the
    line's caller turns into an ``IRParseError`` carrying the line."""

    def __missing__(self, name: str) -> Type:
        raise IRError(f"unknown type name: {name!r}")


_TYPES = _TypeNames(_BY_NAME)


def _split_args(text: str) -> List[str]:
    """Split call arguments at the commas outside parentheses."""
    if "(" not in text:
        return text.split(",")
    depth = 0
    current: List[str] = []
    pieces: List[str] = []
    for ch in text:
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
    return pieces


class _FunctionParser:
    """Parses the body of a single function."""

    def __init__(self, fn: Function, literals: Dict[str, Constant]):
        self.fn = fn
        #: local values under their ``%name`` spelling
        self.values: Dict[str, Value] = {"%" + a.name: a for a in fn.args}
        #: the module's literals by their typed spelling (``i64 8``, as
        #: written or normalised), shared by every body of one parse:
        #: one constant per spelling, as LLVM uniques its integer
        #: constants
        self.literals = literals
        self.blocks: Dict[str, BasicBlock] = {}
        #: labels referenced but not yet defined -> line of first mention
        self.unplaced: Dict[str, int] = {}

    def block(self, label: str, lineno: int) -> BasicBlock:
        """The block a branch names, created at its first mention."""
        block = self.blocks.get(label)
        if block is None:
            block = self.blocks[label] = BasicBlock(label, self.fn)
            self.unplaced[label] = lineno
        return block

    def open_block(self, label: str) -> BasicBlock:
        """The block a ``label:`` line opens, appended to the function
        at its first label."""
        block = self.blocks.get(label)
        if block is None:
            block = self.blocks[label] = BasicBlock(label, self.fn)
            self.fn.blocks.append(block)
        elif self.unplaced.pop(label, None) is not None:
            self.fn.blocks.append(block)
        return block

    # -- operands ----------------------------------------------------------------

    def value(self, text: str, type_: Type, lineno: int) -> Value:
        """Resolve one operand; ``text`` may carry surrounding blanks."""
        found = self.values.get(text)
        if found is not None:
            return found
        text = text.strip()
        first = text[:1]
        if first == "%":
            found = self.values.get(text)
            if found is None:
                raise IRParseError(f"use of undefined value {text}", lineno)
            return found
        if first == "@":
            module = self.fn.parent
            if module is None or text[1:] not in module.globals:
                raise IRParseError(f"unknown global {text}", lineno)
            return module.globals[text[1:]]
        key = f"{type_.name} {text}"
        found = self.literals.get(key)
        if found is None:
            try:
                literal = int(text, 0)
            except ValueError:
                raise IRParseError(f"bad operand {text!r}", lineno) from None
            found = self.literals[key] = Constant(literal, type_)
        return found

    def typed_value(self, text: str, lineno: int) -> Value:
        """Parse ``<type> <operand>``."""
        found = self.literals.get(text)  # a typed literal spelled before
        if found is not None:
            return found
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise IRParseError(f"expected 'type value', got {text!r}", lineno)
        type_name, operand = parts
        found = self.value(operand, _TYPES[type_name], lineno)
        if isinstance(found, Constant):
            self.literals[text] = found
        return found

    # -- the body ----------------------------------------------------------------

    def parse_body(self, lines: Iterator[Tuple[int, str]]) -> None:
        """Parse the function's lines from ``lines`` up to its ``}``.

        Instructions go straight onto their block's list: the body
        counts as one change to the module (one epoch bump at the
        ``}``), not one per instruction.
        """
        values = self.values
        block: Optional[BasicBlock] = None
        append = None  # ``block.instructions.append``
        terminated = False  # whether ``block`` already ends in a terminator
        lineno = 0
        try:
            for lineno, raw in lines:
                line = raw.strip()
                if not line or line[0] == ";":
                    continue
                if line == "}":
                    if self.unplaced:
                        label, first = next(iter(self.unplaced.items()))
                        raise IRParseError(f"undefined block label %{label}", first)
                    module = self.fn.parent
                    if module is not None:
                        module.bump_epoch(self.fn)
                    return

                loc: Optional[DebugLoc] = None
                bang = line.rfind("!")
                if bang > 0 and line[bang - 1].isspace():
                    match = _LOC_RE.fullmatch(line, bang + 1)
                    if match is not None:
                        file, number = match.groups()
                        loc = DebugLoc(file, int(number))
                        line = line[:bang].rstrip()

                if line[-1] == ":":
                    label = _LABEL_RE.match(line)
                    if label:
                        block = self.open_block(label.group(1))
                        instructions = block.instructions
                        append = instructions.append
                        terminated = bool(
                            instructions and instructions[-1].is_terminator
                        )
                        continue
                if block is None:
                    raise IRParseError("instruction outside any block", lineno)

                result = None
                if line[0] == "%":
                    result, _, line = line.partition("=")
                    result = result.strip()
                    line = line.strip()

                op, _, rest = line.partition(" ")
                handler = _HANDLERS.get(op)
                if handler is None:
                    raise IRParseError(f"unknown instruction: {line!r}", lineno)
                instr = handler(self, op, rest.strip(), line, lineno)
                if loc is not None:
                    instr.loc = loc
                if result is not None:
                    if instr.type.is_void:
                        raise IRParseError(
                            "void instruction cannot define a value", lineno
                        )
                    if result in values:
                        raise IRParseError(f"redefinition of {result}", lineno)
                    instr.name = result[1:]
                    values[result] = instr
                if terminated:
                    raise IRParseError(
                        f"block {block.name!r} already has a terminator; "
                        "cannot append",
                        lineno,
                    )
                instr.parent = block
                append(instr)
                terminated = instr.is_terminator
        except IRParseError:
            raise
        except (IRError, ValueError) as exc:
            # A constructor's or a literal's complaint about this line.
            raise IRParseError(str(exc), lineno) from None
        raise IRParseError("unterminated function body (missing '}')")

    # -- one handler per instruction form: (op, operand text, line, lineno) --------

    def _alloca(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        try:
            size = int(rest)
        except ValueError:
            raise IRParseError(f"bad alloca size {rest!r}", lineno) from None
        return Alloca(size)

    def _load(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        type_text, _, ptr_text = rest.partition(",")
        ptr = self.value(ptr_text.strip(), PTR, lineno)
        return Load(ptr, _TYPES[type_text.strip()])

    def _store(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        value_text, _, ptr_text = rest.partition(",")
        value = self.typed_value(value_text, lineno)
        ptr = self.value(ptr_text.strip(), PTR, lineno)
        return Store(value, ptr, nontemporal=(op == "store.nt"))

    def _gep(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        base_text, _, off_text = rest.partition(",")
        return Gep(
            self.value(base_text, PTR, lineno), self.typed_value(off_text, lineno)
        )

    def _binop(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        type_text, _, operands = rest.partition(" ")
        lhs_text, _, rhs_text = operands.partition(",")
        type_ = _TYPES[type_text]
        return BinOp(
            op,
            self.value(lhs_text, type_, lineno),
            self.value(rhs_text.strip(), type_, lineno),
        )

    def _icmp(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        pred, _, rest = rest.partition(" ")
        type_text, _, operands = rest.strip().partition(" ")
        lhs_text, _, rhs_text = operands.partition(",")
        type_ = _TYPES[type_text]
        return ICmp(
            pred,
            self.value(lhs_text, type_, lineno),
            self.value(rhs_text.strip(), type_, lineno),
        )

    def _select(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        cond_text, _, rest = rest.partition(",")
        cond = self.value(cond_text, I1, lineno)
        type_text, _, arms = rest.strip().partition(" ")
        a_text, _, b_text = arms.partition(",")
        type_ = _TYPES[type_text]
        return Select(
            cond,
            self.value(a_text, type_, lineno),
            self.value(b_text.strip(), type_, lineno),
        )

    def _cast(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        match = _CAST_RE.match(rest)
        if not match:
            raise IRParseError(f"bad cast: {rest!r}", lineno)
        kind, from_type, value_text, to_type = match.groups()
        return Cast(
            kind,
            self.value(value_text, _TYPES[from_type], lineno),
            _TYPES[to_type],
        )

    def _br(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        cond_text, _, targets = rest.partition(",")
        then_text, _, else_text = targets.partition(",")
        return Branch(
            self.value(cond_text, I1, lineno),
            self.block(then_text.strip().lstrip("%"), lineno),
            self.block(else_text.strip().lstrip("%"), lineno),
        )

    def _jmp(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        return Jump(self.block(rest.lstrip("%"), lineno))

    def _ret(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        if not rest:
            return Ret()
        return Ret(self.typed_value(rest, lineno))

    def _trap(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        if rest:
            raise IRParseError(f"unknown instruction: {line!r}", lineno)
        return Trap()

    def _call(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        match = _CALL_RE.match(rest)
        if not match:
            raise IRParseError(f"bad call: {line!r}", lineno)
        ret_type, callee, args_text = match.groups()
        args = []
        if args_text.strip():
            args = [self.typed_value(p, lineno) for p in _split_args(args_text)]
        return Call(callee, args, _TYPES[ret_type])

    def _flush(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        kind, _, ptr_text = rest.partition(",")
        ptr = self.value(ptr_text.strip(), PTR, lineno)
        return Flush(ptr, kind.strip())

    def _fence(self, op: str, rest: str, line: str, lineno: int) -> Instruction:
        return Fence(rest)


#: opcode -> handler, covering every instruction form the printer emits
_HANDLERS: Dict[str, Callable[..., Instruction]] = {
    "alloca": _FunctionParser._alloca,
    "load": _FunctionParser._load,
    "store": _FunctionParser._store,
    "store.nt": _FunctionParser._store,
    "gep": _FunctionParser._gep,
    "icmp": _FunctionParser._icmp,
    "select": _FunctionParser._select,
    "cast": _FunctionParser._cast,
    "br": _FunctionParser._br,
    "jmp": _FunctionParser._jmp,
    "ret": _FunctionParser._ret,
    "trap": _FunctionParser._trap,
    "call": _FunctionParser._call,
    "flush": _FunctionParser._flush,
    "fence": _FunctionParser._fence,
    **{op: _FunctionParser._binop for op in BINARY_OPS},
}


def _parse_top_level(module: Module, line: str, lineno: int) -> Optional[Function]:
    """Parse a line outside any function body; returns the function
    whose body the line opens, if any."""
    func_match = _FUNC_RE.match(line)
    if func_match:
        name, params_text, ret_name, has_body = func_match.groups()
        params = []
        if params_text.strip():
            for piece in params_text.split(","):
                param_match = _PARAM_RE.match(piece.strip())
                if not param_match:
                    raise IRParseError(f"bad parameter {piece!r}", lineno)
                pname, ptype = param_match.groups()
                params.append((pname, _TYPES[ptype]))
        ret_type = _TYPES[ret_name]
        fn = module.add_function(name, params, ret_type)
        return fn if has_body else None
    global_match = _GLOBAL_RE.match(line)
    if global_match:
        name, size, space, init_hex = global_match.groups()
        initializer = bytes.fromhex(init_hex) if init_hex else None
        module.add_global(name, int(size), space, initializer)
        return None
    module_match = _MODULE_RE.match(line)
    if module_match:
        module.name = module_match.group(1)
        return None
    raise IRParseError(f"unexpected top-level line: {line!r}", lineno)


def parse_module(text: str) -> Module:
    """Parse a textual module (the inverse of ``format_module``)."""
    module = Module()
    literals: Dict[str, Constant] = {}
    lines = enumerate(text.splitlines(), start=1)
    lineno = 0
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line[0] == ";":
            continue
        try:
            fn = _parse_top_level(module, line, lineno)
        except IRParseError:
            raise
        except (IRError, ValueError) as exc:
            raise IRParseError(str(exc), lineno) from None
        if fn is not None:
            _FunctionParser(fn, literals).parse_body(lines)
    return module
