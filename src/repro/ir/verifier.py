"""Structural verification of IR modules.

The verifier enforces the invariants that the rest of the system relies
on ("do no harm" begins with "do not break the build").  It runs on
every module the CLI loads and every file task ``run_case`` repairs,
after every Hippocrates transformation, and on every function the flat
engine's compiler lowers: no engine runs code it rejects.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import VerificationError
from .function import Function
from .instructions import Branch, Call, Instruction, Jump, Ret, Trap
from .module import Module
from .values import Argument, Constant, GlobalVariable


def verify_function(fn: Function) -> None:
    """Check a single function; raises :class:`VerificationError`."""
    if fn.is_declaration:
        return
    problems: List[str] = []

    block_set = set(fn.blocks)
    entry = fn.blocks[0]
    defined: Set[int] = set()  # ids of the instructions so far, in text order
    # (using block's index, value) per use of a value defined in another
    # block, for the dominance check; entry-block values dominate all
    cross_uses: List[Tuple[int, Instruction]] = []
    module = fn.parent

    for position, block in enumerate(fn.blocks):
        if block.parent is not fn:
            problems.append(f"block {block.name} has wrong parent")
        if block.terminator is None:
            problems.append(f"block {block.name} lacks a terminator")
        for index, instr in enumerate(block):
            if instr.parent is not block:
                problems.append(f"#{instr.iid} has wrong parent block")
            if instr.is_terminator and index != len(block.instructions) - 1:
                problems.append(
                    f"terminator #{instr.iid} is not last in block {block.name}"
                )
            for succ in (
                instr.successors() if isinstance(instr, (Branch, Jump)) else []
            ):
                if succ not in block_set:
                    problems.append(
                        f"#{instr.iid} targets foreign block {succ.name!r}"
                    )
            if isinstance(instr, Ret):
                if instr.value is None and not fn.return_type.is_void:
                    problems.append(f"#{instr.iid}: ret without value in non-void fn")
                if instr.value is not None and instr.value.type != fn.return_type:
                    problems.append(
                        f"#{instr.iid}: ret type {instr.value.type} != "
                        f"{fn.return_type}"
                    )
            if isinstance(instr, Call) and module is not None:
                if module.has_function(instr.callee):
                    callee = module.get_function(instr.callee)
                    if len(callee.args) != len(instr.args):
                        problems.append(
                            f"#{instr.iid}: call @{instr.callee} arity "
                            f"{len(instr.args)} != {len(callee.args)}"
                        )
                    elif instr.type != callee.return_type:
                        problems.append(
                            f"#{instr.iid}: call @{instr.callee} type "
                            f"{instr.type} != {callee.return_type}"
                        )
            for op in instr.operands:
                if isinstance(op, Constant):
                    continue
                if isinstance(op, GlobalVariable):
                    if module is None or op.name not in module.globals:
                        problems.append(f"#{instr.iid} uses unknown global @{op.name}")
                    continue
                if isinstance(op, Argument):
                    if op.parent is not fn:
                        problems.append(
                            f"#{instr.iid} uses argument %{op.name} of another fn"
                        )
                    continue
                if isinstance(op, Instruction):
                    if op.function is not fn:
                        problems.append(
                            f"#{instr.iid} uses instruction of another function"
                        )
                    elif op.type.is_void:
                        problems.append(f"#{instr.iid} uses void #{op.iid}")
                    elif id(op) not in defined:
                        # Textual order: the parser resolves a ``%name``
                        # only after the line defining it.
                        problems.append(
                            f"#{instr.iid} uses %{op.name} (#{op.iid}) "
                            "before definition"
                        )
                    elif op.parent is not block and op.parent is not entry:
                        cross_uses.append((position, op))
                    continue
                problems.append(f"#{instr.iid} has bad operand {op!r}")
            defined.add(id(instr))

    if problems:
        raise VerificationError(
            f"function @{fn.name}: " + "; ".join(problems[:10])
        )
    undefined = _undominated_use(fn.blocks, cross_uses)
    if undefined is not None:
        raise VerificationError(
            f"undefined value {undefined.short()} in @{fn.name}"
        )


def _undominated_use(blocks, uses) -> Optional[Instruction]:
    """The first of ``uses``, ``(block index, value)`` pairs, whose
    value's block does not dominate the using block.

    Dominator sets are int masks over block indices, intersected over
    predecessors until nothing changes.  A block the entry does not
    reach keeps the full mask, so uses in it pass, as in LLVM.
    """
    if not uses:
        return None
    position = {block: index for index, block in enumerate(blocks)}
    preds: List[List[int]] = [[] for _ in blocks]
    for index, block in enumerate(blocks):
        for succ in block.successors():
            preds[position[succ]].append(index)
    full = (1 << len(blocks)) - 1
    dom = [1] + [full] * (len(blocks) - 1)
    changed = True
    while changed:
        changed = False
        for index in range(1, len(blocks)):
            mask = full
            for pred in preds[index]:
                mask &= dom[pred]
            mask |= 1 << index
            if mask != dom[index]:
                dom[index] = mask
                changed = True
    return next(
        (op for index, op in uses if not dom[index] >> position[op.parent] & 1),
        None,
    )


def verify_module(module: Module) -> None:
    """Verify every function in the module."""
    for fn in module.functions.values():
        verify_function(fn)
