"""Structural verification of IR modules.

The verifier enforces the invariants that the rest of the system relies
on ("do no harm" begins with "do not break the build").  It runs on
every module the CLI loads and every file task ``run_case`` repairs,
after every Hippocrates transformation, and on every function the flat
engine's compiler lowers: no engine runs code it rejects.

Each function remembers the module epoch at which it last verified
(:attr:`~repro.ir.function.Function.verified_at`).  :func:`is_verified`
asks :func:`unchanged_since` whether the function's own stamp or the
module's shape epoch (see :class:`~repro.ir.module.Module`) moved after
it, so callers that only need the code to be verified skip a function
nothing has changed since: :func:`verify_changed` (Hippocrates's check
after each fix and at the end) and the flat engine's compiler.  A
function that was never verified, or that belongs to no module, never
counts as verified.  The flat engine's compile cache asks
:func:`unchanged_since` the same question about the epoch it compiled a
function at, so a reused compiled function is still verified.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..errors import VerificationError
from .function import Function
from .instructions import Branch, Call, Instruction, Jump, Ret
from .module import Module
from .values import Argument, Constant, GlobalVariable


def unchanged_since(fn: Function, epoch: int) -> bool:
    """Whether neither ``fn``'s body nor its module's shape has changed
    after module epoch ``epoch``.  A function in no module never counts
    as unchanged."""
    module = fn.parent
    return module is not None and fn.stamp <= epoch and module.shape_epoch <= epoch


def is_verified(fn: Function) -> bool:
    """Whether ``fn`` passed :func:`verify_function` and is
    :func:`unchanged_since` then."""
    return unchanged_since(fn, fn.verified_at)


def verify_function(fn: Function) -> None:
    """Check a single function; raises :class:`VerificationError`."""
    if fn.is_declaration:
        _mark_verified(fn)
        return
    problems: List[str] = []

    block_set = set(fn.blocks)
    entry = fn.blocks[0]
    defined: Set[Instruction] = set()  # the instructions so far, in text order
    # (using block's index, value) per use of a value defined in another
    # block, for the dominance check; entry-block values dominate all
    cross_uses: List[Tuple[int, Instruction]] = []
    module = fn.parent
    functions = module.functions if module is not None else None

    for position, block in enumerate(fn.blocks):
        if block.parent is not fn:
            problems.append(f"block {block.name} has wrong parent")
        instructions = block.instructions
        last = len(instructions) - 1
        if last < 0 or not instructions[last].is_terminator:
            problems.append(f"block {block.name} lacks a terminator")
        for index, instr in enumerate(instructions):
            if instr.parent is not block:
                problems.append(f"#{instr.iid} has wrong parent block")
            if instr.is_terminator:
                if index != last:
                    problems.append(
                        f"terminator #{instr.iid} is not last in block {block.name}"
                    )
                if isinstance(instr, (Branch, Jump)):
                    for succ in instr.successors():
                        if succ not in block_set:
                            problems.append(
                                f"#{instr.iid} targets foreign block {succ.name!r}"
                            )
                elif isinstance(instr, Ret):
                    value = instr.value
                    if value is None and not fn.return_type.is_void:
                        problems.append(
                            f"#{instr.iid}: ret without value in non-void fn"
                        )
                    if value is not None and value.type != fn.return_type:
                        problems.append(
                            f"#{instr.iid}: ret type {value.type} != "
                            f"{fn.return_type}"
                        )
            elif functions is not None and isinstance(instr, Call):
                callee = functions.get(instr.callee)
                if callee is not None:
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
                if isinstance(op, Instruction):
                    op_block = op.parent
                    if op_block is None or op_block.parent is not fn:
                        problems.append(
                            f"#{instr.iid} uses instruction of another function"
                        )
                    elif op.type.is_void:
                        problems.append(f"#{instr.iid} uses void #{op.iid}")
                    elif op not in defined:
                        # Textual order: the parser resolves a ``%name``
                        # only after the line defining it.
                        problems.append(
                            f"#{instr.iid} uses %{op.name} (#{op.iid}) "
                            "before definition"
                        )
                    elif op_block is not block and op_block is not entry:
                        cross_uses.append((position, op))
                    continue
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
                problems.append(f"#{instr.iid} has bad operand {op!r}")
            defined.add(instr)

    if problems:
        raise VerificationError(
            f"function @{fn.name}: " + "; ".join(problems[:10])
        )
    undefined = _undominated_use(fn.blocks, cross_uses)
    if undefined is not None:
        raise VerificationError(
            f"undefined value {undefined.short()} in @{fn.name}"
        )
    _mark_verified(fn)


def _mark_verified(fn: Function) -> None:
    if fn.parent is not None:
        fn.verified_at = fn.parent.epoch


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


def verify_changed(module: Module, names: Optional[Iterable[str]] = None) -> None:
    """Verify every function of the module that is not
    :func:`is_verified`: the whole module the first time, and after a
    change to its shape; only the changed bodies otherwise.

    ``names`` narrows the check to those functions (names the module
    does not define are skipped): a committed fix changed only the
    functions it touched, so verifying them re-checks one function, not
    the module.  Raises :class:`VerificationError` on the first failure.
    """
    functions = module.functions
    for name in functions if names is None else sorted(set(names)):
        fn = functions.get(name)
        if fn is not None and not is_verified(fn):
            verify_function(fn)
