"""The mutation witness: what a committed flush/fence fix inserted.

A :class:`~repro.core.transaction.FixTransaction` that only inserted
flushes and fences can describe itself *exactly*: each fix anchors at an
existing instruction (the buggy store, or the existing flush a fence
follows) and appends a short straight-line run of ``flush``/``gep``/
``fence`` instructions immediately after it.  An :class:`InsertionSpec`
captures that shape as plain data — the anchor iid, and per inserted
instruction its iid, source location, and (for flushes) the constant
byte offset of its target from the anchor store's address.

The incremental revalidation engine consumes specs to *synthesize* the
post-fix trace from the baseline trace without re-executing the module
(see :mod:`repro.revalidate.synthesize`): inserted flushes and fences
change no register value, no branch, and no store, so their only
observable effect is the extra flush/fence events (and the ``had_work``
bits a cache simulation recomputes).

:func:`spec_for_fix` returns None when the inserted instructions do not
match the expected shape — the engine then falls back to a full
re-record, never to guessing.

This module sits below :mod:`repro.core` in the import graph (it only
needs the IR), so both the transaction layer and the engine can import
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from ..ir.debuginfo import DebugLoc
from ..ir.instructions import Fence, Flush, Gep, Instruction, Store
from ..ir.values import Constant


@dataclass(frozen=True)
class SynthFlush:
    """An inserted flush: targets ``anchor_store_addr + offset``."""

    iid: int
    loc: DebugLoc
    flush_kind: str
    offset: int


@dataclass(frozen=True)
class SynthFence:
    """An inserted fence (executes unconditionally after the anchor)."""

    iid: int
    loc: DebugLoc
    fence_kind: str


SynthOp = Union[SynthFlush, SynthFence]


@dataclass(frozen=True)
class InsertionSpec:
    """One committed fix's insertions, anchored at one instruction."""

    anchor_iid: int
    #: ``"store"`` — events key on PM store events of the anchor;
    #: ``"flush"`` — on PM flush events of the anchor.
    anchor_kind: str
    #: the anchor's enclosing function (stack synthesis for executions
    #: the baseline trace does not show, i.e. volatile targets)
    function: str
    ops: Tuple[SynthOp, ...]


@dataclass(frozen=True)
class CloneSpec:
    """One persistent clone created by a structural (hoisted) fix.

    ``clone_function`` copies a function instruction-for-instruction:
    same control flow, same operands, same source locations — only the
    name and the instruction iids are fresh, plus covering flushes
    inserted after each maybe-PM store.  ``iid_map`` is the
    original→clone iid correspondence for the *copied* instructions;
    ``flush_specs`` describes the inserted covering flushes exactly like
    a flush-fix witness, anchored at the clone's store iids.
    """

    orig_name: str
    clone_name: str
    iid_map: Tuple[Tuple[int, int], ...]
    flush_specs: Tuple[InsertionSpec, ...]


@dataclass(frozen=True)
class StructuralSpec:
    """One committed hoisted fix: a call retargeted onto a clone tree.

    Captures everything trace synthesis needs to rewrite the recorded
    callee spans of ``call_iid`` instead of re-executing: the clone
    closure (the retargeted callee plus every transitively re-targeted
    nested callee), and the sfence inserted after the call site (None
    when an adjacent fence already ordered it).

    The rewrite is sound by the same observational-linearity argument as
    flush/fence synthesis: a clone executes the same instructions on the
    same values (allocas replay in the same order, so even stack
    addresses coincide); only iids, function names and the inserted
    flush/fence events differ.
    """

    call_iid: int
    #: the call site's enclosing function (fence stack synthesis)
    caller_function: str
    orig_callee: str
    clone_callee: str
    fence: Optional[SynthFence]
    clones: Tuple[CloneSpec, ...]


def spec_for_fix(
    anchor: Instruction, inserted: Iterable[Instruction]
) -> Optional[InsertionSpec]:
    """Describe ``inserted`` (in program order, as applied after
    ``anchor``) as an :class:`InsertionSpec`, or None if the shape is
    not the straight-line flush/gep/fence run the engine understands."""
    if isinstance(anchor, Store):
        anchor_kind = "store"
    elif isinstance(anchor, Flush):
        anchor_kind = "flush"
    else:
        return None
    # Byte offsets (from the anchor's pointer) of the pointer values the
    # inserted flushes may target: the anchor's own pointer, plus any
    # inserted gep at a constant offset from a known pointer.
    offsets = {}
    pointer = getattr(anchor, "pointer", None)
    if pointer is not None:
        offsets[id(pointer)] = 0
    ops = []
    for instr in inserted:
        if isinstance(instr, Gep):
            base_off = offsets.get(id(instr.base))
            if base_off is None or not isinstance(instr.offset, Constant):
                return None
            offsets[id(instr)] = base_off + instr.offset.value
        elif isinstance(instr, Flush):
            offset = offsets.get(id(instr.pointer))
            if offset is None:
                return None
            ops.append(SynthFlush(instr.iid, instr.loc, instr.kind, offset))
        elif isinstance(instr, Fence):
            ops.append(SynthFence(instr.iid, instr.loc, instr.kind))
        else:
            return None
    return InsertionSpec(
        anchor_iid=anchor.iid,
        anchor_kind=anchor_kind,
        function=anchor.function.name if anchor.function is not None else "",
        ops=tuple(ops),
    )
