"""Andersen's inclusion-based points-to analysis.

The paper uses "an implementation of Andersen's alias analysis for the
whole-program alias analysis we perform to compute our heuristic" (§5).
This is that analysis for our IR: flow- and context-insensitive,
field-insensitive, with one abstract heap object per allocation site.

Abstract locations (:class:`AllocSite`) are created for:

- ``alloca`` instructions (space ``stack``),
- calls to ``pm_alloc`` / ``vol_alloc`` (space ``pm`` / ``vol``),
- calls to ``pm_root`` (a single shared site — every call returns the
  same root object),
- globals (space from their declaration),
- a distinguished UNKNOWN site for pointers the analysis cannot track
  (``inttoptr`` results, unknown intrinsic returns).

Constraints:

====================  =====================================
IR construct          constraint
====================  =====================================
``p = alloca``        {site} ⊆ pts(p)
``p = pm_alloc(n)``   {site} ⊆ pts(p)
``p = gep q, off``    pts(q) ⊆ pts(p)   (field-insensitive)
``p = select c,a,b``  pts(a) ∪ pts(b) ⊆ pts(p)
``p = cast …``        pts(src) ⊆ pts(p) (or UNKNOWN)
``store q, p``        ∀s ∈ pts(p): pts(q) ⊆ heap(s)
``p = load q``        ∀s ∈ pts(q): heap(s) ⊆ pts(p)
``call f(a…)``        pts(aᵢ) ⊆ pts(paramᵢ); returns flow back
====================  =====================================

Representation.  Every site is interned as a bit position when it is
created (UNKNOWN is bit 0, then every global, then the sites met during
constraint generation), and a points-to set is a Python ``int`` mask
over those bits: ``_var`` maps a value to its mask and ``_heap`` a site's
bit to the mask of what its object may hold.  Union is ``|``, the
change test is ``!=``, and the classifier answers with ANDs against
masks built from site keys (:meth:`PointsTo.mask_of_keys`).  Every
site, globals included, is interned by the end of constraint
generation, so queries are read-only: they never add to
:attr:`PointsTo.sites`.

Copy classes.  In SSA a ``gep`` or a (non-``inttoptr``) pointer cast
has exactly one incoming constraint, the copy from its base, so at the
fixpoint its set *is* its base's set (offline variable substitution,
Rountev & Chandra, PLDI 2000).  Such a value emits no copy: it joins
its base's class, whose root is looked up when the value is generated
(a base printed later is resolved, with path compression, once
generation ends), and every constraint endpoint is rewritten to its
root.  After the fixpoint each collapsed value gets its root's mask
when that mask is nonzero, so ``_var`` holds exactly the pairs the
uncollapsed solver would.  A copy cycle cannot come out of verified
SSA; if one appears anyway its members stay plain copies.

Store deltas.  Each store remembers the ``(src, targets)`` masks it
last propagated: with ``src`` unchanged it visits only the new target
bits, and with neither changed it is skipped.  A skipped evaluation
could not have changed anything.

Pass order and budget.  The fixpoint re-evaluates the remaining
constraints in the same round-robin order each pass — copies, then
loads, then stores — and charges the budget once per pass for the
module's *full* constraint count, collapsed constraints included, so a
budget item stays a property of the program rather than of the solver.
Collapsed values read fresher masks, so the pass count (and with it
the charge) is at most a set-based solver's; :attr:`PointsTo.passes`
and :attr:`PointsTo.evaluations` record the work actually done.  A
worklist with difference propagation was measured about 2.6× slower on
the pointer-web modules of the end-to-end benchmark's ``fix-analysis``
workload, so the passes stay round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..budget import Budget
from ..ir.instructions import (
    Alloca,
    Call,
    Cast,
    Gep,
    Load,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.values import Value

#: Intrinsics that allocate; mapped to the space they allocate in.
_ALLOC_INTRINSICS = {"pm_alloc": "pm", "vol_alloc": "vol"}


@dataclass(frozen=True)
class AllocSite:
    """An abstract memory object."""

    key: str
    space: str  # "pm" | "vol" | "stack" | "unknown"

    def __repr__(self) -> str:
        return f"<{self.key}:{self.space}>"


UNKNOWN_SITE = AllocSite("unknown", "unknown")

#: UNKNOWN is interned first in every :class:`PointsTo`
_UNKNOWN_BIT = 1


class PointsTo:
    """Solved points-to information for one module."""

    def __init__(self, module: Module, budget: Optional[Budget] = None):
        """Solve the module's constraints to a fixpoint.

        ``budget`` (items = the module's constraint count per pass,
        optionally seconds) bounds the fixpoint: when it runs out, :class:`~repro.errors.
        BudgetExceeded` propagates from here.  A partial Andersen result
        would be an *under*-approximation — unsafe to act on — so the
        orchestrator must catch the signal and downgrade to a cheaper
        heuristic rather than read a half-solved analysis.
        """
        self._reset(module)
        self.budget = budget
        self._solve()

    def _reset(
        self, module: Module, sites: Optional[Iterable[AllocSite]] = None
    ) -> None:
        """Empty tables with ``sites`` interned in bit order.

        By default that is UNKNOWN and then every global; the on-disk
        cache passes a stored solution's site list instead (see
        :mod:`repro.analysis.diskcache`).  Either way each global
        points to its own site.
        """
        self.module = module
        self.budget: Optional[Budget] = None
        #: key -> site, for every interned site except UNKNOWN
        self.sites: Dict[str, AllocSite] = {}
        self._site_list: List[AllocSite] = []  # bit position -> site
        self._bits: Dict[str, int] = {}  # site key -> its one-bit mask
        self._var: Dict[Value, int] = {}
        self._heap: Dict[int, int] = {}  # site bit position -> mask
        #: fixpoint passes, and the constraint evaluations they made
        #: (0 for a solution restored from the disk cache)
        self.passes = 0
        self.evaluations = 0
        if sites is None:
            sites = [UNKNOWN_SITE] + [
                AllocSite(f"global:{gv.name}", gv.space)
                for gv in module.globals.values()
            ]
        for site in sites:
            self._intern(site)
        for gv in module.globals.values():
            self._var[gv] = self._bits[f"global:{gv.name}"]

    # -- public queries -----------------------------------------------------------

    def mask_of(self, value: Value) -> int:
        """``value``'s points-to set as a mask (see :meth:`mask_of_keys`)."""
        return self._var.get(value, 0)

    def mask_of_keys(self, keys: Iterable[str]) -> int:
        """The mask of the interned sites among ``keys``."""
        bits = self._bits
        mask = 0
        for key in keys:
            mask |= bits.get(key, 0)
        return mask

    # -- solving ---------------------------------------------------------------------

    def _intern(self, site: AllocSite) -> int:
        """Give ``site`` the next bit position; returns its one-bit mask."""
        bit = 1 << len(self._site_list)
        self._site_list.append(site)
        self._bits[site.key] = bit
        if site is not UNKNOWN_SITE:
            self.sites[site.key] = site
        return bit

    def _site(self, key: str, space: str) -> int:
        bit = self._bits.get(key)
        return self._intern(AllocSite(key, space)) if bit is None else bit

    def _add(self, value: Value, bit: int) -> None:
        self._var[value] = self._var.get(value, 0) | bit

    def _solve(self) -> None:
        copies: List[Tuple[Value, Value]] = []  # pts(dst) ⊇ pts(src)
        loads: List[Tuple[Value, Value]] = []  # pts(dst) ⊇ heap(pts(src))
        stores: List[Tuple[Value, Value]] = []  # heap(pts(ptr)) ⊇ pts(src)
        returns: Dict[str, List[Value]] = {}
        #: a collapsed gep or cast -> the root of its copy class
        same: Dict[Value, Value] = {}

        # -- constraint generation --------------------------------------------
        for fn in self.module.functions.values():
            for instr in fn.instructions():
                if isinstance(instr, Alloca):
                    self._add(instr, self._site(f"alloca:{instr.iid}", "stack"))
                elif isinstance(instr, Gep):
                    base = instr.base
                    same[instr] = same.get(base, base)
                elif isinstance(instr, Select) and instr.type.is_pointer:
                    copies.append((instr.operands[1], instr))
                    copies.append((instr.operands[2], instr))
                elif isinstance(instr, Cast) and instr.type.is_pointer:
                    if instr.kind == "inttoptr":
                        # Round-tripping ptr->int->ptr is untrackable
                        # field-insensitively; give up to UNKNOWN.
                        self._add(instr, _UNKNOWN_BIT)
                    else:
                        base = instr.operands[0]
                        same[instr] = same.get(base, base)
                elif isinstance(instr, Load) and instr.type.is_pointer:
                    loads.append((instr.pointer, instr))
                elif isinstance(instr, Store) and instr.value.type.is_pointer:
                    stores.append((instr.value, instr.pointer))
                elif isinstance(instr, Ret) and instr.value is not None:
                    if instr.value.type.is_pointer:
                        returns.setdefault(fn.name, []).append(instr.value)
                elif isinstance(instr, Call):
                    self._call_constraints(instr, copies)

        # Return-value flow: call results ⊇ callee returns.
        for fn in self.module.functions.values():
            for call in fn.calls():
                if not call.type.is_pointer:
                    continue
                if self.module.has_function(call.callee):
                    for ret_value in returns.get(call.callee, []):
                        copies.append((ret_value, call))

        # -- copy classes ---------------------------------------------------------
        _resolve_late_roots(same, copies)
        root = same.get
        copies = [(root(src, src), dst) for src, dst in copies]
        loads = [(root(ptr, ptr), dst) for ptr, dst in loads]
        # [src, ptr, src mask and targets mask last propagated]
        live_stores = [[root(src, src), root(ptr, ptr), 0, 0] for src, ptr in stores]

        # -- fixpoint ------------------------------------------------------------
        # A constant (null) pointer has no entry, so it reads as mask 0.
        per_pass = len(copies) + len(loads) + len(live_stores) + len(same)
        pts, heap = self._var, self._heap
        get, heap_get = pts.get, heap.get
        passes = skipped = 0
        changed = True
        while changed:
            if self.budget is not None:
                self.budget.charge(per_pass)
            passes += 1
            changed = False
            for src, dst in copies:
                old = get(dst, 0)
                new = old | get(src, 0)
                if new != old:
                    pts[dst] = new
                    changed = True
            for ptr, dst in loads:
                old = get(dst, 0)
                new = old
                targets = get(ptr, 0)
                while targets:
                    low = targets & -targets
                    new |= heap_get(low.bit_length() - 1, 0)
                    targets ^= low
                if new != old:
                    pts[dst] = new
                    changed = True
            for store in live_stores:
                src, ptr, seen_src, seen_targets = store
                src_mask = get(src, 0)
                all_targets = get(ptr, 0)
                if src_mask != seen_src:
                    targets = all_targets
                elif all_targets != seen_targets:
                    targets = all_targets ^ seen_targets  # masks only grow
                else:
                    skipped += 1
                    continue
                store[2] = src_mask
                store[3] = all_targets
                if not src_mask:
                    continue
                while targets:
                    low = targets & -targets
                    site = low.bit_length() - 1
                    old = heap_get(site, 0)
                    if old | src_mask != old:
                        heap[site] = old | src_mask
                        changed = True
                    targets ^= low
        self.passes = passes
        self.evaluations = (
            passes * (len(copies) + len(loads) + len(live_stores)) - skipped
        )
        for value, class_root in same.items():
            mask = get(class_root, 0)
            if mask:
                pts[value] = mask

    def _call_constraints(
        self, call: Call, copies: List[Tuple[Value, Value]]
    ) -> None:
        callee_name = call.callee
        if self.module.has_function(callee_name):
            callee = self.module.get_function(callee_name)
            for formal, actual in zip(callee.args, call.args):
                if formal.type.is_pointer:
                    copies.append((actual, formal))
            return
        if callee_name in _ALLOC_INTRINSICS:
            self._add(
                call, self._site(f"call:{call.iid}", _ALLOC_INTRINSICS[callee_name])
            )
            return
        if callee_name == "pm_root":
            self._add(call, self._site("pm_root", "pm"))
            return
        if call.type.is_pointer:
            # Unknown intrinsic returning a pointer: untrackable.
            self._add(call, _UNKNOWN_BIT)



def _resolve_late_roots(same: Dict[Value, Value], copies: List[Tuple[Value, Value]]) -> None:
    """Point every collapsed value in ``same`` straight at its class root.

    A value's root was looked up when it was generated, so only a value
    whose base is printed later (reached through a branch) can point at
    another collapsed value; those chains are walked once, compressing
    the path.  A cycle cannot come out of verified SSA; if one appears
    anyway, its members leave ``same`` and stay plain copies.
    """
    for value in [value for value, base in same.items() if base in same]:
        if value not in same:
            continue  # a cycle member, already a plain copy
        path = [value]
        on_path = {value}
        base = same[value]
        while base in same:
            if base in on_path:
                for member in path[path.index(base):]:
                    copies.append((same.pop(member), member))
                break
            path.append(base)
            on_path.add(base)
            base = same[base]
        for member in path:
            if member in same:
                same[member] = base
