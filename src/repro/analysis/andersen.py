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
change test is ``!=``, and the queries answer with ANDs against a
per-space mask built as sites are interned; only :meth:`PointsTo.
sites_of` decodes a mask back into :class:`AllocSite` objects.  Every
site, globals included, is interned by the end of constraint
generation, so queries are read-only: they never add to
:attr:`PointsTo.sites`.

Pass order.  The fixpoint re-evaluates every constraint in the same
round-robin order each pass — copies, then loads, then stores — and
charges the budget once per pass for all of them.  The pass count, and
so the budget's item count, is therefore the same as for a set-based
solver, which keeps the ``full → trace → off`` downgrade points where
they were.  A worklist with difference propagation was measured about
2.6× slower on the pointer-web modules of the end-to-end benchmark's
``fix-analysis`` workload, so the passes stay round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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

        ``budget`` (items = constraint evaluations, optionally seconds)
        bounds the fixpoint: when it runs out, :class:`~repro.errors.
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
        self._space_masks: Dict[str, int] = {}
        self._var: Dict[Value, int] = {}
        self._heap: Dict[int, int] = {}  # site bit position -> mask
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

    def sites_of(self, value: Value) -> FrozenSet[AllocSite]:
        """The abstract objects ``value`` may point to."""
        return frozenset(self._decode(self.mask_of(value)))

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

    def may_alias(self, a: Value, b: Value) -> bool:
        """True if the two pointers may reference the same object."""
        ma, mb = self.mask_of(a), self.mask_of(b)
        if not ma or not mb:
            return True  # untracked: be conservative
        if (ma | mb) & _UNKNOWN_BIT:
            return True
        return bool(ma & mb)

    def may_point_to_space(self, value: Value, space: str) -> bool:
        """True if ``value`` may point into the given space ("pm"/"vol").

        Empty or unknown points-to sets answer True (conservative).
        """
        mask = self.mask_of(value)
        if not mask:
            return True
        return bool(mask & (self._space_masks.get(space, 0) | _UNKNOWN_BIT))

    # -- solving ---------------------------------------------------------------------

    def _intern(self, site: AllocSite) -> int:
        """Give ``site`` the next bit position; returns its one-bit mask."""
        bit = 1 << len(self._site_list)
        self._site_list.append(site)
        self._bits[site.key] = bit
        self._space_masks[site.space] = self._space_masks.get(site.space, 0) | bit
        if site is not UNKNOWN_SITE:
            self.sites[site.key] = site
        return bit

    def _site(self, key: str, space: str) -> int:
        bit = self._bits.get(key)
        return self._intern(AllocSite(key, space)) if bit is None else bit

    def _decode(self, mask: int) -> Iterator[AllocSite]:
        sites = self._site_list
        while mask:
            low = mask & -mask
            yield sites[low.bit_length() - 1]
            mask ^= low

    def _add(self, value: Value, bit: int) -> None:
        self._var[value] = self._var.get(value, 0) | bit

    def _solve(self) -> None:
        copies: List[Tuple[Value, Value]] = []  # pts(dst) ⊇ pts(src)
        loads: List[Tuple[Value, Value]] = []  # pts(dst) ⊇ heap(pts(src))
        stores: List[Tuple[Value, Value]] = []  # heap(pts(ptr)) ⊇ pts(src)
        returns: Dict[str, List[Value]] = {}

        # -- constraint generation --------------------------------------------
        for fn in self.module.functions.values():
            for instr in fn.instructions():
                if isinstance(instr, Alloca):
                    self._add(instr, self._site(f"alloca:{instr.iid}", "stack"))
                elif isinstance(instr, Gep):
                    copies.append((instr.base, instr))
                elif isinstance(instr, Select) and instr.type.is_pointer:
                    copies.append((instr.operands[1], instr))
                    copies.append((instr.operands[2], instr))
                elif isinstance(instr, Cast) and instr.type.is_pointer:
                    if instr.kind == "inttoptr":
                        # Round-tripping ptr->int->ptr is untrackable
                        # field-insensitively; give up to UNKNOWN.
                        self._add(instr, _UNKNOWN_BIT)
                    else:
                        copies.append((instr.operands[0], instr))
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

        # -- fixpoint ------------------------------------------------------------
        # A constant (null) pointer has no entry, so it reads as mask 0.
        per_pass = len(copies) + len(loads) + len(stores)
        pts, heap = self._var, self._heap
        get, heap_get = pts.get, heap.get
        changed = True
        while changed:
            if self.budget is not None:
                self.budget.charge(per_pass)
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
            for src, ptr in stores:
                src_mask = get(src, 0)
                if not src_mask:
                    continue
                targets = get(ptr, 0)
                while targets:
                    low = targets & -targets
                    site = low.bit_length() - 1
                    old = heap_get(site, 0)
                    if old | src_mask != old:
                        heap[site] = old | src_mask
                        changed = True
                    targets ^= low

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


def analyze(module: Module, budget: Optional[Budget] = None) -> PointsTo:
    """Run Andersen's analysis over a module."""
    return PointsTo(module, budget=budget)
