"""PM-vs-volatile pointer classification and heuristic scoring.

The hoisting heuristic (paper §4.3) needs, for every candidate fix
location, a score of ``#PM aliases − #non-PM aliases``.  We compute it
over Andersen points-to sets: a pointer's score is the number of its
abstract objects classified persistent minus the number classified
volatile.  (Working the paper's Listing 6: ``addr`` in ``update`` sees
one PM and one volatile object -> 0; the ``modify(pm_addr)`` call site's
argument sees only the PM object -> +1; the heuristic hoists to that
call site, as in the paper.)

Two classifiers are provided, matching the paper's §6.1 comparison:

- **Full-AA**: purely static — objects allocated by ``pm_alloc`` /
  ``pm_root`` / ``global … pm`` are persistent, everything else is
  volatile.
- **Trace-AA**: dynamic — an object is persistent iff some PM store
  event in the bug-finder trace landed in an allocation attributed to
  its allocation site (using the machine's allocation registry);
  everything else is volatile.

The paper reports both produce identical fixes on all targets; our
benchmark E7 reproduces that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Optional, Set

from ..ir.function import Function
from ..ir.instructions import Store
from ..ir.module import Module
from ..ir.values import Value
from ..trace.trace import PMTrace
from .andersen import PointsTo, UNKNOWN_SITE
from .callgraph import CallGraph

if TYPE_CHECKING:
    from ..interp.interpreter import Machine


class PMClassification:
    """A set of allocation-site keys considered persistent.

    The keys are turned into two masks over the points-to bits once, so
    every per-pointer question is an AND or two.
    """

    def __init__(self, points_to: PointsTo, pm_keys: Set[str], name: str):
        self.points_to = points_to
        self.pm_keys = frozenset(pm_keys)
        self.name = name
        self._pm_mask = points_to.mask_of_keys(self.pm_keys)
        # every tracked site that is not PM (UNKNOWN is neither)
        self._volatile_mask = (
            points_to.mask_of_keys(points_to.sites) & ~self._pm_mask
        )
        self._maybe_pm_mask = self._pm_mask | points_to.mask_of_keys(
            [UNKNOWN_SITE.key]
        )

    # -- per-pointer -----------------------------------------------------------

    def score(self, pointer: Value) -> int:
        """The heuristic score of one pointer.

        +1 when the pointer is *purely persistent* (all its objects are
        PM), −1 when purely volatile, 0 when mixed or untracked.  A
        mixed pointer is a bad flush target — flushes through it will
        sometimes hit volatile data — which is exactly the paper's
        "#PM aliases − #non-PM aliases" intuition (its Listing 6 scores
        reproduce verbatim: ``addr`` in ``update`` aliases one PM and
        one volatile object → 0; ``pm_addr`` at the ``modify`` call
        site → +1).  Counting raw object *numbers* instead would make a
        widely-shared helper's store score arbitrarily high merely
        because many persistent callers exist.
        """
        mask = self.points_to.mask_of(pointer)
        has_pm = bool(mask & self._pm_mask)
        has_volatile = bool(mask & self._volatile_mask)
        if has_pm and not has_volatile:
            return 1
        if has_volatile and not has_pm:
            return -1
        return 0

    def may_be_pm(self, pointer: Value) -> bool:
        """Could this pointer reference persistent memory?

        Conservative: empty/unknown points-to answers True.  Used to
        decide which stores a persistent-subprogram clone must flush.
        """
        mask = self.points_to.mask_of(pointer)
        return not mask or bool(mask & self._maybe_pm_mask)

    def store_may_be_pm(self, store: Store) -> bool:
        return self.may_be_pm(store.pointer)

    # -- per-function -----------------------------------------------------------

    def functions_with_pm_stores(self, callgraph: CallGraph) -> FrozenSet[str]:
        """Functions that (transitively) may store to PM.

        The persistent-subprogram transformation clones exactly these
        callees; functions that provably never touch PM are shared with
        the original program unmodified.
        """

        def has_direct_pm_store(fn: Function) -> bool:
            return any(self.store_may_be_pm(s) for s in fn.stores())

        return frozenset(callgraph.transitive_predicate(has_direct_pm_store))


def classify_full_aa(module: Module, points_to: Optional[PointsTo] = None) -> PMClassification:
    """Full-AA: static classification by allocator kind."""
    points_to = points_to or PointsTo(module)
    pm_keys = {
        site.key for site in points_to.sites.values() if site.space == "pm"
    }
    return PMClassification(points_to, pm_keys, "Full-AA")


def classify_trace_aa(
    module: Module,
    trace: PMTrace,
    machine: Machine,
    points_to: Optional[PointsTo] = None,
) -> PMClassification:
    """Trace-AA: dynamic classification from the traced execution.

    A site is persistent when (a) a traced PM store landed in one of
    its allocations, or (b) any of its allocations was observed to lie
    in the PM region at run time (the machine's allocation registry is
    the dynamic ground truth).  Without (b), an allocation that was
    written through a *different* points-to-merged pointer — e.g. the
    redo log sharing the pool root's field-insensitive heap node with
    the arena — would wrongly count as volatile and skew scores.
    Allocation sites that never executed fall back to their static
    space, which is also what keeps Full-AA and Trace-AA in agreement
    (§6.1 reports they produce identical fixes).
    """
    points_to = points_to or PointsTo(module)
    pm_keys: Set[str] = set()
    for store in trace.stores(pm_only=True):
        site = machine.site_of_addr(store.addr)
        if site is not None:
            pm_keys.add(site)
    for allocation in machine.allocations:
        if machine.space.is_pm(allocation.start):
            pm_keys.add(allocation.site)
    for site in points_to.sites.values():
        if site.space == "pm" and site.key not in pm_keys:
            pm_keys.add(site.key)
    return PMClassification(points_to, pm_keys, "Trace-AA")
