"""Call graph construction over IR modules.

All calls in the IR are direct (by callee name), so the graph is exact.
Intrinsics are represented as leaf nodes with no body.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.instructions import Call
from ..ir.module import Module


class CallGraph:
    """Direct call graph of a module."""

    def __init__(self, module: Module):
        self.module = module
        #: caller name -> set of callee names (defined functions only)
        self._callees: Dict[str, Set[str]] = {}
        #: callee name -> list of call instructions targeting it
        self._call_sites: Dict[str, List[Call]] = {}
        for fn in module.functions.values():
            callees: Set[str] = set()
            for call in fn.calls():
                self._call_sites.setdefault(call.callee, []).append(call)
                if module.has_function(call.callee):
                    callees.add(call.callee)
            self._callees[fn.name] = callees

    # -- queries -------------------------------------------------------------

    def callees(self, name: str) -> Set[str]:
        """Defined functions directly called by ``name``."""
        return set(self._callees.get(name, set()))

    def callers(self, name: str) -> Set[str]:
        """Functions containing at least one call to ``name``."""
        return {
            call.function.name
            for call in self._call_sites.get(name, [])
            if call.function is not None
        }

    def call_sites_of(self, name: str) -> List[Call]:
        """Every call instruction (in any function) targeting ``name``."""
        return list(self._call_sites.get(name, []))

    def reachable_from(self, name: str) -> Set[str]:
        """Defined functions transitively reachable from ``name``
        (including itself)."""
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen or current not in self._callees:
                continue
            seen.add(current)
            stack.extend(self._callees[current])
        return seen

    def transitive_predicate(self, predicate) -> Set[str]:
        """Functions for which ``predicate(fn)`` holds directly or in a
        transitively called function.

        Used to decide which callees a persistent-subprogram clone must
        also clone (those that transitively contain PM stores).
        """
        direct = {
            name
            for name, fn in self.module.functions.items()
            if predicate(fn)
        }
        result = set(direct)
        changed = True
        while changed:
            changed = False
            for name, callees in self._callees.items():
                if name not in result and callees & result:
                    result.add(name)
                    changed = True
        return result
