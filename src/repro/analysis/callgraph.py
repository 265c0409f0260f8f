"""Call graph construction over IR modules.

All calls in the IR are direct (by callee name), so the graph is exact.
Only defined functions are nodes; a call to an intrinsic adds no edge.
"""

from __future__ import annotations

from typing import Dict, Set

from ..ir.module import Module


class CallGraph:
    """Direct call graph of a module."""

    def __init__(self, module: Module):
        self.module = module
        #: caller name -> set of callee names (defined functions only)
        self._callees: Dict[str, Set[str]] = {}
        for fn in module.functions.values():
            self._callees[fn.name] = {
                call.callee
                for call in fn.calls()
                if module.has_function(call.callee)
            }

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
