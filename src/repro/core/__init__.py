"""Hippocrates: the paper's contribution — automated, provably-safe
repair of persistent-memory durability bugs.

Typical use::

    from repro.detect import pmemcheck_run
    from repro.core import Hippocrates

    detection, trace, interp = pmemcheck_run(module, driver)
    report = Hippocrates(module, trace, interp.machine).fix()
    # module now has every reported bug repaired
"""

from .. import lazy_exports

_EXPORTS = {
    ".fixes": (
        "Fix", "FixPlan", "HoistedFix", "InsertFenceAfterFlush",
        "InsertFenceAfterStore", "InsertFlush", "InsertFlushAndFence",
        "insert_covering_flushes",
    ),
    ".heuristic": (
        "Candidate", "HoistDecision", "choose_fix_location",
        "evaluate_candidates",
    ),
    ".hippocrates": (
        "DOWNGRADE_CHAIN", "HEURISTICS", "FixReport", "HeuristicDowngrade",
        "Hippocrates", "QuarantinedBug", "fix_module",
    ),
    ".intraprocedural": ("generate_intraprocedural_fixes",),
    ".locate": ("Locator",),
    ".reduction": ("reduce_fixes",),
    ".subprogram": ("PM_SUFFIX", "SubprogramTransformer", "clone_function"),
    ".transaction": ("FixTransaction",),
    ".validate": (
        "assert_fixed", "do_no_harm", "observable_behavior", "revalidate",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
