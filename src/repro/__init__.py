"""repro — a full reproduction of *Hippocrates: Healing Persistent
Memory Bugs without Doing Any Harm* (Neal, Quinn, Kasikci; ASPLOS 2021).

Subpackages
-----------

- :mod:`repro.ir` — LLVM-like IR (the program representation)
- :mod:`repro.memory` — PM hardware model (cache lines, flushes, fences,
  crash states)
- :mod:`repro.interp` — IR interpreter with a cycle-cost model
- :mod:`repro.trace` — pmemcheck-style PM operation traces
- :mod:`repro.detect` — PM durability-bug finders (pmemcheck / PMTest)
- :mod:`repro.analysis` — call graphs, Andersen points-to, PM classifiers
- :mod:`repro.core` — **Hippocrates**, the automated bug fixer
- :mod:`repro.apps` — evaluation targets written in the IR (mini-PMDK,
  a Redis-like KV store, P-CLHT, a memcached-like cache)
- :mod:`repro.corpus` — the bug study (Fig. 1) and 23 seeded,
  reproducible durability bugs with developer-fix metadata
- :mod:`repro.workloads` — YCSB workload generation
- :mod:`repro.bench` — harness utilities and table/figure renderers

Subpackages load on first use (``repro.core`` or ``import repro.core``),
and so does every name a subpackage re-exports: ``from repro.ir import
parse_module`` imports ``repro.ir.parser`` and the modules it needs,
not the rest of ``repro.ir`` (see :func:`lazy_exports`).  So a command
imports only the modules it runs.
"""

import importlib
from typing import Dict, Iterable

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "bench",
    "core",
    "corpus",
    "detect",
    "interp",
    "ir",
    "memory",
    "trace",
    "workloads",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def lazy_exports(package: str, exports: Dict[str, Iterable[str]]):
    """A module ``__getattr__`` for ``package`` (PEP 562) that resolves
    each re-exported name in its submodule on first use.

    ``exports`` maps a module, named relative to ``package`` as in a
    ``from .module import name`` statement, to the names it defines.
    Nothing is cached in the package, so a name always reads the
    module's current binding (a patched function stays patched however
    it is reached).
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module, package), name)

    return __getattr__
