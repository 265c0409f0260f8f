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
so a command imports only the layers it runs.
"""

import importlib

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
