"""Evaluation targets written in the reproduction IR.

- :mod:`repro.apps.stdlib` — memcpy/memset/memcmp (the shared helpers)
- :mod:`repro.apps.pmdk_mini` — libpmem + a libpmemobj-style pool
- :mod:`repro.apps.kvstore` — Redis-pmem analog (Fig. 4 target)
- :mod:`repro.apps.pclht` — RECIPE's P-CLHT analog (2 seeded bugs)
- :mod:`repro.apps.pmemcached` — memcached-pm analog (10 seeded bugs)
"""

from .. import lazy_exports

_EXPORTS = {
    ".kvstore": ("KVStore", "build_kvstore"),
    ".pclht": ("PCLHT", "PCLHT_SEEDS", "build_pclht"),
    ".pmdk_mini": ("build_pmdk_module",),
    ".pmemcached": ("MC_SEEDS", "Memcached", "build_pmemcached"),
    ".stdlib": ("add_stdlib",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
