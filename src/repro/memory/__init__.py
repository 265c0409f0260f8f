"""Persistent-memory hardware model.

Provides the simulated address space (volatile heap / stack / PM pool),
the CPU cache durability model (dirty lines, weakly ordered flushes,
fences), the durable PM image, and crash-state enumeration.
"""

from .. import lazy_exports

_EXPORTS = {
    ".cache": ("CacheModel",),
    ".crash": ("CrashExplorer", "CrashState"),
    ".layout": (
        "AddressSpace", "CACHE_LINE", "PM_BASE", "Region", "STACK_BASE",
        "VOL_BASE", "line_of", "lines_covering",
    ),
    ".persistence": ("PersistentImage",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
