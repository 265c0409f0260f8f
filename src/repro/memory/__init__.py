"""Persistent-memory hardware model.

Provides the simulated address space (volatile heap / stack / PM pool),
the CPU cache durability model (dirty lines, weakly ordered flushes,
fences), the durable PM image, and crash-state enumeration.
"""

from .cache import CacheModel
from .crash import CrashExplorer, CrashState
from .layout import (
    AddressSpace,
    CACHE_LINE,
    PM_BASE,
    Region,
    STACK_BASE,
    VOL_BASE,
    line_of,
    lines_covering,
)
from .persistence import PersistentImage
from .pool import MachinePool

__all__ = [
    "AddressSpace",
    "CACHE_LINE",
    "CacheModel",
    "CrashExplorer",
    "CrashState",
    "line_of",
    "lines_covering",
    "MachinePool",
    "PersistentImage",
    "PM_BASE",
    "Region",
    "STACK_BASE",
    "VOL_BASE",
]
