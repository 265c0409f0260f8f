"""YCSB workload generation and execution (the Fig. 4 driver).

Implements the standard core workloads over our key-value interface:

=========  =========================================  ============
workload   mix                                        distribution
=========  =========================================  ============
Load       100% insert                                sequential
A          50% read / 50% update                      zipfian
B          95% read / 5% update                       zipfian
C          100% read                                  zipfian
D          95% read / 5% insert                       latest
E          95% scan / 5% insert                       zipfian
F          50% read / 50% read-modify-write           zipfian
=========  =========================================  ============

Keys are ``user<zero-padded index>`` (YCSB's format); values are
deterministic bytes of a fixed size.  Generation is separated from
execution so the same operation list can drive different builds of the
store (the three Redis variants).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.kvstore import KVStore
from .zipf import LatestGenerator, ScrambledZipfianGenerator, UniformGenerator

READ = "read"
UPDATE = "update"
INSERT = "insert"
SCAN = "scan"
RMW = "rmw"


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix of one core workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"  # zipfian | latest | uniform

    def proportions(self) -> List:
        return [
            (READ, self.read),
            (UPDATE, self.update),
            (INSERT, self.insert),
            (SCAN, self.scan),
            (RMW, self.rmw),
        ]


#: The YCSB core workloads (A-F).
CORE_WORKLOADS: Dict[str, WorkloadSpec] = {
    "A": WorkloadSpec("A", read=0.5, update=0.5),
    "B": WorkloadSpec("B", read=0.95, update=0.05),
    "C": WorkloadSpec("C", read=1.0),
    "D": WorkloadSpec("D", read=0.95, insert=0.05, distribution="latest"),
    "E": WorkloadSpec("E", scan=0.95, insert=0.05),
    "F": WorkloadSpec("F", read=0.5, rmw=0.5),
}

#: Workload order as reported in Fig. 4.
FIG4_ORDER = ["Load", "A", "B", "C", "D", "E", "F"]


@dataclass(frozen=True)
class Operation:
    """One client request."""

    kind: str
    key: bytes = b""
    value: bytes = b""
    scan_length: int = 0


def make_key(index: int) -> bytes:
    return f"user{index:012d}".encode()


def make_value(index: int, size: int) -> bytes:
    pattern = f"v{index:08d}-".encode()
    return (pattern * (size // len(pattern) + 1))[:size]


def generate_load(record_count: int, value_size: int = 96) -> List[Operation]:
    """The Load phase: insert every record once."""
    return [
        Operation(INSERT, make_key(i), make_value(i, value_size))
        for i in range(record_count)
    ]


def generate_run(
    spec: WorkloadSpec,
    record_count: int,
    operation_count: int,
    value_size: int = 96,
    seed: int = 42,
    max_scan_length: int = 8,
) -> List[Operation]:
    """One run phase: ``operation_count`` requests drawn per the spec."""
    rng = random.Random(seed)
    if spec.distribution == "latest":
        chooser = LatestGenerator(record_count, rng)
    elif spec.distribution == "uniform":
        chooser = UniformGenerator(record_count, rng)
    else:
        chooser = ScrambledZipfianGenerator(record_count, rng)

    next_insert = record_count
    operations: List[Operation] = []
    for _ in range(operation_count):
        point = rng.random()
        cumulative = 0.0
        kind = READ
        for candidate, weight in spec.proportions():
            cumulative += weight
            if point < cumulative:
                kind = candidate
                break

        if kind == INSERT:
            index = next_insert
            next_insert += 1
            if isinstance(chooser, LatestGenerator):
                chooser.advance()
            operations.append(
                Operation(INSERT, make_key(index), make_value(index, value_size))
            )
            continue
        index = chooser.next() % max(1, next_insert)
        if kind == READ:
            operations.append(Operation(READ, make_key(index)))
        elif kind == UPDATE:
            operations.append(
                Operation(UPDATE, make_key(index), make_value(index + 1, value_size))
            )
        elif kind == RMW:
            operations.append(
                Operation(RMW, make_key(index), make_value(index + 2, value_size))
            )
        else:  # SCAN
            operations.append(
                Operation(
                    SCAN,
                    make_key(index),
                    scan_length=1 + rng.randrange(max_scan_length),
                )
            )
    return operations


@dataclass
class RunResult:
    """Execution outcome of one operation list."""

    operations: int
    cycles: int
    steps: int
    #: sanity counters (hits prove the workload touched real data)
    read_hits: int = 0
    read_misses: int = 0

    @property
    def throughput(self) -> float:
        """Operations per million simulated cycles (Fig. 4's y-axis)."""
        if self.cycles == 0:
            return 0.0
        return self.operations / (self.cycles / 1_000_000)


def execute(store: KVStore, operations: List[Operation]) -> RunResult:
    """Run an operation list against a KV store, measuring cycles."""
    interp = store.interp
    start_cycles = interp.costs.cycles
    start_steps = interp.steps
    hits = misses = 0
    for op in operations:
        if op.kind == INSERT or op.kind == UPDATE:
            store.put(op.key, op.value)
        elif op.kind == READ:
            if store.get(op.key) is None:
                misses += 1
            else:
                hits += 1
        elif op.kind == RMW:
            value = store.get(op.key)
            store.put(op.key, op.value if value is None else op.value)
        else:  # SCAN
            # The same start in every process: ``hash(bytes)`` is salted
            # per process, and the start decides workload E's cycles.
            store.scan(zlib.crc32(op.key), op.scan_length)
    return RunResult(
        operations=len(operations),
        cycles=interp.costs.cycles - start_cycles,
        steps=interp.steps - start_steps,
        read_hits=hits,
        read_misses=misses,
    )
