"""Experiment harness: builds targets, applies Hippocrates, measures.

Everything the benchmark suite (one file per paper table/figure) needs:

- :func:`build_redis_variants` — Redis-pm / RedisH-full / RedisH-intra
  (§6.3's three stores), with the fix reports.
- :func:`run_fig4` — YCSB Load + A-F over the three variants.
- :func:`run_effectiveness` — fix-and-revalidate over the whole corpus.
- :func:`run_fig3` — qualitative fix comparison on the 11 PMDK cases.
- :func:`run_fig5` — offline overhead (size/time/memory) per target.
- :func:`run_heuristic_comparison` — Full-AA vs Trace-AA (E7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..apps.kvstore import KVStore, build_kvstore
from ..core.fixes import HoistedFix
from ..core.hippocrates import FixReport, Hippocrates
from ..corpus.bugs import BugCase, all_cases, pmdk_cases
from ..detect import pmemcheck_run
from ..ir.module import Module
from ..ir.printer import format_module
from ..supervisor import (
    BatchSupervisor,
    CaseOutcome,
    SupervisorConfig,
    corpus_tasks,
    run_case,
)
from ..workloads.ycsb import (
    CORE_WORKLOADS,
    FIG4_ORDER,
    RunResult,
    execute,
    generate_load,
    generate_run,
)

#: Paper variant names.
REDIS_PM = "Redis-pm"
REDIS_FULL = "RedisH-full"
REDIS_INTRA = "RedisH-intra"


def redis_trace_workload(kv: KVStore) -> None:
    """The tracing workload used to collect Redis's pmemcheck trace.

    Exercises every operation path (insert, update, delete, lookup,
    scan) so the trace covers all durability obligations — the paper's
    equivalent of running the test suite under pmemcheck.
    """
    kv.init(64, 1 << 20)
    for i in range(30):
        kv.put(f"key{i:04d}".encode(), f"value-{i:03d}".encode() * 3)
    kv.put(b"key0003", b"UPDATEDVAL-003-XYZIJKLMNOPQ")
    kv.delete(b"key0004")
    for i in range(10):
        kv.get(f"key{i:04d}".encode())
    kv.scan(5, 4)


def build_redis_variant(heuristic: Optional[str]) -> Tuple[Module, Optional[FixReport]]:
    """One Redis build: None -> the manual baseline; otherwise the
    flush-free store repaired with the given heuristic mode."""
    if heuristic is None:
        return build_kvstore("manual"), None
    module = build_kvstore("noflush")
    kv = KVStore(module)
    redis_trace_workload(kv)
    trace = kv.finish()
    report = Hippocrates(module, trace, kv.machine, heuristic=heuristic).fix()
    return module, report


def build_redis_variants() -> Dict[str, Tuple[Module, Optional[FixReport]]]:
    return {
        REDIS_PM: build_redis_variant(None),
        REDIS_FULL: build_redis_variant("full"),
        REDIS_INTRA: build_redis_variant("off"),
    }


# ---------------------------------------------------------------------------
# Fig. 4 — YCSB throughput over the three Redis variants
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Per-(variant, workload) throughput plus the fix reports."""

    record_count: int
    operation_count: int
    value_size: int
    #: variant -> workload -> RunResult
    results: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)
    reports: Dict[str, Optional[FixReport]] = field(default_factory=dict)

    def throughput(self, variant: str, workload: str) -> float:
        return self.results[variant][workload].throughput

    def speedup_full_over_intra(self) -> Dict[str, float]:
        return {
            w: self.throughput(REDIS_FULL, w) / self.throughput(REDIS_INTRA, w)
            for w in self.results[REDIS_FULL]
        }

    def full_vs_manual(self) -> Dict[str, float]:
        return {
            w: self.throughput(REDIS_FULL, w) / self.throughput(REDIS_PM, w)
            for w in self.results[REDIS_FULL]
        }


def run_fig4(
    record_count: int = 300,
    operation_count: int = 300,
    value_size: int = 96,
    seed: int = 42,
    workloads: Optional[List[str]] = None,
) -> Fig4Result:
    """Run YCSB Load + A-F on all three variants.

    The paper uses 10k records/ops on real hardware; the interpreter
    defaults to 300/300, which preserves every reported relationship
    (the generators and store are identical, only the sample is
    smaller).
    """
    outcome = Fig4Result(record_count, operation_count, value_size)
    selected = workloads or FIG4_ORDER
    for variant, (module, report) in build_redis_variants().items():
        outcome.reports[variant] = report
        per_workload: Dict[str, RunResult] = {}
        for name in selected:
            store = KVStore(module)
            store.init(max(64, record_count // 2), 1 << 23)
            load_ops = generate_load(record_count, value_size)
            load_result = execute(store, load_ops)
            if name == "Load":
                per_workload["Load"] = load_result
                continue
            run_ops = generate_run(
                CORE_WORKLOADS[name], record_count, operation_count,
                value_size, seed,
            )
            per_workload[name] = execute(store, run_ops)
        outcome.results[variant] = per_workload
    return outcome


# ---------------------------------------------------------------------------
# Effectiveness (§6.1) and accuracy (Fig. 3)
# ---------------------------------------------------------------------------


# CaseOutcome/run_case live in repro.supervisor.tasks (re-exported here
# for compatibility): the supervisor is the canonical owner of per-case
# repair so batch runs and benchmarks share one code path.


def run_effectiveness(heuristic: str = "full") -> List[CaseOutcome]:
    """Fix and revalidate the full 23-bug corpus (§6.1).

    Routed through the :class:`BatchSupervisor` (in-process serial
    mode, no journal) so corpus runs exercise the exact scheduling path
    production batches use; the rich per-case outcomes are recovered
    from the supervisor's in-process results.
    """
    supervisor = BatchSupervisor(
        corpus_tasks(heuristic=heuristic),
        config=SupervisorConfig(
            mode="inprocess", heuristic=heuristic, max_retries=0,
            task_timeout=600.0,
        ),
    )
    report = supervisor.run()
    if report.quarantined or report.interrupted:
        bad = ", ".join(o.task_id for o in report.quarantined) or "interrupted"
        raise RuntimeError(f"corpus batch did not complete cleanly: {bad}")
    return [outcome.outcome_obj for outcome in report.outcomes]


def run_fig3() -> List[CaseOutcome]:
    """The 11 PMDK cases with developer-fix comparisons (Fig. 3)."""
    return [run_case(case) for case in pmdk_cases()]


# ---------------------------------------------------------------------------
# Fig. 5 — offline overhead
# ---------------------------------------------------------------------------


@dataclass
class OverheadRow:
    target: str
    ir_kinstr: float  # thousands of IR instructions (the KLOC analog)
    seconds: float
    peak_mb: float
    bugs_fixed: int


def _measure_target(
    name: str, builds: List[Tuple[Module, Callable]], sized: Module
) -> OverheadRow:
    total_seconds = 0.0
    peak = 0
    bugs = 0
    for module, drive in builds:
        _, trace, interp = pmemcheck_run(module, drive)
        report = Hippocrates(module, trace, interp.machine).fix(
            measure_overhead=True
        )
        total_seconds += report.elapsed_seconds
        peak = max(peak, report.peak_memory_bytes)
        bugs += report.bugs_fixed
    return OverheadRow(
        target=name,
        ir_kinstr=sized.instruction_count() / 1000.0,
        seconds=total_seconds,
        peak_mb=peak / (1024 * 1024),
        bugs_fixed=bugs,
    )


def run_fig5() -> List[OverheadRow]:
    """Offline overhead per target (Fig. 5's columns)."""
    rows: List[OverheadRow] = []

    pmdk_builds = []
    sized = None
    for case in pmdk_cases():
        module = case.build()
        if sized is None:
            sized = module
        pmdk_builds.append((module, case.drive))
    rows.append(_measure_target("PMDK (Unit Tests)", pmdk_builds, sized))

    for case in all_cases():
        if case.system == "PMDK":
            continue
        module = case.build()
        rows.append(
            _measure_target(case.case_id, [(module, case.drive)], module)
        )

    redis = build_kvstore("noflush")
    kv = KVStore(redis)
    redis_trace_workload(kv)
    trace = kv.finish()
    report = Hippocrates(redis, trace, kv.machine).fix(measure_overhead=True)
    rows.append(
        OverheadRow(
            target="Redis-pmem",
            ir_kinstr=redis.instruction_count() / 1000.0,
            seconds=report.elapsed_seconds,
            peak_mb=report.peak_memory_bytes / (1024 * 1024),
            bugs_fixed=report.bugs_fixed,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# E7 — Full-AA vs Trace-AA
# ---------------------------------------------------------------------------


def run_heuristic_comparison() -> List[Tuple[str, bool]]:
    """For every corpus target + Redis: do Full-AA and Trace-AA produce
    identical fixed binaries?  (§6.1 reports they do.)"""
    outcomes: List[Tuple[str, bool]] = []
    for case in all_cases():
        texts = []
        for heuristic in ("full", "trace"):
            module = case.build()
            _, trace, interp = pmemcheck_run(module, case.drive)
            Hippocrates(module, trace, interp.machine, heuristic=heuristic).fix()
            texts.append(format_module(module))
        outcomes.append((case.case_id, texts[0] == texts[1]))

    texts = []
    for heuristic in ("full", "trace"):
        module = build_kvstore("noflush")
        kv = KVStore(module)
        redis_trace_workload(kv)
        trace = kv.finish()
        Hippocrates(module, trace, kv.machine, heuristic=heuristic).fix()
        texts.append(format_module(module))
    outcomes.append(("Redis", texts[0] == texts[1]))
    return outcomes
