"""Text renderers for every reproduced table and figure.

Each function returns the table as a string; the benchmark suite prints
them so ``pytest benchmarks/ --benchmark-only -s`` regenerates the
paper's artifacts, and EXPERIMENTS.md records a captured copy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..corpus.study import fig1_table
from .harness import (
    CaseOutcome,
    Fig4Result,
    OverheadRow,
    REDIS_FULL,
    REDIS_INTRA,
    REDIS_PM,
)

__all__ = [
    "fig1_table",
    "effectiveness_table",
    "fig3_table",
    "fig4_table",
    "fig5_table",
    "fig6_table",
    "heuristic_table",
]


def effectiveness_table(outcomes: List[CaseOutcome]) -> str:
    """§6.1: every reproduced bug found and fixed, revalidated clean."""
    lines = [
        "Effectiveness (§6.1) — detect, fix, revalidate",
        "-" * 76,
        f"{'case':16s} {'system':14s} {'reports':>8s} {'post-fix':>9s} "
        f"{'fixes':>6s} {'interproc':>10s}",
    ]
    total_reports = total_after = 0
    for outcome in outcomes:
        report = outcome.fix_report
        lines.append(
            f"{outcome.case.case_id:16s} {outcome.case.system:14s} "
            f"{outcome.reports_found:8d} {outcome.reports_after_fix:9d} "
            f"{report.fixes_applied:6d} {report.interprocedural_count:10d}"
        )
        total_reports += outcome.reports_found
        total_after += outcome.reports_after_fix
    lines.append("-" * 76)
    lines.append(
        f"{'TOTAL':16s} {'':14s} {total_reports:8d} {total_after:9d}"
    )
    return "\n".join(lines)


def fig3_table(outcomes: List[CaseOutcome]) -> str:
    """Fig. 3: Hippocrates fixes vs developer fixes on the PMDK bugs."""
    lines = [
        "Fig. 3 — Qualitative comparison of Hippocrates vs developer fixes",
        "-" * 100,
        f"{'issue':12s} {'Hippocrates fix':24s} {'Developer fix':24s} comparison",
    ]
    for outcome in outcomes:
        hippocrates = ",".join(outcome.fix_kinds)
        lines.append(
            f"{outcome.case.case_id:12s} {hippocrates:24s} "
            f"{outcome.case.developer_fix or '-':24s} {outcome.comparison}"
        )
    identical = sum(1 for o in outcomes if o.comparison == "functionally identical")
    lines.append("-" * 100)
    lines.append(
        f"{identical}/{len(outcomes)} functionally identical, "
        f"{len(outcomes) - identical}/{len(outcomes)} functionally equivalent"
    )
    return "\n".join(lines)


def fig4_table(result: Fig4Result) -> str:
    """Fig. 4: YCSB throughput of the three persistent Redis variants."""
    workloads = list(result.results[REDIS_PM].keys())
    lines = [
        "Fig. 4 — YCSB throughput (ops per million simulated cycles)",
        f"records={result.record_count} ops={result.operation_count} "
        f"value={result.value_size}B",
        "-" * 76,
        f"{'workload':10s} " + " ".join(
            f"{v:>14s}" for v in (REDIS_INTRA, REDIS_PM, REDIS_FULL)
        ),
    ]
    for workload in workloads:
        lines.append(
            f"{workload:10s} "
            + " ".join(
                f"{result.throughput(v, workload):14.1f}"
                for v in (REDIS_INTRA, REDIS_PM, REDIS_FULL)
            )
        )
    lines.append("-" * 76)
    speedups = result.speedup_full_over_intra()
    ratio = result.full_vs_manual()
    lines.append(
        "RedisH-full speedup over RedisH-intra: "
        + ", ".join(f"{w}={s:.2f}x" for w, s in speedups.items())
    )
    lines.append(
        "RedisH-full vs Redis-pm: "
        + ", ".join(f"{w}={r:.3f}" for w, r in ratio.items())
    )
    full_report = result.reports[REDIS_FULL]
    intra_report = result.reports[REDIS_INTRA]
    if full_report and intra_report:
        lines.append(
            f"fixes: full={full_report.fixes_applied} "
            f"({full_report.interprocedural_count} interprocedural, depths "
            f"{sorted(full_report.hoist_depths)}), "
            f"intra={intra_report.fixes_applied} (all intraprocedural)"
        )
    return "\n".join(lines)


def fig5_table(rows: List[OverheadRow]) -> str:
    """Fig. 5: offline overhead of running Hippocrates.

    The time and peak-memory columns are measured on the machine that
    runs the table (wall clock, ``tracemalloc``), so they differ from
    run to run; every other column is deterministic."""
    lines = [
        "Fig. 5 — Offline overhead of Hippocrates",
        "(* measured on the running machine: wall-clock seconds and",
        "   tracemalloc peak, which differ from run to run)",
        "-" * 72,
        f"{'target':20s} {'K-instrs':>9s} {'time (s)*':>10s} "
        f"{'peak MB*':>9s} {'bugs':>5s}",
    ]
    for row in rows:
        lines.append(
            f"{row.target:20s} {row.ir_kinstr:9.2f} {row.seconds:10.3f} "
            f"{row.peak_mb:9.2f} {row.bugs_fixed:5d}"
        )
    return "\n".join(lines)


def fig6_table(report) -> str:
    """§6.4: code-size impact of the persistent-subprogram clones."""
    return "\n".join(
        [
            "§6.4 — Impact on binary size (RedisH-full)",
            "-" * 56,
            f"IR instructions before fixes : {report.ir_size_before}",
            f"IR instructions after fixes  : {report.ir_size_after}",
            f"instructions inserted        : {report.inserted_instructions}",
            f"persistent clones created    : {len(report.functions_created)}"
            f"  {report.functions_created}",
            f"growth                       : {report.ir_growth_percent:.3f}%",
        ]
    )


def heuristic_table(outcomes: List[Tuple[str, bool]]) -> str:
    """§6.1: Full-AA and Trace-AA produce identical fixed binaries."""
    lines = [
        "Heuristic comparison — Full-AA vs Trace-AA",
        "-" * 48,
    ]
    for target, identical in outcomes:
        verdict = "identical" if identical else "DIFFERENT"
        lines.append(f"{target:20s} {verdict}")
    return "\n".join(lines)
