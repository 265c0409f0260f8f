"""Unit tests for the experiment harness (small-scale runs)."""

import tracemalloc

import pytest

from repro.bench import (
    REDIS_FULL,
    REDIS_INTRA,
    REDIS_PM,
    build_redis_variants,
    fig4_table,
    run_case,
    run_fig4,
)
from repro.bench import harness
from repro.core.hippocrates import Hippocrates
from repro.corpus import pclht_case


def test_build_redis_variants():
    variants = build_redis_variants()
    assert set(variants) == {REDIS_PM, REDIS_FULL, REDIS_INTRA}
    manual_module, manual_report = variants[REDIS_PM]
    assert manual_report is None
    full_module, full_report = variants[REDIS_FULL]
    assert full_report.interprocedural_count >= 1
    intra_module, intra_report = variants[REDIS_INTRA]
    assert intra_report.interprocedural_count == 0
    assert intra_report.bugs_fixed == full_report.bugs_fixed


def test_run_fig4_small():
    result = run_fig4(record_count=60, operation_count=60, workloads=["Load", "B"])
    # ordering relations from the paper
    for workload in ("Load", "B"):
        full = result.throughput(REDIS_FULL, workload)
        intra = result.throughput(REDIS_INTRA, workload)
        manual = result.throughput(REDIS_PM, workload)
        assert full > intra
        assert full >= 0.9 * manual
    speedups = result.speedup_full_over_intra()
    assert all(s > 1.3 for s in speedups.values())
    table = fig4_table(result)
    assert "RedisH-full" in table and "Load" in table


def test_run_case_outcome_fields():
    outcome = run_case(pclht_case())
    assert outcome.reports_found == 2
    assert outcome.reports_after_fix == 0
    assert outcome.fixed
    assert outcome.fix_kinds


def test_run_fig5_stops_tracemalloc_when_redis_repair_raises(monkeypatch):
    stub = harness.OverheadRow("stub", 0.0, 0.0, 0.0, 0)
    monkeypatch.setattr(harness, "_measure_target", lambda *args: stub)

    def boom(self):
        raise RuntimeError("injected compute_fixes failure")

    monkeypatch.setattr(Hippocrates, "compute_fixes", boom)
    assert not tracemalloc.is_tracing()
    with pytest.raises(RuntimeError, match="injected"):
        harness.run_fig5()
    assert not tracemalloc.is_tracing()
