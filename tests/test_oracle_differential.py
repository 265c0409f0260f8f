"""Fast pipeline vs oracle: the one differential harness.

A batch task's ``engine`` is its only fast-path switch.  ``"flat"``
runs the fast pipeline (flat engine, incremental revalidation);
``"reference"`` runs the oracle (tree-walking engine, a full re-run of
the workload to revalidate).  The contract is
*byte-identity*: the journaled record of every corpus case, the
canonical batch report with or without an analysis cache, and a fast
batch killed mid-run and resumed must all match the oracle's bytes.

This module owns that comparison.  The helpers below run each side
once per session (``functools.lru_cache``) and assert one facet of the
contract each; the suites that pin the individual facets call them:

* per corpus case — ``test_engine_differential`` (journaled records)
  and ``test_revalidate_differential`` (records with revalidation on
  vs off, outcome fields and revalidation mode);
* batch — ``test_engine_differential`` (fast vs oracle),
  ``test_revalidate_differential`` (the CLI's older oracle flags) and
  ``test_analysis_manager`` (cold and warm analysis cache);
* kill/resume — fast batches killed at boundaries 3 to 7 of the
  journal, plain and torn, resumed against the oracle's bytes.

The tests here check the CLI spellings of the oracle.
"""

from __future__ import annotations

import functools
import json
import re
from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

import pytest

import repro.supervisor
from repro.cli import main
from repro.corpus.bugs import all_cases
from repro.faultinject.resume import run_kill_resume
from repro.obs import Observability
from repro.supervisor import RepairTask, SupervisorConfig, run_batch
from repro.supervisor.tasks import _corpus_record, corpus_tasks, run_case

CASE_IDS = [case.case_id for case in all_cases()]

#: a small mixed batch: two synthesis-tier (flush/fence-only) cases and
#: one structural case.  Its journal has 8 checkpoint boundaries:
#: batch-start, task-start/task-done per task, batch-end.
BATCH_CASES = ("PMDK-452", "PMDK-940", "PMDK-447")


def config() -> SupervisorConfig:
    return SupervisorConfig(
        mode="inprocess", jobs=1, max_retries=1, backoff_base=0.0,
        task_timeout=600.0,
    )


# ---------------------------------------------------------------------------
# per corpus case
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def case_pair(case_id: str) -> Tuple[SimpleNamespace, SimpleNamespace]:
    """One corpus case through the fast pipeline and through the oracle:
    each side's ``outcome`` (:func:`run_case`), its journaled
    ``record``, and the ``obs`` it ran under."""
    case = next(case for case in all_cases() if case.case_id == case_id)

    def run(engine):
        task = RepairTask(
            task_id=case_id, kind="corpus", case_id=case_id, engine=engine
        )
        obs = Observability()
        outcome = run_case(case, obs=obs, engine=engine)
        return SimpleNamespace(
            outcome=outcome, record=_corpus_record(task, outcome), obs=obs
        )

    return run("flat"), run("reference")


def revalidation_tiers(obs) -> list:
    """The ``attrs`` of every ``phase.revalidate`` span ``obs`` recorded."""
    return [
        record.get("attrs", {})
        for record in obs.tracer.records
        if record["type"] == "span" and record["name"] == "phase.revalidate"
    ]


def assert_records_match(case_id: str) -> None:
    """The journaled record — detection counts, fixes, do-no-harm
    verdicts, module digest — must not depend on the pipeline."""
    fast, oracle = case_pair(case_id)
    assert json.dumps(fast.record, sort_keys=True) == json.dumps(
        oracle.record, sort_keys=True
    )


def assert_revalidation_on_vs_off(case_id: str) -> None:
    """The fast side revalidated by synthesis, without re-executing the
    workload; the oracle built no revalidator at all."""
    fast, oracle = case_pair(case_id)
    assert revalidation_tiers(oracle.obs) == []
    assert revalidation_tiers(fast.obs) == [{"mode": "synthesized"}]
    counters = fast.obs.metrics_snapshot()["counters"]
    assert counters["revalidate.synth_hits"] == 1
    assert "revalidate.segments_replayed" not in counters
    assert counters.get("revalidate.fallbacks", 0) == 0


def _scrubbed_fixes(outcome):
    # iids are globally unique across module builds, so strip them from
    # the human descriptions before comparing the two pipelines.
    return [
        re.sub(r"#\d+", "#N", fix.describe())
        for fix in outcome.fix_report.plan.fixes
    ]


def assert_outcomes_match(case_id: str) -> None:
    """The in-memory outcome — including the unjournaled fix
    descriptions — must not depend on the pipeline either."""
    fast, oracle = case_pair(case_id)
    for name in ("reports_found", "reports_after_fix", "fix_kinds",
                 "comparison", "fixed"):
        assert getattr(fast.outcome, name) == getattr(oracle.outcome, name), name
    assert _scrubbed_fixes(fast.outcome) == _scrubbed_fixes(oracle.outcome)


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def oracle_batch_bytes(cases: Optional[Tuple[str, ...]] = None) -> str:
    """Canonical report of an oracle batch with no analysis cache
    (``cases=None``: the whole corpus)."""
    tasks = corpus_tasks(list(cases) if cases else None, engine="reference")
    return run_batch(tasks, config=config()).canonical_json()


def assert_batch_matches_oracle(
    cases: Optional[Sequence[str]] = None,
    analysis_cache_dir: Optional[str] = None,
    obs=None,
):
    """Run a fast batch (instrumented by ``obs``, if given) and compare
    its canonical bytes to the oracle's.  Returns the fast report for
    further checks."""
    report = run_batch(
        corpus_tasks(list(cases) if cases else None,
                     analysis_cache_dir=analysis_cache_dir),
        config=config(),
        obs=obs,
    )
    expected = oracle_batch_bytes(tuple(cases) if cases else None)
    assert report.canonical_json() == expected
    return report


def cli_batch_report(tmp_path, name: str, *flags: str) -> str:
    """``repro batch`` over :data:`BATCH_CASES` with ``flags``; returns
    the ``--report-out`` bytes."""
    out = tmp_path / f"{name}.json"
    argv = ["batch", "--cases", *BATCH_CASES, "--mode", "inprocess",
            "--jobs", "1", "--journal", str(tmp_path / f"{name}.journal"),
            "--report-out", str(out), *flags]
    assert main(argv) == 0
    return out.read_text()


def assert_cli_flag_selects_matching_oracle(tmp_path, flag: str) -> None:
    """An older oracle spelling on the CLI writes the same report bytes
    as the default fast run, and both equal the oracle's."""
    fast = cli_batch_report(tmp_path, "fast")
    oracle = cli_batch_report(tmp_path, "oracle", flag)
    assert fast == oracle
    assert oracle == oracle_batch_bytes(BATCH_CASES)


# ---------------------------------------------------------------------------
# kill/resume
# ---------------------------------------------------------------------------


def assert_killed_fast_batch_resumes_to_oracle(
    journal_path: str,
    boundary: int,
    torn: bool = False,
    cases: Sequence[str] = BATCH_CASES,
    analysis_cache_dir: Optional[str] = None,
) -> None:
    """Kill a fast batch right after journal append ``boundary`` (torn:
    during it), resume it, and compare with the oracle's bytes.  The
    resumed task re-records its baseline from pristine state and
    nothing half-built is trusted, so the bytes must match."""
    record = run_kill_resume(
        corpus_tasks(list(cases), analysis_cache_dir=analysis_cache_dir),
        journal_path,
        boundary=boundary,
        baseline_bytes=oracle_batch_bytes(tuple(cases)),
        torn=torn,
    )
    assert record.ok, record.problems


# ---------------------------------------------------------------------------
# the CLI spellings of the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, engine",
    [
        ([], "flat"),
        (["--no-analysis-cache", "--engine", "reference",
          "--no-incremental-revalidate", "--no-machine-pool"], "reference"),
        (["--no-incremental-revalidate"], "reference"),
        (["--no-machine-pool"], "reference"),
    ],
    ids=["default", "benchmark-oracle", "no-incremental", "no-pool"],
)
def test_batch_flags_select_pipeline(monkeypatch, tmp_path, flags, engine):
    """The benchmark's oracle argv, and each older escape-hatch flag on
    its own, must select the oracle for every corpus task."""
    captured = []

    def fake_run_batch(tasks, **kwargs):
        captured.extend(tasks)
        return SimpleNamespace(summary=lambda: "", quarantined=[],
                               interrupted=False)

    monkeypatch.setattr(repro.supervisor, "run_batch", fake_run_batch)
    monkeypatch.chdir(tmp_path)
    assert main(["batch", "--cases", "PMDK-447", *flags]) == 0
    assert captured
    assert all(task.kind == "corpus" for task in captured)
    assert {task.engine for task in captured} == {engine}
