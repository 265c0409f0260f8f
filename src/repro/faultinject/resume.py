"""The kill/resume campaign: crash-safety of the batch supervisor.

The batch layer's contract is stronger than "it usually recovers": for
**every** checkpoint boundary of a corpus batch, SIGKILL-ing the
supervisor right after that journal append and re-running with
``resume`` must produce an aggregate report **byte-identical** to an
uninterrupted run, and must never re-execute a task whose completion
record survived.  This campaign enumerates exactly that matrix:

1. run the batch once, uninterrupted, and keep its canonical bytes and
   journal length (``N`` checkpoint appends);
2. for each boundary ``n`` in ``1..N``: run a fresh batch with a
   ``kill-supervisor-at-nth(n)`` fault (the journal raises
   :class:`~repro.supervisor.supervisor.SupervisorKilled` immediately
   after the nth durable append — nothing gets to clean up), then
   resume from the survived journal and compare bytes;
3. the ``torn`` variant additionally tears the journal's final record
   mid-CRC before resuming — turning "killed after append n" into
   "killed during append n" — which recovery must absorb by truncating
   the torn tail and re-running that task.

The worker-fault checks cover the other half of the acceptance
criteria: a worker hung by ``hang-worker`` is killed by the watchdog,
retried with backoff, and (when the fault hits every attempt)
quarantined — while every other task still completes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..supervisor import (
    BatchReport,
    CheckpointJournal,
    RepairTask,
    SupervisorConfig,
    SupervisorKilled,
    corpus_tasks,
    run_batch,
)
from .plans import FaultPlan


def tear_journal_tail(path: str, keep_fraction: float = 0.5) -> bool:
    """Tear the journal's final record as a crash mid-``write`` would.

    Truncates the file inside the last line (dropping its newline and
    the tail of its bytes), which breaks the record's CRC framing.
    Returns False when there is nothing to tear.
    """
    if not os.path.exists(path):
        return False
    with open(path, "rb") as handle:
        data = handle.read()
    stripped = data.rstrip(b"\n")
    if not stripped:
        return False
    cut = stripped.rfind(b"\n") + 1  # start of the last record
    body = stripped[cut:]
    keep = max(1, int(len(body) * keep_fraction))
    with open(path, "wb") as handle:
        handle.write(stripped[: cut + keep])
        handle.flush()
        os.fsync(handle.fileno())
    return True


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass
class ResumeRecord:
    """One kill-at-boundary-and-resume execution."""

    boundary: int
    torn: bool
    ok: bool = True
    problems: List[str] = field(default_factory=list)
    replayed: int = 0
    reexecuted: int = 0
    #: True when the kill and resume runs carried live observability —
    #: the byte-identity check then also proves spans/metrics stay off
    #: the canonical path across a crash
    obs: bool = False

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        kind = "torn " if self.torn else ""
        if self.obs:
            kind += "obs "
        line = (
            f"[{status}] {kind}kill@checkpoint {self.boundary}: "
            f"{self.replayed} replayed, {self.reexecuted} re-executed"
        )
        for problem in self.problems:
            line += f"\n    !! {problem}"
        return line


@dataclass
class ResumeCampaignResult:
    """All kill/resume records plus the worker-fault verdicts."""

    checkpoints: int = 0
    records: List[ResumeRecord] = field(default_factory=list)
    worker_problems: List[str] = field(default_factory=list)
    worker_checks: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records) and not self.worker_problems

    def failures(self) -> List[ResumeRecord]:
        return [r for r in self.records if not r.ok]

    def summary(self) -> str:
        verdict = (
            "all resumes byte-identical"
            if self.ok
            else f"{len(self.failures())} resume(s) DIVERGED"
            + (f"; {len(self.worker_problems)} worker-fault problem(s)"
               if self.worker_problems else "")
        )
        return (
            f"kill/resume campaign: {self.checkpoints} checkpoint boundary(ies), "
            f"{len(self.records)} kill/resume run(s), "
            f"{self.worker_checks} worker-fault check(s); {verdict}"
        )


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------


def _config(mode: str) -> SupervisorConfig:
    return SupervisorConfig(
        mode=mode,
        max_retries=1,
        backoff_base=0.0,
        task_timeout=600.0,
    )


def _journal_records(path: str) -> List[Dict[str, Any]]:
    return CheckpointJournal.read(path).records


def _check_no_reexecution(
    records: List[Dict[str, Any]], record: ResumeRecord
) -> None:
    """A task completed before the resume must never start again after it."""
    resume_at = next(
        (i for i, r in enumerate(records) if r.get("type") == "batch-resume"),
        None,
    )
    if resume_at is None:
        # Killed before batch-start survived: the resume was a fresh run.
        record.reexecuted = 0
        return
    done_before = {
        r["task"]
        for r in records[:resume_at]
        if r.get("type") in ("task-done", "task-quarantined")
    }
    started_after = [
        r["task"] for r in records[resume_at:] if r.get("type") == "task-start"
    ]
    record.replayed = len(done_before)
    record.reexecuted = len(started_after)
    twice = sorted(done_before & set(started_after))
    if twice:
        record.problems.append(
            f"task(s) executed twice despite a surviving completion "
            f"record: {twice}"
        )


def run_kill_resume(
    tasks: List[RepairTask],
    journal_path: str,
    boundary: int,
    baseline_bytes: str,
    torn: bool,
    mode: str = "inprocess",
    obs_factory=None,
) -> ResumeRecord:
    """Kill a fresh batch at one checkpoint boundary, resume, compare.

    ``obs_factory`` (a zero-argument callable returning a fresh
    :class:`~repro.obs.observability.Observability`) instruments both
    the killed run and the resume — the byte-identity comparison then
    doubles as the proof that observability stays off the canonical
    path even across a crash.
    """
    record = ResumeRecord(boundary=boundary, torn=torn,
                          obs=obs_factory is not None)
    config = _config(mode)
    plan = FaultPlan("supervisor", mode="kill-supervisor-at-nth", nth=boundary)
    try:
        run_batch(tasks, journal_path=journal_path, config=config, fault=plan,
                  obs=obs_factory() if obs_factory else None)
    except SupervisorKilled:
        pass  # the simulated SIGKILL
    else:
        record.ok = False
        record.problems.append(
            f"kill-supervisor-at-nth({boundary}) never fired "
            f"(journal shorter than expected)"
        )
        return record

    if torn and not tear_journal_tail(journal_path):
        record.problems.append("nothing to tear in the journal")

    try:
        resumed: BatchReport = run_batch(
            tasks, journal_path=journal_path, resume=True, config=config,
            obs=obs_factory() if obs_factory else None,
        )
    except Exception as exc:
        record.ok = False
        record.problems.append(
            f"resume died: {type(exc).__name__}: {exc}"
        )
        return record

    if resumed.canonical_json() != baseline_bytes:
        record.problems.append(
            "resumed aggregate report is not byte-identical to the "
            "uninterrupted run"
        )
    _check_no_reexecution(_journal_records(journal_path), record)
    record.ok = not record.problems
    return record


def run_worker_fault_checks(
    tasks: List[RepairTask],
    journal_dir: str,
    mode: str = "inprocess",
    progress=None,
) -> List[str]:
    """The hang/kill worker matrix; returns invariant violations.

    Uses tight watchdog budgets so a hung worker is detected in
    fractions of a second; ``attempts=1`` faults must be healed by one
    retry, ``attempts=0`` faults must end in quarantine — in both cases
    every *other* task must complete normally (no batch stall).
    """
    problems: List[str] = []
    scenarios = [
        ("hang-retry", FaultPlan("worker", mode="hang-worker", nth=1, attempts=1), False),
        ("hang-quarantine", FaultPlan("worker", mode="hang-worker", nth=1, attempts=0), True),
        ("kill-retry", FaultPlan("worker", mode="kill-worker-at-nth", nth=1, attempts=1), False),
        ("kill-quarantine", FaultPlan("worker", mode="kill-worker-at-nth", nth=1, attempts=0), True),
    ]
    config = SupervisorConfig(
        mode=mode,
        max_retries=1,
        backoff_base=0.0,
        task_timeout=2.0,
        heartbeat_timeout=1.0,
        heartbeat_interval=0.05,
    )
    target = tasks[0].task_id
    for label, plan, expect_quarantine in scenarios:
        journal_path = os.path.join(journal_dir, f"worker-{label}.journal")
        report = run_batch(tasks, journal_path=journal_path, config=config, fault=plan)
        if progress is not None:
            progress(f"worker-fault {label}: {report.summary()}")
        outcome = report.outcome(target)
        if expect_quarantine:
            if outcome is None or outcome.status != "quarantined":
                problems.append(
                    f"{label}: task {target} should be quarantined, got "
                    f"{outcome.status if outcome else 'missing'}"
                )
            elif outcome.attempts != config.max_retries + 1:
                problems.append(
                    f"{label}: quarantined after {outcome.attempts} attempt(s), "
                    f"expected {config.max_retries + 1} (retry-then-quarantine "
                    f"ordering)"
                )
        else:
            if outcome is None or outcome.status != "done":
                problems.append(
                    f"{label}: task {target} should recover via retry, got "
                    f"{outcome.status if outcome else 'missing'}"
                )
            if report.total_retries < 1:
                problems.append(f"{label}: expected at least one retry")
        for task in tasks[1:]:
            other = report.outcome(task.task_id)
            if other is None or other.status != "done":
                problems.append(
                    f"{label}: unfaulted task {task.task_id} did not complete "
                    f"— the fault stalled the batch"
                )
    return problems


def run_resume_campaign(
    case_ids: Optional[List[str]] = None,
    heuristic: str = "full",
    mode: str = "inprocess",
    journal_dir: Optional[str] = None,
    torn_variant: bool = True,
    worker_checks: bool = True,
    progress=None,
) -> ResumeCampaignResult:
    """Kill the supervisor at every checkpoint boundary and resume.

    :param case_ids: corpus subset (default: the whole corpus).
    :param mode: supervisor execution mode for the matrix (in-process
        is the deterministic default; the worker-fault checks also run
        under it unless overridden).
    :param journal_dir: where journals live (default: a temp dir);
        journals of failing runs are left behind for post-mortem.
    :param torn_variant: also tear the last journal record before each
        resume.
    :param worker_checks: include the hang/kill worker matrix.

    A worker killed mid-revalidation re-executes its task from pristine
    state on resume — the recorded baseline (trace, verdict, callee
    spans) is rebuilt, never half-trusted — so the resumed report must
    be byte-identical.
    """
    import tempfile

    result = ResumeCampaignResult()
    tasks = corpus_tasks(case_ids, heuristic=heuristic)
    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="repro-resume-campaign-")
    os.makedirs(journal_dir, exist_ok=True)

    # 1. the uninterrupted baseline
    baseline_path = os.path.join(journal_dir, "baseline.journal")
    if os.path.exists(baseline_path):
        os.unlink(baseline_path)
    config = _config(mode)
    baseline = run_batch(tasks, journal_path=baseline_path, config=config)
    baseline_bytes = baseline.canonical_json()
    result.checkpoints = len(_journal_records(baseline_path))
    if progress is not None:
        progress(
            f"baseline: {baseline.summary()} "
            f"({result.checkpoints} checkpoint(s))"
        )

    # 2. kill at every boundary (and the torn variant)
    variants = [False, True] if torn_variant else [False]
    for boundary in range(1, result.checkpoints + 1):
        for torn in variants:
            suffix = f"{boundary}-torn" if torn else f"{boundary}"
            journal_path = os.path.join(journal_dir, f"kill-{suffix}.journal")
            if os.path.exists(journal_path):
                os.unlink(journal_path)
            record = run_kill_resume(
                tasks,
                journal_path,
                boundary,
                baseline_bytes,
                torn,
                mode=mode,
            )
            result.records.append(record)
            if progress is not None:
                progress(record.describe())
            if record.ok:
                os.unlink(journal_path)

    # 2b. one observability-enabled variant at a middle boundary: the
    # byte-identity contract must hold with spans/metrics live through
    # both the killed run and the resume.
    if result.checkpoints:
        from ..obs.observability import Observability

        boundary = max(1, result.checkpoints // 2)
        journal_path = os.path.join(journal_dir, f"kill-{boundary}-obs.journal")
        if os.path.exists(journal_path):
            os.unlink(journal_path)
        record = run_kill_resume(
            tasks,
            journal_path,
            boundary,
            baseline_bytes,
            torn=False,
            mode=mode,
            obs_factory=Observability,
        )
        result.records.append(record)
        if progress is not None:
            progress(record.describe())
        if record.ok:
            os.unlink(journal_path)

    # 3. the worker hang/kill matrix
    if worker_checks:
        result.worker_checks = 4
        result.worker_problems = run_worker_fault_checks(
            tasks, journal_dir, mode=mode, progress=progress
        )
    return result
