"""Fault-injection harness for the repair pipeline.

Real-world PM diagnostic output is messy — crash-truncated logs,
debug-info drift, analyses that blow their budgets.  This package
proves the pipeline's resilience invariants *by construction*, at two
levels:

**In-process**: it wraps the locator, classifier, subprogram
transformer, and trace parser with deterministic, seeded fault plans
(raise-at-Nth-call, corrupt-trace-line, budget-exhaustion) and drives a
campaign over the 23-bug corpus asserting that

- the pipeline always completes,
- only the targeted bug(s) are quarantined and every other bug is
  fixed,
- the repaired module passes ``verify_module``, ``assert_fixed`` (for
  the non-quarantined bugs), and ``do_no_harm`` — i.e. the module is
  never left half-mutated.

**Process-level**: the kill/resume campaign in
:mod:`~repro.faultinject.resume` SIGKILLs the supervisor at every
checkpoint boundary of a corpus batch (a ``kill-supervisor-at-nth``
plan), also with the journal's tail record torn as a crash during
``write(2)`` would leave it (:func:`~repro.faultinject.resume.tear_journal_tail`),
and asserts the resumed aggregate report is byte-identical to an
uninterrupted run.  Its worker matrix hangs and kills the worker of one
task (``hang-worker``, ``kill-worker-at-nth`` plans) and asserts the
task is retried or quarantined while the rest of the batch completes.

Run the campaigns from the command line::

    PYTHONPATH=src python -m repro.faultinject                    # in-process matrix
    PYTHONPATH=src python -m repro.faultinject --resume-campaign  # kill/resume matrix
"""

from .campaign import CampaignResult, RunRecord, default_plans, run_campaign
from .injector import corrupt_trace_text, install_faults
from .plans import FaultPlan, InjectedFault
from .resume import (
    ResumeCampaignResult,
    ResumeRecord,
    run_kill_resume,
    run_resume_campaign,
    run_worker_fault_checks,
    tear_journal_tail,
)

__all__ = [
    "CampaignResult",
    "corrupt_trace_text",
    "default_plans",
    "FaultPlan",
    "InjectedFault",
    "install_faults",
    "ResumeCampaignResult",
    "ResumeRecord",
    "run_campaign",
    "run_kill_resume",
    "run_resume_campaign",
    "run_worker_fault_checks",
    "RunRecord",
    "tear_journal_tail",
]
