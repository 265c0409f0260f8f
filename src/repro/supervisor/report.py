"""The aggregate batch report, with a canonical byte form.

The crash-safety contract of the batch supervisor is stated in bytes: a
run that was SIGKILL'd at any checkpoint boundary and resumed must
produce an aggregate report **byte-identical** to an uninterrupted run.
That only works if the report is a deterministic function of the task
results, so :meth:`BatchReport.canonical_json` includes nothing
volatile — no wall-clock time, no attempt counts, no pids.  Volatile
facts (retries, interruption, timings) live next to it in plain
attributes and the human summary, outside the canonical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: canonical schema tag (bump on any canonical-form change)
SCHEMA = "repro-batch-report-v1"

#: terminal task statuses
DONE = "done"
QUARANTINED = "quarantined"


@dataclass
class TaskOutcome:
    """Terminal state of one task within a batch."""

    task_id: str
    status: str  # DONE | QUARANTINED
    #: deterministic result record (DONE tasks)
    record: Optional[Dict[str, Any]] = None
    #: last error (QUARANTINED tasks)
    error: str = ""
    #: attempts consumed (volatile: excluded from canonical bytes)
    attempts: int = 1
    #: True when replayed from the journal instead of executed
    replayed: bool = False

    def canonical(self) -> Dict[str, Any]:
        if self.status == DONE:
            return {"task": self.task_id, "status": DONE, "result": self.record}
        return {"task": self.task_id, "status": QUARANTINED, "error": self.error}


@dataclass
class BatchReport:
    """Everything one batch run produced, aggregate and per-task."""

    heuristic: str = "full"
    #: task outcomes in submission order
    outcomes: List[TaskOutcome] = field(default_factory=list)
    #: set when a SIGINT/SIGTERM drain ended the run early
    interrupted: bool = False
    #: tasks never dispatched because the run was interrupted
    pending: List[str] = field(default_factory=list)
    #: volatile run facts (mode, retries, elapsed) for the summary only
    mode: str = "inprocess"
    total_retries: int = 0
    elapsed_seconds: float = 0.0

    # -- aggregate views ----------------------------------------------------

    def outcome(self, task_id: str) -> Optional[TaskOutcome]:
        for outcome in self.outcomes:
            if outcome.task_id == task_id:
                return outcome
        return None

    @property
    def done(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == DONE]

    @property
    def quarantined(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == QUARANTINED]

    @property
    def ok(self) -> bool:
        """Every task completed and every completed task fixed its bugs."""
        return (
            not self.interrupted
            and not self.quarantined
            and all(o.record and o.record.get("fixed") for o in self.done)
        )

    def totals(self) -> Dict[str, int]:
        """Aggregate FixReport-style counters across completed tasks."""
        keys = (
            "bugs_detected",
            "bugs_fixed",
            "bugs_remaining",
            "fixes_applied",
            "intraprocedural_count",
            "interprocedural_count",
            "inserted_instructions",
            "quarantined_bugs",
        )
        totals = {key: 0 for key in keys}
        for outcome in self.done:
            record = outcome.record or {}
            for key in keys:
                source = "quarantined" if key == "quarantined_bugs" else key
                totals[key] += int(record.get(source, 0))
        totals["tasks"] = len(self.outcomes) + len(self.pending)
        totals["tasks_completed"] = len(self.done)
        totals["tasks_quarantined"] = len(self.quarantined)
        return totals

    # -- canonical form -----------------------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "heuristic": self.heuristic,
            "tasks": [o.canonical() for o in self.outcomes],
            "totals": self.totals(),
        }

    def canonical_json(self) -> str:
        """The deterministic byte form (kill/resume compares these)."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        ) + "\n"

    # -- human form ---------------------------------------------------------

    def summary(self) -> str:
        totals = self.totals()
        text = (
            f"batch: {totals['tasks_completed']}/{totals['tasks']} task(s) "
            f"completed ({self.mode}); "
            f"{totals['bugs_fixed']}/{totals['bugs_detected']} bug(s) fixed, "
            f"{totals['fixes_applied']} fix(es) applied "
            f"({totals['intraprocedural_count']} intraprocedural, "
            f"{totals['interprocedural_count']} interprocedural)"
        )
        if totals["tasks_quarantined"]:
            text += f"; {totals['tasks_quarantined']} task(s) quarantined"
        if self.total_retries:
            text += f"; {self.total_retries} retr{'y' if self.total_retries == 1 else 'ies'}"
        replayed = sum(1 for o in self.outcomes if o.replayed)
        if replayed:
            text += f"; {replayed} task(s) replayed from journal"
        if self.interrupted:
            text += f"; INTERRUPTED with {len(self.pending)} task(s) pending"
        return text
