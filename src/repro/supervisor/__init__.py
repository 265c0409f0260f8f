"""Crash-safe batch repair: supervised workers + write-ahead journal.

The process-level resilience layer above :mod:`repro.core`: a
:class:`BatchSupervisor` runs repair tasks through watchdogged worker
processes forked from it (with in-process serial fallback), records every state
transition in a CRC-guarded, fsync'd :class:`CheckpointJournal`, and
can resume after a hard kill to a byte-identical aggregate report.
"""

from .journal import (
    CheckpointJournal,
    JournalError,
    RecoveredJournal,
    decode_record,
    encode_record,
)
from .report import BatchReport, TaskOutcome
from .supervisor import (
    BatchSupervisor,
    SupervisorConfig,
    SupervisorError,
    SupervisorKilled,
    backoff_delay,
    run_batch,
)
from .tasks import (
    CaseOutcome,
    RepairTask,
    TaskError,
    TaskResult,
    corpus_tasks,
    execute_task,
    run_case,
)

__all__ = [
    "backoff_delay",
    "BatchReport",
    "BatchSupervisor",
    "CaseOutcome",
    "CheckpointJournal",
    "corpus_tasks",
    "decode_record",
    "encode_record",
    "execute_task",
    "JournalError",
    "RecoveredJournal",
    "RepairTask",
    "run_batch",
    "run_case",
    "SupervisorConfig",
    "SupervisorError",
    "SupervisorKilled",
    "TaskError",
    "TaskOutcome",
    "TaskResult",
]
