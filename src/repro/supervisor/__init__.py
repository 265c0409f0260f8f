"""Crash-safe batch repair: supervised workers + write-ahead journal.

The process-level resilience layer above :mod:`repro.core`: a
:class:`BatchSupervisor` runs repair tasks through watchdogged worker
processes forked from it (with in-process serial fallback), records every state
transition in a CRC-guarded, fsync'd :class:`CheckpointJournal`, and
can resume after a hard kill to a byte-identical aggregate report.
"""

from .. import lazy_exports

_EXPORTS = {
    ".journal": (
        "CheckpointJournal", "JournalError", "RecoveredJournal",
        "decode_record", "encode_record",
    ),
    ".report": ("BatchReport", "TaskOutcome"),
    ".supervisor": (
        "BatchSupervisor", "SupervisorConfig", "SupervisorError",
        "SupervisorKilled", "backoff_delay", "run_batch",
    ),
    ".tasks": (
        "CaseOutcome", "RepairTask", "TaskError", "corpus_tasks",
        "execute_task", "run_case",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
