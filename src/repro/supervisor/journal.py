"""The write-ahead checkpoint journal: crash-consistent batch progress.

Every state transition of a batch run — batch start, task start, task
completion, retry, quarantine, batch end — is appended to a JSONL
journal *before* the supervisor acts on it, so a hard kill at any
instant loses at most the record being written.  The format dogfoods
the paper's flush/fence discipline on ordinary files:

- one record per line: ``<crc32-hex8> <canonical-json>``, where the CRC
  covers the JSON bytes — a torn or bit-rotted tail is detectable;
- every append is flushed and ``fsync``'d before the supervisor
  proceeds (the journal is *write-ahead*: the durable record precedes
  the externally visible action);
- recovery (:meth:`CheckpointJournal.recover`) truncates at the first
  bad record — exactly how PM systems discard a torn log tail — and
  re-opens for append at the good prefix.

Record types (the ``type`` field):

====================  =====================================================
``batch-start``       task ids in submission order + run configuration
``task-start``        a task attempt was dispatched (task, attempt)
``task-done``         terminal success: the deterministic result record
``task-failed``       one attempt failed (task, attempt, error, retry delay)
``task-quarantined``  terminal failure after bounded retries
``batch-interrupted`` SIGINT/SIGTERM drain completed
``batch-end``         the aggregate report's canonical totals
====================  =====================================================
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ReproError

#: record types that end a task's lifecycle (resume skips these tasks)
TERMINAL_TYPES = ("task-done", "task-quarantined")


class JournalError(ReproError):
    """The checkpoint journal was misused (not a torn tail — those are
    tolerated by recovery, never raised)."""


def encode_record(record: Dict[str, Any]) -> str:
    """Render one record as a CRC-guarded journal line (no newline)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def decode_record(line: str) -> Optional[Dict[str, Any]]:
    """Parse one journal line; None if torn, corrupt, or mis-framed."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, payload = line[:8], line[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except ValueError:  # pragma: no cover - CRC already guards this
        return None
    return record if isinstance(record, dict) else None


@dataclass
class RecoveredJournal:
    """What :meth:`CheckpointJournal.recover` found on disk."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    #: 1-based line number of the first bad record (0 = clean tail)
    torn_at: int = 0
    #: the discarded tail text (for diagnostics), "" when clean
    torn_text: str = ""

    @property
    def torn(self) -> bool:
        return self.torn_at > 0

    def completed_tasks(self) -> Dict[str, Dict[str, Any]]:
        """task id -> terminal record, for resume replay."""
        done: Dict[str, Dict[str, Any]] = {}
        for record in self.records:
            if record.get("type") in TERMINAL_TYPES:
                done[record["task"]] = record
        return done

    def attempts(self, task_id: str) -> int:
        """How many attempts of ``task_id`` were dispatched."""
        return sum(
            1
            for r in self.records
            if r.get("type") == "task-start" and r.get("task") == task_id
        )


class CheckpointJournal:
    """Append-only, CRC-guarded, fsync'd JSONL journal.

    :param path: the journal file; created (with its directory) on the
        first append.
    :param after_append: optional hook called with the 1-based count of
        appended records *after* each durable append — the
        fault-injection campaign uses it to kill the supervisor at
        every checkpoint boundary.
    """

    def __init__(self, path: str, after_append=None):
        self.path = path
        self.after_append = after_append
        self._handle = None
        self.appended = 0

    # -- writing ------------------------------------------------------------

    def _open(self):
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (write + flush + fsync), then run
        the checkpoint hook.

        The hook runs strictly *after* the record is durable: a kill at
        the hook boundary loses nothing, which is what makes
        kill-at-every-checkpoint resume exact.
        """
        handle = self._open()
        handle.write(encode_record(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self.appended += 1
        if self.after_append is not None:
            self.after_append(self.appended)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery -----------------------------------------------------------

    @staticmethod
    def read(path: str) -> RecoveredJournal:
        """Read a journal, stopping at the first bad record.

        Torn tails are *expected* (a kill mid-``write``); everything
        after the first undecodable line is untrusted and ignored, even
        if later lines happen to decode — a write-ahead log has no
        holes, so a bad record ends the trusted prefix.
        """
        recovered = RecoveredJournal()
        if not os.path.exists(path):
            return recovered
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        offset = 0
        for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
            body = line.rstrip("\n")
            record = decode_record(body)
            # A final line without its newline is a torn write even if
            # the CRC happens to validate a prefix-framed payload.
            if record is None or not line.endswith("\n"):
                recovered.torn_at = line_no
                recovered.torn_text = text[offset:]
                break
            recovered.records.append(record)
            offset += len(line)
        return recovered

    def recover(self) -> RecoveredJournal:
        """Read the journal and physically truncate any torn tail, so
        subsequent appends extend the trusted prefix, not the garbage."""
        if self._handle is not None:
            raise JournalError("recover() must run before the first append")
        recovered = self.read(self.path)
        if recovered.torn and os.path.exists(self.path):
            good = "".join(
                encode_record(record) + "\n" for record in recovered.records
            )
            with open(self.path, "r+", encoding="utf-8") as handle:
                handle.truncate(0)
                handle.write(good)
                handle.flush()
                os.fsync(handle.fileno())
        return recovered
