"""JSONL event sink and the record-schema validator.

The sink applies the same durability discipline as everything else the
pipeline writes (see :mod:`repro.fsutil`): every appended record is
flushed and fsync'd, so a crash mid-batch loses at most the record
being written — and the validator treats a torn final line as exactly
that, not as corruption.

Two write paths, matching the two shapes of observability output:

- :class:`JsonlSink` — streaming appends for spans and events (arrival
  order matters, the file grows for the life of the run);
- :func:`write_metrics` — one atomic snapshot via
  :func:`~repro.fsutil.atomic_write_text` for the final metrics file.

Emission is deliberately *fail-soft*: a full disk or yanked directory
increments :attr:`JsonlSink.dropped` instead of raising, because
observability must never be the reason a repair fails.  Serialization
errors, by contrast, are programmer bugs and do raise.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ReproError
from ..fsutil import atomic_write_text
from .metrics import METRICS_SCHEMA

#: record types the spans/events JSONL may contain
RECORD_TYPES = ("span", "event")


class ObsSchemaError(ReproError):
    """A spans/metrics record does not match the documented schema."""


class JsonlSink:
    """Append JSON records to a file, one per line, fsync'd.

    Thread-safe: the supervisor's stdout-reader threads forward worker
    records concurrently with the dispatch loop's own events.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        #: records lost to I/O errors (observability is fail-soft)
        self.dropped = 0
        self.emitted = 0
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._handle.closed:
                self.dropped += 1
                return
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except OSError:
                self.dropped += 1
                return
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_metrics(path: str, snapshot: Dict[str, Any]) -> None:
    """Atomically write a metrics snapshot, schema-tagged, sorted keys."""
    payload = {"schema": METRICS_SCHEMA}
    payload.update(snapshot)
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# schema validation (the obs pipeline tests run this over real batch output)
# ---------------------------------------------------------------------------


def _require(record: Dict[str, Any], key: str, types, context: str) -> Any:
    if key not in record:
        raise ObsSchemaError(f"{context}: missing {key!r}")
    value = record[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ObsSchemaError(
            f"{context}: {key!r} has type {type(value).__name__}"
        )
    return value


def validate_record(record: Any) -> None:
    """Check one spans/events record against the documented schema."""
    if not isinstance(record, dict):
        raise ObsSchemaError(f"record is {type(record).__name__}, not object")
    kind = record.get("type")
    if kind not in RECORD_TYPES:
        raise ObsSchemaError(f"unknown record type {kind!r}")
    context = f"{kind} record"
    _require(record, "name", str, context)
    parent = _require(record, "parent_id", int, context)
    if parent < 0:
        raise ObsSchemaError(f"{context}: negative parent_id")
    if kind == "span":
        span_id = _require(record, "span_id", int, context)
        if span_id <= 0:
            raise ObsSchemaError(f"{context}: span_id must be positive")
        start = _require(record, "start", (int, float), context)
        end = _require(record, "end", (int, float), context)
        duration = _require(record, "duration", (int, float), context)
        if end < start:
            raise ObsSchemaError(f"{context}: end precedes start")
        if abs((end - start) - duration) > 1e-9:
            raise ObsSchemaError(f"{context}: duration disagrees with end-start")
    else:
        _require(record, "ts", (int, float), context)
    attrs = record.get("attrs")
    if attrs is not None:
        if not isinstance(attrs, dict):
            raise ObsSchemaError(f"{context}: attrs is not an object")
        for key, value in attrs.items():
            if not isinstance(value, (str, int, float, bool)) and value is not None:
                raise ObsSchemaError(
                    f"{context}: attr {key!r} is not a JSON scalar"
                )


def validate_spans_file(path: str) -> int:
    """Validate every record of a spans JSONL file; returns the count.

    A torn final line (a crash mid-append) is tolerated — exactly like
    the checkpoint journal's recovery — but a malformed *interior* line
    is a schema violation.
    """
    count = 0
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # A trailing newline yields one empty tail entry; drop it.
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            if i == len(lines) - 1:
                break  # torn tail: the crash ate the end of the last append
            raise ObsSchemaError(f"{path}:{i + 1}: unparseable record")
        validate_record(record)
        count += 1
    return count


def validate_metrics_snapshot(snapshot: Any) -> None:
    """Check a metrics snapshot (or metrics file payload) shape."""
    if not isinstance(snapshot, dict):
        raise ObsSchemaError("metrics snapshot is not an object")
    schema = snapshot.get("schema", METRICS_SCHEMA)
    if schema != METRICS_SCHEMA:
        raise ObsSchemaError(f"unknown metrics schema {schema!r}")
    for section, value_check in (
        ("counters", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0),
        ("gauges", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    ):
        table = snapshot.get(section, {})
        if not isinstance(table, dict):
            raise ObsSchemaError(f"metrics {section} is not an object")
        for name, value in table.items():
            if not value_check(value):
                raise ObsSchemaError(f"metrics {section}[{name!r}] malformed")
    histograms = snapshot.get("histograms", {})
    if not isinstance(histograms, dict):
        raise ObsSchemaError("metrics histograms is not an object")
    for name, summary in histograms.items():
        if not isinstance(summary, dict):
            raise ObsSchemaError(f"histogram {name!r} is not an object")
        for key in ("count", "total", "min", "max"):
            if key not in summary:
                raise ObsSchemaError(f"histogram {name!r} missing {key!r}")


def load_metrics(path: str) -> Dict[str, Any]:
    """Read and validate a metrics file written by :func:`write_metrics`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_metrics_snapshot(payload)
    return payload


def read_spans(path: str) -> List[Dict[str, Any]]:
    """Parse a spans JSONL file (validating each record)."""
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            validate_record(record)
            records.append(record)
    return records
