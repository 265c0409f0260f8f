"""Observability for the repair pipeline: spans, metrics, profiling.

Three layers, strictly off the canonical path (a batch report's bytes
are identical with observability on or off, in both worker modes —
see ``tests/test_obs_pipeline.py``):

- :mod:`repro.obs.spans` — nested span tracing over an injectable
  monotonic clock (deterministic under test);
- :mod:`repro.obs.metrics` — typed counters / gauges / histograms in a
  mergeable registry;
- :mod:`repro.obs.sink` — fsync'd JSONL appends for spans/events, one
  atomic snapshot file for metrics, plus the schema validators;
- :mod:`repro.obs.profile` — cProfile wrapping with top-N hotspots
  (``repro batch --profile``).

Instrumented code holds an :class:`Observability` facade; pass
:data:`NULL_OBS` (or nothing) to run dark.
"""

from .metrics import METRICS_SCHEMA, Counter, Gauge, Histogram, MetricsRegistry
from .observability import NULL_OBS, Observability
from .profile import Hotspot, format_hotspots, profile_call
from .sink import (
    JsonlSink,
    ObsSchemaError,
    load_metrics,
    read_spans,
    validate_metrics_snapshot,
    validate_record,
    validate_spans_file,
    write_metrics,
)
from .spans import ManualClock, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "Hotspot",
    "format_hotspots",
    "profile_call",
    "JsonlSink",
    "ObsSchemaError",
    "load_metrics",
    "read_spans",
    "validate_metrics_snapshot",
    "validate_record",
    "validate_spans_file",
    "write_metrics",
    "ManualClock",
    "Tracer",
]
