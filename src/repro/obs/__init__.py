"""Observability for the repair pipeline: spans and metrics.

Three layers, strictly off the canonical path (a batch report's bytes
are identical with observability on or off, in both worker modes —
see ``tests/test_obs_pipeline.py``):

- :mod:`repro.obs.spans` — nested span tracing over an injectable
  monotonic clock (deterministic under test);
- :mod:`repro.obs.metrics` — typed counters / gauges / histograms in a
  mergeable registry;
- :mod:`repro.obs.sink` — fsync'd JSONL appends for spans/events, one
  atomic snapshot file for metrics, plus the schema validators.

Every layer reports its volatile numbers through one
:class:`Observability` facade (an ``obs`` argument); pass
:data:`NULL_OBS` (or nothing) to run dark.
"""

from .. import lazy_exports

_EXPORTS = {
    ".metrics": ("METRICS_SCHEMA", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".observability": ("NULL_OBS", "Observability"),
    ".sink": (
        "JsonlSink", "ObsSchemaError", "load_metrics", "read_spans",
        "validate_metrics_snapshot", "validate_record",
        "validate_spans_file", "write_metrics",
    ),
    ".spans": ("ManualClock", "Tracer"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
