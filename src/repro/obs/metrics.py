"""Typed metrics: counters, gauges, and histograms behind one registry.

The repair pipeline, the analysis manager, the interpreter, and the
batch supervisor all want to report *numbers* — cache hits, executed
flushes, retries, per-phase fix counts.  Before this layer each of them
invented an ad-hoc channel (the worker's ``STATS`` stdout line, an
analysis-stats dataclass, ``CostCounter.counts``); the registry gives
them one typed vocabulary, reached through the
:class:`~repro.obs.observability.Observability` facade:

- :class:`Counter` — a monotonically increasing count (``inc``);
- :class:`Gauge` — a last-write-wins level (``set``);
- :class:`Histogram` — a running distribution summary (``observe``):
  count, total, min, max — enough for per-phase latency reporting
  without storing samples.

Everything here is observability-only: a registry snapshot is **never**
part of a canonical batch report (cache weather and wall-clock
durations vary run to run), which is exactly why the batch layer's
byte-identity contract can hold with metrics on or off.

Snapshots are plain JSON-serializable dicts, and :meth:`MetricsRegistry
.merge` folds one snapshot into another — the supervisor aggregates
worker-process registries that way (counters add, gauges last-write-
win, histograms pool).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: schema tag stamped on serialized metrics files
METRICS_SCHEMA = "repro-obs-metrics-v1"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-write-wins level (queue depth, effective heuristic...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A running distribution summary: count / total / min / max.

    Deliberately bucket-free: the consumers here want "how many, how
    long in aggregate, and the extremes" (per-phase latency, backoff
    delays), and a four-number summary merges exactly across worker
    processes where bucket boundaries would have to be negotiated.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Create-on-first-use instruments, keyed by dotted name.

    One name belongs to one instrument kind for the life of the
    registry; asking for ``counter("x")`` after ``gauge("x")`` is a
    programming error and raises immediately.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------------------

    def _check_free(self, name: str, want: Dict) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not want and name in table:
                raise ValueError(f"metric {name!r} is already a {kind}")

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, self._histograms)
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- serialization --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-serializable state of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add, gauges take the incoming value, histograms pool
        their summaries.  Unknown or malformed sections are skipped —
        merging is observability plumbing and must never raise on data
        that crossed a process boundary.
        """
        if not isinstance(snapshot, dict):
            return
        counters = snapshot.get("counters") or {}
        if isinstance(counters, dict):
            for name, value in counters.items():
                if isinstance(value, int) and value >= 0:
                    self.counter(name).inc(value)
        gauges = snapshot.get("gauges") or {}
        if isinstance(gauges, dict):
            for name, value in gauges.items():
                if isinstance(value, (int, float)):
                    self.gauge(name).set(value)
        histograms = snapshot.get("histograms") or {}
        if isinstance(histograms, dict):
            for name, summary in histograms.items():
                if not isinstance(summary, dict):
                    continue
                count = summary.get("count")
                if not isinstance(count, int) or count <= 0:
                    continue
                pooled = self.histogram(name)
                pooled.count += count
                pooled.total += float(summary.get("total") or 0.0)
                for bound, pick in (("min", min), ("max", max)):
                    incoming = summary.get(bound)
                    if incoming is None:
                        continue
                    current = getattr(pooled, bound)
                    setattr(
                        pooled,
                        bound,
                        incoming if current is None else pick(current, incoming),
                    )
