"""The facade the rest of the pipeline talks to.

Instrumented code takes an ``obs`` object and calls
``obs.span("phase.apply")`` / ``obs.count("pipeline.bugs")`` without
caring whether observability is on.  Two implementations of that
surface exist:

- :class:`Observability` — a live tracer + metrics registry, optionally
  attached to a :class:`~repro.obs.sink.JsonlSink`;
- :data:`NULL_OBS` — a shared disabled instance whose every operation
  is a no-op (spans return a reusable null context manager).

The null object keeps instrumentation off the canonical path: callers
never branch on a flag, and a disabled run allocates nothing per span.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, Optional

from .metrics import MetricsRegistry
from .spans import Tracer


class _NullSpan:
    """A no-op context manager, shared across all disabled spans."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _GcWatch:
    """Counts collections per generation (``gc.collections.gen<N>``)
    and times each pause (the ``gc.pause_seconds`` histogram) while it
    sits in :data:`gc.callbacks`."""

    def __init__(self, metrics: MetricsRegistry):
        self._collections = [
            metrics.counter(f"gc.collections.gen{generation}")
            for generation in range(3)
        ]
        self._pauses = metrics.histogram("gc.pause_seconds")
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self._pauses.observe(time.perf_counter() - self._started)
            self._collections[info["generation"]].inc()

    def __enter__(self) -> "_GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class Observability:
    """Bundles a tracer and a metrics registry behind one handle.

    :param enabled: when False the instance behaves like
        :data:`NULL_OBS` — kept as a constructor flag so call sites can
        write ``Observability(enabled=args.spans_out is not None)``.
    :param clock: forwarded to :class:`~repro.obs.spans.Tracer`
        (inject :class:`~repro.obs.spans.ManualClock` for determinism).
    :param sink: span/event destination; None buffers in
        ``self.tracer.records``.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
        sink: Optional[Any] = None,
    ):
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock, sink=sink)

    # -- spans / events -------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        if self.enabled:
            self.tracer.event(name, **attrs)

    def emit(self, record: Dict[str, Any]) -> None:
        """Route a pre-built record to this facade's output.

        The supervisor uses this to forward span/event records a worker
        subprocess shipped over its pipe (already schema-shaped) into
        the batch-level sink.
        """
        if self.enabled:
            self.tracer._emit(record)

    # -- metrics --------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def watch_gc(self):
        """A context manager that records the garbage collections run
        inside it into the metrics; installs nothing when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _GcWatch(self.metrics)

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    def merge_metrics(self, snapshot: Dict[str, Any]) -> None:
        if self.enabled:
            self.metrics.merge(snapshot)

    def write_metrics(self, path: str) -> None:
        # Imported here: every interpreter imports this module, and a
        # run that writes no file never needs the sink's.
        from .sink import write_metrics

        write_metrics(path, self.metrics_snapshot())

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        sink = self.tracer.sink
        if sink is not None and hasattr(sink, "close"):
            sink.close()


#: the shared disabled instance — safe to pass everywhere, does nothing
NULL_OBS = Observability(enabled=False)
