"""Unit tests for the observability layer: spans, metrics, sink, profile.

The load-bearing properties:

- span output is a pure function of the code path under a
  :class:`ManualClock` (byte-stable JSONL);
- the sink is fail-soft (drops, never raises, on I/O trouble) and its
  validator tolerates exactly the torn final line a crash can leave;
- :data:`NULL_OBS` is inert — the disabled facade allocates nothing
  per span and records nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    JsonlSink,
    ManualClock,
    MetricsRegistry,
    NULL_OBS,
    Observability,
    ObsSchemaError,
    Tracer,
    load_metrics,
    read_spans,
    validate_metrics_snapshot,
    validate_record,
    validate_spans_file,
    write_metrics,
)


def serialize(records):
    return b"".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        for r in records
    )


def trace_some_work(obs):
    with obs.span("outer", case="c1"):
        with obs.span("inner") as span:
            span.annotate(fixes=3)
        obs.event("tick", n=1)
    obs.count("work.units", 2)
    obs.observe("work.seconds", 0.5)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_order(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.event("e")
        # Spans emit on close: children precede parents.
        names = [r["name"] for r in tracer.records]
        assert names == ["e", "b", "a"]
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["a"]["parent_id"] == 0
        assert by_name["b"]["parent_id"] == by_name["a"]["span_id"]
        assert by_name["e"]["parent_id"] == by_name["b"]["span_id"]

    def test_manual_clock_durations(self):
        tracer = Tracer(clock=ManualClock(start=10.0, step=2.0))
        with tracer.span("a"):
            pass
        (record,) = tracer.records
        assert record["start"] == 10.0
        assert record["end"] == 12.0
        assert record["duration"] == 2.0

    def test_error_recorded_and_propagated(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(KeyError):
            with tracer.span("a"):
                raise KeyError("boom")
        assert tracer.records[0]["error"] == "KeyError"

    def test_attrs_coerced_to_scalars(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a", obj=object(), ok=True, n=1, nothing=None) as s:
            s.annotate(late=[1, 2])
        attrs = tracer.records[0]["attrs"]
        assert attrs["ok"] is True and attrs["n"] == 1 and attrs["nothing"] is None
        assert isinstance(attrs["obj"], str) and isinstance(attrs["late"], str)
        validate_record(tracer.records[0])

    def test_byte_stable_across_runs(self):
        outputs = []
        for _ in range(2):
            obs = Observability(clock=ManualClock())
            trace_some_work(obs)
            outputs.append(serialize(obs.tracer.records))
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.snapshot()["counters"]["c"] == 5
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.histogram("h").observe(v)
        summary = reg.snapshot()["histograms"]["h"]
        assert summary == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1.0)
        a.histogram("h").observe(5.0)
        b.counter("c").inc(3)
        b.gauge("g").set(9.0)
        b.histogram("h").observe(1.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5  # counters add
        assert snap["gauges"]["g"] == 9.0  # gauges last-write-win
        assert snap["histograms"]["h"] == {
            "count": 2,
            "total": 6.0,
            "min": 1.0,
            "max": 5.0,
        }

    def test_merge_skips_malformed(self):
        reg = MetricsRegistry()
        reg.merge("not a dict")
        reg.merge({"counters": {"c": -5, "ok": 1}, "histograms": {"h": 3}})
        snap = reg.snapshot()
        assert snap["counters"] == {"ok": 1}
        assert snap["histograms"] == {}


# ---------------------------------------------------------------------------
# sink + validators
# ---------------------------------------------------------------------------


class TestSink:
    def test_roundtrip_and_validation(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        obs = Observability(clock=ManualClock(), sink=JsonlSink(path))
        trace_some_work(obs)
        obs.close()
        assert validate_spans_file(path) == 3
        records = read_spans(path)
        assert [r["name"] for r in records] == ["inner", "tick", "outer"]
        assert obs.tracer.sink.dropped == 0
        assert obs.tracer.sink.emitted == 3

    def test_emit_after_close_drops(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        sink.close()
        sink.emit({"type": "event", "name": "late", "ts": 0, "parent_id": 0})
        assert sink.dropped == 1

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with JsonlSink(path) as sink:
            sink.emit({"type": "event", "name": "a", "ts": 0.0, "parent_id": 0})
            sink.emit({"type": "event", "name": "b", "ts": 1.0, "parent_id": 0})
        with open(path, "r+", encoding="utf-8") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 9)  # tear into the final record
        assert validate_spans_file(path) == 1

    def test_interior_damage_rejected(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{garbage\n")
            handle.write(
                '{"type":"event","name":"a","parent_id":0,"ts":0.0}\n'
            )
        with pytest.raises(ObsSchemaError):
            validate_spans_file(path)

    def test_metrics_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        reg = MetricsRegistry()
        reg.counter("pipeline.bugs").inc(7)
        write_metrics(path, reg.snapshot())
        payload = load_metrics(path)
        assert payload["schema"] == "repro-obs-metrics-v1"
        assert payload["counters"]["pipeline.bugs"] == 7

    @pytest.mark.parametrize(
        "record",
        [
            "not an object",
            {"type": "mystery"},
            {"type": "span", "name": "a", "parent_id": -1},
            {
                "type": "span",
                "name": "a",
                "parent_id": 0,
                "span_id": 1,
                "start": 1.0,
                "end": 0.0,
                "duration": -1.0,
            },
            {
                "type": "span",
                "name": "a",
                "parent_id": 0,
                "span_id": 1,
                "start": 0.0,
                "end": 2.0,
                "duration": 1.0,  # disagrees with end - start
            },
            {"type": "event", "name": "a", "parent_id": 0},  # no ts
            {
                "type": "event",
                "name": "a",
                "parent_id": 0,
                "ts": 0.0,
                "attrs": {"bad": [1]},
            },
            {"type": "event", "name": "a", "parent_id": True, "ts": 0.0},
        ],
    )
    def test_validate_record_rejects(self, record):
        with pytest.raises(ObsSchemaError):
            validate_record(record)

    def test_validate_metrics_rejects(self):
        with pytest.raises(ObsSchemaError):
            validate_metrics_snapshot({"schema": "other"})
        with pytest.raises(ObsSchemaError):
            validate_metrics_snapshot({"counters": {"c": -1}})
        with pytest.raises(ObsSchemaError):
            validate_metrics_snapshot({"histograms": {"h": {"count": 1}}})


# ---------------------------------------------------------------------------
# the disabled facade
# ---------------------------------------------------------------------------


def test_null_obs_is_inert():
    with NULL_OBS.span("a", big=object()) as span:
        span.annotate(x=1)
    NULL_OBS.event("e")
    NULL_OBS.count("c")
    NULL_OBS.gauge("g", 1.0)
    NULL_OBS.observe("h", 1.0)
    assert NULL_OBS.tracer.records == []
    assert NULL_OBS.metrics_snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    # Disabled spans reuse one shared null handle — no per-span allocation.
    assert NULL_OBS.span("a") is NULL_OBS.span("b")
