"""Observability wired through the repair pipeline and the supervisor.

The contract under test, per layer:

- every pipeline phase shows up as a span and the typed counters are
  populated (pipeline, interpreter, analysis);
- with a :class:`ManualClock` the span output is byte-stable across
  identical runs;
- the canonical batch report is byte-identical with observability on
  or off — including across a kill + resume — because spans and
  metrics never feed back into repair results;
- subprocess workers forward spans (``OBS`` lines) and ship a metrics
  snapshot (``METRICS`` line) that the supervisor merges, and the
  analysis stats the batch report aggregates are derived from it.
"""

from __future__ import annotations

import json

import pytest

from repro.faultinject.resume import run_kill_resume
from repro.obs import (
    JsonlSink,
    ManualClock,
    Observability,
    load_metrics,
    read_spans,
    validate_spans_file,
)
from repro.supervisor import SupervisorConfig, corpus_tasks, run_batch
from repro.supervisor.tasks import execute_task

CASES = ["PMDK-447", "PMDK-452"]

PHASES = (
    "phase.locate",
    "phase.generate",
    "phase.reduce",
    "phase.hoist",
    "phase.apply",
    "phase.verify",
)


def fast_config(**overrides):
    defaults = dict(
        mode="inprocess", max_retries=1, backoff_base=0.0, task_timeout=600.0
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def run_one_task(case_id=CASES[0]):
    obs = Observability(clock=ManualClock())
    (task,) = corpus_tasks([case_id])
    result = execute_task(task, obs=obs)
    return obs, result


def serialize(records):
    return b"".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        for r in records
    )


# ---------------------------------------------------------------------------
# task-level instrumentation
# ---------------------------------------------------------------------------


class TestTaskInstrumentation:
    def test_all_phases_become_spans(self):
        obs, result = run_one_task()
        assert result.record["fixed"]
        names = [r["name"] for r in obs.tracer.records if r["type"] == "span"]
        for phase in PHASES:
            assert phase in names, f"missing span {phase}"
        assert names.count("phase.reduce") == 2  # pre- and post-hoist
        assert "detect" in names and "revalidate" in names
        # Everything nests under the task span, which closes last.
        assert names[-1] == "task"

    def test_typed_counters_populated(self):
        obs, result = run_one_task()
        counters = obs.metrics_snapshot()["counters"]
        assert counters["pipeline.bugs"] > 0
        assert counters["pipeline.fixes_applied"] > 0
        assert counters["interp.steps"] > 0
        assert counters["interp.stores"] > 0
        # The analysis manager mirrors its stats into the registry.
        assert counters["analysis.misses"] > 0
        assert counters["analysis.misses"] == result.stats["misses"]

    def test_span_output_is_byte_stable(self):
        first, _ = run_one_task()
        second, _ = run_one_task()
        assert serialize(first.tracer.records) == serialize(second.tracer.records)

    def test_disabled_obs_changes_nothing(self):
        (task,) = corpus_tasks([CASES[0]])
        plain = execute_task(task)
        obs, instrumented = run_one_task()
        assert plain.stats == instrumented.stats
        assert plain.record == instrumented.record


# ---------------------------------------------------------------------------
# batch-level byte identity
# ---------------------------------------------------------------------------


class TestBatchByteIdentity:
    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_report_identical_with_obs_on_or_off(self, tmp_path, mode):
        config = fast_config(mode=mode)
        baseline = run_batch(corpus_tasks(CASES), config=config)
        spans_path = str(tmp_path / "spans.jsonl")
        sink = JsonlSink(spans_path)
        obs = Observability(sink=sink)
        instrumented = run_batch(corpus_tasks(CASES), config=config, obs=obs)
        obs.close()
        assert instrumented.canonical_json() == baseline.canonical_json()
        assert sink.dropped == 0
        # The sink captured real batch structure while staying off-path.
        assert validate_spans_file(spans_path) > 0
        names = {r["name"] for r in read_spans(spans_path)}
        assert {"batch.start", "batch.end", "supervisor.spawn", "task"} <= names
        # The metrics artifact round-trips and saw the pipeline's work.
        metrics_path = str(tmp_path / "metrics.json")
        obs.write_metrics(metrics_path)
        counters = load_metrics(metrics_path)["counters"]
        for name in ("pipeline.bugs", "pipeline.fixes_applied", "interp.steps"):
            assert counters.get(name), f"metrics missing counter {name!r}"

    def test_kill_resume_with_obs_is_byte_identical(self, tmp_path):
        tasks = corpus_tasks(CASES)
        baseline = run_batch(
            tasks, journal_path=str(tmp_path / "base.journal"),
            config=fast_config(),
        ).canonical_json()
        record = run_kill_resume(
            corpus_tasks(CASES),
            str(tmp_path / "kill.journal"),
            boundary=3,  # right after the first task-done
            baseline_bytes=baseline,
            torn=False,
            obs_factory=Observability,
        )
        assert record.obs
        assert record.ok, record.problems
        assert "obs" in record.describe()


# ---------------------------------------------------------------------------
# subprocess forwarding
# ---------------------------------------------------------------------------


class TestSubprocessForwarding:
    def test_worker_spans_and_metrics_cross_the_pipe(self, tmp_path):
        spans_path = str(tmp_path / "spans.jsonl")
        obs = Observability(sink=JsonlSink(spans_path))
        report = run_batch(
            corpus_tasks([CASES[0]]),
            config=fast_config(mode="subprocess", task_timeout=120.0),
            obs=obs,
        )
        obs.close()
        assert report.ok
        assert validate_spans_file(spans_path) > 0
        records = read_spans(spans_path)
        forwarded = [
            r
            for r in records
            if r["type"] == "span" and r["name"].startswith("phase.")
        ]
        assert forwarded, "no worker phase spans were forwarded"
        # The supervisor stamps forwarded records with task/attempt.
        for record in forwarded:
            assert record["attrs"]["task"] == CASES[0]
            assert record["attrs"]["attempt"] == 1
        # Analysis stats reached the report via the METRICS snapshot.
        assert report.analysis_stats["misses"] > 0
        counters = obs.metrics_snapshot()["counters"]
        assert counters["analysis.misses"] == report.analysis_stats["misses"]
        assert counters["pipeline.fixes_applied"] > 0
        assert counters["supervisor.spawns"] == 1
