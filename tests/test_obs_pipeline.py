"""Observability wired through the repair pipeline and the supervisor.

The contract under test, per layer:

- every pipeline phase shows up as a span and the typed counters are
  populated (pipeline, interpreter, analysis);
- with a :class:`ManualClock` the span output is byte-stable across
  identical runs;
- the canonical batch report is byte-identical with observability on
  or off — including across a kill + resume — because spans and
  metrics never feed back into repair results;
- subprocess workers of an instrumented batch forward spans (``OBS``
  lines) and ship a metrics snapshot (``METRICS`` line) that the
  supervisor merges, so both worker modes count the same totals; the
  workers of an uninstrumented batch send neither line;
- a metrics-only CLI batch keeps no span records in memory;
- each task's ``phase.revalidate`` span names how it revalidated
  (``mode``, and a fallback's reason), in both worker modes;
- a batch counts its garbage collections per generation and times
  their pauses, its workers' included.
"""

from __future__ import annotations

import gc
import json
from collections import Counter

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
from repro.obs.sink import DiscardSink
from repro.supervisor import SupervisorConfig, corpus_tasks, run_batch
from repro.supervisor.tasks import execute_task

from conftest import hot_after

CASES = ["PMDK-447", "PMDK-452"]

#: The flat engine's translation counters: volatile metrics only.
TRANSLATION_COUNTERS = (
    "interp.runs_translated",
    "interp.loops_translated",
    "interp.loops_promoted",
)

#: the counter families the pipeline's layers report through ``obs``
LAYER_PREFIXES = ("analysis.", "revalidate.", "interp.", "pipeline.")

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
    return obs, execute_task(task, obs=obs)


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
        obs, record = run_one_task()
        assert record["fixed"]
        names = [r["name"] for r in obs.tracer.records if r["type"] == "span"]
        for phase in PHASES:
            assert phase in names, f"missing span {phase}"
        assert names.count("phase.reduce") == 2  # pre- and post-hoist
        assert "detect" in names and "revalidate" in names
        # Everything nests under the task span, which closes last.
        assert names[-1] == "task"

    def test_typed_counters_populated(self):
        obs, _ = run_one_task()
        counters = obs.metrics_snapshot()["counters"]
        assert counters["pipeline.bugs"] > 0
        assert counters["pipeline.fixes_applied"] > 0
        assert counters["interp.steps"] > 0
        assert counters["interp.stores"] > 0
        # The analysis manager counts through the same facade.
        assert counters["analysis.misses"] > 0

    def test_runs_translated_counter_is_volatile_only(self, default_threshold):
        """The flat engine reports how many runs and loops it translated
        next to ``interp.steps``; the canonical record never carries
        them, and translating changes nothing in it."""
        obs, plain = run_one_task()
        # PMDK-447 runs ~700 steps: no run gets hot enough to translate
        counters = obs.metrics_snapshot()["counters"]
        for name in TRANSLATION_COUNTERS:
            assert counters[name] == 0, name
        with hot_after(1):
            obs, translated = run_one_task()
        assert obs.metrics_snapshot()["counters"]["interp.runs_translated"] > 0
        assert translated == plain
        assert "translated" not in json.dumps(translated)
        assert "promoted" not in json.dumps(translated)

    def test_span_output_is_byte_stable(self):
        first, _ = run_one_task()
        second, _ = run_one_task()
        assert serialize(first.tracer.records) == serialize(second.tracer.records)

    def test_disabled_obs_changes_nothing(self):
        (task,) = corpus_tasks([CASES[0]])
        plain = execute_task(task)
        obs, instrumented = run_one_task()
        assert plain == instrumented


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
        assert "runs_translated" not in instrumented.canonical_json()
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
        for name in TRANSLATION_COUNTERS:  # their values: TestTranslationCounters
            assert name in counters, name

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


class TestTranslationCounters:
    """Over the whole corpus, under the engine's own threshold, no run
    gets hot; translating every run changes no byte of the report."""

    def _corpus_batch(self):
        obs = Observability()
        report = run_batch(corpus_tasks(), config=fast_config(), obs=obs)
        return report.canonical_json(), obs.metrics_snapshot()["counters"]

    def test_corpus_translates_nothing_at_the_default_threshold(
        self, default_threshold
    ):
        _, counters = self._corpus_batch()
        for name in TRANSLATION_COUNTERS:
            assert counters[name] == 0, name

    def test_corpus_report_unchanged_with_every_run_translated(self):
        plain, _ = self._corpus_batch()
        with hot_after(1):
            translated, counters = self._corpus_batch()
        assert translated == plain
        assert counters["interp.runs_translated"] > 0
        assert counters["interp.loops_translated"] > 0


class TestGcMetrics:
    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_batch_reports_its_collections_and_pauses(self, monkeypatch, mode):
        """Each task ends with one full collection of its own, so every
        task's collections reach the batch snapshot, forked or not."""
        import repro.supervisor.tasks as tasks_module

        def collecting_execute(task, obs=None):
            record = execute_task(task, obs=obs)
            gc.collect()
            return record

        monkeypatch.setattr(tasks_module, "execute_task", collecting_execute)
        callbacks = list(gc.callbacks)
        obs = Observability()
        report = run_batch(corpus_tasks(CASES), config=fast_config(mode=mode),
                           obs=obs)
        assert report.ok
        assert gc.callbacks == callbacks
        snapshot = obs.metrics_snapshot()
        collections = [
            snapshot["counters"][f"gc.collections.gen{generation}"]
            for generation in range(3)
        ]
        assert collections[2] >= len(CASES)
        pauses = snapshot["histograms"]["gc.pause_seconds"]
        assert pauses["count"] == sum(collections)
        assert 0 <= pauses["min"] <= pauses["max"] <= pauses["total"]


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
        # The worker's counters reached the batch via the METRICS snapshot.
        counters = obs.metrics_snapshot()["counters"]
        assert counters["analysis.misses"] > 0
        assert counters["pipeline.fixes_applied"] > 0
        assert counters["supervisor.spawns"] == 1


# ---------------------------------------------------------------------------
# one reporting channel
# ---------------------------------------------------------------------------


def layer_counters(obs):
    return {
        name: count
        for name, count in obs.metrics_snapshot()["counters"].items()
        if name.startswith(LAYER_PREFIXES)
    }


def protocol_words(lines):
    return {line.split(" ", 1)[0] for line in lines}


class TestOneChannel:
    def test_corpus_counters_are_equal_in_both_modes(self, tmp_path):
        """Every layer counts into the task's ``obs``: an in-process
        batch into the batch registry itself, a forked worker into its
        own, whose snapshot the supervisor merges.  The totals agree."""
        totals = {}
        for mode in ("inprocess", "subprocess"):
            obs = Observability(sink=DiscardSink())
            tasks = corpus_tasks(analysis_cache_dir=str(tmp_path / mode))
            report = run_batch(
                tasks, config=fast_config(mode=mode, task_timeout=120.0), obs=obs
            )
            assert report.ok
            totals[mode] = layer_counters(obs)
        assert totals["inprocess"] == totals["subprocess"]
        for name in ("analysis.misses", "analysis.disk_misses",
                     "analysis.andersen_passes", "analysis.andersen_evaluations",
                     "revalidate.synth_hits", "interp.steps",
                     "pipeline.fixes_applied"):
            assert totals["inprocess"].get(name), name

    def test_uninstrumented_workers_send_no_obs_lines(self, monkeypatch):
        import repro.supervisor.supervisor as supervisor_module

        lines = []
        handle = supervisor_module._ForkedWorker._handle_line

        def spy(worker, line):
            lines.append(line)
            handle(worker, line)

        monkeypatch.setattr(supervisor_module._ForkedWorker, "_handle_line", spy)
        config = fast_config(mode="subprocess", task_timeout=120.0)
        dark = run_batch(corpus_tasks(CASES), config=config)
        assert "RESULT" in protocol_words(lines)
        assert not protocol_words(lines) & {"METRICS", "OBS"}
        del lines[:]
        lit = run_batch(corpus_tasks(CASES), config=config,
                        obs=Observability(sink=DiscardSink()))
        assert {"METRICS", "OBS", "RESULT"} <= protocol_words(lines)
        assert dark.canonical_json() == lit.canonical_json()

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_metrics_only_cli_batch_keeps_no_span_records(
        self, tmp_path, monkeypatch, mode
    ):
        """Heartbeats, spans and forwarded worker records of a batch run
        with ``--metrics-out`` alone are dropped, not buffered."""
        import repro.supervisor as supervisor_package
        from repro.cli import main

        batches = []
        real_run_batch = supervisor_package.run_batch

        def run_batch_spy(*args, **kwargs):
            batches.append(kwargs["obs"])
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(supervisor_package, "run_batch", run_batch_spy)
        metrics_path = str(tmp_path / "metrics.json")
        code = main(["batch", "--cases", *CASES, "--mode", mode,
                     "--journal", str(tmp_path / "b.journal"),
                     "--metrics-out", metrics_path])
        assert code == 0
        (obs,) = batches
        assert obs.enabled
        assert obs.tracer.records == []
        counters = load_metrics(metrics_path)["counters"]
        assert counters["supervisor.tasks_done"] == len(CASES)
        assert counters["analysis.misses"] > 0


# ---------------------------------------------------------------------------
# how each task revalidated: the phase.revalidate span
# ---------------------------------------------------------------------------


def revalidate_spans(records):
    return [
        record
        for record in records
        if record["type"] == "span" and record["name"] == "phase.revalidate"
    ]


class TestRevalidationTier:
    def test_corpus_tiers_are_equal_in_both_modes(self):
        """Every task's ``phase.revalidate`` span names its tier, in a
        forked worker as in process: all 13 corpus repairs synthesize."""
        tiers = {}
        for mode in ("inprocess", "subprocess"):
            obs = Observability()
            report = run_batch(
                corpus_tasks(), config=fast_config(mode=mode, task_timeout=120.0),
                obs=obs,
            )
            assert report.ok
            spans = revalidate_spans(obs.tracer.records)
            tiers[mode] = Counter(span["attrs"]["mode"] for span in spans)
            assert all("fallback" not in span["attrs"] for span in spans)
        assert tiers["inprocess"] == tiers["subprocess"]
        assert tiers["inprocess"] == Counter({"synthesized": 13})

    def test_forced_fallback_names_full_mode_and_reason(self):
        """A revalidation without a baseline re-records in full, and its
        span says so and why."""
        from repro.core import Hippocrates
        from repro.revalidate.engine import IncrementalRevalidator

        from conftest import build_listing5_module, drive_main

        obs = Observability()
        module = build_listing5_module()
        revalidator = IncrementalRevalidator(drive_main, obs=obs)
        detection, trace, interp = revalidator.record(module)
        fixer = Hippocrates(module, trace, interp.machine, detection=detection,
                            obs=obs, revalidator=revalidator)
        fixer.apply(fixer.compute_fixes())
        revalidator.baseline = None
        outcome = fixer.revalidate()
        assert outcome.mode == "full"
        assert outcome.detection.bug_count == 0
        (span,) = revalidate_spans(obs.tracer.records)
        assert span["attrs"] == {
            "mode": "full",
            "fallback": "no recording to revalidate against",
        }
