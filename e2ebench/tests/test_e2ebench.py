"""Tests of the end-to-end benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

import json
import os
import subprocess
import sys
import threading

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.quartiles(values) == (1.75, 6.0)
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.summarize(values) == {
        "median": 3.5, "q1": 1.75, "q3": 6.0, "min": 1.0, "n": 6
    }


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.beyond(values, 90) == 10


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentiles(list(range(99))) == {"p50": 49}
    hundred = stats.tail_percentiles(list(range(1, 101)))
    assert hundred == {"p50": 50.5, "p90": 90}
    thousand = stats.tail_percentiles(list(range(1, 1001)))
    assert set(thousand) == {"p50", "p90", "p99"}
    # ties at the cut do not count as beyond it
    assert "p90" not in stats.tail_percentiles([1.0] * 95 + [2.0] * 9)


# ---------------------------------------------------------------------------
# the self-time partition
# ---------------------------------------------------------------------------


def _span(id_, parent, key, start, end, thread=1, name=None, **attrs):
    return {"type": "wrapper", "id": id_, "parent": parent, "thread": thread,
            "key": key, "name": name or key, "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_children_including_nested_same_function():
    spans = [
        _span(1, 0, "cli.main", 0.0, 10.0),
        _span(2, 1, "ir.verify", 1.0, 6.0),    # verify_module ...
        _span(3, 2, "ir.verify", 2.0, 4.0),    # ... calling verify_function
        _span(4, 1, "interp.dispatch", 7.0, 9.0, steps=5),
        _span(5, 4, "interp.dispatch", 7.5, 8.0, steps=2),  # a nested call
    ]
    own = tracing.self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 2.0, 4: 1.5, 5: 0.5}
    assert sum(own.values()) == 10.0  # self times partition the root
    outer = tracing._outermost(spans, "interp.dispatch")
    assert [span["id"] for span in outer] == [4]


def _child(wrappers, program=(), counters=None):
    return {
        "header": {"entry": 1.0, "imported": 2.0, "written": 9.0,
                   "main_thread": 1, "counters": counters or {}},
        "wrappers": list(wrappers),
        "program": list(program),
    }


def test_detect_partition_adds_up_to_the_traced_wall():
    child = _child([
        _span(1, 0, "cli.main", 2.5, 8.5),
        _span(2, 1, "interp.dispatch", 3.0, 7.0, steps=4000),
        _span(3, 1, "memory.construct", 2.6, 2.9, name="AddressSpace.__init__"),
    ])
    result = tracing.analyze(child, popen_ts=0.5, exit_ts=9.5)
    parts = result["parts_ms"]
    assert parts["cli.startup"] == 500.0
    assert parts["cli.import"] == 1000.0
    assert parts["cli.exit"] == 500.0
    assert parts["interp.dispatch"] == 4000.0
    assert result["total_ms"] == 9000.0
    # unattributed: 2.0-2.5 (wrapper install) and 8.5-9.0 (span output)
    assert result["metrics"]["bench.unattributed_ms"] == pytest.approx(1000.0)
    assert result["metrics"]["bench.coverage"] == pytest.approx(8.0 / 9.0)
    assert result["metrics"]["interp.steps"] == 4000
    assert result["metrics"]["interp.steps_per_s"] == 1000.0
    assert result["metrics"]["memory.constructions"] == 1
    # the rest of the declared per-layer metrics come from the parent
    from_parent = {"cli.import_ms", "supervisor.worker_import_ms",
                   "interp.reference_ratio", "bench.tracing_overhead_ms"}
    declared = {m["name"] for m in run.load_contract()["per_layer"]}
    assert declared - from_parent <= set(result["metrics"])
    # and the exact counts the harness checks
    with open(run.GOLDEN) as handle:
        for counts in json.load(handle)["counts"].values():
            assert set(counts) <= set(result["metrics"])


def _event(name, ts, task, attempt=1):
    return {"type": "event", "name": name, "ts": ts, "parent_id": 0,
            "attrs": {"task": task, "attempt": attempt}}


def _program_span(span_id, parent, name, start, end, task):
    return {"type": "span", "span_id": span_id, "parent_id": parent, "name": name,
            "start": start, "end": end, "duration": end - start,
            "attrs": {"task": task}}


def test_inprocess_batch_splits_tasks_by_worker_thread_spans():
    child = _child(
        [
            _span(1, 0, "cli.main", 2.0, 9.0),
            _span(2, 1, "supervisor.batch", 2.0, 8.0, name="run_batch"),
            _span(3, 2, "supervisor.journal", 2.0, 2.5),
            # the worker thread: run_case with a nested pool acquire that
            # reuses buffers (no AddressSpace construction under it)
            _span(10, 0, "supervisor.run_case", 3.0, 6.0, thread=2),
            _span(11, 10, "memory.construct", 3.0, 4.0, thread=2,
                  name="MachinePool.acquire"),
        ],
        program=[
            _event("supervisor.spawn", 2.5, "A"),
            _program_span(1, 0, "task", 2.75, 6.5, "A"),
            _event("supervisor.done", 7.0, "A"),
        ],
        counters={"revalidate.synth_hits": 1, "revalidate.records": 1,
                  "analysis.disk_hits": 1, "analysis.disk_misses": 3},
    )
    result = tracing.analyze(child, popen_ts=0.0, exit_ts=10.0,
                             batch_mode="inprocess", slots=1)
    parts = result["parts_ms"]
    assert parts["supervisor.worker_start"] == 250.0
    assert parts["worker.task"] == 750.0  # task span minus run_case
    assert parts["supervisor.run_case"] == 2000.0
    assert parts["memory.construct"] == 1000.0
    assert parts["supervisor.deliver"] == 500.0
    assert parts["supervisor.idle"] == 6000.0 - 4500.0  # batch wall - residency
    assert "supervisor.journal" not in parts  # overlaps idle slot time
    assert parts["cli.main"] == 1000.0
    metrics = result["metrics"]
    assert metrics["supervisor.journal_ms"] == 500.0
    assert metrics["supervisor.journal_appends"] == 1
    assert metrics["memory.pool_reuse_ratio"] == 1.0
    assert metrics["revalidate.synth_ratio"] == 1.0
    assert metrics["analysis.disk_hit_ratio"] == 0.25
    # startup 2 + exit 1 + cli.main 1 + batch 6 = all 10 s of wall
    assert metrics["bench.coverage"] == pytest.approx(1.0)


def test_subprocess_batch_partitions_slot_time_with_forwarded_spans():
    program = [
        _event("supervisor.spawn", 2.0, "A"),
        _event("supervisor.spawn", 2.0, "B"),
        # both workers number their spans from 1
        _program_span(2, 1, "detect", 2.5, 3.0, "A"),
        _program_span(1, 0, "task", 2.4, 3.4, "A"),
        _program_span(2, 1, "detect", 2.6, 3.2, "B"),
        _program_span(1, 0, "task", 2.5, 3.5, "B"),
        _event("supervisor.done", 3.6, "A"),
        _event("supervisor.done", 3.8, "B"),
    ]
    child = _child(
        [_span(1, 0, "cli.main", 2.0, 9.0),
         _span(2, 1, "supervisor.batch", 2.0, 4.0, name="run_batch")],
        program=program,
    )
    result = tracing.analyze(child, popen_ts=0.0, exit_ts=10.0,
                             batch_mode="subprocess", slots=2)
    parts = result["parts_ms"]
    assert result["total_ms"] == pytest.approx(12000.0)  # wall + one more slot
    assert parts["worker.detect"] == pytest.approx(1100.0)
    assert parts["worker.task"] == pytest.approx(900.0)
    assert parts["supervisor.worker_start"] == pytest.approx(900.0)
    assert parts["supervisor.deliver"] == pytest.approx(500.0)
    assert parts["supervisor.idle"] == pytest.approx(4000.0 - 3400.0)
    assert result["metrics"]["supervisor.worker_start_ms.p50"] == pytest.approx(450.0)
    assert result["metrics"]["bench.coverage"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# installing and restoring the wrappers
# ---------------------------------------------------------------------------


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .core import work\n")
    (package / "core.py").write_text(
        "def work(n):\n"
        "    return n + 1\n"
        "\n"
        "class Thing:\n"
        "    def method(self, n):\n"
        "        return work(n) * 2\n"
    )
    (package / "user.py").write_text(
        "from .core import work\n"
        "\n"
        "def use(n):\n"
        "    return work(n)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.core
    import fakepkg.user

    yield fakepkg
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name, None)


def test_install_patches_every_reference_and_restore_undoes_it(fake_package):
    core, user = fake_package.core, fake_package.user
    originals = (core.work, core.Thing.__dict__["method"])
    targets = (
        tracing.Target("fakepkg.core", "work", "layer.work", lambda r: {"value": r}),
        tracing.Target("fakepkg.core", "Thing.method", "layer.method"),
    )
    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder, targets)
    assert user.work is core.work is fake_package.work
    assert user.work is not originals[0]

    assert user.use(1) == 2
    assert core.Thing().method(1) == 4
    worker = threading.Thread(target=user.use, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    keys = [(span["key"], span["parent"] != 0) for span in recorder.spans]
    assert keys == [
        ("layer.work", False),   # use(1)
        ("layer.work", True),    # work inside method: a child span
        ("layer.method", False),
        ("layer.work", False),   # the other thread starts its own stack
    ]
    assert recorder.spans[0]["attrs"] == {"value": 2}
    assert recorder.spans[3]["thread"] != recorder.spans[0]["thread"]

    tracing.restore(patches)
    assert core.work is user.work is fake_package.work is originals[0]
    assert core.Thing.__dict__["method"] is originals[1]


def test_every_program_target_exists_and_restores():
    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder)  # raises if a target was renamed
    tracing.restore(patches)
    patched = {original for _, _, original in patches}
    assert len(patched) == len(tracing.TARGETS)
    for owner, name, original in patches:
        value = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert value is original


# ---------------------------------------------------------------------------
# the benchmark itself
# ---------------------------------------------------------------------------


def test_set_ups_are_spread_over_the_timed_window(tmp_path):
    golden = {"sha256": {}, "counts": {"detect-hot": {}}}
    bench = run.Bench(run.WORKLOADS["detect-hot"], 0, False, str(tmp_path), golden)
    bench._iterate = lambda what, oracle=False: run.Run(0.0, 1.0, 0, 1024, "", [])
    set_up_after = []

    def set_up():
        set_up_after.append(len(bench.runs))
        bench.setup_s.append(1.0)

    bench.set_up = set_up
    bench.setup_s.append(1.0)  # the set-up before timing
    while bench.pending(6.0):
        bench.iterate(6.0)
    assert run.SETUPS == 3
    assert set_up_after == [2, 4]  # at a third and two thirds of 6 s
    assert len(bench.runs) == 6


def _bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


@pytest.mark.slow
def test_smoke_run_reports_every_declared_metric_with_its_unit():
    latest_path = os.path.join(BENCH_DIR, "results", "latest.json")
    if os.path.exists(latest_path):
        os.remove(latest_path)
    done = _bench("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(latest_path) as handle:
        latest = json.load(handle)
    assert sorted(latest["workloads"]) == sorted(run.WORKLOADS)
    declared = run.load_contract()
    for name, result in latest["workloads"].items():
        assert result["failures"] == [], name
        for metric in declared["end_to_end"]:
            row, statistic = run.END_TO_END[metric["name"]]
            assert result["end_to_end"][row]["unit"] == metric["unit"]
            assert result["end_to_end"][row][statistic] > 0
        assert set(result["per_layer"]) >= {m["name"] for m in declared["per_layer"]}
    for row, _ in run.END_TO_END.values():
        assert row in done.stdout
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["unit"] in done.stdout
    for metric in declared["per_layer"]:
        assert metric["name"] in done.stdout


@pytest.mark.slow
def test_trace_mode_prints_one_json_result_line():
    done = _bench("--workload", "corpus-inprocess", "--smoke", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in run.load_contract()["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
