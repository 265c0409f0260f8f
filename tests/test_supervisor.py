"""Crash-safe batch supervision: journal, watchdog, retries, resume.

Covers the batch layer's resilience invariants at every level:

- journal framing and recovery (CRC per record, torn-tail truncation,
  the kill-between-``write`` and kill-between-append-and-``fsync``
  windows, atomic compaction);
- supervision (watchdog kill of hung workers, bounded retries with
  deterministic backoff, retry-then-quarantine ordering, no batch
  stall);
- the dispatch loop (it wakes on worker events and signals, not on a
  timer; forked workers are reaped and keep their output to their pipe);
- the worker pool (one fork per slot, report bytes equal to an
  in-process run's, a fresh process after any failed attempt, no
  worker left running or unreaped however the batch ends);
- resume (kill at checkpoint boundaries, byte-identical aggregate
  reports, no task executed twice, stale-journal refusal);
- the batch's frozen heap (tasks, in process or in a forked worker,
  run with the loaded modules frozen; the freeze count is restored
  however the batch ends);
- the end-to-end signal path (SIGTERM mid-batch drains to exit code 8
  and the journal resumes to the uninterrupted bytes).
"""

from __future__ import annotations

import gc
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.hippocrates import Hippocrates
from repro.errors import ReproError
from repro.faultinject import FaultPlan
from repro.faultinject.resume import run_kill_resume, tear_journal_tail
from repro.obs import Observability
from repro.supervisor import (
    BatchSupervisor,
    CheckpointJournal,
    JournalError,
    RepairTask,
    SupervisorConfig,
    SupervisorError,
    SupervisorKilled,
    backoff_delay,
    corpus_tasks,
    decode_record,
    encode_record,
    run_batch,
)

CASES = ["PMDK-447", "PMDK-452"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_tasks(heuristic="full"):
    return corpus_tasks(CASES, heuristic=heuristic)


def fast_config(**overrides):
    defaults = dict(
        mode="inprocess",
        max_retries=1,
        backoff_base=0.0,
        task_timeout=600.0,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


# ---------------------------------------------------------------------------
# journal framing
# ---------------------------------------------------------------------------


def test_record_roundtrip():
    record = {"type": "task-done", "task": "t1", "result": {"ok": True}}
    line = encode_record(record)
    assert decode_record(line) == record


def test_decode_rejects_damage():
    line = encode_record({"type": "batch-start"})
    assert decode_record(line) is not None
    assert decode_record("") is None
    assert decode_record("short") is None
    assert decode_record(line[:-1]) is None  # torn payload: CRC mismatch
    assert decode_record("zzzzzzzz " + line[9:]) is None  # bad CRC text
    flipped = line[:9] + line[9:].replace("batch", "botch")
    assert decode_record(flipped) is None
    # a CRC-valid non-dict payload is mis-framed, not a record
    import json
    import zlib

    payload = json.dumps([1, 2, 3], separators=(",", ":"))
    crc = zlib.crc32(payload.encode()) & 0xFFFFFFFF
    assert decode_record(f"{crc:08x} {payload}") is None


def test_append_is_durable_and_readable(tmp_path):
    path = str(tmp_path / "j.journal")
    with CheckpointJournal(path) as journal:
        journal.append({"type": "batch-start", "tasks": ["a"]})
        journal.append({"type": "task-start", "task": "a", "attempt": 1})
    recovered = CheckpointJournal.read(path)
    assert not recovered.torn
    assert [r["type"] for r in recovered.records] == ["batch-start", "task-start"]


# ---------------------------------------------------------------------------
# journal recovery: torn tails
# ---------------------------------------------------------------------------


def _write_journal(path, records):
    with CheckpointJournal(path) as journal:
        for record in records:
            journal.append(record)


def test_torn_tail_mid_crc_is_truncated(tmp_path):
    path = str(tmp_path / "j.journal")
    _write_journal(
        path,
        [
            {"type": "batch-start", "tasks": ["a", "b"]},
            {"type": "task-done", "task": "a", "result": {}},
        ],
    )
    assert tear_journal_tail(path)
    recovered = CheckpointJournal.read(path)
    assert recovered.torn
    assert recovered.torn_at == 2
    assert [r["type"] for r in recovered.records] == ["batch-start"]

    # recover() physically truncates, so the next append extends the
    # good prefix instead of corrupting the log further
    journal = CheckpointJournal(path)
    journal.recover()
    journal.append({"type": "task-start", "task": "a", "attempt": 1})
    journal.close()
    again = CheckpointJournal.read(path)
    assert not again.torn
    assert [r["type"] for r in again.records] == ["batch-start", "task-start"]


def test_complete_line_missing_newline_is_torn(tmp_path):
    """The kill-between-append-and-fsync window: the record's bytes may
    be complete but its newline (or durability) is not guaranteed — a
    final line without ``\\n`` is untrusted even if its CRC validates."""
    path = str(tmp_path / "j.journal")
    _write_journal(path, [{"type": "batch-start", "tasks": ["a"]}])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(encode_record({"type": "task-start", "task": "a"}))
        # no newline: the write(2) was cut short of its final byte
    recovered = CheckpointJournal.read(path)
    assert recovered.torn
    assert recovered.torn_at == 2
    assert len(recovered.records) == 1


def test_garbage_after_torn_record_is_untrusted(tmp_path):
    """A WAL has no holes: even decodable lines after the first bad
    record are ignored."""
    path = str(tmp_path / "j.journal")
    good = encode_record({"type": "batch-start", "tasks": []})
    later = encode_record({"type": "task-done", "task": "x", "result": {}})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(good + "\n")
        handle.write("garbage line\n")
        handle.write(later + "\n")
    recovered = CheckpointJournal.read(path)
    assert recovered.torn_at == 2
    assert [r["type"] for r in recovered.records] == ["batch-start"]
    assert "x" not in recovered.completed_tasks()


def test_recover_after_append_is_misuse(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "j.journal"))
    journal.append({"type": "batch-start"})
    with pytest.raises(JournalError):
        journal.recover()
    journal.close()


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_bounded_and_growing():
    config = SupervisorConfig(backoff_base=0.1, backoff_cap=1.0)
    first = backoff_delay(config, "PMDK-447", 1)
    assert first == backoff_delay(config, "PMDK-447", 1)  # deterministic
    assert backoff_delay(config, "P-CLHT", 1) != first  # jitter per task
    previous = 0.0
    for attempt in range(1, 6):
        delay = backoff_delay(config, "PMDK-447", attempt)
        assert 0.0 < delay <= 1.0 * 1.5  # cap * max jitter factor
        assert delay >= previous or delay >= 1.0  # grows until capped
        previous = delay


# ---------------------------------------------------------------------------
# supervision basics
# ---------------------------------------------------------------------------


def test_duplicate_task_ids_are_rejected(tmp_path):
    tasks = small_tasks() + small_tasks()[:1]
    with pytest.raises(SupervisorError):
        BatchSupervisor(tasks, journal_path=str(tmp_path / "j.journal"))


def test_inprocess_batch_completes_and_is_deterministic(tmp_path):
    tasks = small_tasks()
    a = run_batch(tasks, journal_path=str(tmp_path / "a.journal"),
                  config=fast_config())
    b = run_batch(tasks, journal_path=str(tmp_path / "b.journal"),
                  config=fast_config())
    assert a.ok and b.ok
    assert len(a.done) == len(CASES)
    assert a.canonical_json() == b.canonical_json()
    totals = a.totals()
    assert totals["bugs_fixed"] == totals["bugs_detected"] > 0


def test_batch_runs_without_a_journal():
    report = run_batch(small_tasks(), config=fast_config())
    assert report.ok


def test_batch_heuristic_is_the_tasks_heuristic(tmp_path):
    """The report header and the ``batch-start`` record name the
    heuristic the tasks ran, not a default of their own."""
    journal = str(tmp_path / "off.journal")
    report = run_batch(corpus_tasks(["PMDK-447"], heuristic="off"),
                       journal_path=journal,
                       config=SupervisorConfig(mode="inprocess"))
    assert report.ok
    assert report.canonical_dict()["heuristic"] == "off"
    assert report.done[0].record["heuristic"] == "off"
    start = CheckpointJournal.read(journal).records[0]
    assert start["type"] == "batch-start"
    assert start["heuristic"] == "off"


def test_batch_of_mixed_heuristics_is_refused():
    tasks = [*corpus_tasks(["PMDK-447"], heuristic="off"),
             *corpus_tasks(["PMDK-452"], heuristic="full")]
    with pytest.raises(SupervisorError, match="one heuristic"):
        BatchSupervisor(tasks)


def test_batch_outcomes_are_equal_in_both_modes():
    """A task hands back its record and nothing beside it, whichever
    worker ran it."""
    inprocess = run_batch(small_tasks(), config=fast_config())
    forked = run_batch(small_tasks(), config=fast_config(mode="subprocess"))
    assert inprocess.ok and forked.ok
    assert inprocess.outcomes == forked.outcomes


def file_task(tmp_path, output_path):
    """A file task repairing PMDK-447's printed module from its
    pmemcheck-format trace, both written under ``tmp_path``."""
    from repro.corpus.bugs import all_cases
    from repro.interp import Interpreter
    from repro.ir import format_module
    from repro.trace import dump_trace

    case = next(c for c in all_cases() if c.case_id == "PMDK-447")
    module = case.build()
    module_path = tmp_path / "app.ir"
    module_path.write_text(format_module(module))
    interp = Interpreter(module)
    case.drive(interp)
    interp.finish()
    trace_path = tmp_path / "app.trace"
    trace_path.write_text(dump_trace(interp.machine.trace))
    return RepairTask(
        task_id="app",
        kind="file",
        module_path=str(module_path),
        trace_path=str(trace_path),
        output_path=str(output_path),
    )


def test_file_task_repairs_module_atomically(tmp_path, monkeypatch):
    from repro.corpus.bugs import all_cases
    from repro.ir import format_module

    out_path = tmp_path / "app.fixed.ir"
    task = file_task(tmp_path, out_path)
    report = run_batch([task], journal_path=str(tmp_path / "j.journal"),
                       config=fast_config())
    assert report.ok
    assert out_path.exists()
    assert "flush" in out_path.read_text()
    # input untouched (output went elsewhere)
    case = next(c for c in all_cases() if c.case_id == "PMDK-447")
    assert (tmp_path / "app.ir").read_text() == format_module(case.build())


# ---------------------------------------------------------------------------
# retries, quarantine, and the watchdog
# ---------------------------------------------------------------------------


def _journal_types_for(path, task_id):
    return [
        (r["type"], r.get("attempt"))
        for r in CheckpointJournal.read(path).records
        if r.get("task") == task_id
    ]


@pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
def test_transient_worker_death_is_healed_by_retry(tmp_path, mode):
    tasks = small_tasks()
    plan = FaultPlan("worker", mode="kill-worker-at-nth", nth=1, attempts=1)
    journal_path = str(tmp_path / "j.journal")
    report = run_batch(
        tasks, journal_path=journal_path,
        config=fast_config(mode=mode, task_timeout=60.0,
                           heartbeat_timeout=5.0),
        fault=plan,
    )
    assert report.ok
    assert report.total_retries == 1
    # journal ordering: start(1), failed(1), start(2), done
    events = _journal_types_for(journal_path, tasks[0].task_id)
    assert events == [
        ("task-start", 1), ("task-failed", 1), ("task-start", 2),
        ("task-done", 2),
    ]


def test_persistent_fault_quarantines_after_bounded_retries(tmp_path):
    tasks = small_tasks()
    plan = FaultPlan("worker", mode="kill-worker-at-nth", nth=1, attempts=0)
    journal_path = str(tmp_path / "j.journal")
    config = fast_config(max_retries=2)
    report = run_batch(tasks, journal_path=journal_path, config=config,
                       fault=plan)
    target = report.outcome(tasks[0].task_id)
    assert target is not None and target.status == "quarantined"
    assert target.attempts == config.max_retries + 1
    # retry-then-quarantine ordering: every retry precedes quarantine
    events = _journal_types_for(journal_path, tasks[0].task_id)
    assert events == [
        ("task-start", 1), ("task-failed", 1),
        ("task-start", 2), ("task-failed", 2),
        ("task-start", 3), ("task-quarantined", None),
    ]
    # the fault never stalls the rest of the batch
    other = report.outcome(tasks[1].task_id)
    assert other is not None and other.status == "done"


@pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
def test_a_task_that_raises_is_quarantined_without_retry(tmp_path, mode):
    """A task's own exception would recur on every attempt: a file task
    whose output directory is missing is quarantined after its first
    attempt, and the next task still completes."""
    task = file_task(tmp_path, tmp_path / "out" / "app.ir")  # no out/
    other = small_tasks()[1]
    journal_path = str(tmp_path / "j.journal")
    report = run_batch(
        [task, other], journal_path=journal_path,
        config=fast_config(mode=mode, max_retries=2),
    )
    target = report.outcome("app")
    assert target.status == "quarantined" and target.attempts == 1
    assert target.error.startswith("FileNotFoundError")
    assert report.total_retries == 0
    assert _journal_types_for(journal_path, "app") == [
        ("task-start", 1), ("task-quarantined", None),
    ]
    assert report.outcome(other.task_id).status == "done"


@pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
def test_watchdog_kills_hung_worker_within_budget(tmp_path, mode):
    tasks = small_tasks()
    plan = FaultPlan("worker", mode="hang-worker", nth=1, attempts=1)
    config = fast_config(
        mode=mode,
        task_timeout=2.0,
        heartbeat_timeout=1.0,
        heartbeat_interval=0.05,
    )
    started = time.monotonic()
    report = run_batch(tasks, journal_path=str(tmp_path / "j.journal"),
                       config=config, fault=plan)
    elapsed = time.monotonic() - started
    assert report.ok
    assert report.total_retries == 1
    # detection is bounded by the watchdog budget, not by luck: one
    # hang (<= task_timeout to detect) plus two healthy executions
    assert elapsed < 30.0
    target = report.outcome(tasks[0].task_id)
    assert target is not None and target.attempts == 2


# ---------------------------------------------------------------------------
# the event-driven loop and forked workers
# ---------------------------------------------------------------------------


def test_loop_wakes_once_per_event_not_on_a_timer():
    """An in-process worker wakes the loop exactly when it finishes; a
    polling loop would wake every few milliseconds instead."""
    tasks = small_tasks()
    obs = Observability()
    report = run_batch(tasks, config=fast_config(), obs=obs)
    assert report.ok
    wakeups = obs.metrics_snapshot()["counters"]["supervisor.wakeups"]
    assert wakeups <= len(tasks) + 1


def test_forked_workers_do_not_leak_output_into_the_supervisor(capfd):
    report = run_batch(
        small_tasks(), config=fast_config(mode="subprocess", task_timeout=120.0)
    )
    assert report.ok and report.mode == "subprocess"
    captured = capfd.readouterr()
    for line in (captured.out + captured.err).splitlines():
        assert not line.startswith(("HB ", "METRICS ", "RESULT ", "OBS ")), line


def test_auto_mode_forks_without_probing_an_interpreter(monkeypatch):
    def no_interpreter(*args, **kwargs):
        raise AssertionError("auto mode launched a process to probe")

    monkeypatch.setattr(subprocess, "run", no_interpreter)
    monkeypatch.setattr(subprocess, "Popen", no_interpreter)
    supervisor = BatchSupervisor(small_tasks(), config=SupervisorConfig())
    supervisor._resolve_mode()
    assert supervisor._mode == ("subprocess" if hasattr(os, "fork") else "inprocess")


@pytest.fixture
def forked_pids(monkeypatch):
    """Every pid ``fork_worker`` returns to the supervisor, in fork order."""
    import repro.supervisor.supervisor as supervisor_module

    pids = []
    real_fork = supervisor_module.fork_worker

    def recording_fork(*args, **kwargs):
        forked = real_fork(*args, **kwargs)
        pids.append(forked[0])
        return forked

    monkeypatch.setattr(supervisor_module, "fork_worker", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_supervisor_kill_reaps_its_running_workers(tmp_path, forked_pids):
    """A simulated supervisor kill unwinds the loop with a worker in
    flight; that worker is killed and reaped, not left as a zombie or
    an orphan still writing into a dead pipe."""
    # appends: batch-start (1), task-start A (2), task-start B (3): the
    # kill lands while A runs and before B is forked
    plan = FaultPlan("supervisor", mode="kill-supervisor-at-nth", nth=3)
    with pytest.raises(SupervisorKilled):
        run_batch(small_tasks(), journal_path=str(tmp_path / "j.journal"),
                  config=fast_config(mode="subprocess", jobs=2), fault=plan)
    assert len(forked_pids) == 1
    _assert_reaped(forked_pids)


# ---------------------------------------------------------------------------
# the worker pool: one forked worker per slot
# ---------------------------------------------------------------------------

#: five quick corpus repairs: on two slots, two workers serve all five
POOL_CASES = ["PMDK-452", "PMDK-458", "PMDK-459", "PMDK-460", "PMDK-461"]


@pytest.mark.parametrize("fault", [
    None,
    # the third task's first attempt: a reused worker dies mid-batch
    FaultPlan("worker", mode="kill-worker-at-nth", nth=3, attempts=1),
])
def test_pooled_workers_fork_once_per_slot_and_keep_the_report_bytes(fault):
    tasks = corpus_tasks(POOL_CASES)
    inprocess = run_batch(tasks, config=fast_config(), fault=fault)
    obs = Observability()
    forked = run_batch(tasks, config=fast_config(mode="subprocess", jobs=2),
                       fault=fault, obs=obs)
    assert forked.canonical_json() == inprocess.canonical_json()
    assert forked.ok and forked.total_retries == (fault is not None)
    counters = obs.metrics_snapshot()["counters"]
    # one dispatch per attempt; one fork per slot, plus one to replace
    # the worker the fault killed
    assert counters["supervisor.spawns"] == len(tasks) + forked.total_retries
    assert counters["supervisor.forks"] == 2 + forked.total_retries


def test_slot_runs_its_next_task_in_a_new_process_after_a_failure(
    tmp_path, monkeypatch, forked_pids
):
    """A worker whose task ended in FAIL is killed, not reused."""
    import repro.supervisor.tasks as tasks_module

    tasks = corpus_tasks(POOL_CASES[:4])
    log = tmp_path / "ran.log"
    real_execute = tasks_module.execute_task

    def logged_execute(task, obs=None):
        with open(log, "a") as handle:
            handle.write(f"{task.task_id} {os.getpid()}\n")
        if task is tasks[1]:
            raise RuntimeError("injected failure")
        return real_execute(task, obs=obs)

    monkeypatch.setattr(tasks_module, "execute_task", logged_execute)
    report = run_batch(
        tasks, config=fast_config(mode="subprocess", jobs=1, max_retries=0)
    )
    assert report.outcome(tasks[1].task_id).error == "RuntimeError: injected failure"
    ran = [line.split() for line in log.read_text().splitlines()]
    assert [task_id for task_id, _ in ran] == [task.task_id for task in tasks]
    first, second = forked_pids
    assert [int(pid) for _, pid in ran] == [first, first, second, second]
    _assert_reaped(forked_pids)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
def test_a_worker_holds_no_pipe_of_another(monkeypatch):
    """Each worker closes the supervisor's ends of the workers forked
    before it, so a worker reads end of file on its task pipe as soon as
    the supervisor closes it or dies, whatever a later worker does."""
    import repro.supervisor.supervisor as supervisor_module

    forks = []
    real_fork = supervisor_module.fork_worker

    def recording_fork(*args, **kwargs):
        forks.append(real_fork(*args, **kwargs))
        return forks[-1]

    monkeypatch.setattr(supervisor_module, "fork_worker", recording_fork)
    shared = []

    def check(event, task_id, detail):
        # the first task is done; the second worker hangs in its task
        if event == "done" and not shared:
            (_, *first_ends), (second, _, _) = forks
            pipes = {f"pipe:[{os.fstat(fd).st_ino}]" for fd in first_ends}
            fd_dir = f"/proc/{second}/fd"
            shared.append(pipes & {os.readlink(f"{fd_dir}/{fd}") for fd in os.listdir(fd_dir)})

    plan = FaultPlan("worker", mode="hang-worker", nth=2, attempts=1)
    report = run_batch(
        corpus_tasks(POOL_CASES[:2]),
        config=fast_config(mode="subprocess", jobs=2, task_timeout=1.0),
        fault=plan, progress=check,
    )
    assert report.ok
    assert shared == [set()]


def test_a_worker_dead_while_idle_costs_its_next_task_one_attempt(forked_pids):
    tasks = corpus_tasks(POOL_CASES[:2])

    def kill_idle_worker(event, task_id, detail):
        if event == "done" and task_id == tasks[0].task_id:
            pid = forked_pids[0]
            os.kill(pid, signal.SIGKILL)
            # wait for the death without reaping: the supervisor reaps
            deadline = time.monotonic() + 10.0
            while not os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
                assert time.monotonic() < deadline
                time.sleep(0.01)

    report = run_batch(tasks, config=fast_config(mode="subprocess", jobs=1),
                       progress=kill_idle_worker)
    assert report.ok and report.total_retries == 1
    assert len(forked_pids) == 2
    _assert_reaped(forked_pids)


@pytest.mark.parametrize(
    "ending", ["complete", "drain", "watchdog", "supervisor-kill-while-idle"]
)
def test_no_forked_worker_outlives_its_batch(tmp_path, forked_pids, ending):
    tasks = corpus_tasks(POOL_CASES[:3])
    journal = str(tmp_path / "j.journal")
    if ending == "complete":
        report = run_batch(tasks, journal_path=journal,
                           config=fast_config(mode="subprocess", jobs=2))
        assert report.ok
    elif ending == "drain":
        # the first task hangs for good; SIGTERM drains the batch, whose
        # grace runs out on the hung worker while the other sits idle
        plan = FaultPlan("worker", mode="hang-worker", nth=1, attempts=0)
        config = fast_config(mode="subprocess", jobs=2, task_timeout=60.0,
                             drain_grace=0.2)
        timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            report = run_batch(tasks, journal_path=journal, config=config,
                               fault=plan)
        finally:
            timer.cancel()
        assert report.interrupted
    elif ending == "watchdog":
        plan = FaultPlan("worker", mode="hang-worker", nth=1, attempts=1)
        config = fast_config(mode="subprocess", jobs=2, task_timeout=1.0,
                             heartbeat_interval=0.05)
        report = run_batch(tasks, journal_path=journal, config=config,
                           fault=plan)
        assert report.ok and report.total_retries == 1
    else:
        # appends: batch-start (1), task-start A (2), task-done A (3):
        # the kill lands with A's worker back in the pool, idle
        plan = FaultPlan("supervisor", mode="kill-supervisor-at-nth", nth=3)
        with pytest.raises(SupervisorKilled):
            run_batch(tasks, journal_path=journal,
                      config=fast_config(mode="subprocess", jobs=1), fault=plan)
        assert len(forked_pids) == 1
    assert forked_pids
    _assert_reaped(forked_pids)


def test_signal_wakes_a_blocked_loop_and_starts_the_drain(tmp_path):
    """The loop sleeps until its next deadline (here: a 60 s task
    budget), so a SIGTERM must wake it; the drain grace then runs from
    the signal, not from whenever the loop next woke."""
    tasks = small_tasks()
    plan = FaultPlan("worker", mode="hang-worker", nth=1, attempts=0)
    config = fast_config(task_timeout=60.0, drain_grace=0.2)
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
    started = time.monotonic()
    timer.start()
    try:
        report = run_batch(tasks, journal_path=str(tmp_path / "j.journal"),
                           config=config, fault=plan)
    finally:
        timer.cancel()
    assert time.monotonic() - started < 10.0
    assert report.interrupted
    assert report.pending == [tasks[1].task_id]
    records = CheckpointJournal.read(str(tmp_path / "j.journal")).records
    assert records[-1]["type"] == "batch-interrupted"
    assert records[-1]["signal"] == "SIGTERM"


# ---------------------------------------------------------------------------
# the batch's frozen heap
# ---------------------------------------------------------------------------


def _frozen(obj) -> bool:
    """Whether the collector skips ``obj``: frozen objects sit in the
    permanent generation, which ``gc.get_objects()`` leaves out."""
    return not any(tracked is obj for tracked in gc.get_objects())


#: a function object every task's imports load before the batch starts
LOADED = Hippocrates.compute_fixes


@pytest.mark.parametrize(
    "ending", ["complete", "drain", "supervisor-kill", "host-frozen"]
)
def test_batch_leaves_the_freeze_count_as_it_found_it(tmp_path, ending):
    tasks = small_tasks()
    journal = str(tmp_path / "j.journal")
    if ending == "host-frozen":
        gc.freeze()
    before = gc.get_freeze_count()
    try:
        if ending == "drain":
            plan = FaultPlan("worker", mode="hang-worker", nth=1, attempts=0)
            timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
            timer.start()
            try:
                report = run_batch(
                    tasks, journal_path=journal, fault=plan,
                    config=fast_config(task_timeout=60.0, drain_grace=0.2),
                )
            finally:
                timer.cancel()
            assert report.interrupted
        elif ending == "supervisor-kill":
            plan = FaultPlan("supervisor", mode="kill-supervisor-at-nth", nth=3)
            with pytest.raises(SupervisorKilled):
                run_batch(tasks, journal_path=journal, config=fast_config(),
                          fault=plan)
        else:
            assert run_batch(tasks, journal_path=journal,
                             config=fast_config()).ok
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()
    assert not _frozen(LOADED)


def test_inprocess_tasks_run_with_the_loaded_modules_frozen(monkeypatch):
    import repro.supervisor.tasks as tasks_module

    seen = []
    real_execute = tasks_module.execute_task

    def observed_execute(task, obs=None):
        seen.append((_frozen(LOADED), list(gc.callbacks)))
        return real_execute(task, obs=obs)

    monkeypatch.setattr(tasks_module, "execute_task", observed_execute)
    callbacks = list(gc.callbacks)
    assert run_batch(small_tasks(), config=fast_config()).ok
    # frozen in every task, and no collection watch without observability
    assert seen == [(True, callbacks)] * len(CASES)
    assert not _frozen(LOADED)


def test_forked_workers_inherit_the_frozen_heap(tmp_path, monkeypatch):
    import repro.supervisor.tasks as tasks_module

    log = tmp_path / "frozen.log"
    real_execute = tasks_module.execute_task

    def observed_execute(task, obs=None):
        with open(log, "a") as handle:
            handle.write(f"{_frozen(LOADED)}\n")
        return real_execute(task, obs=obs)

    monkeypatch.setattr(tasks_module, "execute_task", observed_execute)
    report = run_batch(small_tasks(), config=fast_config(mode="subprocess"))
    assert report.ok
    assert log.read_text().split() == ["True"] * len(CASES)
    assert not _frozen(LOADED)


# ---------------------------------------------------------------------------
# kill/resume
# ---------------------------------------------------------------------------


def _baseline_bytes(tasks, tmp_path):
    report = run_batch(tasks, journal_path=str(tmp_path / "base.journal"),
                       config=fast_config())
    return report.canonical_json()


@pytest.mark.parametrize("torn", [False, True])
def test_kill_at_checkpoint_then_resume_is_byte_identical(tmp_path, torn):
    tasks = small_tasks()
    baseline = _baseline_bytes(tasks, tmp_path)
    suffix = "torn" if torn else "plain"
    record = run_kill_resume(
        tasks,
        str(tmp_path / f"kill-{suffix}.journal"),
        boundary=3,  # right after the first task-done
        baseline_bytes=baseline,
        torn=torn,
    )
    assert record.ok, record.problems
    assert record.reexecuted < len(tasks) + 1


def test_kill_before_batch_start_resumes_as_fresh_run(tmp_path):
    tasks = small_tasks()
    baseline = _baseline_bytes(tasks, tmp_path)
    record = run_kill_resume(
        tasks,
        str(tmp_path / "kill-1.journal"),
        boundary=1,  # the batch-start record itself
        baseline_bytes=baseline,
        torn=True,  # tearing it leaves an empty trusted prefix
    )
    assert record.ok, record.problems
    assert record.replayed == 0


def test_completed_task_is_never_executed_twice(tmp_path):
    tasks = small_tasks()
    journal_path = str(tmp_path / "j.journal")
    plan = FaultPlan("supervisor", mode="kill-supervisor-at-nth", nth=4)
    with pytest.raises(SupervisorKilled):
        run_batch(tasks, journal_path=journal_path, config=fast_config(),
                  fault=plan)
    done_before = set(CheckpointJournal.read(journal_path).completed_tasks())
    assert done_before  # the kill landed after at least one completion
    resumed = run_batch(tasks, journal_path=journal_path, resume=True,
                        config=fast_config())
    assert resumed.ok
    for task_id in done_before:
        outcome = resumed.outcome(task_id)
        assert outcome is not None and outcome.replayed
    records = CheckpointJournal.read(journal_path).records
    resume_at = next(
        i for i, r in enumerate(records) if r["type"] == "batch-resume"
    )
    restarted = {
        r["task"] for r in records[resume_at:] if r["type"] == "task-start"
    }
    assert not (done_before & restarted)


def test_resume_refuses_a_different_batch(tmp_path):
    journal_path = str(tmp_path / "j.journal")
    run_batch(small_tasks(), journal_path=journal_path, config=fast_config())
    other = corpus_tasks(["P-CLHT"])
    with pytest.raises(SupervisorError, match="refusing to resume"):
        run_batch(other, journal_path=journal_path, resume=True,
                  config=fast_config())


def test_resume_requires_a_journal():
    with pytest.raises(SupervisorError):
        run_batch(small_tasks(), resume=True, config=fast_config())


# ---------------------------------------------------------------------------
# signals: SIGTERM drains to a resumable journal (end to end)
# ---------------------------------------------------------------------------


def _spawn_batch(journal_path, *extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "batch", "--corpus",
            "--journal", journal_path, "--mode", "subprocess", "--jobs", "1",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )


@pytest.mark.slow
def test_sigterm_mid_batch_drains_and_resumes_byte_identical(tmp_path):
    journal_path = str(tmp_path / "sig.journal")
    report_path = str(tmp_path / "resumed.json")
    baseline = _baseline_bytes(corpus_tasks(), tmp_path)

    proc = _spawn_batch(journal_path, "--report-out", report_path)
    # wait until at least one task completed, then interrupt mid-batch
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        recovered = CheckpointJournal.read(journal_path)
        if recovered.completed_tasks():
            break
        time.sleep(0.05)
    assert proc.poll() is None, f"batch finished early:\n{proc.stdout.read()}"
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 8, out  # EXIT_INTERRUPTED: drained, resumable
    records = CheckpointJournal.read(journal_path).records
    assert records[-1]["type"] == "batch-interrupted"
    assert records[-1]["signal"] in ("SIGTERM", signal.SIGTERM, 15)

    # Run the resume command exactly as the interrupted batch printed it.
    hint = re.search(r"resume with: repro (.*)", out)
    assert hint, out
    resume = subprocess.Popen(
        [sys.executable, "-m", "repro", *shlex.split(hint.group(1))],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ, PYTHONPATH=SRC),
        text=True,
    )
    out, _ = resume.communicate(timeout=300)
    assert resume.returncode == 0, out
    with open(report_path, "r", encoding="utf-8") as handle:
        assert handle.read() == baseline


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


def test_cli_batch_cases_and_report_out(tmp_path, capsys):
    from repro.cli import main

    journal_path = str(tmp_path / "j.journal")
    report_path = str(tmp_path / "report.json")
    code = main([
        "batch", "--cases", *CASES, "--journal", journal_path,
        "--mode", "inprocess", "--report-out", report_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "task(s) completed" in out
    with open(report_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert '"schema":"repro-batch-report-v1"' in text
    assert text == _baseline_bytes(small_tasks(), tmp_path)


def test_cli_batch_without_work_is_an_error(capsys):
    from repro.cli import main

    assert main(["batch"]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_cli_batch_bad_task_spec_is_an_error(capsys):
    from repro.cli import main

    assert main(["batch", "--task", "only-a-module"]) == 2
    assert "MODULE:TRACE" in capsys.readouterr().err
