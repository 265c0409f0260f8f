"""The batch-repair supervisor: process supervision over the pipeline.

PR 1 made a single repair resilient *inside* the process (quarantine,
transactions, budgets).  This layer assumes the process itself is the
failure domain — a worker can hang in the Andersen fixpoint, die
silently, or be OOM-killed — and keeps the *batch* correct anyway:

- **one worker process per batch slot**, forked from the
  already-imported supervisor (:func:`~repro.supervisor.worker.fork_worker`)
  when the slot gets its first task, and handed each later task as one
  line on its task pipe; only a clean ``RESULT`` keeps a worker for the
  next task — after any failure it is killed, reaped and replaced, so
  no task runs in a process that has seen one.  Workers heartbeat, so
  silent death is detected by silence as well as by end of file;
- an **event-driven loop**: the supervisor blocks on its workers' pipes
  (:mod:`selectors`) until a line arrives, a pipe reaches end of file,
  or the next watchdog, backoff or drain deadline falls due — it never
  polls;
- a **watchdog** that SIGKILLs a worker whose heartbeats stop or whose
  task exceeds its wall-time budget, and requeues the task;
- **bounded retries** with exponential backoff and deterministic
  jitter (seeded from the task id + attempt, so schedules are
  reproducible) for attempts that ended without a verdict (a dead or
  hung worker, a garbled line) or in a ``MemoryError``, then **task
  quarantine** — one pathological task never stalls or starves the
  rest of the batch.  A task that raised anything else is quarantined
  at once: running it again would raise again;
- **write-ahead journaling** of every transition through
  :class:`~repro.supervisor.journal.CheckpointJournal` — a hard kill of
  the *supervisor* at any checkpoint boundary is recoverable with
  ``resume=True``, which replays completed tasks from the journal and
  produces a byte-identical aggregate report;
- clean **SIGINT/SIGTERM draining**: stop dispatching, let in-flight
  tasks finish (bounded by a grace period), journal the interruption,
  and return a report that a later ``resume`` completes;
- **graceful degradation**: when the platform cannot fork (or
  ``mode="inprocess"``), tasks run serially in-process under the same
  journal, the same retry/quarantine ladder, and a thread-based
  watchdog — identical semantics, smaller failure domain.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import selectors
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.observability import NULL_OBS, Observability
from .journal import CheckpointJournal, RecoveredJournal
from .report import DONE, QUARANTINED, BatchReport, TaskOutcome
from .tasks import RepairTask, load_task_kinds, run_attempt
from .worker import fork_worker

#: execution modes
MODES = ("auto", "subprocess", "inprocess")


class SupervisorError(ReproError):
    """The supervisor was misconfigured or its journal is inconsistent."""


class SupervisorKilled(BaseException):
    """Simulated SIGKILL of the supervisor (fault injection only).

    A :class:`BaseException` so no ``except Exception`` in the dispatch
    loop can swallow it — like the real signal, nothing gets to clean
    up, finalize the journal, or write a report.
    """


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunable supervision policy (all times in seconds)."""

    mode: str = "auto"
    jobs: int = 2
    #: watchdog: max wall time for one task attempt
    task_timeout: float = 60.0
    #: watchdog: max silence between worker heartbeats
    heartbeat_timeout: float = 5.0
    #: how often workers emit heartbeats
    heartbeat_interval: float = 0.2
    #: retries after the first attempt (attempts = max_retries + 1)
    max_retries: int = 2
    #: exponential backoff base delay (doubled per retry) + cap
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: SIGINT/SIGTERM drain: how long in-flight tasks may finish
    drain_grace: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SupervisorError(f"unknown mode {self.mode!r}; use {MODES}")
        if self.jobs < 1:
            raise SupervisorError("jobs must be >= 1")
        if self.task_timeout <= 0:
            raise SupervisorError("task_timeout must be > 0")
        if self.max_retries < 0:
            raise SupervisorError("max_retries must be >= 0")


def backoff_delay(config: SupervisorConfig, task_id: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter is seeded from (task id, attempt) via CRC-32, so a rerun
    of the same batch produces the same retry schedule — reproducibility
    extends to the supervisor's timing decisions.
    """
    base = min(config.backoff_cap, config.backoff_base * (2 ** (attempt - 1)))
    seed = zlib.crc32(f"{task_id}#{attempt}".encode("utf-8")) & 0xFFFFFFFF
    jitter = (seed % 1000) / 2000.0  # 0.0 .. 0.4995
    return min(config.backoff_cap, base * (1.0 + jitter))


# ---------------------------------------------------------------------------
# worker handles (the in-flight task attempts)
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Common view the dispatch loop has of an in-flight attempt.

    A handle is waitable: :meth:`fileno` is a pipe that turns readable
    when the worker has something to say or is done, and :meth:`pump`
    consumes what arrived.
    """

    #: False for workers that cannot emit heartbeats (in-process mode);
    #: the watchdog then relies on the task timeout alone
    heartbeats = True
    _fd = -1  # the read end of the worker's pipe

    def _begin(self, task: RepairTask, attempt: int) -> None:
        """Reset the per-attempt state for a new attempt."""
        self.task = task
        self.attempt = attempt
        self.started = time.monotonic()
        self.last_heartbeat = self.started
        self.result_record: Optional[Dict[str, Any]] = None
        self.metrics_record: Optional[Dict[str, Any]] = None  # METRICS snapshot
        self.fail_info: Optional[Dict[str, Any]] = None
        #: the task itself raised (its FAIL verdict), as opposed to an
        #: attempt that ended without a verdict
        self.raised = False

    def fileno(self) -> int:
        return self._fd

    def close(self) -> None:
        """Release the pipe once the loop no longer waits on it."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def pump(self) -> None:
        raise NotImplementedError

    def finished(self) -> bool:
        raise NotImplementedError

    def settle(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        """End the attempt now and release the pipe."""
        raise NotImplementedError


class _ForkedWorker(_WorkerHandle):
    """A worker process forked from the supervisor, serving one attempt
    at a time (:meth:`start`) over its pipes (see
    :mod:`repro.supervisor.worker`).  An attempt ends at its ``RESULT``
    or ``FAIL`` line or at end of file, never waiting for an exit."""

    def __init__(self, tasks: List[RepairTask], config, inherited: List[int],
                 obs: Observability = NULL_OBS):
        self._obs = obs
        self.pid, self._fd, self._task_fd = fork_worker(
            tasks, config.heartbeat_interval, instrumented=obs.enabled,
            inherited=inherited,
        )
        self.returncode: Optional[int] = None
        self._partial = b""

    def start(self, task: RepairTask, index: int, attempt: int, fault: str) -> None:
        """Hand the worker its next attempt."""
        self._begin(task, attempt)
        #: the last non-protocol lines (stderr chatter: tracebacks)
        self.output_tail: List[str] = []
        self._eof = False
        try:
            os.write(self._task_fd, f"{index} {fault}\n".encode("ascii"))
        except OSError:
            self._eof = True  # gone while idle: a silent death

    def pump(self) -> None:
        data = os.read(self._fd, 1 << 16)
        if not data:
            # End of file: the worker has exited (or is exiting); a
            # final line without its newline still counts.
            self._eof = True
            data = b"\n" if self._partial else b""
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        for line in lines:
            self._handle_line(line.decode("utf-8", "replace"))

    def _handle_line(self, line: str) -> None:
        if line.startswith("HB "):
            self.last_heartbeat = time.monotonic()
            self._obs.event(
                "supervisor.heartbeat",
                task=self.task.task_id,
                attempt=self.attempt,
            )
        elif line.startswith("METRICS "):
            try:
                snapshot = json.loads(line[len("METRICS "):])
                if isinstance(snapshot, dict):
                    self.metrics_record = snapshot
            except ValueError:
                pass  # observability only; never fails the task
        elif line.startswith("OBS "):
            try:
                self._forward_obs(json.loads(line[len("OBS "):]))
            except ValueError:
                pass  # observability only; never fails the task
        elif line.startswith("RESULT "):
            try:
                self.result_record = json.loads(line[len("RESULT "):])
            except ValueError:
                self.fail_info = {
                    "error_type": "ProtocolError",
                    "error": "unparseable RESULT line",
                }
        elif line.startswith("FAIL "):
            try:
                self.fail_info = json.loads(line[len("FAIL "):])
                self.raised = True
            except ValueError:
                self.fail_info = {
                    "error_type": "ProtocolError",
                    "error": "unparseable FAIL line",
                }
        else:
            self.output_tail.append(line)
            del self.output_tail[:-50]

    def _forward_obs(self, record: Any) -> None:
        """Re-emit a worker's span/event record into the batch sink,
        stamped with which task attempt produced it."""
        if not isinstance(record, dict) or not self._obs.enabled:
            return
        attrs = record.setdefault("attrs", {})
        if isinstance(attrs, dict):
            attrs.setdefault("task", self.task.task_id)
            attrs.setdefault("attempt", self.attempt)
        self._obs.emit(record)

    def finished(self) -> bool:
        """The attempt has its verdict line, or the pipe reached end of
        file without one."""
        return (
            self.result_record is not None or self.fail_info is not None or self._eof
        )

    def settle(self) -> None:
        """After the kill and reap: classify an attempt that ended
        without a verdict."""
        if self.result_record is None and self.fail_info is None:
            tail = "; ".join(self.output_tail[-3:])
            self.fail_info = {
                "error_type": "WorkerDied",
                "error": (
                    f"worker exited with code {self.returncode} "
                    f"without a result"
                    + (f" (stderr: {tail})" if tail else "")
                ),
            }

    def pipes(self) -> Tuple[int, int]:
        return self._fd, self._task_fd

    def close(self) -> None:
        """Close both pipes; an idle worker then reads end of file on
        its task pipe and exits."""
        super().close()
        if self._task_fd >= 0:
            os.close(self._task_fd)
            self._task_fd = -1

    def reap(self) -> None:
        if self.returncode is None:
            _, status = os.waitpid(self.pid, 0)
            self.returncode = os.waitstatus_to_exitcode(status)

    def kill(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)
        self.reap()
        self.close()


class _InprocessWorker(_WorkerHandle):
    """Serial fallback: the task runs in a daemon thread.

    The thread stands in for the subprocess: a ``hang-worker`` fault
    hangs it (the watchdog times out and abandons it — daemon threads
    die with the interpreter), and a ``kill-worker-at-nth`` fault makes
    it finish without a verdict, which the supervisor classifies as
    silent death exactly as it would a vanished subprocess.  It writes
    one byte to its pipe when it is done, which wakes the loop.
    """

    heartbeats = False  # a thread cannot heartbeat mid-task

    def __init__(self, task: RepairTask, attempt: int, fault: str,
                 obs: Observability = NULL_OBS):
        self._begin(task, attempt)
        self._obs = obs
        self._fault = fault
        self._done = threading.Event()
        self._abandoned = threading.Event()
        self._fd, self._done_fd = os.pipe()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        try:
            if self._fault == "hang":
                self._abandoned.wait()
                return
            if self._fault == "kill":
                return
            # In-process workers share the supervisor's facade directly:
            # spans stream straight into the batch sink and metrics land
            # in the batch registry with no merge step.
            ok, payload = run_attempt(self.task, self._obs)
            if ok:
                self.result_record = payload
            else:
                self.fail_info = payload
                self.raised = True
        finally:
            self.last_heartbeat = time.monotonic()
            self._done.set()
            # The thread owns the write end: an abandoned thread may
            # outlive the loop's read end, and then the write just fails.
            try:
                os.write(self._done_fd, b"\0")
            except OSError:
                pass
            os.close(self._done_fd)

    def pump(self) -> None:
        os.read(self._fd, 1)

    def finished(self) -> bool:
        return self._done.is_set()

    def settle(self) -> None:
        if self.result_record is None and self.fail_info is None:
            self.fail_info = {
                "error_type": "WorkerDied",
                "error": "in-process worker finished without a result",
            }

    def kill(self) -> None:
        # Threads cannot be killed; the watchdog abandons this one.
        self._abandoned.set()
        self._done.set()
        self.close()


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------


class BatchSupervisor:
    """Run a batch of repair tasks under supervision (see module docs).

    :param tasks: the batch, in submission order (order is part of the
        canonical report).  They share one heuristic, which the report
        and the journal's ``batch-start`` record name; a batch whose
        tasks disagree is refused.
    :param journal_path: the write-ahead journal file; None disables
        journaling (library use — ``resume`` then requires a path).
    :param config: supervision policy.
    :param fault: optional fault plan (``hang-worker``,
        ``kill-worker-at-nth``, ``kill-supervisor-at-nth``) from
        :mod:`repro.faultinject.plans`; duck-typed — anything with
        ``mode``, ``nth`` and ``attempts`` attributes works.
    :param obs: an :class:`~repro.obs.observability.Observability`
        facade.  Lifecycle events (spawn, heartbeat, retry, kill,
        quarantine, resume) and worker metrics flow into it; the
        canonical report is byte-identical with it on or off.
    """

    def __init__(
        self,
        tasks: List[RepairTask],
        journal_path: Optional[str] = None,
        config: Optional[SupervisorConfig] = None,
        fault=None,
        obs: Optional[Observability] = None,
    ):
        seen = set()
        for task in tasks:
            if task.task_id in seen:
                raise SupervisorError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
        heuristics = sorted({task.heuristic for task in tasks})
        if len(heuristics) > 1:
            raise SupervisorError(
                f"a batch runs one heuristic; its tasks ask for {heuristics}"
            )
        #: the batch's heuristic, as its tasks name it
        self.heuristic = heuristics[0] if heuristics else "full"
        self.tasks = list(tasks)
        self.journal_path = journal_path
        self.config = config or SupervisorConfig()
        self.fault = fault
        self.obs = obs if obs is not None else NULL_OBS
        self._journal: Optional[CheckpointJournal] = None
        self._draining = False
        self._drain_signal = ""
        self._mode = self.config.mode
        self.progress = None  # optional callable(event: str, task_id: str)

    # -- fault plumbing -----------------------------------------------------

    def _checkpoint_hook(self, appended: int) -> None:
        fault = self.fault
        if fault is not None and getattr(fault, "mode", "") == "kill-supervisor-at-nth":
            if appended == fault.nth:
                raise SupervisorKilled(f"simulated SIGKILL at checkpoint {appended}")

    def _worker_fault(self, index: int, attempt: int) -> str:
        fault = self.fault
        if fault is None or getattr(fault, "nth", 0) != index:
            return ""
        affected = getattr(fault, "attempts", 1)
        if affected and attempt > affected:
            return ""
        if fault.mode == "hang-worker":
            return "hang"
        if fault.mode == "kill-worker-at-nth":
            return "kill"
        return ""

    # -- journal helpers ----------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(record)

    # -- signals ------------------------------------------------------------

    def _install_signals(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def drain(signum, frame):
            self._draining = True
            self._drain_signal = signal.Signals(signum).name

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, drain)
        return previous

    @staticmethod
    def _restore_signals(previous) -> None:
        if previous:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # -- mode resolution ----------------------------------------------------

    def _spawn(self, task: RepairTask, index: int, attempt: int,
               running: List[_WorkerHandle],
               idle: List[_ForkedWorker]) -> _WorkerHandle:
        """Start an attempt: in subprocess mode on an idle worker of the
        slot pool, or on a newly forked one when none is idle."""
        fault = self._worker_fault(index, attempt)
        self.obs.event(
            "supervisor.spawn", task=task.task_id, attempt=attempt,
            mode=self._mode,
        )
        self.obs.count("supervisor.spawns")
        started = time.monotonic()
        if self._mode == "subprocess":
            worker = idle.pop() if idle else self._fork(running)
            worker.start(task, index, attempt, fault)
        else:
            worker = _InprocessWorker(task, attempt, fault, obs=self.obs)
        self.obs.observe("supervisor.spawn_seconds", time.monotonic() - started)
        return worker

    def _fork(self, running: List[_WorkerHandle]) -> _ForkedWorker:
        # The new worker closes its copies of the running workers' pipes.
        inherited = [fd for other in running for fd in other.pipes()]
        try:
            worker = _ForkedWorker(self.tasks, self.config, inherited, obs=self.obs)
        except OSError as exc:
            raise SupervisorError(f"cannot spawn worker: {exc}") from exc
        self.obs.count("supervisor.forks")
        return worker

    def _resolve_mode(self) -> None:
        mode = self.config.mode
        if mode == "auto":
            # Graceful degradation: no fork, no worker processes.
            mode = "subprocess" if hasattr(os, "fork") else "inprocess"
        elif mode == "subprocess" and not hasattr(os, "fork"):
            raise SupervisorError("subprocess mode needs os.fork; use inprocess")
        self._mode = mode

    # -- resume -------------------------------------------------------------

    def _load_resume_state(self) -> Tuple[List[TaskOutcome], RecoveredJournal]:
        journal = self._journal
        assert journal is not None
        recovered = journal.recover()
        completed = recovered.completed_tasks()
        known = {task.task_id for task in self.tasks}
        stale = sorted(set(completed) - known)
        if stale:
            raise SupervisorError(
                f"journal {self.journal_path!r} records task(s) not in this "
                f"batch: {stale}; refusing to resume a different batch"
            )
        outcomes: List[TaskOutcome] = []
        for task in self.tasks:
            record = completed.get(task.task_id)
            if record is None:
                continue
            if record["type"] == "task-done":
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        status=DONE,
                        record=record["result"],
                        attempts=recovered.attempts(task.task_id),
                        replayed=True,
                    )
                )
            else:
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        status=QUARANTINED,
                        error=record.get("error", ""),
                        attempts=recovered.attempts(task.task_id),
                        replayed=True,
                    )
                )
        return outcomes, recovered

    # -- the run ------------------------------------------------------------

    def run(self, resume: bool = False) -> BatchReport:
        """Execute the batch; with ``resume=True``, continue a journal.

        Returns the :class:`BatchReport`.  Raises
        :class:`SupervisorError` on misuse (resume without a journal,
        journal from a different batch).  :class:`SupervisorKilled`
        (fault injection) propagates like the SIGKILL it simulates.
        """
        if resume and not self.journal_path:
            raise SupervisorError("resume requires a journal path")
        started = time.monotonic()
        self._resolve_mode()
        self.obs.event(
            "batch.start",
            tasks=len(self.tasks),
            mode=self._mode,
            resume=resume,
        )
        report = BatchReport(heuristic=self.heuristic, mode=self._mode)
        outcomes_by_id: Dict[str, TaskOutcome] = {}

        self._journal = (
            CheckpointJournal(self.journal_path, after_append=self._checkpoint_hook)
            if self.journal_path
            else None
        )
        previous_handlers = self._install_signals()
        thaw = False
        try:
            if resume and self._journal is not None:
                replayed, recovered = self._load_resume_state()
                for outcome in replayed:
                    outcomes_by_id[outcome.task_id] = outcome
                pending = [
                    task for task in self.tasks if task.task_id not in outcomes_by_id
                ]
                if not recovered.records:
                    # Killed before batch-start survived: a fresh run.
                    self._append(self._batch_start_record())
                else:
                    self._append(
                        {
                            "type": "batch-resume",
                            "replayed": sorted(outcomes_by_id),
                            "pending": [task.task_id for task in pending],
                            "torn_at": recovered.torn_at,
                        }
                    )
                    self.obs.event(
                        "supervisor.resume",
                        replayed=len(outcomes_by_id),
                        pending=len(pending),
                    )
                    self.obs.count("supervisor.replayed", len(outcomes_by_id))
            else:
                pending = list(self.tasks)
                self._append(self._batch_start_record())

            # Before the first task and the first fork: workers inherit
            # what the pending tasks run instead of compiling it.
            load_task_kinds(task.kind for task in pending)
            # What is loaded by now outlives the batch: in the permanent
            # generation, no collection in the batch, or in a worker
            # forked from it, scans it again.  A host that froze its own
            # heap keeps it as it is.
            if not gc.get_freeze_count():
                gc.freeze()
                thaw = True
            with self.obs.watch_gc():
                interrupted = self._dispatch(pending, outcomes_by_id, report)

            report.outcomes = [
                outcomes_by_id[task.task_id]
                for task in self.tasks
                if task.task_id in outcomes_by_id
            ]
            if interrupted:
                report.interrupted = True
                report.pending = [
                    task.task_id
                    for task in self.tasks
                    if task.task_id not in outcomes_by_id
                ]
                self._append(
                    {
                        "type": "batch-interrupted",
                        "signal": self._drain_signal,
                        "pending": report.pending,
                    }
                )
            else:
                self._append({"type": "batch-end", "totals": report.totals()})
            report.elapsed_seconds = time.monotonic() - started
            self.obs.event(
                "batch.end",
                interrupted=report.interrupted,
                done=sum(1 for o in report.outcomes if o.status == DONE),
                quarantined=len(report.quarantined),
            )
            return report
        finally:
            if thaw:
                gc.unfreeze()
            self._restore_signals(previous_handlers)
            if self._journal is not None:
                self._journal.close()

    def _batch_start_record(self) -> Dict[str, Any]:
        return {
            "type": "batch-start",
            "tasks": [task.task_id for task in self.tasks],
            "heuristic": self.heuristic,
            "max_retries": self.config.max_retries,
        }

    def _notify(self, event: str, task_id: str, detail: str = "") -> None:
        if self.progress is not None:
            self.progress(event, task_id, detail)

    def _dispatch(
        self,
        pending: List[RepairTask],
        outcomes_by_id: Dict[str, TaskOutcome],
        report: BatchReport,
    ) -> bool:
        """The scheduling loop; returns True if interrupted by a signal.

        Between events the loop blocks on its workers' pipes and a
        wake-up pipe that an arriving signal writes to, never longer than
        the next deadline (a retry's backoff, a watchdog budget, the
        drain grace).  However the loop ends, idle workers get end of
        file on their task pipes and are reaped; workers still running
        when it unwinds (a simulated supervisor kill, an error) are
        killed and reaped.
        """
        config = self.config
        index_of = {task.task_id: i + 1 for i, task in enumerate(self.tasks)}
        # ready queue: (not_before, submission index, attempt, task)
        queue: List[Tuple[float, int, int, RepairTask]] = []
        for task in pending:
            heapq.heappush(queue, (0.0, index_of[task.task_id], 1, task))
        running: List[_WorkerHandle] = []
        # forked workers between tasks, each after a clean RESULT
        idle: List[_ForkedWorker] = []
        jobs = config.jobs if self._mode == "subprocess" else 1
        drain_deadline: Optional[float] = None
        selector = selectors.DefaultSelector()
        # A signal (the drain) wakes the wait through this pipe, from
        # whichever thread the kernel delivered it to.
        wake_read, wake_write = os.pipe()
        os.set_blocking(wake_write, False)
        selector.register(wake_read, selectors.EVENT_READ)
        previous_wakeup = None
        if threading.current_thread() is threading.main_thread():
            previous_wakeup = signal.set_wakeup_fd(wake_write)

        def retire(worker: _WorkerHandle, reusable: bool = False) -> None:
            selector.unregister(worker)
            if reusable and isinstance(worker, _ForkedWorker):
                idle.append(worker)
            else:
                worker.kill()

        try:
            while queue or running:
                now = time.monotonic()
                if self._draining and drain_deadline is None:
                    drain_deadline = now + config.drain_grace

                # dispatch ready tasks into free slots (not while draining)
                while (
                    not self._draining
                    and len(running) < jobs
                    and queue
                    and queue[0][0] <= now
                ):
                    _, index, attempt, task = heapq.heappop(queue)
                    self._append(
                        {"type": "task-start", "task": task.task_id, "attempt": attempt}
                    )
                    self._notify("start", task.task_id, f"attempt {attempt}")
                    worker = self._spawn(task, index, attempt, running, idle)
                    selector.register(worker, selectors.EVENT_READ, worker)
                    running.append(worker)

                # wait for a worker's line or exit, a signal, or a deadline
                deadline = self._next_deadline(queue, running, jobs, drain_deadline)
                timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
                events = selector.select(timeout)
                self.obs.count("supervisor.wakeups")
                for key, _ in events:
                    if key.data is None:
                        os.read(wake_read, 512)
                    else:
                        key.data.pump()

                # settle exited workers, kill hung ones
                still_running: List[_WorkerHandle] = []
                for worker in running:
                    now = time.monotonic()
                    if worker.finished():
                        # Fail closed: only a clean RESULT keeps the
                        # process for the slot's next task.
                        retire(worker, reusable=worker.result_record is not None)
                        worker.settle()
                        if worker.result_record is not None:
                            self._record_done(worker, outcomes_by_id, report)
                        else:
                            self._record_failure(
                                worker, queue, index_of, outcomes_by_id, report
                            )
                        continue
                    hung = (
                        worker.heartbeats
                        and now - worker.last_heartbeat > config.heartbeat_timeout
                    )
                    overtime = now - worker.started > config.task_timeout
                    if hung or overtime:
                        retire(worker)
                        reason = (
                            f"watchdog: no heartbeat for {config.heartbeat_timeout}s"
                            if hung
                            else f"watchdog: task exceeded {config.task_timeout}s"
                        )
                        self.obs.event(
                            "supervisor.kill",
                            task=worker.task.task_id,
                            attempt=worker.attempt,
                            reason=reason,
                        )
                        self.obs.count("supervisor.watchdog_kills")
                        worker.fail_info = {"error_type": "WatchdogTimeout", "error": reason}
                        self._record_failure(
                            worker, queue, index_of, outcomes_by_id, report
                        )
                        continue
                    still_running.append(worker)
                running = still_running

                if self._draining:
                    if not running:
                        return True
                    if drain_deadline is not None and time.monotonic() > drain_deadline:
                        for worker in running:
                            retire(worker)
                            worker.fail_info = {
                                "error_type": "Drained",
                                "error": f"killed by {self._drain_signal or 'signal'} "
                                f"drain after {config.drain_grace}s grace",
                            }
                            self._record_failure(
                                worker, queue, index_of, outcomes_by_id, report,
                                requeue=False,
                            )
                        return True
            return self._draining
        finally:
            if previous_wakeup is not None:
                signal.set_wakeup_fd(previous_wakeup)
            leftover = [key.data for key in selector.get_map().values() if key.data]
            selector.close()
            for worker in leftover:
                worker.kill()
            # End of file on their task pipes: idle workers exit together.
            for worker in idle:
                worker.close()
            for worker in idle:
                worker.reap()
            os.close(wake_read)
            os.close(wake_write)

    def _next_deadline(self, queue, running, jobs, drain_deadline) -> Optional[float]:
        """The earliest moment the loop must act with no worker event:
        a backoff ending with a slot free, a watchdog budget, the drain
        grace.  None only when nothing is pending at all."""
        config = self.config
        deadlines = [] if drain_deadline is None else [drain_deadline]
        if queue and len(running) < jobs and not self._draining:
            deadlines.append(queue[0][0])
        for worker in running:
            deadlines.append(worker.started + config.task_timeout)
            if worker.heartbeats:
                deadlines.append(worker.last_heartbeat + config.heartbeat_timeout)
        return min(deadlines, default=None)

    def _record_done(
        self, worker: _WorkerHandle, outcomes_by_id, report: BatchReport
    ) -> None:
        # The journaled record excludes the volatile metrics payload: a
        # resumed batch replays results, not cache weather.
        if worker.metrics_record is not None:
            # Subprocess workers ship a full registry snapshot; fold it
            # into the batch registry (in-process workers wrote to it
            # directly, so they have nothing to merge).
            self.obs.merge_metrics(worker.metrics_record)
        self.obs.event(
            "supervisor.done",
            task=worker.task.task_id,
            attempt=worker.attempt,
        )
        self.obs.count("supervisor.tasks_done")
        self._append(
            {
                "type": "task-done",
                "task": worker.task.task_id,
                "attempt": worker.attempt,
                "result": worker.result_record,
            }
        )
        outcomes_by_id[worker.task.task_id] = TaskOutcome(
            task_id=worker.task.task_id,
            status=DONE,
            record=worker.result_record,
            attempts=worker.attempt,
        )
        self._notify("done", worker.task.task_id)

    def _record_failure(
        self,
        worker: _WorkerHandle,
        queue,
        index_of,
        outcomes_by_id,
        report: BatchReport,
        requeue: bool = True,
    ) -> None:
        """Requeue a failed attempt with backoff, or quarantine its task.

        Only an attempt that may go otherwise next time is retried: one
        that ended without a verdict (the worker died or hung, or its
        line was garbled) or that raised ``MemoryError``.  A task that
        raised anything else is quarantined at once.
        """
        config = self.config
        info = worker.fail_info or {"error_type": "Unknown", "error": "no verdict"}
        error = f"{info.get('error_type', 'Error')}: {info.get('error', '')}"
        task_id = worker.task.task_id
        transient = not worker.raised or info.get("error_type") == "MemoryError"
        if requeue and transient and worker.attempt <= config.max_retries:
            delay = backoff_delay(config, task_id, worker.attempt)
            self._append(
                {
                    "type": "task-failed",
                    "task": task_id,
                    "attempt": worker.attempt,
                    "error": error,
                    "retry_in": round(delay, 6),
                }
            )
            report.total_retries += 1
            self.obs.event(
                "supervisor.retry",
                task=task_id,
                attempt=worker.attempt,
                delay=round(delay, 6),
                error=error,
            )
            self.obs.count("supervisor.retries")
            self.obs.observe("supervisor.backoff_seconds", delay)
            self._notify("retry", task_id, error)
            heapq.heappush(
                queue,
                (
                    time.monotonic() + delay,
                    index_of[task_id],
                    worker.attempt + 1,
                    worker.task,
                ),
            )
            return
        self._append(
            {
                "type": "task-quarantined",
                "task": task_id,
                "attempts": worker.attempt,
                "error": error,
            }
        )
        outcomes_by_id[task_id] = TaskOutcome(
            task_id=task_id,
            status=QUARANTINED,
            error=error,
            attempts=worker.attempt,
        )
        self.obs.event(
            "supervisor.quarantine",
            task=task_id,
            attempts=worker.attempt,
            error=error,
        )
        self.obs.count("supervisor.quarantines")
        self._notify("quarantine", task_id, error)


# ---------------------------------------------------------------------------
# convenience front door
# ---------------------------------------------------------------------------


def run_batch(
    tasks: List[RepairTask],
    journal_path: Optional[str] = None,
    resume: bool = False,
    config: Optional[SupervisorConfig] = None,
    fault=None,
    progress=None,
    obs: Optional[Observability] = None,
) -> BatchReport:
    """Build a :class:`BatchSupervisor` and run it (the CLI's engine)."""
    supervisor = BatchSupervisor(
        tasks, journal_path=journal_path, config=config, fault=fault, obs=obs
    )
    supervisor.progress = progress
    return supervisor.run(resume=resume)
