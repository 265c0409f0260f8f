"""Worker processes: forked from the supervisor, one per batch slot.

A worker is forked the first time its slot gets a task and then serves
that slot's tasks one at a time until its task pipe reaches end of
file.  :func:`fork_worker` forks the supervisor itself, which has
already imported the whole pipeline, so a worker starts without paying
interpreter start-up or a ``repro`` import; reusing it spares each
later task the fork, the copy-on-write faults on the inherited heap
and the exit.  The worker inherits the heap the supervisor froze for
the batch (:meth:`~repro.supervisor.supervisor.BatchSupervisor.run`),
so its collections scan only what its tasks make.  The batch's task
list travels in the forked memory: the supervisor names a task by its
1-based submission index, one line per task on the worker's task pipe
(``<index> <fault>``), and nothing else is serialized on the way in.  The blast radius stays one task: the
supervisor returns a worker to its slot only after a clean ``RESULT``,
and kills and replaces it after anything else.

Protocol (line-oriented, over one pipe that is the worker's stdout
and stderr), per task:

- ``HB <n>`` heartbeat lines every ``heartbeat_interval`` seconds from
  a daemon thread while a task runs (so a worker stuck in a long
  Andersen fixpoint still heartbeats, while a *dead* one goes silent);
- in an instrumented batch only, interleaved ``OBS <json>`` lines —
  span/event records forwarded live to the supervisor's sink — and one
  ``METRICS <json>`` line before a ``RESULT``: the task's metrics
  snapshot (analysis-cache counters, interpreter totals, pipeline
  counts, the task's garbage collections), reported separately from
  the result precisely so it never enters the deterministic record or
  the journal;
- then exactly one terminal line:

  - ``RESULT <json>`` — the deterministic task result record, or
  - ``FAIL <json>`` — ``{"error_type", "error", "traceback"}``.

In an instrumented batch each task runs with a fresh
:class:`~repro.obs.observability.Observability`, so its lines, span ids
and snapshot are what that task alone produced; otherwise it runs with
:data:`~repro.obs.observability.NULL_OBS`, watches no garbage
collections and sends neither line.
Nothing is written between a terminal line and the next task.  Any
other line (a traceback, a warning) is stderr chatter the supervisor
keeps a tail of for its error messages.

Exit codes: 0 at end of file on the task pipe, 3 after ``FAIL``, 1 if
the worker itself broke.  The supervisor trusts the *lines*, not the
exit code.

Fault injection (for the resilience harness) rides on the task line:

- ``hang`` — heartbeat normally but never finish (a stuck fixpoint;
  the watchdog must kill us);
- ``kill`` — SIGKILL ourselves mid-task (silent death; the supervisor
  sees end of file with no verdict).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
from typing import Iterable, List, Tuple

from ..obs.observability import NULL_OBS, Observability
from .tasks import run_attempt


class _Channel:
    """The worker's end of the pipe: whole lines, one writer at a time
    (the heartbeat thread and the task share it).

    ``busy`` is set while a task runs; heartbeats are written only then,
    and the terminal line clears it under the same lock, so no line
    follows a verdict.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self.busy = threading.Event()

    def send(self, line: str, last: bool = False) -> None:
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
            if last:
                self.busy.clear()

    def heartbeat(self, line: str) -> None:
        with self._lock:
            if self.busy.is_set():
                self._stream.write(line + "\n")
                self._stream.flush()


class _ChannelSink:
    """Forward span/event records to the supervisor as ``OBS`` lines.

    The supervisor re-emits each record into its own sink with the task
    id attached.
    """

    def __init__(self, channel: _Channel) -> None:
        self._channel = channel
        self.dropped = 0
        self.emitted = 0

    def emit(self, record: dict) -> None:
        try:
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            self._channel.send(f"OBS {line}")
            self.emitted += 1
        except (OSError, ValueError, TypeError):
            self.dropped += 1


def _start_heartbeats(channel: _Channel, interval: float) -> None:
    def beat() -> None:
        n = 0
        while True:
            channel.busy.wait()
            n += 1
            channel.heartbeat(f"HB {n}")
            time.sleep(interval)

    thread = threading.Thread(target=beat, name="heartbeat", daemon=True)
    thread.start()


def run_task(task, channel: _Channel, fault: str, instrumented: bool) -> bool:
    """Run one task, speaking the protocol on ``channel``; returns
    whether it ended in ``RESULT``."""
    channel.busy.set()
    if fault == "hang":
        while True:  # pragma: no cover - killed by the watchdog
            time.sleep(0.5)
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    obs = Observability(sink=_ChannelSink(channel)) if instrumented else NULL_OBS
    with obs.watch_gc():
        ok, payload = run_attempt(task, obs)
    if not ok:
        channel.send(f"FAIL {json.dumps(payload)}", last=True)
        return False
    if instrumented:
        channel.send(f"METRICS {json.dumps(obs.metrics_snapshot(), sort_keys=True)}")
    channel.send(f"RESULT {json.dumps(payload, sort_keys=True)}", last=True)
    return True


def serve(tasks: List, requests, channel: _Channel, heartbeat_interval: float,
          instrumented: bool) -> int:
    """Run the tasks named on ``requests`` until it reaches end of file
    or a task fails; returns the worker's exit code."""
    _start_heartbeats(channel, heartbeat_interval)
    for line in iter(requests.readline, b""):
        index, _, fault = line.decode("ascii").strip().partition(" ")
        if not run_task(tasks[int(index) - 1], channel, fault, instrumented):
            return 3
    return 0


def fork_worker(tasks: List, heartbeat_interval: float,
                instrumented: bool = False,
                inherited: Iterable[int] = ()) -> Tuple[int, int, int]:
    """Fork a worker process serving ``tasks``; returns
    ``(pid, read_fd, task_fd)``.

    ``instrumented`` runs each task under its own
    :class:`~repro.obs.observability.Observability` and forwards its
    records and metrics (see the module docs).  ``read_fd`` is the read end of the worker's protocol pipe: it
    reaches end-of-file when the worker exits.  ``task_fd`` is the write
    end of its task pipe: closing it tells the worker to exit.
    ``inherited`` are the supervisor's ends of its other workers'
    pipes; the child closes them, so each worker sees end of file on
    its task pipe as soon as the supervisor closes it, or dies.  The
    caller owns the pid and both fds — it must close the fds and reap
    the pid.  The child never returns from this call: it leaves through
    ``os._exit``, so none of the supervisor's cleanup (journal, sinks,
    ``atexit``) runs twice.
    """
    read_fd, write_fd = os.pipe()
    try:
        task_read, task_fd = os.pipe()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    # Whatever the supervisor buffered must not be written a second
    # time by the child's copy of the buffer.
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass
    try:
        pid = os.fork()
    except OSError:
        for fd in (read_fd, write_fd, task_read, task_fd):
            os.close(fd)
        raise
    if pid:
        os.close(write_fd)
        os.close(task_read)
        return pid, read_fd, task_fd
    code = 1  # the worker itself broke: no verdict line
    try:
        for fd in (read_fd, task_fd, *inherited):
            os.close(fd)
        os.dup2(task_read, 0)
        os.close(task_read)
        os.dup2(write_fd, 1)
        os.dup2(write_fd, 2)
        os.close(write_fd)
        # The supervisor's drain handlers are not the worker's: a signal
        # acts on a worker as on any fresh interpreter.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)
        # sys.stdout/sys.stderr may be any object the supervisor's host
        # installed (a test runner's capture, say); the worker writes
        # to its pipe.
        stream = open(1, "w", encoding="utf-8", errors="backslashreplace",
                      closefd=False)
        sys.stdout = sys.stderr = stream
        requests = open(0, "rb", closefd=False)
        code = serve(tasks, requests, _Channel(stream), heartbeat_interval,
                     instrumented)
    except BaseException:
        # Not re-raised: unwinding would run the supervisor's frames in
        # the child.  The traceback reaches the supervisor's error tail.
        try:
            traceback.print_exc()
        except BaseException:
            pass
    finally:
        try:
            sys.stdout.flush()
        finally:
            os._exit(code)
