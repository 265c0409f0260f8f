"""Worker processes: forked from the supervisor, one per task attempt.

One worker runs one task and exits — process-per-task keeps the blast
radius of a crash, hang, or leak to a single task, and lets the
supervisor's watchdog use plain SIGKILL with no cleanup protocol.
:func:`fork_worker` forks the supervisor itself, which has already
imported the whole pipeline, so a worker starts in about a millisecond
instead of paying interpreter start-up and a full ``repro`` import.
The task travels in the forked memory; nothing is serialized on the
way in.

Protocol (line-oriented, over one pipe that is the worker's stdout
and stderr):

- ``HB <n>`` heartbeat lines every ``heartbeat_interval`` seconds from
  a daemon thread (so a worker stuck in a long Andersen fixpoint still
  heartbeats, while a *dead* one goes silent);
- with ``forward_spans``, interleaved ``OBS <json>`` lines — span/event
  records forwarded live to the supervisor's sink;
- one ``METRICS <json>`` line — the full volatile metrics snapshot
  (analysis-cache counters, interpreter totals, pipeline counts),
  reported separately from the result precisely so it never enters the
  deterministic record or the journal;
- then exactly one terminal line:

  - ``RESULT <json>`` — the deterministic task result record, or
  - ``FAIL <json>`` — ``{"error_type", "error", "traceback"}``.

Any other line (a traceback, a warning) is stderr chatter the
supervisor keeps a tail of for its error messages.

Exit codes: 0 after ``RESULT``, 3 after ``FAIL``, 1 if the worker
itself broke.  The supervisor trusts the *lines*, not the exit code — a
worker that dies after ``RESULT`` already delivered its work.

Fault injection (for the resilience harness) passes ``fault``:

- ``"hang"`` — heartbeat normally but never finish (a stuck fixpoint;
  the watchdog must kill us);
- ``"kill"`` — SIGKILL ourselves mid-task (silent death; heartbeat
  tracking must notice, not just waitpid).
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
import threading
import time
import traceback
from typing import Tuple


class _Channel:
    """The worker's end of the pipe: whole lines, one writer at a time
    (the heartbeat thread and the task share it)."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, line: str) -> None:
        with self._lock:
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
            n += 1
            channel.send(f"HB {n}")
            time.sleep(interval)

    thread = threading.Thread(target=beat, name="heartbeat", daemon=True)
    thread.start()


def run_worker(task, channel: _Channel, heartbeat_interval: float,
               fault: str = "", forward_spans: bool = False) -> int:
    """Run one task, speaking the protocol on ``channel``; returns the
    worker's exit code."""
    from ..obs.observability import Observability
    from .tasks import execute_task

    _start_heartbeats(channel, heartbeat_interval)
    if fault == "hang":
        while True:  # pragma: no cover - killed by the watchdog
            time.sleep(0.5)
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    # The worker always runs instrumented: the supervisor derives the
    # batch's analysis stats from the metrics snapshot.  Span
    # *forwarding* costs a line per record, so it stays opt-in.
    obs = Observability(sink=_ChannelSink(channel) if forward_spans else None)
    try:
        result = execute_task(task, obs=obs)
    except Exception as exc:
        payload = {
            "error_type": type(exc).__name__,
            "error": str(exc),
            "traceback": traceback.format_exc(),
        }
        channel.send(f"FAIL {json.dumps(payload)}")
        return 3
    channel.send(f"METRICS {json.dumps(obs.metrics_snapshot(), sort_keys=True)}")
    channel.send(f"RESULT {json.dumps(result.record, sort_keys=True)}")
    return 0


def fork_worker(task, heartbeat_interval: float, fault: str = "",
                forward_spans: bool = False) -> Tuple[int, int]:
    """Fork a worker process for ``task``; returns ``(pid, fd)``.

    ``fd`` is the read end of the worker's protocol pipe: it reaches
    end-of-file when the worker exits.  The caller owns both — it must
    close ``fd`` and reap ``pid``.  The child never returns from this
    call: it runs the task and leaves through ``os._exit``, so none of
    the supervisor's cleanup (journal, sinks, ``atexit``) runs twice.
    """
    read_fd, write_fd = os.pipe()
    # Whatever the supervisor buffered must not be written a second
    # time by the child's copy of the buffer.
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass
    # The supervisor's heap goes to the permanent generation across the
    # fork, so the worker's collections scan only what its task makes.
    gc.freeze()
    try:
        pid = os.fork()
    except OSError:
        gc.unfreeze()
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        gc.unfreeze()
        os.close(write_fd)
        return pid, read_fd
    code = 1  # the worker itself broke: no verdict line
    try:
        os.close(read_fd)
        devnull = os.open(os.devnull, os.O_RDONLY)
        os.dup2(devnull, 0)
        os.close(devnull)
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
        code = run_worker(task, _Channel(stream), heartbeat_interval,
                          fault, forward_spans)
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
