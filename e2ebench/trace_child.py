"""The traced iteration: one CLI call in-process, with layer wrappers.

    python trace_child.py OUT.jsonl CLI-ARGS...

Runs ``repro.cli.main(CLI-ARGS)`` — the same function ``python -m
repro`` runs — with :data:`tracing.TARGETS` wrapped.  A batch gets an
in-memory ``Observability`` so the program's own ``task`` spans,
``supervisor.spawn``/``supervisor.done`` events and the counters that
subprocess workers forward are captured without a file sink.  Spans
stay in memory and are written to OUT.jsonl when the run ends; the
exit code is the CLI's.
"""

import time

ENTRY = time.monotonic()  # first statement: the end of interpreter start-up

import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import repro.cli
    from repro.obs import Observability

    import tracing

    for target in tracing.TARGETS:
        __import__(target.module)
    imported = time.monotonic()

    program_obs = Observability()

    def with_program_obs(run_batch):
        def run(*args, **kwargs):
            obs = kwargs.get("obs")
            if obs is None or not obs.enabled:
                kwargs["obs"] = program_obs
            return run_batch(*args, **kwargs)

        return run

    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder, around={"run_batch": with_program_obs})
    try:
        code = recorder.wrap(repro.cli.main, "cli.main", "cli.main")(cli_args)
    finally:
        tracing.restore(patches)

    header = {
        "type": "header",
        "entry": ENTRY,
        "imported": imported,
        "main_thread": threading.get_ident(),
        "counters": program_obs.metrics_snapshot().get("counters", {}),
    }
    with open(out_path, "w") as handle:
        for record in [*recorder.spans, *program_obs.tracer.records]:
            handle.write(json.dumps(record) + "\n")
        # What follows is interpreter shutdown, which the CLI pays too.
        header["written"] = time.monotonic()
        handle.write(json.dumps(header) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
