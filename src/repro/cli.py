"""Command-line front-end: the build-server workflow, file to file.

Mirrors how the original tool is driven (WLLVM bitcode in, pmemcheck
log in, fixed bitcode out), but over this package's textual formats::

    python -m repro run    app.ir --entry main --args 1 2
    python -m repro detect app.ir --entry main --trace-out app.trace
    python -m repro fix    app.ir --trace app.trace -o app.fixed.ir
    python -m repro batch  --corpus --journal batch.journal
    python -m repro batch  --corpus --journal batch.journal --resume
    python -m repro show   app.ir

``detect`` + ``fix`` compose exactly like the paper's Fig. 2: the trace
file produced by ``detect`` is the only coupling between the two steps,
so the fix step can run on a different build of the module (bug
localization falls back to function + source line).

``batch`` runs many repairs under the crash-safe supervisor
(:mod:`repro.supervisor`): corpus cases and/or module+trace pairs go
through watchdogged worker subprocesses, every state transition is
journaled write-ahead, and after a hard kill the same command with
``--resume`` replays completed tasks from the journal and finishes the
rest — the final aggregate report is byte-identical to an
uninterrupted run.

Every file this CLI writes (fixed modules, traces, journals, reports)
is written atomically — temp file in the destination directory, fsync,
``os.replace`` — so a crash mid-write never leaves a torn file.

Exit codes distinguish failure classes so build scripts can branch:

====  =======================================================
code  meaning
====  =======================================================
0     success
1     bugs found (``detect``) / some bugs or tasks quarantined
      (``fix``, ``batch``)
2     malformed module, I/O failure, or other error
3     malformed trace (:class:`TraceError`; strict mode)
4     a bug could not be located in the IR (:class:`LocateError`)
5     a fix could not be computed/applied (:class:`FixError`)
6     the fixed module failed validation (:class:`ValidationError`)
7     a resource budget ran out (:class:`BudgetExceeded`)
8     ``batch`` drained cleanly after SIGINT/SIGTERM (resumable)
====  =======================================================
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import List, Optional

from .detect import check_trace
from .errors import (
    BudgetExceeded,
    FixError,
    LocateError,
    ReproError,
    TraceError,
    ValidationError,
)
from .fsutil import atomic_write_text
from .interp import ENGINES, make_interpreter
from .ir import format_module, parse_module, verify_module
from .trace import dump_trace

#: exception class -> process exit code, most specific first (a
#: LocateError is a FixError; a FixError is a ReproError).
EXIT_CODES = (
    (TraceError, 3),
    (LocateError, 4),
    (ValidationError, 6),
    (FixError, 5),
    (BudgetExceeded, 7),
    (ReproError, 2),
    (OSError, 2),
)

#: ``batch`` exit code after a clean SIGINT/SIGTERM drain
EXIT_INTERRUPTED = 8


def _load_module(path: str):
    with open(path) as handle:
        module = parse_module(handle.read())
    verify_module(module)
    return module


def _int_arg(text: str) -> int:
    """An ``--args`` value: an integer literal in any Python base."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _run_entry(module, entry: str, args: List[int], engine: Optional[str] = None):
    """Execute an entry point; returns the finished interpreter."""
    from .interp.intrinsics import SimulatedCrash

    interp = make_interpreter(module, engine=engine)
    try:
        result = interp.call(entry, args)
        print(f"@{entry}({', '.join(map(str, args))}) -> {result.value}")
        print(f"steps={result.steps} cycles={result.cycles}")
        if interp.output:
            print("output:", " ".join(str(v) for v in interp.output))
    except SimulatedCrash:
        print("process crashed (crash_now)")
    interp.finish()
    return interp


def cmd_run(ns: argparse.Namespace) -> int:
    module = _load_module(ns.module)
    _run_entry(module, ns.entry, ns.args, engine=ns.engine)
    return 0


def cmd_show(ns: argparse.Namespace) -> int:
    module = _load_module(ns.module)
    print(format_module(module), end="")
    return 0


def cmd_detect(ns: argparse.Namespace) -> int:
    module = _load_module(ns.module)
    interp = _run_entry(module, ns.entry, ns.args, engine=ns.engine)
    trace = interp.machine.trace
    if ns.trace_out:
        atomic_write_text(ns.trace_out, dump_trace(trace))
        print(f"trace ({len(trace)} events) written to {ns.trace_out}")
    detection = check_trace(trace)
    print(detection.summary())
    return 1 if detection.bugs else 0


def cmd_fix(ns: argparse.Namespace) -> int:
    from .core import Hippocrates

    module = _load_module(ns.module)
    with open(ns.trace) as handle:
        trace_text = handle.read()
    fixer = Hippocrates(
        module,
        trace_text,
        heuristic=ns.heuristic,
        keep_going=ns.keep_going,
        lenient=ns.lenient,
        trace_source=ns.trace,
    )
    for warning in fixer.trace_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    plan = fixer.compute_fixes()
    print(plan.describe())
    report = fixer.apply(plan)
    print(report.summary())
    for downgrade in report.downgrades:
        print(downgrade.describe(), file=sys.stderr)
    for quarantined in report.quarantined:
        print(quarantined.describe(), file=sys.stderr)
    output_path = ns.output or ns.module
    atomic_write_text(output_path, format_module(module))
    print(f"fixed module written to {output_path}")
    return 1 if report.quarantined else 0


def cmd_batch(ns: argparse.Namespace) -> int:
    """Run (or resume) a batch of repairs under the supervisor."""
    from .supervisor import (
        RepairTask,
        SupervisorConfig,
        corpus_tasks,
        run_batch,
    )

    # Shared on-disk analysis cache: defaults to a directory next to the
    # journal so resumed runs warm-start from the killed run's entries.
    cache_dir: Optional[str] = None
    if not ns.no_analysis_cache:
        cache_dir = ns.analysis_cache or f"{ns.journal}.acache"

    tasks: List[RepairTask] = []
    if ns.corpus or ns.cases:
        tasks.extend(
            corpus_tasks(
                ns.cases or None,
                heuristic=ns.heuristic,
                analysis_cache_dir=cache_dir,
                engine=ns.engine,
            )
        )
    for spec in ns.task or []:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ReproError(
                f"bad --task {spec!r}; use MODULE:TRACE[:OUTPUT]"
            )
        module_path, trace_path = parts[0], parts[1]
        output_path = parts[2] if len(parts) == 3 else None
        tasks.append(
            RepairTask(
                task_id=module_path,
                kind="file",
                module_path=module_path,
                trace_path=trace_path,
                output_path=output_path,
                heuristic=ns.heuristic,
                lenient=ns.lenient,
                analysis_cache_dir=cache_dir,
            )
        )
    if not tasks:
        raise ReproError("nothing to do: pass --corpus, --cases, or --task")

    config = SupervisorConfig(
        mode=ns.mode,
        jobs=ns.jobs,
        task_timeout=ns.task_timeout,
        max_retries=ns.retries,
    )

    def progress(event: str, task_id: str, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        print(f"[{event}] {task_id}{suffix}", file=sys.stderr)

    # Observability is strictly off the canonical path: with or without
    # these flags the batch report's bytes are identical.  A metrics-only
    # batch discards its span/event records instead of buffering them.
    from .obs.observability import NULL_OBS, Observability

    obs = NULL_OBS
    spans = None
    if ns.spans_out:
        from .obs.sink import JsonlSink

        spans = JsonlSink(ns.spans_out)
        obs = Observability(sink=spans)
    elif ns.metrics_out:
        from .obs.sink import DiscardSink

        obs = Observability(sink=DiscardSink())

    try:
        report = run_batch(
            tasks,
            journal_path=ns.journal,
            resume=ns.resume,
            config=config,
            progress=progress,
            obs=obs,
        )
        if ns.metrics_out:
            obs.write_metrics(ns.metrics_out)
            print(f"metrics written to {ns.metrics_out}", file=sys.stderr)
    finally:
        obs.close()
        if spans is not None and spans.dropped:
            print(
                f"warning: spans sink dropped {spans.dropped} record(s)",
                file=sys.stderr,
            )
    print(report.summary())
    for outcome in report.quarantined:
        print(
            f"[quarantined:task] {outcome.task_id} after "
            f"{outcome.attempts} attempt(s): {outcome.error}",
            file=sys.stderr,
        )
    if ns.report_out:
        atomic_write_text(ns.report_out, report.canonical_json())
        print(f"canonical report written to {ns.report_out}")
    if report.interrupted:
        # The same command again: a resume needs the batch's own tasks.
        again = ns.argv if ns.resume else [*ns.argv, "--resume"]
        print(
            f"interrupted; resume with: repro {shlex.join(again)}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 1 if report.quarantined else 0


def build_parser() -> argparse.ArgumentParser:
    # No option parses by an abbreviation: a renamed or deleted option
    # must not keep parsing as the prefix of one that survives.
    parser = argparse.ArgumentParser(
        prog="repro",
        allow_abbrev=False,
        description="Hippocrates (ASPLOS 2021 reproduction): detect and "
        "repair persistent-memory durability bugs in textual IR modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flag(command) -> None:
        command.add_argument(
            "--engine",
            choices=ENGINES,
            default=None,
            help="execution engine: 'flat' (register-compiled, the "
            "default) or 'reference' (tree-walking oracle); observable "
            "behaviour is byte-identical",
        )

    run = sub.add_parser(
        "run", allow_abbrev=False, help="execute an entry point"
    )
    run.add_argument("module")
    run.add_argument("--entry", default="main")
    run.add_argument("--args", nargs="*", type=_int_arg, default=[])
    add_engine_flag(run)
    run.set_defaults(fn=cmd_run)

    show = sub.add_parser(
        "show", allow_abbrev=False, help="print a module's textual IR"
    )
    show.add_argument("module")
    show.set_defaults(fn=cmd_show)

    detect = sub.add_parser(
        "detect",
        allow_abbrev=False,
        help="run under the PM bug finder (exit 1 if bugs found)",
    )
    detect.add_argument("module")
    detect.add_argument("--entry", default="main")
    detect.add_argument("--args", nargs="*", type=_int_arg, default=[])
    detect.add_argument("--trace-out", help="write the pmemcheck-style log here")
    add_engine_flag(detect)
    detect.set_defaults(fn=cmd_detect)

    fix = sub.add_parser(
        "fix", allow_abbrev=False, help="repair a module from a trace file"
    )
    fix.add_argument("module")
    fix.add_argument("--trace", required=True, help="pmemcheck-style log file")
    fix.add_argument("-o", "--output", help="output path (default: in place)")
    fix.add_argument(
        "--heuristic",
        choices=("full", "off"),
        default="full",
        help="hoisting heuristic (Trace-AA needs the live machine and is "
        "unavailable file-to-file)",
    )
    fix.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed trace lines (warn on stderr) instead of "
        "failing with exit code 3",
    )
    fix.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine bugs whose fix fails (summary on stderr, exit "
        "code 1) instead of aborting on the first error",
    )
    fix.set_defaults(fn=cmd_fix)

    batch = sub.add_parser(
        "batch",
        allow_abbrev=False,
        help="run many repairs under the crash-safe supervisor "
        "(journaled; resumable after a hard kill)",
    )
    batch.add_argument(
        "--corpus",
        action="store_true",
        help="repair the whole 23-bug reproduction corpus",
    )
    batch.add_argument(
        "--cases",
        nargs="*",
        help="corpus case ids to repair (implies --corpus for those cases)",
    )
    batch.add_argument(
        "--task",
        action="append",
        metavar="MODULE:TRACE[:OUTPUT]",
        help="repair one module from one trace file (repeatable); the "
        "fixed module is written atomically to OUTPUT (default: in place)",
    )
    batch.add_argument(
        "--journal",
        default="batch.journal",
        help="write-ahead checkpoint journal path (default: %(default)s)",
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help="replay completed tasks from the journal and run the rest; "
        "the final report is byte-identical to an uninterrupted run",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="concurrent worker subprocesses (default: %(default)s)",
    )
    batch.add_argument(
        "--mode",
        choices=("auto", "subprocess", "inprocess"),
        default="auto",
        help="worker execution mode: subprocess forks one worker process "
        "per --jobs slot and reuses it until a task fails; auto degrades "
        "to in-process serial execution where the platform cannot fork "
        "(default: %(default)s)",
    )
    batch.add_argument(
        "--task-timeout",
        type=float,
        default=60.0,
        help="per-task wall-time budget in seconds before the watchdog "
        "kills the worker (default: %(default)s)",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries (with backoff) of an attempt that ended without a "
        "verdict (dead or hung worker) or in MemoryError, before the task "
        "is quarantined; a task that raised anything else is quarantined "
        "at once (default: %(default)s)",
    )
    batch.add_argument(
        "--heuristic",
        choices=("full", "off"),
        default="full",
        help="hoisting heuristic for every task",
    )
    batch.add_argument(
        "--lenient",
        action="store_true",
        help="parse --task trace files leniently",
    )
    batch.add_argument(
        "--report-out",
        help="write the canonical aggregate report (JSON) here atomically",
    )
    batch.add_argument(
        "--analysis-cache",
        metavar="DIR",
        help="content-addressed on-disk analysis cache shared by all "
        "workers (default: <journal>.acache); entries are keyed by "
        "module fingerprint, so reuse never changes repair output",
    )
    batch.add_argument(
        "--no-analysis-cache",
        action="store_true",
        help="disable the shared analysis cache (every task re-solves "
        "its own whole-program analyses)",
    )
    batch.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the batch metrics snapshot (counters/gauges/"
        "histograms, JSON) here atomically; never affects the "
        "canonical report",
    )
    batch.add_argument(
        "--spans-out",
        metavar="FILE",
        help="append span/event records (JSONL, fsync'd) here as the "
        "batch runs; never affects the canonical report",
    )
    batch.add_argument(
        "--engine",
        choices=ENGINES,
        default="flat",
        help="'flat' (the default) runs the fast pipeline: flat engine, "
        "incremental revalidation; 'reference' runs the oracle: "
        "tree-walking engine, full re-run revalidation.  Reports are "
        "byte-identical either way",
    )
    # Older spellings of `--engine reference`, still accepted.
    for alias in ("--no-incremental-revalidate", "--no-machine-pool"):
        batch.add_argument(
            alias,
            dest="engine",
            action="store_const",
            const="reference",
            help=argparse.SUPPRESS,
        )
    batch.set_defaults(fn=cmd_batch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser().parse_args(argv)
    ns.argv = argv
    try:
        return ns.fn(ns)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 2  # pragma: no cover - EXIT_CODES is exhaustive here


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
