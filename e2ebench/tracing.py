"""Outside-in layer tracing for the end-to-end benchmark.

Two halves:

- **Recording** (runs inside ``trace_child.py``): :class:`SpanRecorder`
  wraps the public entry points of each layer (:data:`TARGETS`) in
  timing wrappers.  Each thread keeps its own span stack, so the
  in-process worker thread and the supervisor thread never nest into
  each other.  A function target is patched everywhere the program
  holds a reference to it, because ``from x import f`` binds the name
  in the importing module; a method target is patched on its class.
- **Partition** (runs in the benchmark's parent process):
  :func:`analyze` turns the recorded spans, the program's own
  ``task``/``supervisor.*`` records and the parent's Popen/exit
  timestamps into self-time *parts* that add up to the traced wall
  time (slot time for a subprocess batch), plus the per-layer metrics.

A span's self time is its duration minus the durations of its child
spans in the same thread.  Work a layer does between wrapped calls
lands in the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional


class Target(NamedTuple):
    """One timed entry point: ``attr`` is ``func`` or ``Class.method``."""

    module: str
    attr: str
    key: str
    #: result -> span attributes (counts taken where the work happens)
    attrs: Optional[Callable[[Any], Dict[str, Any]]] = None


def _steps(result) -> Dict[str, Any]:
    return {"steps": result.steps}


def _bugs(result) -> Dict[str, Any]:
    return {"bugs": len(result.bugs)}


#: Every layer's public entry points and the metric key their self time
#: feeds.  The batch entry point comes first so the child can swap in an
#: in-memory Observability before any other wrapper sees the call.
TARGETS = (
    Target("repro.supervisor.supervisor", "run_batch", "supervisor.batch"),
    Target("repro.supervisor.journal", "CheckpointJournal.append", "supervisor.journal"),
    Target("repro.supervisor.tasks", "run_case", "supervisor.run_case"),
    Target("repro.core.hippocrates", "Hippocrates.__init__", "core.init"),
    Target("repro.core.hippocrates", "Hippocrates.compute_fixes", "core.compute_fixes"),
    Target("repro.core.hippocrates", "Hippocrates.apply", "core.apply"),
    Target("repro.analysis.andersen", "PointsTo.__init__", "analysis.andersen"),
    Target("repro.analysis.callgraph", "CallGraph.__init__", "analysis.callgraph"),
    Target("repro.analysis.aliasing", "classify_full_aa", "analysis.classify"),
    Target("repro.analysis.aliasing", "classify_trace_aa", "analysis.classify"),
    Target("repro.analysis.diskcache", "AnalysisDiskCache.load", "analysis.disk_load"),
    Target("repro.analysis.diskcache", "AnalysisDiskCache.store", "analysis.disk_store"),
    Target("repro.ir.parser", "parse_module", "ir.parse"),
    Target("repro.ir.printer", "format_module", "ir.print"),
    Target("repro.ir.verifier", "verify_module", "ir.verify"),
    Target("repro.ir.verifier", "verify_function", "ir.verify"),
    Target("repro.corpus.bugs", "build_pmdk_module", "ir.build"),
    Target("repro.corpus.bugs", "build_pclht", "ir.build"),
    Target("repro.corpus.bugs", "build_pmemcached", "ir.build"),
    Target("repro.trace.pmemcheck", "load_trace", "trace.load"),
    Target("repro.trace.pmemcheck", "dump_trace", "trace.dump"),
    Target("repro.interp.compile", "cached_program", "interp.compile"),
    Target("repro.interp.interpreter", "Interpreter.call", "interp.dispatch", _steps),
    Target("repro.revalidate.replay", "ReplayInterpreter.call", "interp.dispatch", _steps),
    Target("repro.memory.layout", "AddressSpace.__init__", "memory.construct"),
    Target("repro.memory.persistence", "PersistentImage.__init__", "memory.construct"),
    Target("repro.memory.pool", "MachinePool.acquire", "memory.construct"),
    Target("repro.detect.durability", "DurabilityChecker.check", "detect.check", _bugs),
    Target("repro.revalidate.engine", "IncrementalRevalidator.record", "revalidate.record"),
    Target("repro.revalidate.engine", "IncrementalRevalidator.revalidate", "revalidate.revalidate"),
    Target("repro.revalidate.synthesize", "synthesize_fixed_trace", "revalidate.synth"),
    Target("repro.revalidate.synthesize", "synthesize_structural_trace", "revalidate.synth"),
)


class SpanRecorder:
    """Collects finished spans in memory (written out when the run ends).

    Spans are timed on ``time.monotonic``, the clock of the parent's
    Popen timestamps and of the program's own span records, so all of
    them share one timeline.
    """

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, key: str, name: str,
             attrs: Optional[Callable[[Any], Dict[str, Any]]] = None) -> Callable:
        """``fn`` timed as a span named ``name`` feeding metric ``key``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            extra: Dict[str, Any] = {}
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(result)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                recorder.spans.append({
                    "type": "wrapper", "id": span_id, "parent": parent,
                    "thread": threading.get_ident(), "key": key, "name": name,
                    "start": start, "end": end, "attrs": extra,
                })

        return wrapper


def install(recorder: SpanRecorder, targets=TARGETS,
            around: Optional[Dict[str, Callable[[Callable], Callable]]] = None) -> list:
    """Install timing wrappers; returns the patch list for :func:`restore`.

    ``around`` maps a target's ``attr`` to a decorator applied beneath
    the timing wrapper (the child uses it to hand the batch an
    in-memory Observability).
    """
    patches = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            owners = [(owner, attr)]
        else:
            original = getattr(module, attr)
            package = target.module.split(".")[0]
            owners = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None
                and (mod_name == package or mod_name.startswith(package + "."))
                for name, value in list(vars(mod).items())
                if value is original
            ]
        inner = original
        if around and target.attr in around:
            inner = around[target.attr](original)
        wrapped = recorder.wrap(inner, target.key, target.attr, target.attrs)
        for owner, name in owners:
            setattr(owner, name, wrapped)
            patches.append((owner, name, original))
    return patches


def restore(patches: list) -> None:
    """Undo :func:`install` (last patch first)."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


# ---------------------------------------------------------------------------
# the partition (parent side)
# ---------------------------------------------------------------------------


def load_child(path: str) -> Dict[str, Any]:
    """Read a ``trace_child.py`` output file."""
    child: Dict[str, Any] = {"header": None, "wrappers": [], "program": []}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            kind = record.get("type")
            if kind == "header":
                child["header"] = record
            elif kind == "wrapper":
                child["wrappers"].append(record)
            else:
                child["program"].append(record)
    return child


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children are linked by ``parent`` within one id space, so nested
    wrappers of the same function each keep only their own share.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"]:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - child_time[span["id"]]
        for span in spans
    }


def _outermost(spans, key):
    """Spans of ``key`` with no ancestor of the same key (their counts
    already include the nested calls')."""
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        if span["key"] != key:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["key"] != key:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found


def _task_attempts(program: List[Dict[str, Any]]):
    """(spawn ts, task span, done ts, task id) per task attempt.

    Spawns, task spans and done events are paired per task id in time
    order; an attempt that never reported done (a failure) is dropped
    and its slot time counts as idle.
    """
    spawns, tasks, dones = defaultdict(list), defaultdict(list), defaultdict(list)
    for record in program:
        task_id = (record.get("attrs") or {}).get("task")
        if record.get("type") == "event" and record["name"] == "supervisor.spawn":
            spawns[task_id].append(record["ts"])
        elif record.get("type") == "event" and record["name"] == "supervisor.done":
            dones[task_id].append(record["ts"])
        elif record.get("type") == "span" and record["name"] == "task":
            tasks[task_id].append(record)
    attempts = []
    for task_id, spans in tasks.items():
        spans.sort(key=lambda span: span["start"])
        for spawn, span, done in zip(sorted(spawns[task_id]), spans, sorted(dones[task_id])):
            attempts.append((spawn, span, done, task_id))
    return attempts


def _worker_parts(program, task_id, parts) -> None:
    """Add one subprocess task's forwarded program spans to ``parts``
    as ``worker.<span name>`` self times.

    Each worker process numbers its spans from 1, so spans are grouped
    by the task id the supervisor stamped on them before linking.
    """
    spans = [
        {"id": r["span_id"], "parent": r["parent_id"], "start": r["start"],
         "end": r["end"], "name": r["name"]}
        for r in program
        if r.get("type") == "span" and (r.get("attrs") or {}).get("task") == task_id
    ]
    own = self_times(spans)
    for span in spans:
        parts["worker." + span["name"]] += own[span["id"]]


def analyze(child: Dict[str, Any], popen_ts: float, exit_ts: float,
            batch_mode: Optional[str] = None, slots: int = 0) -> Dict[str, Any]:
    """Partition one traced iteration and derive its per-layer metrics.

    :param child: the traced child's output: ``header``, ``wrappers``
        (recorded spans) and ``program`` (the program's own span/event
        records, batch runs only).
    :param batch_mode: ``"subprocess"``, ``"inprocess"`` or None (no
        batch).  A batch's interval is partitioned as slot time
        (``slots`` x batch wall) into worker start, task, delivery and
        idle; the task part is split by the wrapper spans of the
        in-process worker thread, or by a subprocess worker's forwarded
        program spans.
    """
    header = child["header"]
    wrappers = child["wrappers"]
    program = child.get("program", [])
    main = header["main_thread"]
    own = self_times(wrappers)
    by_id = {span["id"]: span for span in wrappers}
    parts: Dict[str, float] = defaultdict(float)
    parts["cli.startup"] = header["entry"] - popen_ts
    parts["cli.import"] = header["imported"] - header["entry"]
    parts["cli.exit"] = exit_ts - header["written"]

    batch = next((s for s in wrappers if s["key"] == "supervisor.batch"), None)

    def under_batch(span) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent is batch:
                return True
            parent = by_id.get(parent["parent"])
        return False

    for span in wrappers:
        if span["thread"] == main and span is not batch and not under_batch(span):
            parts[span["key"]] += own[span["id"]]

    total = exit_ts - popen_ts
    starts, delivers = [], []
    if batch is not None and batch_mode is not None:
        batch_wall = batch["end"] - batch["start"]
        total += (slots - 1) * batch_wall
        residency = 0.0
        workers = [s for s in wrappers if s["thread"] != main]
        for spawn, task, done, task_id in _task_attempts(program):
            starts.append(task["start"] - spawn)
            delivers.append(done - task["end"])
            residency += done - spawn
            if batch_mode == "subprocess":
                # Layers inside a worker process are out of the wrappers'
                # reach; its forwarded spans give the coarser split.
                _worker_parts(program, task_id, parts)
                continue
            inside = [
                s for s in workers
                if task["start"] <= s["start"] and s["end"] <= task["end"]
            ]
            roots = [s for s in inside if s["parent"] == 0]
            parts["worker.task"] += (task["end"] - task["start"]) - sum(
                s["end"] - s["start"] for s in roots
            )
            for span in inside:
                parts[span["key"]] += own[span["id"]]
        parts["supervisor.worker_start"] = sum(starts)
        parts["supervisor.deliver"] = sum(delivers)
        parts["supervisor.idle"] = slots * batch_wall - residency

    layer: Dict[str, float] = defaultdict(float)
    for span in wrappers:
        layer[span["key"]] += own[span["id"]]
    counters = header.get("counters", {})

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    steps = sum(s["attrs"].get("steps", 0) for s in _outermost(wrappers, "interp.dispatch"))
    constructions = [s for s in wrappers if s["name"] == "AddressSpace.__init__"]
    fresh = {s["parent"] for s in constructions}
    acquires = [s for s in wrappers if s["name"] == "MachinePool.acquire"]
    disk_hits = counters.get("analysis.disk_hits", 0)
    attributed = sum(parts.values())
    # Every target's self time is a metric, except the batch (partitioned
    # as slot time above) and run_case (task glue, in the partition only).
    metrics = {
        f"{key}_ms": layer[key] * 1000.0
        for key in {target.key for target in TARGETS} - {"supervisor.batch", "supervisor.run_case"}
    }
    metrics.update({
        "cli.startup_ms": parts["cli.startup"] * 1000.0,
        "supervisor.worker_start_ms.p50": statistics.median(starts or [0.0]) * 1000.0,
        "supervisor.deliver_ms.p50": statistics.median(delivers or [0.0]) * 1000.0,
        "supervisor.idle_ms": parts.get("supervisor.idle", 0.0) * 1000.0,
        "supervisor.journal_appends": sum(
            1 for s in wrappers if s["key"] == "supervisor.journal"
        ),
        "analysis.disk_hit_ratio": ratio(
            disk_hits, disk_hits + counters.get("analysis.disk_misses", 0)
        ),
        "interp.steps": steps,
        "interp.steps_per_s": ratio(steps, layer["interp.dispatch"]),
        "memory.constructions": len(constructions),
        "memory.pool_reuse_ratio": ratio(
            sum(1 for s in acquires if s["id"] not in fresh), len(acquires)
        ),
        "detect.bugs": sum(
            s["attrs"].get("bugs", 0) for s in _outermost(wrappers, "detect.check")
        ),
        "revalidate.synth_ratio": ratio(
            counters.get("revalidate.synth_hits", 0),
            counters.get("revalidate.records", 0),
        ),
        "bench.coverage": ratio(attributed, total),
        "bench.unattributed_ms": (total - attributed) * 1000.0,
    })
    return {
        "parts_ms": {k: v * 1000.0 for k, v in sorted(parts.items())},
        "total_ms": total * 1000.0,
        "traced_wall_s": exit_ts - popen_ts,
        "dispatch_s": layer["interp.dispatch"],
        "metrics": metrics,
    }
