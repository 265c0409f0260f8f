"""End-to-end benchmark of the repair CLI, driven from outside.

Run from the repository root::

    python3 e2ebench/run.py                  # every workload: full report
    python3 e2ebench/run.py --smoke          # one iteration each, 2-case corpus
    python3 e2ebench/run.py --workload detect-hot --seed 7 --seconds 15 --trace 0

Every timed iteration is a fresh ``python -m repro ...`` process — what
a user runs — timed from Popen to exit, with its peak RSS from
``os.wait4``.  Each workload is set up ``SETUPS`` times (inputs
generated from ``--seed`` plus one untimed warm-up iteration): once
before timing, the others spread over the timed window; the median is
``setup_s``.  Every iteration's output is checked against
``golden.json`` and against an oracle run with every fast path off.

Metric names and units, workload reasons and the default measured time
come from ``BENCHMARK.json`` at the repository root.

Without ``--trace`` the run covers all selected workloads, interleaved
round-robin so machine drift spreads evenly over them, plus a traced
iteration per workload (``trace_child.py``) for the layer breakdown.
It prints the report, writes ``results/latest.json``, and exits 1 on
any failed check or broken invariant.

With ``--trace 0|1`` it runs exactly one workload and prints, as the
last line of stdout, one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer
(``--trace 1``, after a traced iteration) metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import stats
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
#: the benchmark's contract: metric names and units, workload reasons
#: and the default measured time
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 0
#: set-ups per run; setup_s is their median
SETUPS = 3
MIN_ITERATIONS = 3
#: a CLI child still running after this long is killed and counted failed
CHILD_TIMEOUT = 120.0

#: Declared end-to-end metric -> (row of :meth:`Bench.end_to_end`,
#: statistic).  Times are the fastest timed iteration's: the speed of a
#: shared machine drifts by up to half over tens of seconds, which moves
#: a run's median far more than its minimum.
END_TO_END = {
    "wall_s.min": ("wall_s", "min"),
    "task_latency_ms.p50.min": ("task_latency_ms.p50", "min"),
    "peak_rss_mib": ("peak_rss_mib", "median"),
    "setup_s": ("setup_s", "median"),
}

#: The invariants the per-layer benches used to gate, checked on the
#: traced iteration: (metric, workloads, predicate, description).  The
#: exact counts of ``golden.json`` are checked alongside them.
INVARIANTS = (
    ("revalidate.synth_ratio", ("corpus-subprocess", "corpus-inprocess"),
     lambda v: v == 1.0, "== 1.0 (every corpus repair takes the synthesis tier)"),
    ("analysis.disk_hit_ratio", ("fix-analysis",),
     lambda v: v == 0.5, "== 0.5 (each module's second copy hits the disk cache)"),
    ("bench.coverage", None,
     lambda v: v >= 0.95, ">= 0.95 (the layers account for the traced wall)"),
)
#: The flat engine's dispatch speed-up over the reference engine on
#: detect-hot.  It is a ratio of two timings, which a busy machine can
#: push below any margin, so falling short is reported, not failed.
REFERENCE_RATIO_TARGET = 2.7

_PROGRESS = re.compile(r"^\[(start|done|quarantine)\] (\S+)")


class Workload:
    """One workload: the CLI call an iteration makes, and its checks.

    Iterations run in a fresh ``run`` directory next to the workload's
    ``inputs`` directory, so every path the CLI sees is the same
    relative path on every iteration, seed and machine.
    """

    def __init__(self, name: str, batch_mode: Optional[str] = None,
                 slots: int = 0, seeded: bool = False):
        self.name = name
        self.batch_mode = batch_mode
        self.slots = slots
        #: inputs depend on --seed (else golden.json applies at any seed)
        self.seeded = seeded

    def command(self, smoke: bool, oracle: bool = False) -> List[str]:
        """The CLI arguments of one iteration, or of the oracle run."""
        if self.name == "detect-hot":
            args = ["detect", f"{workloads.INPUTS}/hot.ir", "--entry", "work",
                    "--args", str(workloads.ROUNDS), "--trace-out", "trace.log"]
            return args + (["--engine", "reference"] if oracle else [])
        if self.name == "fix-analysis":
            args = ["batch", "--mode", "inprocess"]
            for spec in workloads.web_task_specs():
                args += ["--task", spec]
        else:
            selection = ["--cases", *workloads.SMOKE_CASES] if smoke else ["--corpus"]
            mode = "inprocess" if oracle else self.batch_mode
            args = ["batch", *selection, "--mode", mode, "--jobs", "2"]
        args += ["--journal", "journal", "--report-out", "report.json"]
        if not oracle:
            return args + ["--analysis-cache", "acache"]
        args.append("--no-analysis-cache")
        if self.name != "fix-analysis":
            args += ["--engine", "reference", "--no-incremental-revalidate",
                     "--no-machine-pool"]
        return args

    def digest(self, run_dir: str) -> str:
        """SHA-256 of the iteration's canonical output files."""
        if self.name == "detect-hot":
            paths = ["trace.log"]
        elif self.name == "fix-analysis":
            paths = ["report.json"] + [
                spec.split(":")[2] for spec in workloads.web_task_specs()
            ]
        else:
            paths = ["report.json"]
        digest = hashlib.sha256()
        for path in paths:
            try:
                with open(os.path.join(run_dir, path), "rb") as handle:
                    digest.update(handle.read())
            except OSError:
                return f"missing {path}"
        return digest.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-subprocess", batch_mode="subprocess", slots=2),
        Workload("corpus-inprocess", batch_mode="inprocess", slots=1),
        Workload("detect-hot", seeded=True),
        Workload("fix-analysis", batch_mode="inprocess", slots=1, seeded=True),
    )
}


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One finished child process."""

    def __init__(self, start: float, end: float, code: int, rss_kib: int,
                 stdout: str, stderr: List):
        self.start = start
        self.end = end
        self.wall_s = end - start
        self.code = code
        self.rss_mib = rss_kib / 1024.0
        self.stdout = stdout
        #: (arrival time, line) for every stderr line
        self.stderr = stderr
        #: SHA-256 of the canonical outputs (set by the checks)
        self.digest = ""

    def _progress(self):
        """(arrival time, event, task id) per batch progress line."""
        for arrived, line in self.stderr:
            match = _PROGRESS.match(line)
            if match:
                yield arrived, match.group(1), match.group(2)

    def task_latencies_ms(self) -> List[float]:
        """[start] -> [done] per task, from the lines' arrival times."""
        started, latencies = {}, []
        for arrived, event, task in self._progress():
            if event == "start":
                started[task] = arrived
            elif event == "done" and task in started:
                latencies.append((arrived - started.pop(task)) * 1000.0)
        return latencies

    def tasks(self) -> int:
        """Tasks this call attempted (a detect call is one task)."""
        return max(1, len({task for _, event, task in self._progress() if event == "start"}))

    def quarantined(self) -> int:
        return sum(1 for _, event, _ in self._progress() if event == "quarantine")

    def tail(self) -> str:
        return " | ".join(line for _, line in self.stderr[-3:])


def _read_lines(stream, sink) -> None:
    for line in stream:
        sink.append((time.monotonic(), line.rstrip("\n")))


def spawn(argv: List[str], cwd: str) -> Run:
    """Run one child to exit: wall time from Popen to exit, peak RSS of
    the largest process in its tree (``ru_maxrss`` of ``os.wait4``)."""
    lines: List = []
    env = child_env()
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    reader = threading.Thread(target=_read_lines, args=(proc.stderr, lines))
    reader.start()
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Run(start, end, proc.returncode, usage.ru_maxrss, stdout, lines)


# ---------------------------------------------------------------------------
# one workload's measurements
# ---------------------------------------------------------------------------


class Bench:
    """Set-up, oracle, timed iterations and traced iteration of one
    workload in its own work directory."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, work: str,
                 golden: Dict[str, Dict]):
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.setups = 1 if smoke else SETUPS
        self.inputs = os.path.join(work, workload.name, "inputs")
        self.run_dir = os.path.join(work, workload.name, "run")
        self.golden = None
        if not smoke and (seed == DEFAULT_SEED or not workload.seeded):
            self.golden = golden["sha256"].get(workload.name)
        #: exact counts of the traced iteration; the seed changes no
        #: workload's shape, so they hold at every seed
        self.counts: Dict[str, int] = {} if smoke else golden["counts"][workload.name]
        self.expected: Optional[str] = None
        self.setup_s: List[float] = []
        self.runs: List[Run] = []
        #: tasks attempted by timed and traced iterations, and how many
        #: of those failed (quarantined tasks, non-zero exits, outputs
        #: that differ from the golden or oracle output, broken invariants)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.traced: Optional[Dict] = None
        self.cycles: Optional[Dict[str, int]] = None

    # -- helpers ------------------------------------------------------------

    def _fresh_run_dir(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(os.path.join(self.run_dir, "out"))

    def _fail(self, count: int, text: str) -> None:
        self.failed += count
        self.failures.append(text)

    def _check(self, run: Run, what: str) -> None:
        """Digest one call's outputs and record its failures."""
        run.digest = self.w.digest(self.run_dir)
        if run.code != 0:
            self._fail(1, f"{what}: exit code {run.code} ({run.tail()})")
        quarantined = run.quarantined()
        if quarantined:
            self._fail(quarantined, f"{what}: {quarantined} task(s) quarantined")
        if self.expected is not None and run.digest != self.expected:
            self._fail(1, f"{what}: output {run.digest[:12]} != oracle {self.expected[:12]}")

    def _call(self, what: str, argv: List[str]) -> Run:
        self._fresh_run_dir()
        run = spawn(argv, self.run_dir)
        self._check(run, what)
        return run

    def _iterate(self, what: str, oracle: bool = False) -> Run:
        argv = [sys.executable, "-m", "repro", *self.w.command(self.smoke, oracle)]
        return self._call(what, argv)

    # -- phases -------------------------------------------------------------

    def set_up(self) -> Run:
        """One set-up: generate the inputs from the seed, then run one
        untimed warm-up iteration on them.  Returns the warm-up."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        start = time.monotonic()
        generated = spawn(
            [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), "generate",
             self.w.name, str(self.seed), self.inputs], BENCH_DIR,
        )
        if generated.code != 0:
            raise SystemExit(f"{self.w.name}: input generation failed: {generated.tail()}")
        warmup = self._iterate(f"warm-up {len(self.setup_s) + 1}")
        self.setup_s.append(time.monotonic() - start)
        return warmup

    def prepare(self) -> None:
        """The first set-up, then the oracle run whose output every
        later iteration must match."""
        warmup = self.set_up()
        oracle = self._iterate("oracle", oracle=True)
        self.expected = oracle.digest
        if self.golden is not None and oracle.digest != self.golden:
            self._fail(1, f"oracle output {oracle.digest[:12]} != golden {self.golden[:12]}")
        if warmup.digest != self.expected:
            self._fail(1, "warm-up 1: output differs from the oracle")

    def iterate(self, seconds: float) -> None:
        """One timed iteration.  The remaining set-ups fall at even points
        of the ``seconds`` window, so setup_s samples the machine over
        the same stretch of time as the timed iterations do."""
        run = self._iterate(f"iteration {len(self.runs) + 1}")
        self.runs.append(run)
        self.attempted += run.tasks()
        done = len(self.setup_s)
        if done < self.setups and self.measured_s() >= seconds * done / self.setups:
            self.set_up()

    def pending(self, seconds: float) -> bool:
        return (len(self.runs) < MIN_ITERATIONS or self.measured_s() < seconds
                or len(self.setup_s) < self.setups)

    def measured_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    def _traced_run(self, args: List[str], suffix: str = "") -> Dict:
        out = os.path.join(RESULTS, f"trace-{self.w.name}{suffix}.jsonl")
        run = self._call(f"traced{suffix}",
                         [sys.executable, os.path.join(BENCH_DIR, "trace_child.py"), out, *args])
        self.attempted += run.tasks()
        return tracing.analyze(tracing.load_child(out), run.start, run.end,
                               self.w.batch_mode, self.w.slots)

    def trace(self, probes: Dict[str, float]) -> None:
        """The traced iteration, the per-layer metrics it yields, and the
        invariants it must hold (a broken one counts as a failure)."""
        os.makedirs(RESULTS, exist_ok=True)
        traced = self._traced_run(self.w.command(self.smoke))
        metrics = traced["metrics"]
        metrics.update(probes)
        metrics["bench.tracing_overhead_ms"] = (
            traced["traced_wall_s"] - statistics.median([r.wall_s for r in self.runs])
        ) * 1000.0
        metrics["interp.reference_ratio"] = 0.0
        if self.w.name == "detect-hot":
            # One traced run's dispatch time swings with the machine by a
            # third; the best of three interleaved runs per engine holds
            # the ratio far steadier.
            dispatch = {False: [traced["dispatch_s"]], True: []}
            for reference in (True, False, True, False, True):
                again = self._traced_run(self.w.command(self.smoke, oracle=reference),
                                         "-reference" if reference else "-repeat")
                if again["metrics"]["interp.steps"] != metrics["interp.steps"]:
                    self._fail(1, "a traced run executed a different step count")
                dispatch[reference].append(again["dispatch_s"])
            metrics["interp.reference_ratio"] = min(dispatch[True]) / min(dispatch[False])
        self.traced = traced
        for text in self.violations():
            self._fail(1, f"invariant broken: {text}")

    def measure_cycles(self) -> None:
        """The untimed verification step behind repaired_cycles_ratio,
        on the outputs of the last call (the traced iteration's, which
        the checks have held to the oracle's bytes)."""
        if self.w.batch_mode is None:
            return
        args = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), "cycles",
                self.w.name, self.run_dir] + (["--smoke"] if self.smoke else [])
        done = spawn(args, BENCH_DIR)
        if done.code != 0:
            self._fail(1, f"cycles verification failed: {done.tail()}")
            return
        self.cycles = json.loads(done.stdout)

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Dict]:
        """Every end-to-end metric: median, quartiles, minimum and sample
        count over the timed iterations."""
        walls = [run.wall_s for run in self.runs]
        if self.w.batch_mode is None:
            # One task per iteration: its latency is the iteration's.
            per_run = [[wall * 1000.0] for wall in walls]
        else:
            per_run = [run.task_latencies_ms() or [0.0] for run in self.runs]
        found = {
            "wall_s": dict(stats.summarize(walls), unit="s"),
            "task_latency_ms.p50": dict(
                stats.summarize([statistics.median(ms) for ms in per_run]), unit="ms"
            ),
            "peak_rss_mib": dict(stats.summarize([r.rss_mib for r in self.runs]), unit="MiB"),
            "setup_s": dict(stats.summarize(self.setup_s), unit="s"),
        }
        pooled = [ms for latencies in per_run for ms in latencies]
        for name, value in stats.tail_percentiles(pooled).items():
            if name != "p50":
                found[f"task_latency_ms.{name}"] = {"median": value, "n": len(pooled), "unit": "ms"}
        found["fail_rate"] = {
            "median": self.failed / max(self.attempted, 1),
            "n": self.attempted, "unit": "ratio",
        }
        report = os.path.join(self.run_dir, "report.json")
        if self.w.batch_mode is not None and os.path.isfile(report):
            with open(report) as handle:
                totals = json.load(handle)["totals"]
            found["code_growth_insts"] = {
                "median": totals["inserted_instructions"], "n": 1, "unit": "count"
            }
        if self.cycles and self.cycles["original"]:
            found["repaired_cycles_ratio"] = {
                "median": self.cycles["repaired"] / self.cycles["original"],
                "n": 1, "unit": "ratio",
            }
        return found

    def violations(self) -> List[str]:
        """Invariants the traced iteration breaks."""
        metrics = self.traced["metrics"]
        violated = []
        for metric, names, holds, text in INVARIANTS:
            if names is not None and self.w.name not in names:
                continue
            if not holds(metrics[metric]):
                violated.append(f"{metric} = {metrics[metric]:.4g}, expected {text}")
        for metric, want in self.counts.items():
            if metrics[metric] != want:
                violated.append(f"{metric} = {metrics[metric]}, expected exactly {want}")
        return violated

    def advisories(self) -> List[str]:
        """Timed targets the traced iteration misses."""
        ratio = self.traced["metrics"]["interp.reference_ratio"]
        if self.w.name == "detect-hot" and ratio < REFERENCE_RATIO_TARGET:
            return [f"interp.reference_ratio = {ratio:.3g}, below the "
                    f"{REFERENCE_RATIO_TARGET} target (a timing: reported, not failed)"]
        return []


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def probe_imports() -> Dict[str, float]:
    """Fresh-process import costs: ``import X`` minus ``pass``, medians
    of three interleaved runs each."""
    codes = {
        "pass": "pass",
        "cli.import_ms": "import repro.cli",
        "supervisor.worker_import_ms": "import repro.supervisor.worker, repro.supervisor.tasks",
    }
    walls: Dict[str, List[float]] = {name: [] for name in codes}
    for _ in range(3):
        for name, code in codes.items():
            walls[name].append(spawn([sys.executable, "-c", code], BENCH_DIR).wall_s)
    base = statistics.median(walls.pop("pass"))
    return {name: (statistics.median(w) - base) * 1000.0 for name, w in walls.items()}


def load_contract() -> Dict:
    with open(CONTRACT) as handle:
        return json.load(handle)


def why(declared: Dict, workload: Workload) -> str:
    return next(w["why"] for w in declared["workloads"] if w["name"] == workload.name)


def format_bench(bench: Bench, declared: Dict) -> str:
    golden = "no golden output at this seed" if bench.golden is None else "golden checked"
    lines = [f"== {bench.w.name} (seed {bench.seed}, {len(bench.runs)} timed iterations) ==",
             f"   why: {why(declared, bench.w)}",
             f"   output sha256 {bench.expected} ({golden})",
             f"   {'end-to-end':<28}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'n':>6}  unit"]
    for name, value in bench.end_to_end().items():
        spread = "".join(
            f"{value[key]:12.4f}" if key in value else f"{'':>12}" for key in ("q1", "q3", "min")
        )
        lines.append(f"   {name:<28}{value['median']:12.4f}{spread}{value['n']:6d}  {value['unit']}")
    if bench.traced:
        metrics = bench.traced["metrics"]
        lines.append("   per-layer (traced iteration)")
        for metric in declared["per_layer"]:
            lines.append(f"   {metric['name']:<34}{metrics[metric['name']]:16.4f}  {metric['unit']}")
        for name, want in bench.counts.items():
            lines.append(f"   {name:<34}{metrics[name]:16}  count (must be {want})")
        total = bench.traced["total_ms"]
        basis = "slot time" if bench.w.slots > 1 else "wall"
        lines.append(f"   partition of {total:.1f} ms traced {basis}")
        parts = sorted(bench.traced["parts_ms"].items(), key=lambda item: -item[1])
        for name, value in parts:
            lines.append(f"   {name:<34}{value:12.2f} ms {100.0 * value / total:6.2f}%")
        for text in bench.advisories():
            lines.append(f"   BELOW TARGET: {text}")
    for failure in bench.failures:
        lines.append(f"   FAILED: {failure}")
    return "\n".join(lines)


def result_line(bench: Bench, declared: Dict, trace: bool) -> Dict:
    """The one-line result of a ``--trace 0|1`` run."""
    if trace:
        values = bench.traced["metrics"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer"]
        }
    else:
        found = bench.end_to_end()
        metrics = {}
        for m in declared["end_to_end"]:
            row, statistic = END_TO_END[m["name"]]
            metrics[m["name"]] = {"value": found[row][statistic], "unit": m["unit"]}
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    declared = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="measured time per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload and print its end-to-end (0) or "
                        "per-layer (1) metrics as one JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one iteration per workload, "
                        "2-case corpus")
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    if ns.trace is not None and ns.workload is None:
        parser.error("--trace needs --workload")
    names = [ns.workload] if ns.workload else list(WORKLOADS)
    with open(GOLDEN) as handle:
        golden = json.load(handle)

    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        benches = [Bench(WORKLOADS[name], ns.seed, ns.smoke, work, golden) for name in names]
        for bench in benches:
            print(f"[setup] {bench.w.name}", file=sys.stderr)
            bench.prepare()
        # Round-robin, so drift of a shared machine lands on every workload.
        pending = list(benches)
        while pending:
            for bench in pending:
                bench.iterate(ns.seconds)
            pending = [] if ns.smoke else [b for b in benches if b.pending(ns.seconds)]
        if ns.trace is not None:
            bench = benches[0]
            if ns.trace:
                bench.trace(probe_imports())
            print(format_bench(bench, declared), file=sys.stderr)
            print(json.dumps(result_line(bench, declared, bool(ns.trace))))
            return 0

        probes = probe_imports()
        for bench in benches:
            print(f"[trace] {bench.w.name}", file=sys.stderr)
            bench.trace(probes)
            bench.measure_cycles()
        document = {"seed": ns.seed, "smoke": ns.smoke, "seconds": ns.seconds, "workloads": {}}
        for bench in benches:
            print(format_bench(bench, declared))
            document["workloads"][bench.w.name] = {
                "why": why(declared, bench.w),
                "end_to_end": bench.end_to_end(),
                "per_layer": bench.traced["metrics"],
                "partition_ms": bench.traced["parts_ms"],
                "partition_total_ms": bench.traced["total_ms"],
                "failures": bench.failures,
                "below_target": bench.advisories(),
            }
        latest = os.path.join(RESULTS, "latest.json")
        with open(latest, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"results written to {latest}")
        return 1 if any(bench.failures for bench in benches) else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
