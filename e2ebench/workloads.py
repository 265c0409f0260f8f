"""Seeded input generators for the end-to-end benchmark, run as a child.

Usage (from ``run.py``, with ``<repo>/src`` on ``PYTHONPATH``)::

    python workloads.py generate WORKLOAD SEED DIR
    python workloads.py cycles WORKLOAD DIR [--smoke]

``generate`` writes a workload's input files into DIR.  ``cycles``
is the untimed verification step behind ``repaired_cycles_ratio``: it
runs every repaired module and its original on the module's own driver
and prints the summed simulated cycles as JSON (``--smoke``: the
corpus subset the smoke run repairs).

The builders are self-contained ports of the synthetic modules the
per-layer bench modules used (the E14 hot loop and the analysis-cache
pointer web).  The seed changes only constants, never the number of
functions, instructions or executed steps, so every seed costs the
same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

#: Hot-loop shape: ROUNDS outer iterations, each one PM store + flush +
#: fence into a CELLS-slot pool, then INNER iterations of pure compute
#: (about 1.77M interpreted steps at ROUNDS=400).
ROUNDS = 400
CELLS = 64
INNER = 400

#: Pointer-web shape: WEB_MODULES distinct modules, each written twice
#: (byte-identical copies), BUGS unflushed stores in the ``work`` driver,
#: and a web of WEB_FUNCTIONS helpers merging WEB_SITES allocation sites
#: down a WEB_CHAIN-long gep chain, so Andersen is each repair's largest
#: single cost.
WEB_MODULES = 3
BUGS = 4
WEB_FUNCTIONS = 10
WEB_CHAIN = 150
WEB_SITES = 24

#: corpus cases the ``--smoke`` run repairs instead of the whole corpus
SMOKE_CASES = ("PMDK-447", "PMDK-940")


def build_hot_module(seed: int):
    """The dispatch-bound detect workload (entry ``work(rounds)``)."""
    from repro.ir import I64, PTR, ModuleBuilder

    rng = random.Random(seed)
    bias = rng.randrange(1, 1 << 16)
    scale = rng.randrange(2, 64)
    offset = rng.randrange(1, 1 << 10)

    mb = ModuleBuilder("e2e_hot")
    fb = mb.function("work", [("rounds", I64)], I64)
    rounds = fb.function.args[0]
    iv = fb.alloca(8)
    acc = fb.alloca(8)
    jv = fb.alloca(8)
    pool = fb.call("pm_alloc", [CELLS * 8], type_=PTR)
    fb.store(0, iv)
    fb.store(0, acc)
    loop = fb.new_block("loop")
    body = fb.new_block("body")
    inner_hdr = fb.new_block("inner")
    inner_body = fb.new_block("inner_body")
    after = fb.new_block("after")
    done = fb.new_block("done")
    fb.jmp(loop)

    fb.position_at_end(loop)
    i = fb.load(iv)
    fb.br(fb.icmp("ult", i, rounds), body, done)

    fb.position_at_end(body)
    slot = fb.gep(pool, fb.mul(fb.binop("urem", i, CELLS), 8))
    fb.store(fb.add(i, bias), slot)
    fb.flush(slot)
    fb.fence()
    fb.store(0, jv)
    fb.jmp(inner_hdr)

    fb.position_at_end(inner_hdr)
    j = fb.load(jv)
    fb.br(fb.icmp("ult", j, INNER), inner_body, after)

    fb.position_at_end(inner_body)
    a = fb.load(acc)
    fb.store(fb.add(a, fb.add(fb.mul(j, scale), offset)), acc)
    fb.store(fb.add(j, 1), jv)
    fb.jmp(inner_hdr)

    fb.position_at_end(after)
    fb.store(fb.add(i, 1), iv)
    fb.jmp(loop)

    fb.position_at_end(done)
    fb.call("checkpoint", [], type_=I64)
    fb.ret(fb.load(acc))
    return mb.module


def build_web_module(index: int, constant: int):
    """An analysis-heavy module with ``BUGS`` real durability bugs.

    The ``work`` driver's unflushed PM stores give Hippocrates bugs to
    fix; the web of helpers is never called, but Andersen is
    whole-module, so its constraints are solved on every repair.
    """
    from repro.ir import PTR, ModuleBuilder

    mb = ModuleBuilder(f"e2e_web{index}")
    for i in range(WEB_FUNCTIONS):
        b = mb.function(f"web{i}", [("p", PTR)], PTR, source_file=f"web{i}.c")
        (p,) = b.function.args
        cond = b.icmp("eq", i + constant, i)
        merged = p
        for _ in range(WEB_SITES):
            site = b.call("pm_alloc", [8], PTR)
            merged = b.select(cond, site, merged)
        slot = b.alloca(8)
        b.store(merged, slot)
        cursor = b.load(slot, PTR)
        for _ in range(WEB_CHAIN):
            cursor = b.gep(cursor, 8)
        # Store the propagated set back through the merged pointer so
        # heap constraints keep changing until the chain converges.
        b.store(cursor, merged)
        if i + 1 < WEB_FUNCTIONS:
            linked = b.call(f"web{i + 1}", [cursor], PTR)
            cursor = b.select(cond, cursor, linked)
        b.ret(cursor)

    b = mb.function("work", [], source_file="work.c")
    b.call("pm_root", [64], PTR)
    for i in range(BUGS):
        obj = b.call("pm_alloc", [64], PTR)
        b.store(constant + i + 1, obj)  # durability bug: never flushed
    b.call("checkpoint", [])
    b.ret()
    return mb.module


def web_constants(seed: int):
    """One distinct seeded constant per pointer-web module."""
    rng = random.Random(seed)
    return rng.sample(range(1, 1 << 16), WEB_MODULES)


#: where an iteration's working directory finds the generated inputs
INPUTS = "../inputs"


def web_task_specs():
    """``MODULE:TRACE:OUTPUT`` per fix-analysis task, relative to the
    iteration's working directory (relative paths keep task ids, and so
    the report bytes, independent of where the benchmark runs)."""
    specs = []
    for index in range(WEB_MODULES):
        for copy in "ab":
            specs.append(
                f"{INPUTS}/web{index}{copy}.ir:{INPUTS}/web{index}.trace:"
                f"out/web{index}{copy}.ir"
            )
    return specs


def _repro(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def generate(workload: str, seed: int, directory: str) -> None:
    from repro.ir import format_module

    os.makedirs(directory, exist_ok=True)
    if workload == "detect-hot":
        with open(os.path.join(directory, "hot.ir"), "w") as handle:
            handle.write(format_module(build_hot_module(seed)))
    elif workload == "fix-analysis":
        for index, constant in enumerate(web_constants(seed)):
            first = os.path.join(directory, f"web{index}a.ir")
            with open(first, "w") as handle:
                handle.write(format_module(build_web_module(index, constant)))
            shutil.copyfile(first, os.path.join(directory, f"web{index}b.ir"))
            # Traces come from the CLI itself; exit 1 means "bugs found".
            done = _repro(
                ["detect", f"web{index}a.ir", "--entry", "work",
                 "--trace-out", f"web{index}.trace"],
                cwd=directory,
            )
            if done.returncode != 1:
                raise SystemExit(
                    f"detect on web{index}a.ir exited {done.returncode}: "
                    f"{done.stderr.strip()}"
                )
    # The corpus workloads are fixed traffic and need no input files.


def _cycles(module, drive) -> int:
    from repro.interp import make_interpreter

    interp = make_interpreter(module)
    drive(interp)
    interp.finish()
    return interp.costs.cycles


def measure_cycles(workload: str, directory: str, smoke: bool) -> dict:
    """Summed cycles of every repaired module and of its original.

    ``directory`` is the working directory of a finished iteration.
    Each module is repaired again in this process, and the repair must
    print to the bytes the CLI reported (the file it wrote, or the
    report's module digest), so the cycles are those of the CLI's
    output.  The written file itself is not re-parsed: each covering
    flush inserts an unnamed ``gep`` that prints as ``%``, and the
    parser rejects two of them in one function as a redefinition.
    """
    from repro.ir import format_module, parse_module

    with open(os.path.join(directory, "report.json")) as handle:
        digests = {
            task["task"]: task["result"]["module_sha256"]
            for task in json.load(handle)["tasks"]
        }
    original = repaired = 0
    if workload == "fix-analysis":
        from repro.core import Hippocrates

        def drive(interp):
            interp.call("work")

        for spec in web_task_specs():
            module_path, trace_path, _ = spec.split(":")
            with open(os.path.join(directory, module_path)) as handle:
                text = handle.read()
            with open(os.path.join(directory, trace_path)) as handle:
                trace = handle.read()
            module = parse_module(text)
            fixer = Hippocrates(module, trace)
            fixer.apply(fixer.compute_fixes())
            fixed, want = format_module(module), digests[module_path]
            if hashlib.sha256(fixed.encode("utf-8")).hexdigest() != want:
                raise SystemExit(f"{module_path}: repair differs from the CLI's")
            original += _cycles(parse_module(text), drive)
            repaired += _cycles(module, drive)
    elif workload.startswith("corpus-"):
        from repro.corpus.bugs import all_cases
        from repro.supervisor.tasks import run_case

        for case in all_cases():
            if smoke and case.case_id not in SMOKE_CASES:
                continue
            module = run_case(case).module
            fixed = hashlib.sha256(format_module(module).encode("utf-8")).hexdigest()
            if fixed != digests[case.case_id]:
                raise SystemExit(f"{case.case_id}: repair differs from the CLI's")
            original += _cycles(case.build(), case.drive)
            repaired += _cycles(module, case.drive)
    return {"original": original, "repaired": repaired}


def main(argv) -> int:
    smoke = "--smoke" in argv
    args = [arg for arg in argv if arg != "--smoke"]
    if len(args) == 4 and args[0] == "generate":
        generate(args[1], int(args[2]), args[3])
        return 0
    if len(args) == 3 and args[0] == "cycles":
        print(json.dumps(measure_cycles(args[1], args[2], smoke)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
