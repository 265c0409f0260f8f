"""Translated loops: when a loop is translated, which code object it
shares, and how a fault or fuel cut inside translated code is settled.

The flat engine translates a cycle of hot runs into one Python function
(:mod:`repro.interp.translate`) once every run on it has been entered
``_TRANSLATE_AFTER`` times; a run on no hot cycle is never translated.
A fault raised inside the translated function is located from the
traceback's line number; the engine must then settle steps, cycles,
counts, the recorder's callee spans, the frame's pc and — for a loop
keeping stack slots in locals — the stack bytes exactly as the
reference engine leaves them.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.interp import Machine, cached_program, make_interpreter
from repro.interp import translate
from repro.ir import I8, I64, ModuleBuilder, PTR
from repro.ir.instructions import Flush
from repro.obs import Observability
from repro.revalidate.recording import RecordingTraceRecorder, RunRecorder

from conftest import hot_after

LOOPS = 6


def _counted_loop(b, n, body):
    """``for (c = n; ; ) { c -= 1; body(c); if (c == 0) break; }``;
    leaves ``b`` at the block after the loop."""
    counter = b.alloca(8)
    b.store(n, counter)
    loop = b.new_block("loop")
    done = b.new_block("done")
    b.jmp(loop)
    b.position_at_end(loop)
    c = b.sub(b.load(counter), 1)
    b.store(c, counter)
    body(c)
    b.br(b.icmp("ne", c, 0), loop, done)
    b.position_at_end(done)


def build_faulting_loop(kind):
    """``main(n, k)`` loops ``n`` times over a straight-line run that
    stores, flushes and fences a PM line, then faults by ``kind`` once
    the countdown ``c`` equals ``k``: mid-run, after the events and
    dynamic cycles of the store, flush and fence.  The loop body makes
    no call, so it is a hot loop the engine translates; a trap closes a
    run of its own outside the loop."""
    mb = ModuleBuilder(f"fault_{kind}")
    b = mb.function("main", [("n", I64), ("k", I64)], I64, source_file="f.c")
    n, k = b.function.args
    pm = b.call("pm_alloc", [64], PTR)
    sink = b.alloca(8)
    b.store(0, sink)
    hit = b.new_block("hit")

    def body(c):
        b.store(c, pm)
        b.flush(pm)
        b.fence()
        delta = b.sub(c, k)
        if kind in ("udiv", "urem"):
            b.store(b.binop(kind, 1000, delta), sink)
        elif kind in ("load", "store"):
            # the fault address leaves every region only when c == k
            is_hit = b.icmp("eq", delta, 0)
            bad = b.gep(pm, b.select(is_hit, 1 << 40, 0))
            if kind == "load":
                b.store(b.load(bad), sink)
            else:
                b.store(c, bad)
        else:  # trap: a separate run, entered when c == k
            b.store(b.add(c, 7), b.gep(pm, 8))
            after = b.new_block("after")
            b.br(b.icmp("eq", delta, 0), hit, after)
            b.position_at_end(after)
            b.store(c, b.gep(pm, 16))

    _counted_loop(b, n, body)
    b.call("emit", [b.load(sink)])
    b.ret(0)
    b.position_at_end(hit)
    b.store(k, b.gep(pm, 24))
    b.fence()
    b.trap()
    return mb.module


def _outcome(interp, call):
    try:
        call()
        outcome = ("ok",)
    except Exception as exc:  # noqa: BLE001 - parity is the point
        outcome = ("err", type(exc).__name__, str(exc))
    return outcome


def _fingerprint(module, engine, args, machine=None, fuel=50_000_000, vol_ops=False):
    """One run's observable results; ``vol_ops`` records under the
    revalidation recorder's volatile-op side channel."""
    recorder = RunRecorder()
    machine = machine or Machine()
    if vol_ops:
        machine.recorder = RecordingTraceRecorder()
    interp = make_interpreter(
        module, engine=engine, machine=machine, run_recorder=recorder, fuel=fuel
    )
    if vol_ops:
        machine.recorder.current_iid = interp.current_iid
    outcome = _outcome(interp, lambda: interp.call("main", args))
    return interp, {
        "outcome": outcome,
        "steps": interp.steps,
        "cycles": interp.costs.cycles,
        "counts": interp.costs.counts,
        "events": list(interp.trace.events),
        "vol_ops": list(interp.machine.recorder.vol_ops),
        "output": list(interp.output),
        "spans": list(recorder.spans),
        "spans_ok": recorder.spans_ok,
        # the frames a fault leaves, down to the faulting instruction
        "stack": interp._capture_stack(),
        # a promoted loop's slots are written back on every exit
        "stack_bytes": bytes(interp.machine.space.stack.data),
        "high_water": interp.machine.space.stack.high_water,
    }


def _ran_translated(interp, iid):
    """Whether the run holding instruction ``iid`` has its translation."""
    for lf in interp._linked.values():
        for pc, instr in enumerate(lf.insts):
            if instr.iid == iid:
                start = max(p for p in range(pc + 1) if lf.runs[p] is not None)
                return lf.runs[start][4] is not None
    raise AssertionError(f"no instruction {iid}")


@pytest.mark.parametrize("threshold", [1, 2, 5])
@pytest.mark.parametrize("kind", ["udiv", "urem", "trap", "load", "store"])
def test_fault_inside_a_translated_run_settles_like_the_reference(kind, threshold):
    """The fault comes in the fifth of six iterations, on the loop's
    ``threshold``-th entry or later, so inside the translated loop; a
    trap's run is on no cycle and settles through the dispatch chain."""
    module = build_faulting_loop(kind)
    args = [LOOPS, 1]
    _, reference = _fingerprint(module, "reference", args)
    assert reference["outcome"][0] == "err"
    with hot_after(threshold):
        interp, flat = _fingerprint(module, "flat", args)
    assert flat == reference
    assert _ran_translated(interp, interp.current_iid()) == (kind != "trap")
    if kind == "trap" and threshold < 5:  # the two-run loop got hot
        assert interp._loops_translated == 1


def test_stack_access_after_a_fence_that_drains_many_lines():
    """A fence's drained-line count must not stand in for the stack's
    written length: here it exceeds it, and the load after the fence
    reads a stack slot past the written prefix (zero).  The sequence is
    a call-free loop's body, so it runs translated; the loop's counter
    sits below the unwritten slot, keeping that slot unwritten."""
    mb = ModuleBuilder("drain")
    b = mb.function("main", [], I64, source_file="d.c")
    written, counter, unwritten = b.alloca(8), b.alloca(8), b.alloca(8)
    b.store(1, written)
    b.store(3, counter)
    pm = b.call("pm_alloc", [64 * 24], PTR)
    loop, done = b.new_block("loop"), b.new_block("done")
    b.jmp(loop)
    b.position_at_end(loop)
    b.load(written)  # the translated loop reads the stack's length
    for line in range(24):
        slot = b.gep(pm, 64 * line)
        b.store(line, slot)
        b.flush(slot)
    b.fence()
    b.store(b.load(unwritten), written)
    c = b.sub(b.load(counter), 1)
    b.store(c, counter)
    b.br(b.icmp("ne", c, 0), loop, done)
    b.position_at_end(done)
    b.call("emit", [b.load(written)])
    b.ret(0)
    _, reference = _fingerprint(mb.module, "reference", [])
    with hot_after(1):
        interp, flat = _fingerprint(mb.module, "flat", [])
    assert flat == reference
    assert flat["output"] == [0]
    assert interp._loops_translated == 1


class _FaultOnCall:
    """Wraps a method; its ``nth`` call about PM raises instead.  (The
    reference engine hands volatile stores to ``record_store`` too; the
    flat engine only when it records them.)"""

    def __init__(self, method, nth):
        self.method = method
        self.nth = nth
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if args[2:3] != ("vol",):
            self.calls += 1
            if self.calls == self.nth:
                raise RuntimeError(f"injected fault in {self.method.__name__}")
        return self.method(*args, **kwargs)


@pytest.mark.parametrize(
    "owner, method",
    [
        ("cache", "on_store"),
        ("cache", "on_flush"),
        ("cache", "on_fence"),
        ("recorder", "record_store"),
        ("recorder", "record_flush"),
        ("recorder", "record_fence"),
    ],
)
def test_recorder_or_cache_fault_mid_run_settles_like_the_reference(owner, method):
    """An exception from a recorder or cache call inside a translated
    loop: the instruction making the call counts as executed, the rest
    of the run does not."""
    module = build_faulting_loop("udiv")
    args = [LOOPS, LOOPS + 1]  # the division never faults
    fingerprints = {}
    for engine in ("reference", "flat"):
        machine = Machine()
        target = getattr(machine, owner)
        setattr(target, method, _FaultOnCall(getattr(target, method), LOOPS - 1))
        with hot_after(1):
            interp, fingerprints[engine] = _fingerprint(module, engine, args, machine)
    assert fingerprints["flat"] == fingerprints["reference"]
    assert fingerprints["flat"]["outcome"] == (
        "err", "RuntimeError", f"injected fault in {method}"
    )
    assert _ran_translated(interp, interp.current_iid())


# ---------------------------------------------------------------------------
# faults and fuel inside a promoted loop
# ---------------------------------------------------------------------------
# A loop whose stack slots live in Python locals must write them back to
# the stack bytes on every exit — a normal one, a fuel cut and a fault —
# and a fault or cut inside it must settle like any other run.


def build_promoted_loop(kind):
    """``main(n, k)``: ``for (c = 0; c < n; c++) acc += f(c)`` over two
    stack slots, the loop split over two runs (test, body).  The body
    faults by ``kind`` once ``c == k``; with ``"load"`` it reads through
    a pointer it derives itself, which keeps the loop unpromoted; with
    ``"alias"`` a second register for the counter's address makes the
    entry guard fail; with ``"narrow"`` the body reads a slot at two
    widths, which keeps the loop unpromoted."""
    mb = ModuleBuilder(f"promoted_{kind}")
    b = mb.function("main", [("n", I64), ("k", I64)], I64, source_file="p.c")
    n, k = b.function.args
    counter, acc = b.alloca(8), b.alloca(8)
    alias = b.gep(counter, 0)  # the same address in another register
    b.store(0, counter)
    b.store(5, acc)
    head, body, hit, done = (b.new_block(name) for name in ("head", "body", "hit", "done"))
    b.jmp(head)
    b.position_at_end(head)
    c = b.load(counter)
    b.br(b.icmp("ult", c, n), body, done)
    b.position_at_end(body)
    term = b.add(b.mul(c, 3), b.load(acc))
    delta = b.sub(c, k)
    if kind in ("udiv", "urem"):
        term = b.add(term, b.binop(kind, 1000, delta))
    elif kind == "load":  # unmapped when c == k
        bad = b.gep(acc, b.select(b.icmp("eq", delta, 0), 1 << 40, 0))
        term = b.add(term, b.load(bad))
    elif kind == "narrow":  # acc's low byte, through acc's own register
        term = b.add(term, b.cast("zext", b.load(acc, I8), I64))
    b.store(term, acc)
    after = b.add(c, 1)
    if kind == "alias":
        b.store(after, alias)
        b.store(b.add(b.load(counter), 0), counter)
    else:
        b.store(after, counter)
    if kind == "trap":
        b.br(b.icmp("eq", delta, 0), hit, head)
    else:
        b.jmp(head)
    b.position_at_end(hit)
    b.trap()
    b.position_at_end(done)
    b.call("emit", [b.load(acc)])
    b.ret(0)
    return mb.module


def _loop_counters(interp):
    return interp._loops_translated, interp._loops_promoted


@pytest.mark.parametrize("kind", ["udiv", "urem", "trap", "load"])
def test_fault_inside_a_translated_loop_settles_like_the_reference(kind):
    """The fault comes on the fifth iteration; the loop is translated
    on the second entry of its body."""
    module = build_promoted_loop(kind)
    args = [LOOPS, 4]
    _, reference = _fingerprint(module, "reference", args)
    assert reference["outcome"][0] == "err"
    with hot_after(2):
        interp, flat = _fingerprint(module, "flat", args)
    assert flat == reference
    # a derived pointer keeps the loop's slots in memory
    assert _loop_counters(interp) == (1, 0 if kind == "load" else 1)
    if kind != "trap":  # the trap's run is outside the loop
        assert _ran_translated(interp, interp.current_iid())


def _two_calls(module, engine):
    """``main`` runs its loop whole, then faults on the first pass of
    the next call."""
    recorder = RunRecorder()
    interp = make_interpreter(module, engine=engine, run_recorder=recorder)
    interp.call("main", [LOOPS, LOOPS])
    outcome = _outcome(interp, lambda: interp.call("main", [LOOPS, 0]))
    return interp, {
        "outcome": outcome,
        "accounting": (interp.steps, interp.costs.cycles, interp.costs.counts),
        "spans": list(recorder.spans),
        "spans_ok": recorder.spans_ok,
        "stack": interp._capture_stack(),
        "stack_bytes": bytes(interp.machine.space.stack.data),
    }


@pytest.mark.parametrize("kind", ["udiv", "urem", "load"])
def test_fault_on_a_translated_loops_first_pass_settles_like_the_reference(kind):
    """The loop is translated in the first call.  In the second, the
    engine enters it at the loop test, and the body faults on its first
    pass inside the loop function: steps, cycles and counts cover the
    test and the body up to the fault, nothing more."""
    module = build_promoted_loop(kind)
    _, reference = _two_calls(module, "reference")
    with hot_after(2):
        interp, flat = _two_calls(module, "flat")
    assert flat == reference
    assert reference["outcome"][0] == "err"
    assert _loop_counters(interp)[0] == 1


@pytest.mark.parametrize("kind", ["plain", "alias"])
def test_fuel_cut_inside_a_translated_loop_settles_like_the_reference(kind):
    """The limit lands at every position of the loop's first six
    iterations — four of them run inside the loop translation, which
    returns at the run that would cross the limit."""
    module = build_promoted_loop(kind)
    full = make_interpreter(module)
    full.call("main", [LOOPS, LOOPS])
    assert full.output == [5 + 3 * sum(range(LOOPS))]
    for fuel in range(1, full.steps + 2):
        _, reference = _fingerprint(module, "reference", [LOOPS, LOOPS], fuel=fuel)
        with hot_after(2):
            interp, flat = _fingerprint(module, "flat", [LOOPS, LOOPS], fuel=fuel)
        assert flat == reference, fuel
    assert flat["outcome"] == ("ok",)
    assert _loop_counters(interp) == (1, 1)


@pytest.mark.parametrize("kind", ["plain", "narrow"])
def test_recorded_volatile_stores_keep_a_loops_slots_in_memory(kind):
    """With volatile stores recorded on the revalidation recorder's side
    channel, every stack store of the loop is noted: the guard sends
    each entry to the unpromoted copy.  A slot read at two widths keeps
    the loop unpromoted anyway."""
    module = build_promoted_loop(kind)
    for vol_ops in (False, True):
        args = [LOOPS, LOOPS]
        _, reference = _fingerprint(module, "reference", args, vol_ops=vol_ops)
        with hot_after(2):
            interp, flat = _fingerprint(module, "flat", args, vol_ops=vol_ops)
        assert flat == reference, vol_ops
        promoted = kind == "plain" and not vol_ops
        assert _loop_counters(interp) == (1, int(promoted))
    assert len(reference["vol_ops"]) > 2 * LOOPS  # the loop's stores


def test_a_failed_guard_runs_the_unpromoted_loop():
    """Two registers hold the counter's address: the loop's shape
    allows promotion, its entry guard refuses the overlapping slots, and
    the unpromoted copy gives the reference's results."""
    module = build_promoted_loop("alias")
    _, reference = _fingerprint(module, "reference", [LOOPS, LOOPS])
    with hot_after(2):
        interp, flat = _fingerprint(module, "flat", [LOOPS, LOOPS])
    assert flat == reference
    assert flat["output"] == [5 + 3 * sum(range(LOOPS))]
    lf = interp._linked["main"]
    (translation,) = set(lf.translated.values())
    assert translation.promoted == 3  # counter, alias and acc


# ---------------------------------------------------------------------------
# when runs translate, and what they share
# ---------------------------------------------------------------------------


def build_two_loops():
    """``main(n)`` and ``side(n)``: each a one-run loop over a PM store."""
    mb = ModuleBuilder("loops")
    for name in ("main", "side"):
        b = mb.function(name, [("n", I64)], I64, source_file="l.c")
        pm = b.call("pm_alloc", [64], PTR)
        _counted_loop(b, b.function.args[0], lambda c: b.store(c, pm))
        b.ret(0)
    return mb.module


def _loop_run(interp, name):
    """The linked function ``name`` and the start pc of its loop run."""
    lf = interp._linked[name]
    loop = next(b for b in interp.module.get_function(name).blocks if b.name == "loop")
    first = loop.instructions[0].iid
    return lf, next(pc for pc, i in enumerate(lf.insts) if i.iid == first)


def test_a_run_translates_on_its_nth_entry():
    module = build_two_loops()
    with hot_after(4):
        for entries in (3, 4, 7):
            interp = make_interpreter(module)
            interp.call("main", [entries])
            lf, start = _loop_run(interp, "main")
            translated = lf.runs[start][4] is not None
            assert translated == (entries >= 4), entries
            # a translated run's later entries skip the count
            assert lf.entries[start] == min(entries, 4)


def build_nested_loops(inner):
    """``main(rounds)``: an outer loop around an ``inner``-iteration
    loop split over two runs, a header (the test, block ``loop``) and a
    body — the shape of the e2ebench ``detect-hot`` workload."""
    mb = ModuleBuilder("nested")
    b = mb.function("main", [("rounds", I64)], I64, source_file="n.c")
    (rounds,) = b.function.args
    iv, jv, acc = b.alloca(8), b.alloca(8), b.alloca(8)
    b.store(0, iv)
    b.store(0, acc)
    blocks = ("outer", "outer_body", "loop", "inner_body", "after", "done")
    outer, outer_body, header, body, after, done = map(b.new_block, blocks)
    b.jmp(outer)
    b.position_at_end(outer)
    i = b.load(iv)
    b.br(b.icmp("ult", i, rounds), outer_body, done)
    b.position_at_end(outer_body)
    b.store(0, jv)
    b.jmp(header)
    b.position_at_end(header)
    j = b.load(jv)
    b.br(b.icmp("ult", j, inner), body, after)
    b.position_at_end(body)
    b.store(b.add(b.load(acc), b.mul(j, 3)), acc)
    b.store(b.add(j, 1), jv)
    b.jmp(header)
    b.position_at_end(after)
    b.store(b.add(i, 1), iv)
    b.jmp(outer)
    b.position_at_end(done)
    b.call("emit", [b.load(acc)])
    b.ret(0)
    return mb.module


def test_a_loop_is_translated_once_when_its_last_run_gets_hot(default_threshold):
    """The inner loop's header is entered once more per outer iteration
    than its body, so it gets hot first, on no hot cycle yet: it stays
    untranslated, and the loop is compiled once, when the body gets hot
    too.  No code object is made for the header alone."""
    module = build_nested_loops(400)
    with mock.patch.object(translate, "translate", wraps=translate.translate) as spy:
        interp, flat = _fingerprint(module, "flat", [4])
    _, reference = _fingerprint(module, "reference", [4])
    assert flat == reference
    lf, start = _loop_run(interp, "main")
    body = lf.runs[start][3][-1][3]  # the header's branch into the body
    assert list(lf.cf.translations) == [(start, body)]
    assert spy.call_count == 1
    assert interp._loops_translated == 1


@hot_after(8)
def test_a_second_engine_reuses_the_code_object():
    module = build_two_loops()
    first = make_interpreter(module)
    first.call("main", [200])
    lf, start = _loop_run(first, "main")
    translation = lf.cf.translations[(start,)]
    assert lf.runs[start][4].__code__ is translation.code

    with mock.patch.object(translate, "compile", create=True) as compile_spy:
        second = make_interpreter(module)
        second.call("main", [200])
    compile_spy.assert_not_called()
    lf2, _ = _loop_run(second, "main")
    assert lf2.cf is lf.cf
    assert lf2.runs[start][4] is not lf.runs[start][4]  # bound per engine
    assert lf2.runs[start][4].__code__ is translation.code
    # same results, different machines
    assert second.steps == first.steps
    assert second.costs.cycles == first.costs.cycles
    assert second.trace.events == first.trace.events


@hot_after(8)
def test_incremental_recompile_drops_only_the_touched_functions_translations():
    module = build_two_loops()
    interp = make_interpreter(module)
    interp.call("main", [200])
    interp.call("side", [200])
    before = cached_program(module)
    side = before.functions["side"]
    assert all(cf.translations for cf in before.functions.values())

    # a repair inserts a flush into main's loop
    loop = next(b for b in module.get_function("main").blocks if b.name == "loop")
    store = next(i for i in loop.instructions if i.opcode == "store")
    loop.insert_after(store, Flush(store.pointer))
    after = cached_program(module)
    assert after.functions["side"] is side
    assert side.translations  # kept
    assert after.functions["main"] is not before.functions["main"]
    assert not after.functions["main"].translations  # dropped

    interp.call("main", [200])  # relinks; main translates afresh
    assert interp._linked["side"].cf is side
    assert after.functions["main"].translations


@hot_after(8)
def test_runs_translated_counter_is_flat_only():
    module = build_two_loops()
    counters = {}
    for engine in ("flat", "reference"):
        obs = Observability()
        interp = make_interpreter(module, engine=engine, obs=obs)
        interp.call("main", [200])
        interp.finish()
        counters[engine] = obs.metrics_snapshot()["counters"]
    # only the loop's run gets hot
    assert counters["flat"]["interp.runs_translated"] == 1
    assert "interp.runs_translated" not in counters["reference"]
    assert counters["flat"]["interp.steps"] == counters["reference"]["interp.steps"]

