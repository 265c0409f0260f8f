"""Two-engine differential: flat register-compiled vs tree-walking
reference.

The flat engine's contract is *byte-identity*: for any verified
program — corpus case or seeded random — detection traces, bug
records, cost cycles, per-opcode counts, observable output, and error
messages must be exactly the same on both engines.  These tests diff
all of it: per-case detect runs, property-based random programs
(straight-line and branching), the error paths (fuel, traps, and
undefined values, which the flat engine refuses before it runs), and —
through the oracle harness in ``test_oracle_differential.py`` — the
full repair pipeline per corpus case, a batch, and a flat-engine batch
killed mid-run and resumed against the reference-engine oracle.

The flat engine runs a run through its per-instruction loop until the
run gets hot, and a cycle of hot runs through one translated Python
function after that.  The ``*_every_run_translated`` variants repeat
the corpus, random-program and fuel-sweep differentials with every run
hot on its first entry, so each loop is translated once its runs have
been entered and runs translated from then on.
``test_translated_loops_identical`` drives loops of every shape the
translator distinguishes, with and without their stack slots kept in
Python locals.  ``test_ycsb_on_redis_variants_identical`` runs Fig. 4's
YCSB phases on the three Redis variants at the default threshold, where
real application loops get translated.
"""

from __future__ import annotations

import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.apps import KVStore
from repro.bench import REDIS_FULL, REDIS_INTRA, REDIS_PM, build_redis_variant
from repro.corpus.bugs import all_cases
from repro.detect import pmemcheck_run
from repro.errors import InterpreterError, VerificationError
from repro.interp import ENGINES, Machine, cached_program, make_interpreter
from repro.interp.translate import loop_of
from repro.ir import I8, I16, I32, I64, ModuleBuilder, PTR, verify_module
from repro.revalidate.recording import RecordingTraceRecorder, RunRecorder
from repro.workloads import (
    CORE_WORKLOADS,
    FIG4_ORDER,
    execute,
    generate_load,
    generate_run,
)

from conftest import hot_after
from test_oracle_differential import (
    BATCH_CASES,
    assert_batch_matches_oracle,
    assert_killed_fast_batch_resumes_to_oracle,
    assert_records_match,
)

CASE_IDS = [case.case_id for case in all_cases()]


def _case(case_id):
    return next(c for c in all_cases() if c.case_id == case_id)


def _translated_loops(module):
    """How many loops of ``module``'s current compile have a translation."""
    return sum(len(cf.translations) for cf in cached_program(module).functions.values())


def _detect_fingerprint(module, drive, engine):
    """Everything observable about one detect run, as plain data."""
    detection, trace, interp = pmemcheck_run(module, drive, engine=engine)
    return {
        "bugs": [b.describe() for b in detection.bugs],
        "perf": [p.describe() for p in detection.perf],
        "events": list(trace.events),
        "steps": interp.steps,
        "cycles": interp.costs.cycles,
        "counts": dict(interp.costs.counts),
        "output": list(interp.output),
    }


# ---------------------------------------------------------------------------
# corpus detect runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_corpus_detect_byte_identical(case_id):
    """Same module instance through both engines: every observable of
    the detect phase must agree exactly, event for event."""
    case = _case(case_id)
    module = case.build()
    flat = _detect_fingerprint(module, case.drive, "flat")
    reference = _detect_fingerprint(module, case.drive, "reference")
    assert len(flat["events"]) == len(reference["events"])
    for ours, theirs in zip(flat["events"], reference["events"]):
        assert ours == theirs
    for key in ("bugs", "perf", "steps", "cycles", "counts", "output"):
        assert flat[key] == reference[key], key


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_corpus_byte_identical_every_run_translated(case_id):
    """The corpus detect differential, plus the revalidation recorder's
    callee spans, with every run translated."""
    case = _case(case_id)
    module = case.build()
    with hot_after(1):
        flat = _detect_fingerprint(module, case.drive, "flat")
        flat_recorded = _guarded_fingerprint(module, case.drive, "flat", record=True)
    assert _translated_loops(module) > 0
    assert flat == _detect_fingerprint(module, case.drive, "reference")
    reference = _guarded_fingerprint(module, case.drive, "reference", record=True)
    assert flat_recorded == reference


# ---------------------------------------------------------------------------
# property-based random programs
# ---------------------------------------------------------------------------

#: (persist?, slot, value, via_helper?) — mixes direct and
#: helper-mediated PM stores (the helper call exercises the flat
#: engine's inline frame push/pop) with per-slot persistence.
action = st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=1000),
    st.booleans(),
)


def build_random(actions):
    mb = ModuleBuilder("gen")
    helper = mb.function("set_slot", [("p", PTR), ("v", I64)], source_file="gen.c")
    helper.store(helper.function.args[1], helper.function.args[0])
    helper.ret()

    b = mb.function("main", [], I64, source_file="gen.c")
    base = b.call("pm_alloc", [256], PTR)
    vol = b.call("vol_alloc", [256], PTR)
    b.call("set_slot", [vol, 1])
    acc = b.alloca(8)
    b.store(0, acc)
    for persist, slot, value, via_helper in actions:
        target = b.gep(base, slot * 64)
        # spread the arithmetic opcodes through the program so the
        # differential exercises the binop/icmp/select encodings too
        mixed = b.add(b.mul(value, 3), b.binop("xor", value, slot))
        b.store(b.add(b.load(acc), mixed), acc)
        if via_helper:
            b.call("set_slot", [target, value])
        else:
            b.store(value, target)
        if persist:
            b.flush(target)
            b.fence()
    b.call("checkpoint", [])
    b.call("emit", [b.load(acc)])
    b.ret(0)
    return mb.module


def drive_main(interp):
    interp.call("main")


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=10))
def test_random_programs_byte_identical(actions):
    module = build_random(actions)
    flat = _detect_fingerprint(module, drive_main, "flat")
    reference = _detect_fingerprint(module, drive_main, "reference")
    assert flat == reference


# ---------------------------------------------------------------------------
# volatile-store recording
# ---------------------------------------------------------------------------
# The flat engine skips the volatile ``record_store`` call unless the
# recorder keeps the volatile-op side channel (``record_vol_ops``).  With
# it on, both engines must note every volatile store at the same place.


def recording_machine(vol_ops):
    """A fresh machine; with ``vol_ops`` its recorder is the revalidation
    recorder, which keeps the volatile-op side channel."""
    machine = Machine()
    if vol_ops:
        machine.recorder = RecordingTraceRecorder()
    return machine


def interpreter_on(machine, module, engine, **kwargs):
    """An interpreter on ``machine``, its side channel (if any) told
    which instruction runs."""
    interp = make_interpreter(module, engine=engine, machine=machine, **kwargs)
    if machine.recorder.record_vol_ops:
        machine.recorder.current_iid = interp.current_iid
    return interp


def _vol_ops_fingerprint(module, drive, engine):
    """A run under the revalidation recorder's volatile-op side channel."""
    interp = interpreter_on(recording_machine(True), module, engine)
    recorder = interp.machine.recorder
    drive(interp)
    trace = interp.finish()
    return {
        "events": list(trace.events),
        "vol_ops": list(recorder.vol_ops),
        "steps": interp.steps,
        "cycles": interp.costs.cycles,
    }


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_corpus_volatile_recording_byte_identical(case_id):
    case = _case(case_id)
    module = case.build()
    flat = _vol_ops_fingerprint(module, case.drive, "flat")
    assert flat == _vol_ops_fingerprint(module, case.drive, "reference")


@settings(max_examples=25, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=10))
def test_random_programs_volatile_recording_byte_identical(actions):
    module = build_random(actions)
    flat = _vol_ops_fingerprint(module, drive_main, "flat")
    assert any(op.kind == "store" for op in flat["vol_ops"])
    assert flat == _vol_ops_fingerprint(module, drive_main, "reference")


# ---------------------------------------------------------------------------
# stack-heavy programs
# ---------------------------------------------------------------------------
# The flat engine serves loads and stores of already-written stack bytes
# inside its loop and sends every other address to ``AddressSpace``.
# These programs cross that line in every direction: i8..i64 accesses at
# unaligned offsets of a recursive helper's frame, narrow stores under
# wide loads, a slot no frame ever writes (past the written prefix on
# the first, deepest call) and slots a popped frame left behind.  The
# accesses repeat in a two-iteration loop, which gets translated when
# every run is hot on its first entry.

#: (width, byte offset in a 24-byte frame, store?)
stack_op = st.tuples(
    st.sampled_from([I8, I16, I32, I64]),
    st.integers(min_value=0, max_value=16),
    st.booleans(),
)


def build_stack_heavy(ops, depth, calls):
    mb = ModuleBuilder("stk")
    b = mb.function("churn", [("n", I64), ("salt", I64)], I64, source_file="stk.c")
    n, salt = b.function.args
    result = b.alloca(8)
    # below ``fresh`` and ``frame``: storing to it leaves them past the
    # written prefix on the first call's first pass
    counter = b.alloca(8)
    fresh = b.alloca(16)  # never stored to by any frame
    frame = b.alloca(24)
    b.store(0, counter)
    # a narrow store under a wide, unaligned load, then the random ops
    # (a load before the first store to its bytes reads a popped frame's)
    accesses = [(I8, 3, True), (I64, 1, False), *ops]
    slots = [b.gep(frame, offset) for _, offset, _ in accesses]
    fresh_slot = b.gep(fresh, 5)
    repeat, after = b.new_block("repeat"), b.new_block("after")
    b.jmp(repeat)
    b.position_at_end(repeat)
    total = b.load(fresh_slot)
    for (width, offset, is_store), slot in zip(accesses, slots):
        if is_store:
            value = b.add(b.mul(salt, offset + 3), width.bits)
            if width is not I64:
                value = b.cast("trunc", value, width)
            b.store(value, slot, width)
        else:
            loaded = b.load(slot, width)
            if width is not I64:
                loaded = b.cast("zext", loaded, I64)
            total = b.add(b.mul(total, 31), loaded)
    b.store(total, result)
    again = b.add(b.load(counter), 1)
    b.store(again, counter)
    b.br(b.icmp("ult", again, 2), repeat, after)
    b.position_at_end(after)
    recurse = b.new_block("recurse")
    done = b.new_block("done")
    b.br(b.icmp("ne", n, 0), recurse, done)
    b.position_at_end(recurse)
    inner = b.call("churn", [b.sub(n, 1), b.add(salt, 17)], I64)
    b.store(b.xor(b.load(result), inner), result)
    b.jmp(done)
    b.position_at_end(done)
    b.ret(b.load(result))

    b = mb.function("main", [], I64, source_file="stk.c")
    acc = b.alloca(8)
    b.store(0, acc)
    for call in range(calls):
        got = b.call("churn", [depth, call * 101 + 7], I64)
        b.store(b.add(b.load(acc), got), acc)
    p = b.call("pm_alloc", [64], PTR)
    b.store(b.load(acc), p)
    b.flush(p)
    b.fence()
    b.call("emit", [b.load(acc)])
    b.ret(0)
    return mb.module


def _stack_fingerprint(module, engine, vol_ops):
    interp = interpreter_on(recording_machine(vol_ops), module, engine)
    interp.call("main")
    trace = interp.finish()
    stack = interp.machine.space.stack
    return {
        "events": list(trace.events),
        "vol_ops": list(interp.machine.recorder.vol_ops),
        "steps": interp.steps,
        "cycles": interp.costs.cycles,
        "counts": dict(interp.costs.counts),
        "output": list(interp.output),
        "stack": bytes(stack.data),
        "high_water": stack.high_water,
    }


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(stack_op, max_size=12),
    depth=st.integers(min_value=0, max_value=4),
    calls=st.integers(min_value=1, max_value=3),
)
def test_stack_heavy_programs_byte_identical(ops, depth, calls):
    _assert_stack_heavy_identical(build_stack_heavy(ops, depth, calls))


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(stack_op, max_size=12),
    depth=st.integers(min_value=0, max_value=4),
    calls=st.integers(min_value=1, max_value=3),
)
def test_stack_heavy_programs_every_run_translated(ops, depth, calls):
    module = build_stack_heavy(ops, depth, calls)
    with hot_after(1):
        _assert_stack_heavy_identical(module)
    assert _translated_loops(module) == 1


def _assert_stack_heavy_identical(module):
    for vol_ops in (False, True):
        flat = _stack_fingerprint(module, "flat", vol_ops)
        reference = _stack_fingerprint(module, "reference", vol_ops)
        assert flat == reference, vol_ops


# ---------------------------------------------------------------------------
# error-path parity
# ---------------------------------------------------------------------------


def _accounting(interp):
    """Steps, cycles, per-kind counts, trace events and output so far."""
    return (
        interp.steps,
        interp.costs.cycles,
        dict(interp.costs.counts),
        list(interp.trace.events),
        list(interp.output),
    )


def _run_both(module, entry, args, **kwargs):
    """Call ``entry`` on both engines; returns {engine: outcome} where
    an outcome is ("ok", value, *accounting) or ("err", type-name,
    message, *accounting)."""
    outcomes = {}
    for engine in ENGINES:
        interp = make_interpreter(module, engine=engine, **kwargs)
        try:
            result = interp.call(entry, args)
            outcomes[engine] = ("ok", result.value, *_accounting(interp))
        except Exception as exc:  # noqa: BLE001 - parity is the point
            outcomes[engine] = (
                "err", type(exc).__name__, str(exc), *_accounting(interp)
            )
    return outcomes


def test_division_by_zero_message_parity():
    mb = ModuleBuilder("divz")
    b = mb.function("main", [("d", I64)], I64, source_file="d.c")
    b.ret(b.binop("udiv", 10, b.function.args[0]))
    outcomes = _run_both(mb.module, "main", [0])
    assert outcomes["flat"] == outcomes["reference"]
    assert outcomes["flat"][0] == "err"
    assert "division by zero" in outcomes["flat"][2]


def test_fuel_exhaustion_parity():
    mb = ModuleBuilder("spin")
    b = mb.function("main", [], I64, source_file="s.c")
    loop = b.new_block("loop")
    b.jmp(loop)
    b.position_at_end(loop)
    b.jmp(loop)
    outcomes = _run_both(mb.module, "main", [], fuel=25)
    assert outcomes["flat"] == outcomes["reference"]
    assert outcomes["flat"][:3] == (
        "err",
        "FuelExhausted",
        "exceeded fuel of 25 instructions",
    )


def test_stack_overflow_parity():
    mb = ModuleBuilder("deep")
    b = mb.function("rec", [("n", I64)], I64, source_file="r.c")
    stop = b.new_block("stop")
    go = b.new_block("go")
    b.br(b.icmp("eq", b.function.args[0], 0), stop, go)
    b.position_at_end(stop)
    b.ret(0)
    b.position_at_end(go)
    b.ret(b.call("rec", [b.sub(b.function.args[0], 1)], I64))
    outcomes = _run_both(mb.module, "rec", [1 << 40])
    assert outcomes["flat"] == outcomes["reference"]
    assert outcomes["flat"][0] == "err"


def test_call_to_undefined_function_parity():
    mb = ModuleBuilder("missing")
    b = mb.function("main", [], I64, source_file="m.c")
    b.ret(b.call("no_such_fn", [], I64))
    outcomes = _run_both(mb.module, "main", [])
    assert outcomes["flat"] == outcomes["reference"]
    assert outcomes["flat"][:2] == ("err", "InterpreterError")


def test_top_level_entry_errors_match():
    """Unknown entry points and argument-count mismatches surface the
    same way regardless of engine."""
    mb = ModuleBuilder("entry")
    b = mb.function("main", [("x", I64)], I64, source_file="e.c")
    b.ret(b.function.args[0])
    for entry, args in (("nope", []), ("main", [])):
        errors = {}
        for engine in ENGINES:
            interp = make_interpreter(mb.module, engine=engine)
            with pytest.raises(Exception) as excinfo:
                interp.call(entry, args)
            errors[engine] = (type(excinfo.value).__name__, str(excinfo.value))
        assert errors["flat"] == errors["reference"], (entry, args)


def build_undefined_return():
    """``callee(c)`` returns ``%t1``, defined only on the ``c != 0``
    path: textually before its use, but not dominating it."""
    mb = ModuleBuilder("undef")
    b = mb.function("callee", [("c", I64)], I64, source_file="u.c")
    (c,) = b.function.args
    then = b.new_block("then")
    join = b.new_block("join")
    b.br(b.icmp("ne", c, 0), then, join)
    b.position_at_end(then)
    t1 = b.add(c, 1, name="t1")
    b.jmp(join)
    b.position_at_end(join)
    b.ret(t1)
    b = mb.function("main", [], I64, source_file="u.c")
    b.ret(b.add(b.call("callee", [0], I64), 1))
    return mb.module


@pytest.mark.parametrize("entry, args", [("main", []), ("callee", [0])])
def test_return_of_undefined_value_parity(entry, args):
    """The verifier refuses the module with the reference engine's
    error text; the flat engine refuses it at construction, and the
    reference, run unverified, raises that same text at the ``ret``."""
    module = build_undefined_return()
    message = "undefined value %t1 in @callee"
    with pytest.raises(VerificationError) as excinfo:
        verify_module(module)
    assert str(excinfo.value) == message
    with pytest.raises(VerificationError, match=message):
        make_interpreter(module, engine="flat")
    interp = make_interpreter(module, engine="reference")
    with pytest.raises(InterpreterError) as excinfo:
        interp.call(entry, args)
    assert str(excinfo.value) == message
    assert "ret" not in dict(interp.costs.counts)


# ---------------------------------------------------------------------------
# random branching programs
# ---------------------------------------------------------------------------
# Up to six blocks wired by ``br``/``jmp`` (back edges included), whose
# instructions read any value defined textually earlier — in this block
# or another — so some uses are not dominated by their definition.  The
# verifier must refuse exactly those; everything it accepts runs the
# same on both engines, under a fuel limit that cuts every loop.

#: An operand: counts back from the newest value in its pool, so small
#: (shrunk) references read nearby values.
ref = st.integers(min_value=0, max_value=15)
branch_op = st.one_of(
    st.tuples(
        st.just("binop"),
        st.sampled_from(["add", "sub", "mul", "udiv", "urem", "xor"]),
        ref,
        ref,
    ),
    st.tuples(st.just("icmp"), st.sampled_from(["eq", "ne", "ult", "uge"]), ref, ref),
    st.tuples(st.just("select"), ref, ref, ref),
    st.tuples(st.just("store"), ref, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("flush"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("fence")),
)
target = st.integers(min_value=0, max_value=5)
terminator = st.one_of(
    st.tuples(st.just("ret"), ref),
    st.tuples(st.just("jmp"), target),
    st.tuples(st.just("br"), ref, target, target),
)
cfg_block = st.tuples(st.lists(branch_op, max_size=4), terminator)
word = st.sampled_from([0, 1, 2, 7, (1 << 64) - 1])

BRANCHING_FUEL = 60


def build_branching(blocks):
    """``main(x, y)`` from a list of ``(ops, terminator)`` block specs.

    Integer operands come from ``x``, ``y``, a few constants and every
    integer result so far; conditions from every ``icmp`` so far, or a
    fresh ``x != 0`` when there is none.  Stores and flushes go to one
    PM line allocated at entry."""
    mb = ModuleBuilder("cfg")
    b = mb.function("main", [("x", I64), ("y", I64)], I64, source_file="cfg.c")
    ints = [*b.function.args, 0, 1, 3]
    conds = []
    cfg = [b.block] + [b.new_block(f"b{i}") for i in range(1, len(blocks))]
    pm = b.call("pm_alloc", [64], PTR)

    def pick(pool, index):
        return pool[-1 - index % len(pool)]

    def cond(index):
        return pick(conds, index) if conds else b.icmp("ne", ints[0], 0)

    for block, (ops, (term, *fields)) in zip(cfg, blocks):
        b.position_at_end(block)
        for kind, *operands in ops:
            if kind == "binop":
                op, lhs, rhs = operands
                ints.append(b.binop(op, pick(ints, lhs), pick(ints, rhs)))
            elif kind == "icmp":
                pred, lhs, rhs = operands
                conds.append(b.icmp(pred, pick(ints, lhs), pick(ints, rhs)))
            elif kind == "select":
                which, lhs, rhs = operands
                ints.append(b.select(cond(which), pick(ints, lhs), pick(ints, rhs)))
            elif kind == "store":
                value, slot = operands
                b.store(pick(ints, value), b.gep(pm, slot * 8))
            elif kind == "flush":
                (slot,) = operands
                b.flush(b.gep(pm, slot * 8))
            else:
                b.fence()
        if term == "ret":
            b.ret(pick(ints, fields[0]))
        elif term == "jmp":
            b.jmp(cfg[fields[0] % len(cfg)])
        else:
            which, then, other = fields
            b.br(cond(which), cfg[then % len(cfg)], cfg[other % len(cfg)])
    return mb.module


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(cfg_block, min_size=1, max_size=6),
    inputs=st.lists(st.tuples(word, word), min_size=1, max_size=3),
)
def test_branching_programs_verified_then_identical(blocks, inputs):
    """A verifier-accepted program never reads an undefined value and
    runs identically on both engines — value or error, steps, cycles,
    counts and events; one the dominance rule rejects, the flat engine
    refuses to build."""
    _assert_branching_identical(build_branching(blocks), inputs)


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(cfg_block, min_size=1, max_size=6),
    inputs=st.lists(st.tuples(word, word), min_size=1, max_size=3),
)
def test_branching_programs_every_run_translated(blocks, inputs):
    with hot_after(1):
        _assert_branching_identical(build_branching(blocks), inputs)


def _assert_branching_identical(module, inputs):
    try:
        verify_module(module)
    except VerificationError as exc:
        # every use is textually after its definition, so only the
        # dominance rule can refuse the program
        assert re.fullmatch(r"undefined value %t\d+ in @main", str(exc))
        with pytest.raises(VerificationError, match=re.escape(str(exc))):
            make_interpreter(module, engine="flat")
        return
    for args in inputs:
        outcomes = _run_both(module, "main", list(args), fuel=BRANCHING_FUEL)
        assert "undefined value" not in str(outcomes["reference"][:3])
        assert outcomes["flat"] == outcomes["reference"], args


# ---------------------------------------------------------------------------
# translated loops
# ---------------------------------------------------------------------------
# A hot cycle of runs is translated into one Python function, which keeps
# the loop's stack slots in locals when every access goes through a
# register defined before the loop at one width, nothing flushes, fences
# or allocates in it, and an entry guard finds the slots written and
# disjoint.  These programs hit each of those conditions both ways:
# accessors that share a register at two widths, two registers for one
# or overlapping addresses, a pointer derived inside the loop, a slot
# past the stack's written prefix, PM traffic, a division by a
# loop-varying value, and an outer loop that gets hot too.

#: (slot, byte offset, width, own register?) — a pointer computed before
#: the loop; offset 0 without its own register is the alloca itself.
accessor = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0, 0, 0, 1, 4, 8]),
    st.sampled_from([I8, I16, I32, I64]),
    st.sampled_from([False, False, True]),
)
loop_op = st.one_of(
    st.tuples(st.just("load"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("store"), ref, st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("binop"),
        st.sampled_from(["add", "sub", "mul", "xor", "udiv", "urem"]),
        ref,
        ref,
    ),
    # a load through a pointer the loop derives: never promoted
    st.tuples(st.just("derived"), st.integers(min_value=0, max_value=3), ref),
    st.tuples(st.just("pm"), st.sampled_from(["store", "flush", "fence"]), ref),
    # an if-then inside the body: the loop spans more runs
    st.tuples(st.just("diamond"), ref, st.integers(min_value=0, max_value=7)),
)
loop_shape = st.fixed_dictionaries(
    {
        "slots": st.integers(min_value=1, max_value=4),
        "accessors": st.lists(accessor, min_size=1, max_size=4),
        "ops": st.lists(loop_op, max_size=6),
        "nested": st.booleans(),
        "one_block": st.booleans(),
        "written": st.booleans(),
    }
)


def build_loops(shape):
    """``main(x, y, n, m)``: a counted loop of ``n`` iterations over
    ``shape["ops"]``, run ``m`` times by an outer loop when
    ``shape["nested"]``; returns a hash of every slot's bytes."""
    mb = ModuleBuilder("loops")
    b = mb.function(
        "main", [("x", I64), ("y", I64), ("n", I64), ("m", I64)], I64,
        source_file="loops.c",
    )
    x, y, n, m = b.function.args
    slots = [b.alloca(16) for _ in range(shape["slots"])]
    counter, outer = b.alloca(8), b.alloca(8)
    pm = b.call("pm_alloc", [64], PTR)
    for index, slot in enumerate(slots):
        # unless ``written``, the last slot lies past the written prefix
        if shape["written"] or index < len(slots) - 1:
            b.store(b.add(x, index), slot)
            b.store(y, b.gep(slot, 8))
    pointers = []
    for slot, offset, width, own in shape["accessors"]:
        base = slots[slot % len(slots)]
        pointers.append((b.gep(base, offset) if own or offset else base, width))

    def pick(pool, index):
        return pool[-1 - index % len(pool)]

    def load(pointer, width):
        value = b.load(pointer, width)
        return value if width is I64 else b.cast("zext", value, I64)

    def store(value, pointer, width):
        if isinstance(value, int):
            value &= width.mask
        elif width is not I64:
            value = b.cast("trunc", value, width)
        b.store(value, pointer, width)

    b.store(0, outer)
    outer_head, outer_body = b.new_block("outer"), b.new_block("outer_body")
    head = None if shape["one_block"] else b.new_block("head")
    body, after, done = b.new_block("body"), b.new_block("after"), b.new_block("done")
    b.jmp(outer_head)
    b.position_at_end(outer_head)
    o = b.load(outer)
    b.br(b.icmp("ult", o, m), outer_body, done)
    b.position_at_end(outer_body)
    b.store(0, counter)
    b.jmp(head or body)
    if head is not None:
        b.position_at_end(head)
        b.br(b.icmp("ult", b.load(counter), n), body, after)
    b.position_at_end(body)
    c = b.load(counter)
    ints = [x, y, c, 0, 1, 3]
    for kind, *fields in shape["ops"]:
        if kind == "load":
            ints.append(load(*pick(pointers, fields[0])))
        elif kind == "store":
            store(pick(ints, fields[0]), *pick(pointers, fields[1]))
        elif kind == "binop":
            op, lhs, rhs = fields
            ints.append(b.binop(op, pick(ints, lhs), pick(ints, rhs)))
        elif kind == "derived":
            slot, offset = fields
            inside = b.gep(slots[slot % len(slots)], b.binop("and", pick(ints, offset), 15))
            ints.append(load(inside, I8))
        elif kind == "pm":
            what, value = fields
            if what == "store":
                b.store(pick(ints, value), pm)
            elif what == "flush":
                b.flush(pm)
            else:
                b.fence()
        else:  # values of the ``then`` block stay out of the pool
            value, pointer = fields
            then, join = b.new_block("then"), b.new_block("join")
            odd = b.binop("and", pick(ints, value), 1)
            b.br(b.icmp("ne", odd, 0), then, join)
            b.position_at_end(then)
            store(b.add(pick(ints, value), 5), *pick(pointers, pointer))
            b.jmp(join)
            b.position_at_end(join)
    step = b.add(c, 1)
    b.store(step, counter)
    if head is None:  # do-while: the test ends the body
        b.br(b.icmp("ult", step, n), body, after)
    else:
        b.jmp(head)
    b.position_at_end(after)
    b.store(b.add(o, 1), outer)
    b.jmp(outer_head if shape["nested"] else done)
    b.position_at_end(done)
    digest = b.load(counter)
    for slot in slots:
        digest = b.add(b.mul(digest, 31), b.xor(b.load(slot), b.load(b.gep(slot, 8))))
    b.call("emit", [digest])
    b.ret(digest)
    return mb.module


def _observed_machine(vol_ops):
    """A machine whose trace recorder notes the stack's bytes at every
    PM store, flush and fence event, as any observer could."""
    machine = recording_machine(vol_ops)
    recorder, stack = machine.recorder, machine.space.stack
    seen = []

    def observe(method):
        def observed(*args, **kwargs):
            if method.__name__ != "record_store" or args[2] == "pm":
                seen.append(bytes(stack.data))
            return method(*args, **kwargs)

        return observed

    for name in ("record_store", "record_flush", "record_fence"):
        setattr(recorder, name, observe(getattr(recorder, name)))
    return machine, seen


def _loop_fingerprint(module, engine, args, fuel, vol_ops):
    recorder = RunRecorder()
    machine, seen = _observed_machine(vol_ops)
    interp = interpreter_on(
        machine, module, engine, fuel=fuel, run_recorder=recorder
    )
    try:
        outcome = ("ok", interp.call("main", list(args)).value)
    except Exception as exc:  # noqa: BLE001 - parity is the point
        outcome = ("err", type(exc).__name__, str(exc))
    stack = interp.machine.space.stack
    return {
        "outcome": outcome,
        "accounting": _accounting(interp),
        "frames": interp._capture_stack(),
        "stack": bytes(stack.data),
        "high_water": stack.high_water,
        "spans": list(recorder.spans),
        "spans_ok": recorder.spans_ok,
        "stack_at_events": seen,
        "vol_ops": list(machine.recorder.vol_ops),
    }


@settings(max_examples=120, deadline=None)
@given(
    shape=loop_shape,
    args=st.tuples(
        word,
        word,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=3),
    ),
    fuel=st.one_of(st.just(50_000), st.integers(min_value=1, max_value=400)),
)
def test_translated_loops_identical(shape, args, fuel):
    """Loops translated after their first or third entry, promoted or
    not, against the reference: events, steps, cycles, counts, output,
    the final stack bytes and high water, and the recorder's callee
    spans — with and without the volatile-op side channel."""
    module = build_loops(shape)
    for vol_ops in (False, True):
        reference = _loop_fingerprint(module, "reference", args, fuel, vol_ops)
        for threshold in (1, 3):
            with hot_after(threshold):
                flat = _loop_fingerprint(module, "flat", args, fuel, vol_ops)
            assert flat == reference, (threshold, vol_ops)


# ---------------------------------------------------------------------------
# fuel sweeps
# ---------------------------------------------------------------------------
# The flat engine charges a straight-line run's steps on entry and cuts
# the run where it would cross the fuel limit; on any fault it refunds
# the part of the run that did not execute.  Every limit must leave the
# same outcome and accounting as the reference's per-step check.


def _guarded_fingerprint(module, drive, engine, fuel=50_000_000, record=False):
    """Drive ``module`` under a fuel limit, optionally with the
    revalidation recorder attached; the outcome plus everything
    observable, as plain data."""
    recorder = RunRecorder() if record else None
    interp = make_interpreter(
        module, engine=engine, fuel=fuel, run_recorder=recorder
    )
    try:
        drive(interp)
        outcome = ("ok",)
    except Exception as exc:  # noqa: BLE001 - parity is the point
        outcome = ("err", type(exc).__name__, str(exc))
    fingerprint = {"outcome": outcome, "accounting": _accounting(interp)}
    if recorder is not None:
        fingerprint["spans"] = list(recorder.spans)
        fingerprint["spans_ok"] = recorder.spans_ok
    return fingerprint


def _sampled_fuels(seed, full_steps):
    rng = random.Random(seed)
    fuels = {1, 2, 3, full_steps, full_steps + 1}
    fuels.update(rng.randint(1, full_steps) for _ in range(25))
    return sorted(fuels)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_corpus_fuel_sweep_parity(case_id):
    _assert_corpus_fuel_sweep(case_id)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_corpus_fuel_sweep_every_run_translated(case_id):
    with hot_after(1):
        _assert_corpus_fuel_sweep(case_id, record=True)


def _assert_corpus_fuel_sweep(case_id, record=False):
    case = _case(case_id)
    module = case.build()  # one instance: iids differ between builds
    full = make_interpreter(module)
    case.drive(full)
    for fuel in _sampled_fuels(case_id, full.steps):
        flat, reference = (
            _guarded_fingerprint(module, case.drive, engine, fuel, record)
            for engine in ENGINES
        )
        assert flat == reference, fuel


def build_one_block_loop():
    """A loop whose body is one block and so one run: a volatile
    counter, a PM store, its flush and fence, and the loop test."""
    mb = ModuleBuilder("loop1")
    b = mb.function("main", [], I64, source_file="l.c")
    counter = b.alloca(8)
    b.store(0, counter)
    pm = b.call("pm_alloc", [64], PTR)
    loop = b.new_block("loop")
    done = b.new_block("done")
    b.jmp(loop)
    b.position_at_end(loop)
    value = b.add(b.load(counter), 1)
    b.store(value, counter)
    b.store(b.mul(value, 3), b.gep(pm, b.binop("and", value, 7)))
    b.flush(pm)
    b.fence()
    b.br(b.icmp("ult", value, 5), loop, done)
    b.position_at_end(done)
    b.ret(value)
    return mb.module


def test_one_block_loop_fuel_sweep_parity():
    """The limit lands at every position of the loop's run, in each of
    its first three iterations; the recorder's callee spans match the
    reference's."""
    _assert_one_block_loop_fuel_sweep(build_one_block_loop())


def test_one_block_loop_fuel_sweep_every_run_translated():
    """As above with every run hot on its first entry: from the second
    iteration on, the limit cuts a run that earlier iterations ran
    translated."""
    module = build_one_block_loop()
    with hot_after(1):
        _assert_one_block_loop_fuel_sweep(module)
    assert _translated_loops(module) == 1  # the prologue is on no cycle


def _assert_one_block_loop_fuel_sweep(module):
    loop = next(b for b in module.get_function("main").blocks if b.name == "loop")
    prologue = len(module.get_function("main").entry.instructions)
    for fuel in range(1, prologue + 3 * len(loop.instructions) + 1):
        flat, reference = (
            _guarded_fingerprint(module, drive_main, engine, fuel, record=True)
            for engine in ENGINES
        )
        assert flat == reference, fuel
        assert flat["outcome"][1] == "FuelExhausted"


# ---------------------------------------------------------------------------
# run-recorder parity
# ---------------------------------------------------------------------------
# The revalidation recorder reads the callee spans, also when a fault
# cuts a run short.


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_corpus_recorder_parity(case_id):
    case = _case(case_id)
    module = case.build()
    full = make_interpreter(module)
    case.drive(full)
    for fuel in (50_000_000, full.steps // 2):
        flat, reference = (
            _guarded_fingerprint(module, case.drive, engine, fuel, record=True)
            for engine in ENGINES
        )
        assert flat == reference, fuel
    assert flat["outcome"][1] == "FuelExhausted"


def build_crashing_steps():
    """``step(k)`` stores ``k`` to PM through ``put``, which crashes
    the process inside the callee when ``k == 2``."""
    mb = ModuleBuilder("crashy")
    b = mb.function("put", [("p", PTR), ("v", I64)], source_file="c.c")
    p, v = b.function.args
    crash = b.new_block("crash")
    store = b.new_block("store")
    b.br(b.icmp("eq", v, 2), crash, store)
    b.position_at_end(crash)
    b.call("crash_now", [])
    b.ret()
    b.position_at_end(store)
    b.store(v, p)
    b.flush(p)
    b.ret()
    b = mb.function("step", [("k", I64)], I64, source_file="c.c")
    (k,) = b.function.args
    root = b.call("pm_root", [64], PTR)
    b.call("put", [b.gep(root, b.mul(k, 8)), k])
    b.fence()
    b.ret(b.add(k, 1))
    return mb.module


def drive_steps(interp):
    for k in range(4):
        interp.call("step", [k])


def test_crash_mid_run_recorder_parity():
    module = build_crashing_steps()
    flat, reference = (
        _guarded_fingerprint(module, drive_steps, engine, record=True)
        for engine in ENGINES
    )
    assert flat == reference
    assert flat["outcome"][1] == "SimulatedCrash"
    # steps 0 and 1 returned from ``put``; step 2 crashed inside it
    assert len(flat["spans"]) == 2
    assert flat["spans_ok"] is False


# ---------------------------------------------------------------------------
# full pipeline + batch + kill/resume, against the oracle harness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_pipeline_records_byte_identical_across_engines(case_id):
    assert_records_match(case_id)


def test_batch_reports_byte_identical_across_engines():
    assert_batch_matches_oracle(BATCH_CASES)


def test_kill_mid_flat_batch_resumes_to_reference_baseline(tmp_path):
    """Kill a flat-engine batch at boundary 6 — after the second
    task-done, so the kill interrupts the structural case PMDK-447 —
    resume it, and compare against the uninterrupted reference run."""
    assert_killed_fast_batch_resumes_to_oracle(
        str(tmp_path / "kill-flat.journal"), boundary=6
    )


# ---------------------------------------------------------------------------
# Fig. 4's Redis workloads at the default translation threshold
# ---------------------------------------------------------------------------

#: A little above the smallest YCSB size (8 records, 8 operations) at
#: which every Redis variant's flat run translates a loop (``memcpy``'s).
YCSB_RECORDS = 10
YCSB_OPERATIONS = 10


def _ycsb_session(module, engine):
    """Load, then A-F in Fig. 4's order, on one store; returns every
    observable and the finished interpreter."""
    interp = make_interpreter(module, engine=engine, fuel=500_000_000)
    store = KVStore(module, interp=interp)
    store.init(64, 1 << 21)
    phases = [execute(store, generate_load(YCSB_RECORDS, 96))]
    for name in FIG4_ORDER[1:]:
        ops = generate_run(CORE_WORKLOADS[name], YCSB_RECORDS, YCSB_OPERATIONS, 96)
        phases.append(execute(store, ops))
    interp.finish()
    return {
        "phases": phases,
        "steps": interp.steps,
        "cycles": interp.costs.cycles,
        "counts": dict(interp.costs.counts),
        "output": list(interp.output),
        "pm_image": interp.machine.image.snapshot_durable(),
    }, interp


@pytest.mark.parametrize("variant", [REDIS_PM, REDIS_FULL, REDIS_INTRA])
def test_ycsb_on_redis_variants_identical(variant, default_threshold):
    """The one real application whose loops the flat engine translates
    at its default threshold: per-phase cycles, steps and read hits,
    dense counts, output and the final PM image equal the reference's.
    Every translation covers a cycle of runs, ``memcpy``'s loop among
    them."""
    module, _ = build_redis_variant(
        {REDIS_PM: None, REDIS_FULL: "full", REDIS_INTRA: "off"}[variant]
    )
    flat, interp = _ycsb_session(module, "flat")
    functions = cached_program(module).functions
    assert functions["memcpy"].translations
    for cf in functions.values():
        for members in cf.translations:
            assert loop_of(cf, members[0], members) == members
    reference, _ = _ycsb_session(module, "reference")
    assert flat == reference
