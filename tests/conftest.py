"""Shared test fixtures: canonical modules from the paper's listings,
and the flat engine's translation threshold.

``--hot-after N`` makes every flat-engine run hot on its N-th entry for
the whole session, so each loop is translated once all its runs have
been entered N times, and any test driving the flat engine runs its
loops translated; ``--hot-after 1`` turns the tier-1 suite into a
translated-code differential.  Tests that pin the default threshold
skip under it.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.detect import pmemcheck_run
from repro.interp import engine as flat_engine
from repro.ir import I64, I8, ModuleBuilder, PTR


def hot_after(entries):
    """Make each run hot on its ``entries``-th entry: a loop is
    translated once every run on it is hot."""
    return mock.patch.object(flat_engine, "_TRANSLATE_AFTER", entries)


def pytest_addoption(parser):
    parser.addoption(
        "--hot-after",
        type=int,
        default=None,
        metavar="N",
        help="make every flat-engine run hot on its N-th entry, so each loop "
        "translates once its runs have been entered N times (tests only)",
    )


@pytest.fixture(scope="session", autouse=True)
def session_hot_after(request):
    """The ``--hot-after`` threshold, patched in for the whole session;
    None (and the engine's own threshold) without the option."""
    entries = request.config.getoption("--hot-after")
    if entries is None:
        yield None
        return
    with hot_after(entries):
        yield entries


@pytest.fixture
def default_threshold(session_hot_after):
    """For assertions about the engine's own translation threshold."""
    if session_hot_after is not None:
        pytest.skip(
            f"asserts the default threshold; --hot-after {session_hot_after} "
            "replaces it"
        )


def build_listing5_module():
    """The paper's Listing 5 program (pre-fix).

    ``update`` stores through a pointer that is volatile on the hot
    loop path and persistent on the final call; the fence in ``foo``
    exists but nothing flushes the PM store.
    """
    mb = ModuleBuilder("listing5")
    b = mb.function(
        "update", [("addr", PTR), ("idx", I64), ("val", I64)], source_file="listing5.c"
    )
    p = b.gep(b.function.args[0], b.function.args[1])
    b.store(b.function.args[2], p, I8)
    b.ret()

    b = mb.function("modify", [("addr", PTR)], source_file="listing5.c")
    b.call("update", [b.function.args[0], 0, 7])
    b.ret()

    b = mb.function(
        "foo", [("vol_addr", PTR), ("pm_addr", PTR)], source_file="listing5.c"
    )
    loop_i = b.alloca(8)
    b.store(0, loop_i)
    cond_bb = b.new_block("cond")
    body_bb = b.new_block("body")
    done_bb = b.new_block("done")
    b.jmp(cond_bb)
    b.position_at_end(cond_bb)
    b.br(b.icmp("ult", b.load(loop_i), 3), body_bb, done_bb)
    b.position_at_end(body_bb)
    b.call("modify", [b.function.args[0]])
    b.store(b.add(b.load(loop_i), 1), loop_i)
    b.jmp(cond_bb)
    b.position_at_end(done_bb)
    b.call("modify", [b.function.args[1]])
    b.fence()
    b.ret()

    b = mb.function("main", [], I64, source_file="listing5.c")
    vol = b.call("vol_alloc", [64], PTR)
    pm = b.call("pm_alloc", [64], PTR)
    b.call("foo", [vol, pm])
    b.ret(0)
    return mb.module


def drive_main(interp):
    interp.call("main")


@pytest.fixture
def listing5():
    """(module, detection, trace, interpreter) for Listing 5."""
    module = build_listing5_module()
    detection, trace, interp = pmemcheck_run(module, drive_main)
    return module, detection, trace, interp
