"""Unit tests for the pmemcheck-style durability checker."""

import pytest

from repro.corpus import all_cases
from repro.detect import BugKind, check_trace, durability, pmemcheck_run
from repro.interp import ENGINES, Interpreter
from repro.ir import I64, ModuleBuilder, PTR
from repro.memory import lines_covering
from repro.supervisor.tasks import run_case
from repro.trace.events import StoreEvent


def detect(build, entry="main"):
    mb = ModuleBuilder("t")
    build(mb)
    return pmemcheck_run(mb.module, lambda i: i.call(entry))[0]


class TestBugKinds:
    def test_clean_program(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.flush(p)
            b.fence()
            b.ret(0)

        assert detect(build).bug_count == 0

    def test_missing_flush_and_fence(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 1
        assert result.bugs[0].kind is BugKind.MISSING_FLUSH_FENCE
        assert result.bugs[0].boundary.label == "exit"

    def test_missing_flush_with_later_fence(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.fence()  # a fence exists, so an inserted flush is ordered
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 1
        assert result.bugs[0].kind is BugKind.MISSING_FLUSH

    def test_missing_fence(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.flush(p)  # weakly ordered, never fenced
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 1
        assert result.bugs[0].kind is BugKind.MISSING_FENCE
        assert result.bugs[0].flush is not None

    def test_clflush_needs_no_fence(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.flush(p, "clflush")  # strongly ordered
            b.ret(0)

        assert detect(build).bug_count == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_clflush_after_clwb_leaves_nothing_pending(self, engine):
        """store; clwb; clflush: the clflush completes the write-back
        the clwb queued, so the checker and the cache model agree that
        nothing is pending at exit."""
        mb = ModuleBuilder("t")
        b = mb.function("main", [], I64)
        p = b.call("pm_alloc", [64], PTR)
        b.store(1, p)
        b.flush(p, "clwb")
        b.flush(p, "clflush")
        b.ret(0)
        result, _, interp = pmemcheck_run(
            mb.module, lambda i: i.call("main"), engine=engine
        )
        assert result.bug_count == 0
        assert interp.machine.cache.pending_lines() == []

    def test_volatile_stores_never_flagged(self):
        def build(mb):
            b = mb.function("main", [], I64)
            v = b.call("vol_alloc", [64], PTR)
            b.store(1, v)
            b.ret(0)

        assert detect(build).bug_count == 0


class TestBoundaries:
    def test_checkpoint_is_a_boundary(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.call("checkpoint", [])  # bug observed here...
            b.flush(p)
            b.fence()  # ...even though it is fixed later
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 1
        assert result.bugs[0].boundary.label == "ckpt"

    def test_store_after_last_boundary_flagged_at_exit(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.flush(p)
            b.fence()
            b.call("checkpoint", [])
            b.store(2, p)  # never persisted before exit
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 1
        assert result.bugs[0].boundary.label == "exit"


class TestReportGranularity:
    def test_loop_occurrences_deduplicated(self):
        def build(mb):
            b = mb.function("main", [("n", I64)], I64)
            p = b.call("pm_alloc", [1024], PTR)
            i = b.alloca(8)
            b.store(0, i)
            cond = b.new_block("cond")
            body = b.new_block("body")
            done = b.new_block("done")
            b.jmp(cond)
            b.position_at_end(cond)
            b.br(b.icmp("ult", b.load(i), b.function.args[0]), body, done)
            b.position_at_end(body)
            b.store(7, b.gep(p, b.mul(b.load(i), 64)))
            b.store(b.add(b.load(i), 1), i)
            b.jmp(cond)
            b.position_at_end(done)
            b.ret(0)

        mb = ModuleBuilder("t")
        build(mb)
        result, _, _ = pmemcheck_run(mb.module, lambda it: it.call("main", [5]))
        assert result.bug_count == 1
        assert result.bugs[0].occurrences == 5

    def test_distinct_call_paths_are_distinct_bugs(self):
        def build(mb):
            b = mb.function("setter", [("p", PTR)], I64)
            b.store(9, b.function.args[0])
            b.ret(0)
            b = mb.function("main", [], I64)
            p1 = b.call("pm_alloc", [64], PTR)
            p2 = b.call("pm_alloc", [64], PTR)
            b.call("setter", [p1], I64)
            b.call("setter", [p2], I64)
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 2  # same store, two call sites

    def test_same_path_same_bug(self):
        def build(mb):
            b = mb.function("setter", [("p", PTR)], I64)
            b.store(9, b.function.args[0])
            b.ret(0)
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.call("setter", [p], I64)
            b.call("setter", [p], I64)
            b.ret(0)

        # Two calls from two *different* call sites still count as two
        # paths (distinct fix locations), even with the same pointer.
        assert detect(build).bug_count == 2


class TestPerfDiagnostics:
    def test_redundant_flush_reported(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.flush(p)  # nothing to flush
            b.ret(0)

        result = detect(build)
        assert result.bug_count == 0
        assert len(result.perf) == 1

    def test_summary_mentions_everything(self):
        def build(mb):
            b = mb.function("main", [], I64)
            p = b.call("pm_alloc", [64], PTR)
            b.store(1, p)
            b.ret(0)

        text = detect(build).summary()
        assert "missing-flush&fence" in text


def test_corpus_boundaries_visit_each_entry_once(monkeypatch):
    """A boundary visits only the (PM store, covered line) entries no
    earlier boundary attributed.  Over the 13 corpus repairs (detection
    and revalidation, each feed counted), the entries boundaries visit
    stay within the entries fed in (1,490 of 5,493); a checker that
    re-walks every pending store at every boundary visits 47,140."""
    fed = visited = 0
    feed, take = durability.DurabilityChecker.feed, durability._take

    def counting_feed(self, state, event):
        nonlocal fed
        if isinstance(event, StoreEvent) and event.space == "pm":
            fed += len(lines_covering(event.addr, event.size))
        feed(self, state, event)

    def counting_take(fresh, stamps, scope):
        nonlocal visited
        visited += sum(len(entries) for entries in fresh.values())
        return take(fresh, stamps, scope)

    monkeypatch.setattr(durability.DurabilityChecker, "feed", counting_feed)
    monkeypatch.setattr(durability, "_take", counting_take)
    for case in all_cases():
        run_case(case)
    assert 0 < visited <= fed
