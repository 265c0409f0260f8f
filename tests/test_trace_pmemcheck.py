"""Unit tests for trace events and the pmemcheck text format."""

import pytest

from repro.errors import TraceError
from repro.interp import Interpreter, Machine
from repro.ir import DebugLoc, FENCE_KINDS, FLUSH_KINDS, I64, ModuleBuilder, PTR
from repro.ir.types import STORE_WIDTHS
from repro.revalidate.recording import RecordingTraceRecorder, VolAnchorOp
from repro.trace import (
    BoundaryEvent,
    FenceEvent,
    FlushEvent,
    PMTrace,
    StackFrame,
    StoreEvent,
    TraceEvent,
    dump_event,
    innermost,
    dump_trace,
    load_trace,
    parse_event,
)


def recorded_trace():
    mb = ModuleBuilder("t")
    b = mb.function("writer", [("p", PTR)], I64)
    b.store(1, b.function.args[0])
    b.flush(b.function.args[0])
    b.fence()
    b.ret(0)
    b = mb.function("main", [], I64)
    p = b.call("pm_alloc", [64], PTR)
    b.call("writer", [p], I64)
    b.call("checkpoint", [])
    b.ret(0)
    interp = Interpreter(mb.module)
    interp.call("main")
    return interp.finish()


class TestEventStructure:
    def test_event_kinds_in_order(self):
        trace = recorded_trace()
        kinds = [e.kind for e in trace]
        assert kinds == ["store", "flush", "fence", "boundary", "boundary"]

    def test_store_event_stack(self):
        trace = recorded_trace()
        store = trace.stores()[0]
        assert [f.function for f in store.stack] == ["main", "writer"]
        assert store.function == "writer"
        assert store.caller_frames[0].function == "main"

    def test_flush_event_line_addr(self):
        trace = recorded_trace()
        flush = trace.flushes()[0]
        assert flush.line_addr % 64 == 0
        assert flush.had_work

    def test_pm_store_iids(self):
        trace = recorded_trace()
        assert len(trace.pm_store_iids()) == 1

    def test_volatile_stores_not_recorded_by_default(self):
        mb = ModuleBuilder("t")
        b = mb.function("main", [], I64)
        v = b.call("vol_alloc", [8], PTR)
        b.store(1, v)
        b.ret(0)
        interp = Interpreter(mb.module)
        interp.call("main")
        assert len(interp.finish().stores(pm_only=False)) == 0

    def test_volatile_stores_optional(self):
        """Only the revalidation recorder notes volatile stores, on its
        side channel; the trace still holds PM operations only."""
        mb = ModuleBuilder("t")
        b = mb.function("main", [], I64)
        v = b.call("vol_alloc", [8], PTR)
        store = b.store(1, v)
        b.ret(0)
        machine = Machine()
        machine.recorder = recorder = RecordingTraceRecorder()
        interp = Interpreter(mb.module, machine=machine)
        recorder.current_iid = interp.current_iid
        interp.call("main")
        assert len(interp.finish().stores(pm_only=False)) == 0
        assert recorder.vol_ops == [VolAnchorOp(0, store.iid, "store")]


class TestEventValues:
    """What callers rely on, whatever class the events are built from."""

    LOC = DebugLoc("f.c", 3)
    STACK = (StackFrame("main", 1, DebugLoc("f.c", 1)), StackFrame("fn", 2, LOC))

    def test_equal_fields_make_equal_events_with_equal_hashes(self):
        store = StoreEvent(1, 2, self.LOC, "fn", self.STACK, addr=64, size=8)
        again = StoreEvent(1, 2, self.LOC, "fn", self.STACK, addr=64, size=8)
        assert store == again and hash(store) == hash(again)
        assert len({store, again}) == 1
        assert store != StoreEvent(1, 2, self.LOC, "fn", self.STACK, addr=72, size=8)
        frame = StackFrame("fn", 2, self.LOC)
        assert frame == StackFrame("fn", 2, self.LOC)
        assert hash(frame) == hash(StackFrame("fn", 2, self.LOC))

    def test_events_of_different_kinds_are_never_equal(self):
        fence = FenceEvent(1, 2, self.LOC, "fn", self.STACK, fence_kind="sfence")
        boundary = BoundaryEvent(1, 2, self.LOC, "fn", self.STACK, label="sfence")
        assert fence != boundary
        flush = FlushEvent(1, 2, self.LOC, "fn", self.STACK)
        assert flush != StoreEvent(1, 2, self.LOC, "fn", self.STACK)

    def test_kind_and_caller_frames(self):
        events = [
            StoreEvent(1, 2, self.LOC, "fn", self.STACK),
            FlushEvent(1, 2, self.LOC, "fn", self.STACK),
            FenceEvent(1, 2, self.LOC, "fn", self.STACK),
            BoundaryEvent(1, 2, self.LOC, "fn", self.STACK),
        ]
        assert [e.kind for e in events] == ["store", "flush", "fence", "boundary"]
        for event in events:
            assert isinstance(event, TraceEvent)
            assert event.caller_frames == self.STACK[:1]
            assert innermost(event) == self.STACK[-1]

    def test_events_are_immutable(self):
        event = recorded_trace()[0]
        with pytest.raises(AttributeError):
            event.seq = 99
        with pytest.raises(AttributeError):
            event.stack[-1].iid = 99

    def test_dump_parse_round_trip_returns_an_equal_event(self):
        for event in recorded_trace():
            parsed = parse_event(dump_event(event))
            assert parsed == event and type(parsed) is type(event)


class TestTextFormat:
    def test_dump_load_roundtrip(self):
        trace = recorded_trace()
        text = dump_trace(trace)
        reloaded = load_trace(text)
        assert dump_trace(reloaded) == text
        assert len(reloaded) == len(trace)

    def test_roundtrip_preserves_fields(self):
        trace = recorded_trace()
        reloaded = load_trace(dump_trace(trace))
        original = trace.stores()[0]
        restored = reloaded.stores()[0]
        assert restored.addr == original.addr
        assert restored.size == original.size
        assert restored.stack == original.stack
        assert restored.loc == original.loc

    def test_stack_frame_parse(self):
        frame = StackFrame("fn", 17, DebugLoc("f.c", 3))
        assert StackFrame.parse(str(frame)) == frame

    def test_dump_event_tags(self):
        trace = recorded_trace()
        assert dump_event(trace.stores()[0]).startswith("STORE;")
        assert dump_event(trace.flushes()[0]).startswith("FLUSH;")
        assert dump_event(trace.fences()[0]).startswith("FENCE;")
        assert dump_event(trace.boundaries()[0]).startswith("BOUNDARY;")

    @pytest.mark.parametrize(
        "line",
        [
            "WIBBLE;1;2",
            "STORE;x;0x10;8;pm;main@a.c:1#1",
            "STORE;1;0x10;8;pm;",  # empty stack
            "FLUSH;1;0x10;0x0;clwb;maybe;main@a.c:1#1",
            # fields outside what dump_event writes
            "STORE;1;0x100000040;99999999999;pm;work@work.c:3#2061",
            "STORE;1;0x100000040;-8;pm;main@a.c:1#1",
            "STORE;1;0x100000040;0;pm;main@a.c:1#1",
            "STORE;1;0x100000040;3;pm;main@a.c:1#1",
            "STORE;1;0x100000040;16;pm;main@a.c:1#1",
            "STORE;1;0x100000040;8;xyz;main@a.c:1#1",
            "STORE;1;0x100000040;8;pm.nt.nt;main@a.c:1#1",
            "STORE;1;0x100000040;8;nt;main@a.c:1#1",
            "STORE;1;-0x100000040;8;pm;main@a.c:1#1",
            "FLUSH;1;-0x10;0x0;clwb;1;main@a.c:1#1",
            "FLUSH;1;0x10;-0x40;clwb;1;main@a.c:1#1",
            "FLUSH;1;0x10;0x0;bogus;1;main@a.c:1#1",
            "FLUSH;1;0x10;0x0;clwb;2;main@a.c:1#1",
            "FLUSH;1;0x10;0x0;clwb;-1;main@a.c:1#1",
            "FENCE;1;bogus;main@a.c:1#1",
        ],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(TraceError):
            parse_event(line)

    @pytest.mark.parametrize(
        "line",
        [
            f"STORE;1;0x100000040;{size};{space};main@a.c:1#1"
            for size in sorted(STORE_WIDTHS)
            for space in ("pm", "vol", "pm.nt", "vol.nt")
        ]
        + [
            f"FLUSH;1;0x100000048;0x100000040;{kind};{had_work};main@a.c:1#1"
            for kind in FLUSH_KINDS
            for had_work in "01"
        ]
        + [f"FENCE;1;{kind};main@a.c:1#1" for kind in FENCE_KINDS],
    )
    def test_every_field_value_dump_event_writes_round_trips(self, line):
        assert dump_event(parse_event(line)) == line

    def test_load_skips_comments_and_blanks(self):
        trace = recorded_trace()
        text = "# header\n\n" + dump_trace(trace)
        assert len(load_trace(text)) == len(trace)


class TestPMTraceContainer:
    def test_filters(self):
        trace = recorded_trace()
        assert len(trace.of_kind(StoreEvent)) == 1
        assert len(trace.of_kind(FlushEvent)) == 1
        assert len(trace.of_kind(FenceEvent)) == 1
        assert len(trace.of_kind(BoundaryEvent)) == 2

    def test_indexing(self):
        trace = recorded_trace()
        assert trace[0].kind == "store"
