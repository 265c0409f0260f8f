"""pmemcheck-style text serialization of PM traces.

Real pmemcheck emits a textual log of PM operations; Hippocrates's
front-end (Step 1 in Fig. 2) parses it.  We reproduce that interface:
:func:`dump_trace` renders a :class:`~repro.trace.trace.PMTrace` to a
semicolon-separated text log and :func:`load_trace` parses it back,
losslessly.  The Hippocrates orchestrator accepts either the in-memory
trace or the text form, exercising the same parsing path the paper
describes (their Redis traces were over 350 MB of this kind of output).

Line format (one event per line)::

    STORE;<seq>;<addr-hex>;<size>;<space>;<stack>
    FLUSH;<seq>;<addr-hex>;<line-hex>;<kind>;<had_work>;<stack>
    FENCE;<seq>;<kind>;<stack>
    BOUNDARY;<seq>;<label>;<stack>

where ``<stack>`` is ``fn@file:line#iid`` frames joined by ``|``
(outermost first; the final frame is the event's own instruction).
A field outside what :func:`dump_event` writes is malformed: a store
size that is not a load/store width, a negative address, an unknown
space, flush or fence kind, or a ``<had_work>`` other than ``0``/``1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import TraceError
from ..ir.instructions import FENCE_KINDS, FLUSH_KINDS
from ..ir.types import STORE_WIDTHS
from .events import (
    BoundaryEvent,
    CallStack,
    FenceEvent,
    FlushEvent,
    StackFrame,
    StoreEvent,
    TraceEvent,
)
from .trace import PMTrace

_HEADER = "# pmemcheck-compatible PM operation trace (repro format v1)"


#: default cap on individual :class:`TraceWarning` records per load; a
#: badly torn multi-megabyte log must not balloon the report (the
#: paper's Redis traces exceed 350 MB — a corrupt one could otherwise
#: produce millions of warning objects).  Excess lines are counted and
#: summarized in one final record.
MAX_TRACE_WARNINGS = 50


@dataclass(frozen=True)
class TraceWarning:
    """One malformed record skipped during lenient trace ingestion.

    Crash-truncated logs are routine for crashing PM systems; lenient
    mode records what was dropped instead of aborting the whole repair.
    ``source`` is the originating filename (when known), so warnings
    from a multi-file batch stay attributable; ``suppressed`` > 0 marks
    the cap summary record ("N more suppressed") rather than a single
    malformed line.
    """

    line: int  # 1-based line number in the text log (0 for summaries)
    message: str  # why the record was rejected
    text: str  # the offending line (truncated for display)
    source: str = ""  # originating file, "" when the text came inline
    suppressed: int = 0  # cap summary: how many warnings it stands for

    def __str__(self) -> str:
        where = f"{self.source}: " if self.source else ""
        if self.suppressed:
            return f"{where}{self.message}"
        shown = self.text if len(self.text) <= 80 else self.text[:77] + "..."
        return f"{where}line {self.line}: {self.message} ({shown!r})"


#: The ``<space>`` field as :func:`dump_event` writes it -> the event's
#: ``(space, nontemporal)``.
_SPACES = {
    "pm": ("pm", False),
    "vol": ("vol", False),
    "pm.nt": ("pm", True),
    "vol.nt": ("vol", True),
}


def _one_of(text: str, allowed, what: str) -> str:
    if text not in allowed:
        raise TraceError(f"bad {what} {text!r}")
    return text


def _address(text: str) -> int:
    addr = int(text, 16)
    if addr < 0:
        raise TraceError(f"negative address {text!r}")
    return addr


def _format_stack(stack: CallStack) -> str:
    return "|".join(str(frame) for frame in stack)


def _parse_stack(text: str) -> CallStack:
    if not text:
        return ()
    return tuple(StackFrame.parse(piece) for piece in text.split("|"))


def dump_event(event: TraceEvent) -> str:
    """Render one event as a text line."""
    stack = _format_stack(event.stack)
    if isinstance(event, StoreEvent):
        space = f"{event.space}.nt" if event.nontemporal else event.space
        return f"STORE;{event.seq};{event.addr:#x};{event.size};{space};{stack}"
    if isinstance(event, FlushEvent):
        return (
            f"FLUSH;{event.seq};{event.addr:#x};{event.line_addr:#x};"
            f"{event.flush_kind};{int(event.had_work)};{stack}"
        )
    if isinstance(event, FenceEvent):
        return f"FENCE;{event.seq};{event.fence_kind};{stack}"
    if isinstance(event, BoundaryEvent):
        return f"BOUNDARY;{event.seq};{event.label};{stack}"
    raise TraceError(f"cannot serialize event {event!r}")


def _own_fields(seq: str, stack: CallStack) -> dict:
    if not stack:
        raise TraceError("event with empty stack")
    own = stack[-1]
    return {
        "seq": int(seq),
        "iid": own.iid,
        "loc": own.loc,
        "function": own.function,
        "stack": stack,
    }


def parse_event(line: str) -> TraceEvent:
    """Parse one text line back into an event."""
    parts = line.rstrip("\n").split(";")
    tag = parts[0]
    try:
        if tag == "STORE":
            _, seq, addr, size, space, stack_text = parts
            width = int(size)
            if width not in STORE_WIDTHS:
                raise TraceError(f"bad store size {size!r}")
            space, nontemporal = _SPACES[_one_of(space, _SPACES, "space")]
            return StoreEvent(
                addr=_address(addr),
                size=width,
                space=space,
                nontemporal=nontemporal,
                **_own_fields(seq, _parse_stack(stack_text)),
            )
        if tag == "FLUSH":
            _, seq, addr, line_addr, kind, had_work, stack_text = parts
            return FlushEvent(
                addr=_address(addr),
                line_addr=_address(line_addr),
                flush_kind=_one_of(kind, FLUSH_KINDS, "flush kind"),
                had_work=_one_of(had_work, ("0", "1"), "had_work") == "1",
                **_own_fields(seq, _parse_stack(stack_text)),
            )
        if tag == "FENCE":
            _, seq, kind, stack_text = parts
            return FenceEvent(
                fence_kind=_one_of(kind, FENCE_KINDS, "fence kind"),
                **_own_fields(seq, _parse_stack(stack_text)),
            )
        if tag == "BOUNDARY":
            _, seq, label, stack_text = parts
            return BoundaryEvent(
                label=label, **_own_fields(seq, _parse_stack(stack_text))
            )
    except (ValueError, TraceError) as exc:
        raise TraceError(f"malformed trace line {line!r}: {exc}") from exc
    raise TraceError(f"unknown trace record {tag!r}")


def dump_trace(trace: PMTrace) -> str:
    """Serialize a whole trace to text."""
    lines: List[str] = [_HEADER]
    lines.extend(dump_event(event) for event in trace)
    return "\n".join(lines) + "\n"


def load_trace(
    text: str,
    strict: bool = True,
    warnings: Optional[List[TraceWarning]] = None,
    source: str = "",
    max_warnings: int = MAX_TRACE_WARNINGS,
) -> PMTrace:
    """Parse a text log back into a :class:`PMTrace`.

    In strict mode (the default) a malformed record raises
    :class:`TraceError` carrying the 1-based line number.  With
    ``strict=False`` — for the crash-truncated-log case — malformed
    records are skipped and a :class:`TraceWarning` per dropped line is
    appended to ``warnings`` (when provided); the surviving events
    still form a usable trace, so every bug whose records survived can
    be repaired.

    Warning accumulation is bounded: after ``max_warnings`` individual
    records (<= 0 = unbounded), further malformed lines are only
    counted, and one final summary record ("N more suppressed") closes
    the list.  ``source`` stamps every warning with the originating
    filename for batch-log attribution.
    """
    events: List[TraceEvent] = []
    suppressed = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            events.append(parse_event(line))
        except TraceError as exc:
            if strict:
                raise TraceError(str(exc), line=line_no) from exc
            if warnings is None:
                continue
            if max_warnings > 0 and len(warnings) >= max_warnings:
                suppressed += 1
                continue
            warnings.append(
                TraceWarning(
                    line=line_no, message=str(exc), text=line, source=source
                )
            )
    if suppressed and warnings is not None:
        warnings.append(
            TraceWarning(
                line=0,
                message=f"{suppressed} more malformed record(s) suppressed "
                f"(cap {max_warnings})",
                text="",
                source=source,
                suppressed=suppressed,
            )
        )
    return PMTrace(events)
