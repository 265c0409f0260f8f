"""PM operation traces: events, containers, and pmemcheck-style text I/O."""

from .. import lazy_exports

_EXPORTS = {
    ".events": (
        "BoundaryEvent", "CallStack", "FenceEvent", "FlushEvent",
        "StackFrame", "StoreEvent", "TraceEvent", "innermost",
    ),
    ".pmemcheck": (
        "MAX_TRACE_WARNINGS", "TraceWarning", "dump_event", "dump_trace",
        "load_trace", "parse_event",
    ),
    ".trace": ("PMTrace", "TraceRecorder"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
