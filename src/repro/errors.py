"""Exception hierarchy for the Hippocrates reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the package's failures with a single except clause
while still distinguishing subsystems by subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IRError(ReproError):
    """Malformed IR: bad operands, type mismatches, broken CFG."""


class IRParseError(IRError):
    """Textual IR could not be parsed."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class VerificationError(IRError):
    """The IR verifier found a structural violation."""


class MemoryError_(ReproError):
    """Bad access to the simulated address space (OOB, unmapped, misuse)."""


class SegmentationFault(MemoryError_):
    """Access to an unmapped or out-of-bounds simulated address."""


class InterpreterError(ReproError):
    """Runtime failure while executing IR (bad call, missing function)."""


class TrapError(InterpreterError):
    """The program executed an explicit ``trap`` instruction."""


class FuelExhausted(InterpreterError):
    """The interpreter ran out of its instruction budget (likely a loop)."""


class TraceError(ReproError):
    """A PM trace was malformed or could not be parsed.

    ``line`` is the 1-based line number of the offending record when the
    trace came from a pmemcheck-style text log (0 when unknown).
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class FixError(ReproError):
    """Hippocrates could not compute or apply a fix."""


class LocateError(FixError):
    """A trace event could not be mapped back to an IR instruction."""


class ValidationError(FixError):
    """A fixed module still contains durability bugs (should never happen)."""


class RollbackError(FixError):
    """A fix-transaction rollback itself failed (double failure).

    The module may be left partially mutated, so this is never
    quarantined-and-continued: it propagates even under ``keep_going``.
    ``__cause__`` is the original failure that triggered the rollback;
    ``__context__`` is the undo action's own exception.
    """


class BudgetExceeded(ReproError):
    """A resource budget (wall clock, states, fixpoint work) ran out.

    Raised by the Andersen fixpoint and :class:`~repro.memory.crash.
    CrashExplorer` when given a strict :class:`~repro.budget.Budget`;
    the repair pipeline treats it as a downgrade signal, not a failure.
    """

    def __init__(self, message: str, spent: int = 0, limit: int = 0):
        self.spent = spent
        self.limit = limit
        super().__init__(message)
