"""Bug reports produced by the PM bug-finding tools.

These are the currency between the detectors and Hippocrates: a report
names the *kind* of durability bug, the store event that created the
unmet durability obligation, the flush event (for missing-fence bugs),
and the boundary event *I* by which the update had to be durable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..trace.events import BoundaryEvent, FlushEvent, StoreEvent


class BugKind(Enum):
    """The paper's three durability bug classes (§2.1)."""

    #: Store flushed, but the flush is not ordered by a fence before I.
    MISSING_FENCE = "missing-fence"
    #: Store never flushed, but a later fence exists that would order an
    #: inserted flush (fix: flush only).
    MISSING_FLUSH = "missing-flush"
    #: Store neither flushed nor covered by any later fence
    #: (fix: flush and fence).
    MISSING_FLUSH_FENCE = "missing-flush&fence"


@dataclass
class BugReport:
    """One durability bug."""

    kind: BugKind
    store: StoreEvent
    boundary: BoundaryEvent
    #: the un-fenced flush, for MISSING_FENCE bugs
    flush: Optional[FlushEvent] = None
    #: dynamic occurrence count (the same static store may miss its
    #: flush on every loop iteration; one report covers them all)
    occurrences: int = 1
    report_id: int = 0

    def describe(self) -> str:
        where = f"{self.store.function} at {self.store.loc}"
        return (
            f"[{self.kind.value}] store #{self.store.iid} ({where}), "
            f"{self.occurrences} occurrence(s), must be durable by "
            f"boundary '{self.boundary.label}'"
        )

    def __repr__(self) -> str:
        return f"<BugReport {self.describe()}>"


@dataclass
class PerfReport:
    """A performance diagnostic: a redundant flush of a clean line.

    Reported for information only — the paper's §7 explains why
    Hippocrates never *removes* flushes ("do no harm").
    """

    flush: FlushEvent
    occurrences: int = 1

    def describe(self) -> str:
        return (
            f"[redundant-flush] flush #{self.flush.iid} "
            f"({self.flush.function} at {self.flush.loc}), "
            f"{self.occurrences} occurrence(s)"
        )


@dataclass
class DetectionResult:
    """Everything a detector found in one trace."""

    bugs: List[BugReport] = field(default_factory=list)
    perf: List[PerfReport] = field(default_factory=list)

    @property
    def bug_count(self) -> int:
        return len(self.bugs)

    def by_kind(self, kind: BugKind) -> List[BugReport]:
        return [b for b in self.bugs if b.kind == kind]

    def summary(self) -> str:
        lines = [f"{len(self.bugs)} durability bug(s), {len(self.perf)} perf note(s)"]
        lines.extend("  " + bug.describe() for bug in self.bugs)
        lines.extend("  " + note.describe() for note in self.perf)
        return "\n".join(lines)
