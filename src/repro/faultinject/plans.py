"""Deterministic, seeded fault plans.

A :class:`FaultPlan` names one component of the pipeline and one way it
fails.  Plans are pure data — the :mod:`~repro.faultinject.injector`
interprets them — so a campaign's fault matrix is reproducible from the
plan list alone, and a failing combination can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError

#: components a plan may target.  The first five are in-process seams
#: of one repair pipeline; the last two are process-level seams of the
#: batch supervisor.
TARGETS = (
    "parser",
    "locator",
    "classifier",
    "transformer",
    "budget",
    "worker",
    "supervisor",
)

#: failure shapes.  Process-level modes: ``hang-worker`` wedges a
#: worker forever (a stuck Andersen fixpoint — the watchdog must kill
#: it); ``kill-worker-at-nth`` makes the worker on the Nth batch task
#: die silently (no exit status ceremony, no result); ``kill-
#: supervisor-at-nth`` SIGKILLs the supervisor itself right after its
#: Nth journal checkpoint.  (The kill/resume campaign tears journal
#: tails itself, with :func:`~repro.faultinject.resume.tear_journal_tail`.)
MODES = (
    "raise-at-nth",
    "corrupt-trace-line",
    "budget-exhaustion",
    "hang-worker",
    "kill-worker-at-nth",
    "kill-supervisor-at-nth",
)

#: which modes make sense for which targets (None = the legacy
#: in-process targets, which all use the first three modes)
_PROCESS_MODES = {
    "worker": ("hang-worker", "kill-worker-at-nth"),
    "supervisor": ("kill-supervisor-at-nth",),
}


class InjectedFault(ReproError):
    """The exception raised by raise-at-Nth-call fault plans.

    A :class:`ReproError` subclass so it flows through the same
    quarantine/degrade paths a real subsystem failure would take.
    """


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault to inject into one pipeline component.

    :param target: which component fails (see :data:`TARGETS`).
    :param mode: how it fails (see :data:`MODES`).
    :param nth: for ``raise-at-nth``: the 1-based call index that
        raises; calls before it behave normally.
    :param seed: for ``corrupt-trace-line``: the RNG seed choosing
        which lines are corrupted and how.
    :param corrupt_lines: for ``corrupt-trace-line``: how many event
        lines to damage.
    :param budget_items: for ``budget-exhaustion``: the analysis work
        budget (0 exhausts immediately).
    :param attempts: for worker faults: how many attempts of the
        targeted task the fault affects (1 = first attempt only, so the
        retry succeeds; 0 = every attempt, so the task is quarantined).
    """

    target: str
    mode: str = "raise-at-nth"
    nth: int = 1
    seed: int = 0
    corrupt_lines: int = 1
    budget_items: int = 0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown fault target {self.target!r}; use {TARGETS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; use {MODES}")
        process_modes = _PROCESS_MODES.get(self.target)
        if process_modes is not None and self.mode not in process_modes:
            raise ValueError(
                f"target {self.target!r} supports modes {process_modes}, "
                f"not {self.mode!r}"
            )
        if process_modes is None and self.mode not in (
            "raise-at-nth", "corrupt-trace-line", "budget-exhaustion"
        ):
            raise ValueError(
                f"mode {self.mode!r} needs a process-level target "
                f"{tuple(_PROCESS_MODES)}, not {self.target!r}"
            )

    @property
    def name(self) -> str:
        if self.mode == "raise-at-nth":
            return f"{self.target}:raise@{self.nth}"
        if self.mode == "corrupt-trace-line":
            return f"parser:corrupt x{self.corrupt_lines} seed={self.seed}"
        if self.mode == "hang-worker":
            scope = "always" if self.attempts == 0 else f"x{self.attempts}"
            return f"worker:hang@task{self.nth} {scope}"
        if self.mode == "kill-worker-at-nth":
            scope = "always" if self.attempts == 0 else f"x{self.attempts}"
            return f"worker:kill@task{self.nth} {scope}"
        if self.mode == "kill-supervisor-at-nth":
            return f"supervisor:kill@checkpoint{self.nth}"
        return f"budget:items={self.budget_items}"

    def exception(self) -> InjectedFault:
        """The exception a raise-at-Nth plan injects."""
        return InjectedFault(
            f"injected fault: {self.target} failure at call {self.nth}"
        )
