"""PM bug-finding tools (the front half of the paper's pipeline).

Two detectors are provided, both producing the same report format:

- :func:`check_trace` — pmemcheck-style: checks *every* PM store at
  every durability boundary, no annotations needed.
- :func:`repro.detect.pmtest.check_assertions` — PMTest-style: checks
  developer-written ``pmtest_assert_persisted`` assertions only.

:func:`pmemcheck_run` is the convenience harness that executes a
workload under tracing and checks the result — the equivalent of
``valgrind --tool=pmemcheck ./app``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .. import lazy_exports
from ..obs.observability import NULL_OBS, Observability

if TYPE_CHECKING:
    from ..interp.costs import CostModel
    from ..interp.interpreter import Interpreter
    from ..ir.module import Module
    from ..trace.trace import PMTrace
    from .reports import DetectionResult

_EXPORTS = {
    ".durability": ("DurabilityChecker", "check_trace", "check_trace_pmtest"),
    ".pmtest": ("assertion_labels", "check_assertions"),
    ".reports": ("BugKind", "BugReport", "DetectionResult", "PerfReport"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

#: A workload driver: receives a live interpreter and exercises the
#: module (host-side setup, entry-point calls, ...).
Driver = Callable[["Interpreter"], None]


def pmemcheck_run(
    module: Module,
    driver: Driver,
    cost_model: Optional[CostModel] = None,
    fuel: int = 50_000_000,
    obs: Observability = NULL_OBS,
    engine: Optional[str] = None,
) -> Tuple[DetectionResult, PMTrace, Interpreter]:
    """Execute ``driver`` against ``module`` under pmemcheck-style tracing.

    Returns the detection result, the trace (which Hippocrates
    consumes), and the finished interpreter (for inspecting machine
    state or observable output).  ``obs`` receives the interpreter's
    step/flush/fence/store totals.  ``engine`` picks the
    execution engine (default ``"flat"``); both engines produce
    byte-identical traces.
    """
    from ..interp import make_interpreter
    from .durability import check_trace

    interp = make_interpreter(
        module,
        engine=engine,
        cost_model=cost_model,
        fuel=fuel,
        obs=obs,
    )
    driver(interp)
    trace = interp.finish()
    return check_trace(trace), trace, interp


__all__ = [
    *(name for names in _EXPORTS.values() for name in names),
    "Driver",
    "pmemcheck_run",
]
