"""The repair's two whole-program analyses, cached against the module's shape.

Fig. 5's offline cost is the Andersen points-to solution; the call
graph rides along with it.  :class:`AnalysisManager` builds each once
and answers every later lookup from its cache for as long as the
module's :attr:`~repro.ir.module.Module.shape_epoch` stays where it was
when the value was computed:

==============================  =========  =========
mutation                        points_to  callgraph
==============================  =========  =========
flush/fence/gep insert or undo  kept       kept
clone or retarget, or its undo  dropped    dropped
failed rollback                 dropped    dropped
==============================  =========  =========

A fix's flush, fence or gep insertion moves only its function's stamp,
so both analyses stay.  A clone, a retarget, the undo of either and a
failed rollback move the shape epoch, so both are rebuilt on their next
lookup.  This rests on one condition, stated on
:meth:`~repro.ir.module.Module.bump_epoch` too: **a body-only change
adds no call and no store.**  Without one there is no new allocation
site, heap edge or call edge, so the Andersen solution and the call
graph stay exact for every value they knew (a fix's gep feeds only its
flush).  Every body edit after a module is built is a fix's flush,
fence or gep insertion, or its undo.

Failures cache too: if computing an analysis raised (e.g. the Andersen
fixpoint exhausted its budget), the same exception is re-raised on
every lookup at the same shape instead of re-running the doomed
computation; a shape change drops it with the values.

Verification is not the manager's: each function carries its own
verified state, keyed on the same stamps
(:func:`~repro.ir.verifier.verify_changed`), so the ``analysis.hits``
and ``analysis.misses`` counters count analysis lookups only.

When a :class:`~repro.analysis.diskcache.AnalysisDiskCache` is attached,
the ``points_to`` computation first consults the content-addressed store
before solving, and persists fresh solutions for other worker processes
to reuse.  The call graph is always built here: it is one linear scan.
A fresh solve (never a disk hit) counts its fixpoint's work as
``analysis.andersen_passes`` and ``analysis.andersen_evaluations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..budget import Budget
from ..ir.module import Module
from ..obs.observability import NULL_OBS, Observability
from .andersen import PointsTo
from .callgraph import CallGraph
from .diskcache import AnalysisDiskCache

#: The two analysis keys :meth:`AnalysisManager.get` answers.
POINTS_TO = "points_to"
CALLGRAPH = "callgraph"


@dataclass
class _Entry:
    """One cached result (or cached failure), stamped with the shape
    epoch it was computed at."""

    shape_epoch: int
    value: object = None
    failure: Optional[BaseException] = None


class AnalysisManager:
    """Caches the points-to solution and the call graph against a
    module's shape epoch."""

    def __init__(
        self,
        module: Module,
        budget: Optional[Budget] = None,
        disk_cache: Optional[AnalysisDiskCache] = None,
        obs: Observability = NULL_OBS,
    ):
        self.module = module
        #: Budget charged by the points-to fixpoint; assignable after
        #: construction (fault injection does) — read at compute time.
        self.budget = budget
        self.disk_cache = disk_cache
        #: receives the ``analysis.*`` counters (see the module docs)
        self.obs = obs
        self._compute = {
            POINTS_TO: self._compute_points_to,
            CALLGRAPH: lambda: CallGraph(self.module),
        }
        self._entries: Dict[str, _Entry] = {}

    def get(self, key: str):
        """The analysis result for ``key``, computing it if there is no
        entry at the module's current shape.  A cached *failure*
        re-raises; an unknown key raises :class:`KeyError`."""
        compute = self._compute.get(key)
        if compute is None:
            raise KeyError(f"no analysis registered for key {key!r}")
        shape = self.module.shape_epoch
        entry = self._entries.get(key)
        if entry is not None:
            if entry.shape_epoch == shape:
                if entry.failure is not None:
                    self.obs.count("analysis.failures_replayed")
                    raise entry.failure
                self.obs.count("analysis.hits")
                return entry.value
            self.obs.count("analysis.invalidations")
        self.obs.count("analysis.misses")
        try:
            value = compute()
        except Exception as exc:
            self._entries[key] = _Entry(shape, failure=exc)
            raise
        self._entries[key] = _Entry(shape, value)
        return value

    # -- the points-to computation -------------------------------------------

    def _compute_points_to(self) -> PointsTo:
        module = self.module
        if self.disk_cache is not None:
            restored = self.disk_cache.load(module)
            if restored is not None:
                self.obs.count("analysis.disk_hits")
                return restored
            self.obs.count("analysis.disk_misses")
        points_to = PointsTo(module, budget=self.budget)
        self.obs.count("analysis.andersen_passes", points_to.passes)
        self.obs.count("analysis.andersen_evaluations", points_to.evaluations)
        if self.disk_cache is not None:
            self.disk_cache.store(module, points_to)
        return points_to
