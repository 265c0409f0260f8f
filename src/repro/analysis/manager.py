"""An LLVM-style analysis manager: cached, invalidation-aware analyses.

Prior to this layer every consumer built its own analyses: the
orchestrator constructed a fresh :class:`PointsTo` per classification,
the subprogram transformer built its own call graph, and each applied
fix re-verified the whole module.  The manager centralizes this:
analyses are *keyed computations* registered once and cached against the
module's mutation epoch (see :class:`repro.ir.module.Module`), and the
code that mutates the module (``FixTransaction``) reports what kind of
mutation happened so exactly the right entries are dropped.

Invalidation matrix (driven by :meth:`mutation_committed`):

======================  ==========  =========  =======  ==============
mutation                points_to   callgraph  locator  verified(fn)
======================  ==========  =========  =======  ==============
flush/fence insertion   preserved   preserved  preserv  touched only
clone / call retarget   dropped     dropped    preserv  dropped
rollback (clean)        preserved   preserved  preserv  touched only
rollback (failed)       dropped     dropped    dropped  dropped
======================  ==========  =========  =======  ==============

The verified column is not a manager entry: each function carries its
own verified state, keyed on the stamps the mutation primitives move
(:func:`~repro.ir.verifier.is_verified`).  A body edit drops only that
function's; adding or removing a function (a clone, or a rolled-back
clone) or retargeting a call drops every function's, because it can
change whether an untouched caller's ``call`` verifies; a failed
rollback counts as such a change too (``FixTransaction.rollback``).
:meth:`AnalysisManager.verify_scope`, Hippocrates's final check and the
flat engine's compiler all read and set the same state, so each
function is verified once per change.  The flat engine's compile cache
(:func:`~repro.interp.compile.cached_program`) is not a manager entry
either: it reuses a function's compiled form on the same stamps, so it
recompiles exactly what the verified column drops.

Flush and fence instructions create no pointers, no allocation sites,
and no calls to defined functions, so the Andersen solution and the call
graph stay exact across them — they are only *revalidated* (their epoch
stamp advanced).  Inserting a ``_PM`` clone or retargeting a call site
changes both, so those are dropped along with everything registered as
depending on them (the PM classifications).  The locator indexes
original-program locations, which no fix rewrites, so it always
survives.  A clean rollback restores content exactly, hence everything
revalidates; a *failed* rollback leaves integrity unknown, so every
entry is dropped and recomputes on next use.

Failures cache too: if computing an analysis raised (e.g. the Andersen
fixpoint exhausted its budget), the same exception is re-raised on every
lookup at the same epoch instead of re-running the doomed computation.

When a :class:`~repro.analysis.diskcache.AnalysisDiskCache` is attached,
the ``points_to`` computation first consults the content-addressed store
(and seeds the call graph from the same entry) before solving, and
persists fresh solutions for other worker processes to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from ..budget import Budget
from ..ir.module import Module
from ..ir.verifier import is_verified, verify_function
from .andersen import PointsTo
from .callgraph import CallGraph
from .diskcache import AnalysisDiskCache

#: Well-known analysis keys.  Classifications use
#: :func:`classification_key`.
POINTS_TO = "points_to"
CALLGRAPH = "callgraph"
LOCATOR = "locator"

#: Analyses a structural mutation (clone insertion, call retarget)
#: invalidates; flush/fence insertion preserves them.
STRUCTURE_KEYS = (POINTS_TO, CALLGRAPH)


def classification_key(mode: str) -> Tuple[str, str]:
    """The cache key for a PM classification in the given mode."""
    return ("classification", mode)


@dataclass
class AnalysisStats:
    """Hit/miss counters, reported into the batch report."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    failures_replayed: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "failures_replayed": self.failures_replayed,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
        }


@dataclass
class _Entry:
    """One cached result (or cached failure), stamped with its epoch."""

    epoch: int
    value: object = None
    failure: Optional[BaseException] = None


@dataclass
class _Registration:
    compute: Callable[[Module], object]
    depends: Tuple[Hashable, ...] = ()


class AnalysisManager:
    """Caches keyed analyses against a module's mutation epoch."""

    def __init__(
        self,
        module: Module,
        budget: Optional[Budget] = None,
        disk_cache: Optional[AnalysisDiskCache] = None,
        metrics=None,
    ):
        self.module = module
        #: Budget charged by the points-to fixpoint; assignable after
        #: construction (fault injection does) — read at compute time.
        self.budget = budget
        self.disk_cache = disk_cache
        self.stats = AnalysisStats()
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; every
        #: stats increment is mirrored into an ``analysis.*`` counter so
        #: batch observability sees cache behaviour without a separate
        #: reporting channel.
        self.metrics = metrics
        self._registry: Dict[Hashable, _Registration] = {}
        self._entries: Dict[Hashable, _Entry] = {}
        self.register(POINTS_TO, self._compute_points_to)
        self.register(CALLGRAPH, self._compute_callgraph)

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump one stats counter (and its metrics mirror)."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        if self.metrics is not None and amount:
            self.metrics.counter(f"analysis.{name}").inc(amount)

    # -- registration ---------------------------------------------------------

    def register(
        self,
        key: Hashable,
        compute: Callable[[Module], object],
        depends: Iterable[Hashable] = (),
    ) -> None:
        """Register (or replace) the computation behind ``key``.

        ``depends`` names keys whose invalidation cascades to this one.
        Replacing a registration drops any cached entry.
        """
        self._registry[key] = _Registration(compute, tuple(depends))
        self._entries.pop(key, None)

    # -- lookup ---------------------------------------------------------------

    def get(self, key: Hashable):
        """The analysis result for ``key``, computing it if the cached
        entry is missing or stale.  A cached *failure* re-raises."""
        entry = self._entries.get(key)
        if entry is not None and entry.epoch == self.module.epoch:
            if entry.failure is not None:
                self._count("failures_replayed")
                raise entry.failure
            self._count("hits")
            return entry.value
        registration = self._registry.get(key)
        if registration is None:
            raise KeyError(f"no analysis registered for key {key!r}")
        self._count("misses")
        epoch = self.module.epoch
        try:
            value = registration.compute(self.module)
        except Exception as exc:
            self._entries[key] = _Entry(epoch=epoch, failure=exc)
            raise
        self._entries[key] = _Entry(epoch=epoch, value=value)
        return value

    def cached(self, key: Hashable):
        """The cached value if present and current, else None (never
        computes, never replays failures)."""
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry.epoch == self.module.epoch
            and entry.failure is None
        ):
            return entry.value
        return None

    # -- invalidation ---------------------------------------------------------

    def _dependents(self, seeds: Iterable[Hashable]) -> set:
        """Transitive closure of ``seeds`` over declared dependencies."""
        closed = set(seeds)
        changed = True
        while changed:
            changed = False
            for key, registration in self._registry.items():
                if key in closed:
                    continue
                if closed.intersection(registration.depends):
                    closed.add(key)
                    changed = True
        return closed

    def invalidate(self, keys: Iterable[Hashable]) -> None:
        """Drop the given entries and everything depending on them."""
        for key in self._dependents(keys):
            if self._entries.pop(key, None) is not None:
                self._count("invalidations")

    def _revalidate_surviving(self) -> None:
        # Cached *failures* describe a computation attempted against one
        # exact content state; carrying them across an epoch boundary
        # would e.g. keep replaying a verify failure of a rolled-back
        # mutation.  Values revalidate; failures drop.
        epoch = self.module.epoch
        for key in [k for k, e in self._entries.items() if e.failure is not None]:
            del self._entries[key]
        for entry in self._entries.values():
            entry.epoch = epoch

    # -- mutation notifications (called by FixTransaction) -------------------

    def mutation_committed(self, structural: bool = False) -> None:
        """A transaction committed.

        ``structural`` mutations (clone insertion, call retargeting)
        drop the points-to solution, the call graph, and their
        dependents.  Everything else is revalidated at the new epoch —
        the invalidation matrix in the module docs.
        """
        if structural:
            self.invalidate(STRUCTURE_KEYS)
        self._revalidate_surviving()

    def mutation_rolled_back(self, clean: bool = True) -> None:
        """A transaction rolled back.

        A clean rollback restored the exact prior content, so every
        cached entry is still correct and revalidates.  A failed
        rollback (partial undo) leaves the module in an unknown state:
        every entry is dropped, so none can be re-stamped by a later
        commit, and each recomputes on next use.
        """
        if clean:
            self._revalidate_surviving()
        else:
            self._count("invalidations", len(self._entries))
            self._entries.clear()

    # -- scoped verification --------------------------------------------------

    def verify_scope(self, function_names: Iterable[str]) -> None:
        """Verify just the named functions that changed since they last
        verified.

        The fast path behind per-fix verification: a committed fix only
        changes the functions it touched, so a batch of fixes to one
        function re-verifies one function, not the module.  Raises
        :class:`~repro.errors.VerificationError` on the first failure.
        """
        for name in sorted(set(function_names)):
            fn = self.module.functions.get(name)
            if fn is None:
                continue
            if is_verified(fn):
                self._count("hits")
                continue
            self._count("misses")
            verify_function(fn)

    # -- built-in computations -------------------------------------------------

    def _compute_points_to(self, module: Module) -> PointsTo:
        if self.disk_cache is not None:
            restored = self.disk_cache.load(module)
            if restored is not None:
                points_to, callgraph = restored
                self._count("disk_hits")
                self._seed(CALLGRAPH, callgraph)
                return points_to
            self._count("disk_misses")
        points_to = PointsTo(module, budget=self.budget)
        if self.disk_cache is not None:
            self.disk_cache.store(module, points_to, self.get(CALLGRAPH))
        return points_to

    def _compute_callgraph(self, module: Module) -> CallGraph:
        return CallGraph(module)

    def _seed(self, key: Hashable, value: object) -> None:
        """Install a value obtained as a by-product (disk-cache load)
        unless a current entry already exists."""
        entry = self._entries.get(key)
        if (
            entry is None
            or entry.epoch != self.module.epoch
            or entry.failure is not None
        ):
            self._entries[key] = _Entry(epoch=self.module.epoch, value=value)
