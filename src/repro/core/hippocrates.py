"""The Hippocrates orchestrator: Steps 1-4 of the paper's Fig. 2.

Given a module and a PM trace (in-memory or pmemcheck text), it:

1. parses the bug-finder output (Step 1),
2. locates each bug's store/flush in the IR (Step 2),
3. computes fixes in three phases — intraprocedural generation, fix
   reduction, heuristic hoisting (Step 3),
4. applies the fixes to the module and verifies it (Step 4).

The result is a :class:`FixReport` with everything the paper's
evaluation tables need: fix counts and kinds, hoist depths, inserted-IR
size, and offline time/memory overhead.

The pipeline is *resilient* by construction:

- **Per-bug fault isolation** — each bug is located, planned, and
  applied independently; a bug whose step throws is quarantined (with
  its exception and stack) into :attr:`FixReport.quarantined` and every
  other bug still gets fixed (``keep_going=False`` restores fail-fast).
- **Transactional application** — each fix is applied under a
  :class:`~repro.core.transaction.FixTransaction` and verified; any
  mid-fix failure rolls the module back to its pre-fix state, so the
  module is never left half-mutated.
- **Degraded-mode heuristics** — if the whole-program analysis raises
  or exceeds its budget, the heuristic falls back ``full -> trace ->
  off`` (the paper's always-safe intraprocedural baseline), recording
  each :class:`HeuristicDowngrade` in the report instead of dying.
- **Lenient trace ingestion** — ``lenient=True`` skips malformed
  records of a crash-truncated pmemcheck log, surfacing per-line
  :class:`~repro.trace.pmemcheck.TraceWarning`\\ s in the report.

All analyses flow through a per-repair
:class:`~repro.analysis.manager.AnalysisManager`: the Andersen
solution, the call graph, the bug locator, and the PM classifications
are cached against the module's mutation epoch, invalidated precisely
by each fix's :class:`FixTransaction` (flush/fence fixes preserve the
whole-program analyses; clones and retargets drop them), and — when an
analysis cache directory is configured — shared across worker processes
through the content-addressed on-disk store.
"""

from __future__ import annotations

import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..analysis.aliasing import (
    PMClassification,
    classify_full_aa,
    classify_trace_aa,
)
from ..analysis.diskcache import AnalysisDiskCache
from ..analysis.manager import (
    AnalysisManager,
    CALLGRAPH,
    LOCATOR,
    POINTS_TO,
    classification_key,
)
from ..budget import Budget
from ..detect.durability import check_trace
from ..detect.reports import BugReport, DetectionResult
from ..errors import FixError
from ..interp.interpreter import Machine
from ..ir.instructions import Fence
from ..obs.observability import NULL_OBS, Observability
from ..ir.module import Module
from ..ir.verifier import verify_changed
from ..revalidate.witness import spec_for_fix
from ..trace.pmemcheck import TraceWarning, load_trace
from ..trace.trace import PMTrace
from .fixes import (
    Fix,
    FixPlan,
    HoistedFix,
    InsertFenceAfterFlush,
    InsertFenceAfterStore,
    InsertFlush,
    InsertFlushAndFence,
    insert_covering_flushes,
)
from .heuristic import choose_fix_location
from .intraprocedural import generate_intraprocedural_fixes
from .locate import Locator
from .reduction import reduce_fixes
from .subprogram import SubprogramTransformer
from .transaction import FixTransaction

#: heuristic modes: Full-AA, Trace-AA, or disabled (intraprocedural only
#: — the paper's RedisH-intra configuration)
HEURISTICS = ("full", "trace", "off")

#: degraded-mode fallback chain: each mode's next-cheaper alternative
#: ("off" is the paper's always-safe intraprocedural baseline).
DOWNGRADE_CHAIN = {"full": "trace", "trace": "off"}


@dataclass
class QuarantinedBug:
    """One bug (or malformed fix) the pipeline isolated instead of
    letting it abort the whole repair."""

    phase: str  # "locate" | "apply"
    error_type: str
    error: str
    traceback: str = ""
    bug: Optional[BugReport] = None

    def describe(self) -> str:
        what = self.bug.describe() if self.bug is not None else "unattributed fix"
        return f"[quarantined:{self.phase}] {what}: {self.error_type}: {self.error}"


@dataclass
class HeuristicDowngrade:
    """A recorded fallback to a cheaper (always-safe) heuristic mode."""

    from_mode: str
    to_mode: str
    reason: str
    #: set when the downgrade applied to a single bug's hoist decision
    #: (the rest of the pipeline kept the original mode)
    bug_id: Optional[int] = None

    def describe(self) -> str:
        scope = f"bug {self.bug_id}" if self.bug_id is not None else "pipeline"
        return f"[degraded:{scope}] {self.from_mode} -> {self.to_mode}: {self.reason}"


@dataclass
class FixReport:
    """What Hippocrates did, in evaluation-table form."""

    plan: FixPlan
    heuristic: str
    bugs_fixed: int = 0
    fixes_applied: int = 0
    intraprocedural_count: int = 0
    interprocedural_count: int = 0
    hoist_depths: List[int] = field(default_factory=list)
    inserted_instructions: int = 0
    functions_created: List[str] = field(default_factory=list)
    ir_size_before: int = 0
    ir_size_after: int = 0
    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0
    #: the heuristic the pipeline actually finished with (equal to
    #: ``heuristic`` unless degraded mode kicked in)
    heuristic_effective: str = ""
    #: bugs isolated by per-bug fault tolerance (empty on a clean run)
    quarantined: List[QuarantinedBug] = field(default_factory=list)
    #: heuristic fallbacks taken instead of dying (empty on a clean run)
    downgrades: List[HeuristicDowngrade] = field(default_factory=list)
    #: malformed trace lines skipped by lenient ingestion
    trace_warnings: List[TraceWarning] = field(default_factory=list)

    @property
    def ir_growth_percent(self) -> float:
        if not self.ir_size_before:
            return 0.0
        return 100.0 * (self.ir_size_after - self.ir_size_before) / self.ir_size_before

    @property
    def bugs_quarantined(self) -> int:
        return len(self.quarantined)

    def as_record(self) -> dict:
        """The deterministic, JSON-serializable form of this report.

        The task-granular entry point for batch supervision: a worker
        subprocess ships this dict across its pipe, the supervisor's
        write-ahead journal persists it, and a resumed batch replays it
        — so it must contain only facts that an identical re-execution
        reproduces bit-for-bit.  Wall-clock time and peak memory are
        deliberately excluded (report them from the live object).
        """
        return {
            "heuristic": self.heuristic,
            "heuristic_effective": self.heuristic_effective or self.heuristic,
            "bugs_fixed": self.bugs_fixed,
            "fixes_applied": self.fixes_applied,
            "intraprocedural_count": self.intraprocedural_count,
            "interprocedural_count": self.interprocedural_count,
            "hoist_depths": list(self.hoist_depths),
            "inserted_instructions": self.inserted_instructions,
            "functions_created": sorted(self.functions_created),
            "ir_size_before": self.ir_size_before,
            "ir_size_after": self.ir_size_after,
            "quarantined": len(self.quarantined),
            "downgrades": len(self.downgrades),
            "trace_warnings": len(self.trace_warnings),
        }

    def summary(self) -> str:
        text = (
            f"fixed {self.bugs_fixed} bug(s) with {self.fixes_applied} fix(es) "
            f"({self.intraprocedural_count} intraprocedural, "
            f"{self.interprocedural_count} interprocedural); "
            f"+{self.inserted_instructions} IR instruction(s) "
            f"({self.ir_growth_percent:.3f}% growth), "
            f"{len(self.functions_created)} persistent clone(s); "
            f"heuristic={self.heuristic}"
        )
        if self.heuristic_effective and self.heuristic_effective != self.heuristic:
            text += f" (degraded to {self.heuristic_effective})"
        if self.quarantined:
            text += f"; {len(self.quarantined)} bug(s) quarantined"
        if self.trace_warnings:
            text += f"; {len(self.trace_warnings)} malformed trace line(s) skipped"
        return text


class Hippocrates:
    """The automated PM durability-bug fixer.

    :param module: the module to repair (mutated in place by
        :meth:`fix`).
    :param trace: the bug finder's trace — a :class:`PMTrace` or
        pmemcheck-format text.
    :param machine: the machine that produced the trace; required for
        the Trace-AA heuristic (its allocation registry attributes
        dynamic addresses to allocation sites).
    :param heuristic: ``"full"`` (Full-AA), ``"trace"`` (Trace-AA), or
        ``"off"`` (no hoisting; every fix stays intraprocedural).
    :param detection: pre-computed bug reports; found by running the
        pmemcheck-style checker on the trace when omitted.
    :param keep_going: isolate per-bug failures into
        :attr:`FixReport.quarantined` and keep repairing (the default);
        ``False`` restores fail-fast, though a failed fix is still
        rolled back before the exception propagates.
    :param lenient: skip malformed records when ``trace`` is text
        (collecting :class:`TraceWarning`\\ s) instead of raising.
    :param analysis_budget: optional :class:`~repro.budget.Budget`
        bounding the Andersen fixpoint; exceeding it triggers a
        heuristic downgrade rather than a failure.
    :param trace_source: the filename the textual trace came from;
        stamped into every :class:`TraceWarning` so multi-file batch
        logs stay attributable.
    :param analysis_cache_dir: directory of the content-addressed
        on-disk analysis cache; None disables cross-process sharing.
    :param obs: an :class:`~repro.obs.observability.Observability`
        facade; the pipeline phases run under named spans and the
        analysis manager mirrors its counters into it.  Observability
        never influences repair output — the default
        :data:`~repro.obs.observability.NULL_OBS` makes every
        instrumentation point a no-op.
    """

    def __init__(
        self,
        module: Module,
        trace: Union[PMTrace, str],
        machine: Optional[Machine] = None,
        heuristic: str = "full",
        detection: Optional[DetectionResult] = None,
        *,
        keep_going: bool = True,
        lenient: bool = False,
        analysis_budget: Optional[Budget] = None,
        trace_source: str = "",
        analysis_cache_dir: Optional[str] = None,
        obs: Optional[Observability] = None,
        revalidator=None,
    ):
        if heuristic not in HEURISTICS:
            raise FixError(f"unknown heuristic {heuristic!r}; use {HEURISTICS}")
        if heuristic == "trace" and machine is None:
            raise FixError("the Trace-AA heuristic requires the tracing machine")
        self.module = module
        self.keep_going = keep_going
        self.lenient = lenient
        self.trace_warnings: List[TraceWarning] = []
        self.quarantined: List[QuarantinedBug] = []
        self.downgrades: List[HeuristicDowngrade] = []
        if isinstance(trace, str):
            self.trace = load_trace(
                trace,
                strict=not lenient,
                warnings=self.trace_warnings,
                source=trace_source,
            )
        else:
            self.trace = trace
        self.machine = machine
        self.heuristic = heuristic
        self._effective_heuristic = heuristic
        self.obs = obs if obs is not None else NULL_OBS
        self.detection = detection if detection is not None else check_trace(self.trace)
        self.manager = AnalysisManager(
            module,
            budget=analysis_budget,
            disk_cache=(
                AnalysisDiskCache(analysis_cache_dir)
                if analysis_cache_dir
                else None
            ),
            metrics=self.obs.metrics if self.obs.enabled else None,
        )
        self.manager.register(LOCATOR, Locator)
        #: optional :class:`~repro.revalidate.engine.IncrementalRevalidator`
        #: — when present, committed fixes feed it their mutation
        #: witness and :meth:`revalidate` re-checks incrementally.
        self.revalidator = revalidator
        #: the last :class:`~repro.revalidate.engine.RevalidationOutcome`
        self.last_revalidation = None
        for mode in ("full", "trace"):
            self.manager.register(
                classification_key(mode),
                # Late-bound through the method so fault injectors that
                # wrap ``_classify`` stay on the path.
                lambda m, mode=mode: self._classify(mode),
                depends=(POINTS_TO,),
            )
        self._locator_override: Optional[Locator] = None
        self._classifier: Optional[PMClassification] = None
        #: classifier failures memoized per heuristic mode: a
        #: budget-exhausted Full-AA downgrades once and is never
        #: re-attempted by later lookups (satellite bugfix).
        self._mode_failures: Dict[str, BaseException] = {}

    # -- analysis plumbing --------------------------------------------------------

    @property
    def locator(self) -> Locator:
        """The bug locator (a cached analysis; tests may override it)."""
        if self._locator_override is not None:
            return self._locator_override
        return self.manager.get(LOCATOR)

    @locator.setter
    def locator(self, value: Locator) -> None:
        self._locator_override = value

    @property
    def analysis_budget(self) -> Optional[Budget]:
        """The Andersen budget, read by the manager at compute time
        (fault injection assigns it after construction)."""
        return self.manager.budget

    @analysis_budget.setter
    def analysis_budget(self, value: Optional[Budget]) -> None:
        self.manager.budget = value

    # -- resilience bookkeeping ---------------------------------------------------

    @property
    def effective_heuristic(self) -> str:
        """The heuristic mode after any degraded-mode fallbacks."""
        return self._effective_heuristic

    def _quarantine(self, bug: Optional[BugReport], phase: str, exc: BaseException) -> None:
        """Isolate one bug's failure, or re-raise when fail-fast."""
        if not self.keep_going:
            raise exc
        self.quarantined.append(
            QuarantinedBug(
                phase=phase,
                error_type=type(exc).__name__,
                error=str(exc),
                traceback=traceback.format_exc(),
                bug=bug,
            )
        )

    def _downgrade(self, exc: BaseException, bug_id: Optional[int] = None) -> str:
        """Step the effective heuristic down one level and record it."""
        mode = self._effective_heuristic
        next_mode = DOWNGRADE_CHAIN.get(mode, "off")
        if next_mode == "trace" and self.machine is None:
            next_mode = "off"  # Trace-AA is unavailable without the machine
        self.downgrades.append(
            HeuristicDowngrade(
                from_mode=mode,
                to_mode=next_mode,
                reason=f"{type(exc).__name__}: {exc}",
                bug_id=bug_id,
            )
        )
        if bug_id is None:
            self._effective_heuristic = next_mode
        return next_mode

    # -- classifier ---------------------------------------------------------------

    def _classify(self, mode: str) -> PMClassification:
        """Build the PM pointer classifier for one heuristic mode.

        The Andersen solution comes from the analysis manager (cached
        across modes and across fixes, and restorable from the on-disk
        cache), so a Trace-AA fallback after a failed Full-AA reuses
        rather than re-solves it.
        """
        points_to = self.manager.get(POINTS_TO)
        if mode == "trace":
            assert self.machine is not None
            return classify_trace_aa(self.module, self.trace, self.machine, points_to)
        return classify_full_aa(self.module, points_to)

    def classifier(self) -> Optional[PMClassification]:
        """The PM pointer classifier for the selected heuristic.

        If the analysis raises or exceeds its budget, the heuristic is
        downgraded (``full -> trace -> off``) and the next-cheaper
        classifier is attempted; None means degraded all the way to
        ``"off"`` (no hoisting — the always-safe baseline).

        Lookups go through the analysis manager, so repeated calls (one
        per hoisted fix) hit the cache, and a mode whose analysis
        already failed is never re-attempted: the memoized failure
        replays straight into the downgrade chain.
        """
        while self._classifier is None and self._effective_heuristic != "off":
            mode = self._effective_heuristic
            memoized = self._mode_failures.get(mode)
            if memoized is not None:
                self._downgrade(memoized)
                continue
            try:
                self._classifier = self.manager.get(classification_key(mode))
            except Exception as exc:
                self._mode_failures[mode] = exc
                self._downgrade(exc)
        return self._classifier

    # -- Step 3: fix computation -----------------------------------------------------

    def compute_fixes(self) -> FixPlan:
        """Phases 1-3: generate, reduce, hoist.

        Each bug is located and planned independently; one that cannot
        be resolved is quarantined (under ``keep_going``) while every
        other bug still gets its fix.
        """
        obs = self.obs
        obs.count("pipeline.bugs", len(self.detection.bugs))
        # One locator fetch, under its own span, on the instrumented
        # and plain paths alike — observability must not change how
        # often the analysis manager is consulted (its hit counters
        # would otherwise differ obs-on vs obs-off).  A failure is
        # deferred into the per-bug loop so every bug still lands in
        # its own quarantine entry.
        locator = None
        locator_exc: Optional[Exception] = None
        with obs.span("phase.locate"):
            try:
                locator = self.locator
            except Exception as exc:
                locator_exc = exc
        fixes: List[Fix] = []
        with obs.span("phase.generate") as span:
            for bug in self.detection.bugs:
                try:
                    if locator_exc is not None:
                        raise locator_exc
                    fixes.extend(
                        generate_intraprocedural_fixes([bug], locator)
                    )
                except Exception as exc:
                    self._quarantine(bug, "locate", exc)
            span.annotate(bugs=len(self.detection.bugs), fixes=len(fixes))
        with obs.span("phase.reduce", stage="pre-hoist") as span:
            fixes = reduce_fixes(fixes)
            span.annotate(fixes=len(fixes))
        if self._effective_heuristic != "off":
            with obs.span("phase.hoist") as span:
                fixes = self._hoist(fixes)
                span.annotate(fixes=len(fixes))
            with obs.span("phase.reduce", stage="post-hoist") as span:
                fixes = reduce_fixes(fixes)
                span.annotate(fixes=len(fixes))
        obs.count("pipeline.fixes_planned", len(fixes))
        return FixPlan(fixes=fixes)

    def _hoist(self, fixes: List[Fix]) -> List[Fix]:
        """Decide hoisting *per bug*: after reduction one flush fix may
        cover several bugs whose stores coincide but whose call paths —
        and therefore best fix locations — differ (the memcpy shared
        between the key copy and the value copy)."""
        classifier = self.classifier()
        if classifier is None:
            # Degraded to "off": every fix stays intraprocedural.
            return fixes
        result: List[Fix] = []
        hoisted_by_site: Dict[int, HoistedFix] = {}
        for fix in fixes:
            if not isinstance(fix, (InsertFlush, InsertFlushAndFence)):
                result.append(fix)
                continue
            assert fix.store is not None
            staying = []
            for bug in fix.bugs:
                try:
                    decision = choose_fix_location(
                        bug, fix.store, self.locator, classifier
                    )
                except Exception as exc:
                    # The heuristic is an optimization; its failure
                    # falls back to the bug's intraprocedural fix.
                    self._downgrade(exc, bug_id=bug.report_id)
                    staying.append(bug)
                    continue
                if not decision.hoist:
                    staying.append(bug)
                    continue
                call = decision.chosen.instr
                existing = hoisted_by_site.get(call.iid)
                if existing is not None:
                    existing.bugs.append(bug)
                    continue
                hoisted = HoistedFix(
                    bugs=[bug],
                    call_site=call,  # type: ignore[arg-type]
                    hoist_depth=decision.hoist_depth,
                )
                hoisted_by_site[call.iid] = hoisted
                result.append(hoisted)
            if staying:
                fix.bugs = staying
                result.append(fix)
        return result

    # -- Step 4: application ----------------------------------------------------------

    def _make_transformer(self) -> SubprogramTransformer:
        """Seam for the subprogram transformer (also a fault-injection
        point for the resilience harness)."""
        classifier = self.classifier()
        if classifier is None:
            raise FixError(
                "cannot apply an interprocedural fix: the heuristic was "
                "degraded to 'off' and no classifier is available"
            )
        return SubprogramTransformer(
            self.module, classifier, callgraph=self.manager.get(CALLGRAPH)
        )

    def _apply_one(
        self,
        fix: Fix,
        transformer: Optional[SubprogramTransformer],
        txn: FixTransaction,
    ) -> Optional[SubprogramTransformer]:
        """Apply a single fix, journaling every mutation into ``txn``.

        Returns the (possibly just-created) transformer.  The report is
        only updated on success, by the caller.
        """
        if isinstance(fix, HoistedFix):
            if transformer is None:
                transformer = self._make_transformer()
            assert fix.call_site is not None
            txn.track_attr(fix.call_site, "callee")
            txn.track_transformer(transformer)
            if fix.call_site.function is not None:
                txn.touch(fix.call_site.function.name)
            created_mark = len(transformer.created)
            orig_callee = fix.call_site.callee
            clone_name, fence = transformer.transform_call_site(fix.call_site)
            for name in transformer.created[created_mark:]:
                txn.touch(name)
            if clone_name != orig_callee or fence is not None:
                # The structural witness: what the retarget + clone tree
                # + fence did, as plain data — None (degraded) when any
                # clone's insertions could not be described, which makes
                # revalidation fall back to a full re-record.
                txn.anchor_structural(
                    transformer.structural_spec(
                        fix.call_site, orig_callee, fence
                    )
                )
            else:
                # A re-hit of an already-transformed, already-fenced
                # site mutates nothing (transform_call_site is
                # idempotent): the commit is structural in name only,
                # so keep the cached analyses and the batch witness.
                txn.structural = False
        elif isinstance(fix, InsertFlush):
            assert fix.store is not None
            txn.track_fix(fix)
            if fix.store.function is not None:
                txn.touch(fix.store.function.name)
            insert_covering_flushes(fix.store, fix.flush_kind, into=fix.inserted)
            txn.anchor(fix.store.iid, spec_for_fix(fix.store, fix.inserted))
        elif isinstance(fix, InsertFlushAndFence):
            assert fix.store is not None
            txn.track_fix(fix)
            if fix.store.function is not None:
                txn.touch(fix.store.function.name)
            insert_covering_flushes(fix.store, fix.flush_kind, into=fix.inserted)
            fence = Fence(fix.fence_kind)
            fence.loc = fix.store.loc
            last_flush = fix.inserted[-1]
            last_flush.parent.insert_after(last_flush, fence)
            fix.inserted.append(fence)
            txn.anchor(fix.store.iid, spec_for_fix(fix.store, fix.inserted))
        elif isinstance(fix, InsertFenceAfterFlush):
            assert fix.flush is not None
            txn.track_fix(fix)
            if fix.flush.function is not None:
                txn.touch(fix.flush.function.name)
            fence = Fence(fix.fence_kind)
            fence.loc = fix.flush.loc
            fix.flush.parent.insert_after(fix.flush, fence)
            fix.inserted.append(fence)
            txn.anchor(fix.flush.iid, spec_for_fix(fix.flush, fix.inserted))
        elif isinstance(fix, InsertFenceAfterStore):
            assert fix.store is not None
            txn.track_fix(fix)
            if fix.store.function is not None:
                txn.touch(fix.store.function.name)
            fence = Fence(fix.fence_kind)
            fence.loc = fix.store.loc
            fix.store.parent.insert_after(fix.store, fence)
            fix.inserted.append(fence)
            txn.anchor(fix.store.iid, spec_for_fix(fix.store, fix.inserted))
        else:
            raise FixError(f"cannot apply fix {fix!r}")
        return transformer

    def apply(self, plan: FixPlan) -> FixReport:
        """Mutate the module according to the plan and verify it.

        Each fix is applied transactionally: its mutations are
        journaled, the functions it touched are re-verified (the scoped
        fast path — a body edit only invalidates the verified state of
        that function, so untouched ones are never re-checked), and any
        failure rolls the module back to the state before that fix —
        then the fix's bugs are quarantined (``keep_going``) or the
        error propagates with the module still structurally intact.
        The final check verifies every function not verified since its
        last change (:func:`~repro.ir.verifier.verify_changed`): the
        whole module when it was never verified, or when a clone, a
        retarget or a rollback changed its shape, and nothing more
        after flush/fence-only fixes that the scoped checks covered.
        """
        report = FixReport(plan=plan, heuristic=self.heuristic)
        report.ir_size_before = self.module.instruction_count()
        obs = self.obs

        transformer: Optional[SubprogramTransformer] = None
        applied: List[Fix] = []
        with obs.span("phase.apply", fixes=len(plan.fixes)):
            for fix in plan.fixes:
                txn = FixTransaction(self.module, manager=self.manager)
                try:
                    transformer = self._apply_one(fix, transformer, txn)
                    self.manager.verify_scope(txn.touched_functions)
                except Exception as exc:
                    try:
                        txn.rollback()
                    except Exception as rollback_exc:
                        # Double failure: the rollback itself broke.
                        # Chain the rollback error onto the original
                        # exception so the root cause stays visible, and
                        # never quarantine — the module's integrity is
                        # unknown, so the recorded baseline is dropped
                        # and the next revalidation re-records in full.
                        if self.revalidator is not None:
                            self.revalidator.baseline = None
                        raise rollback_exc from exc
                    obs.count("pipeline.fixes_rolled_back")
                    if not self.keep_going:
                        raise
                    bugs = fix.bugs or [None]  # type: ignore[list-item]
                    for bug in bugs:
                        self._quarantine(bug, "apply", exc)
                    continue
                txn.commit()
                if self.revalidator is not None:
                    self.revalidator.note_commit(
                        txn.anchor_iids,
                        txn.structural,
                        txn.insertions,
                        txn.structural_specs,
                    )
                applied.append(fix)
                if isinstance(fix, HoistedFix):
                    report.interprocedural_count += 1
                    report.hoist_depths.append(fix.hoist_depth)
                else:
                    report.intraprocedural_count += 1

        if transformer is not None:
            report.functions_created = list(transformer.created)

        report.fixes_applied = len(applied)
        report.bugs_fixed = len(
            {bug.report_id for fix in applied for bug in fix.bugs}
        )
        report.ir_size_after = self.module.instruction_count()
        # Total new IR: flush/fence insertions plus the cloned function
        # bodies (the paper's "+105 new lines of LLVM IR" counts both).
        report.inserted_instructions = report.ir_size_after - report.ir_size_before
        report.heuristic_effective = self._effective_heuristic
        report.quarantined = list(self.quarantined)
        report.downgrades = list(self.downgrades)
        report.trace_warnings = list(self.trace_warnings)
        obs.count("pipeline.fixes_applied", len(applied))
        obs.count("pipeline.bugs_quarantined", len(self.quarantined))
        with obs.span("phase.verify"):
            verify_changed(self.module)
        return report

    def revalidate(self):
        """Re-check the repaired module through the incremental engine.

        The engine picks the cheapest sound tier against its recorded
        baseline — trace synthesis for witnessed flush/fence *and*
        structural commits, snapshot replay, or a full re-record (also
        taken when no baseline exists, e.g. after a failed rollback
        dropped it).  Returns the
        :class:`~repro.revalidate.engine.RevalidationOutcome`, also
        stored as :attr:`last_revalidation`.
        """
        if self.revalidator is None:
            raise FixError("no revalidator attached to this pipeline")
        with self.obs.span("phase.revalidate"):
            outcome = self.revalidator.revalidate(self.module)
        self.last_revalidation = outcome
        return outcome

    # -- one-shot ------------------------------------------------------------------------

    def fix(self, measure_overhead: bool = False) -> FixReport:
        """Compute and apply all fixes; optionally measure time/memory.

        The measurement is the paper's Fig. 5 "offline overhead": wall
        time and peak memory of the whole compute+apply pipeline.
        ``tracemalloc`` is stopped even when a phase raises, so a failed
        repair never leaks tracing overhead into the caller's process.
        """
        if measure_overhead:
            tracemalloc.start()
        try:
            start = time.perf_counter()
            plan = self.compute_fixes()
            report = self.apply(plan)
            report.elapsed_seconds = time.perf_counter() - start
            if measure_overhead:
                _, peak = tracemalloc.get_traced_memory()
                report.peak_memory_bytes = peak
            return report
        finally:
            if measure_overhead:
                tracemalloc.stop()


def fix_module(
    module: Module,
    trace: Union[PMTrace, str],
    machine: Optional[Machine] = None,
    heuristic: str = "full",
    **options,
) -> FixReport:
    """Convenience: run the full Hippocrates pipeline on a module.

    Keyword ``options`` (``keep_going``, ``lenient``,
    ``analysis_budget``, ``analysis_cache_dir``) are forwarded to
    :class:`Hippocrates`.
    """
    return Hippocrates(module, trace, machine, heuristic, **options).fix()
