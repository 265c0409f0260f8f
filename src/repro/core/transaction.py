"""Transactional fix application: an undo journal for module mutations.

Applying a fix touches the module in several places — inserted flushes
and fences, cloned ``_PM`` functions, retargeted call sites.  If any
step throws (a malformed fix, an injected fault, a verifier rejection),
the module must not be left half-mutated: "do no harm" is a property of
the *pipeline*, not only of the fixes it computes.

:class:`FixTransaction` records enough to undo one fix.  Mutation sites
register undo actions *before* mutating (or register trackers whose
undo diffs state observed later), so a fault at any point mid-fix rolls
back cleanly.  Undo actions run in reverse registration order.

The transaction is also the analysis manager's mutation witness: it
knows whether a fix only inserted flushes/fences (``track_fix``) or
changed program structure (``track_attr`` retargeting, clones via
``track_transformer``).  ``commit`` and ``rollback`` forward that to the
attached :class:`~repro.analysis.manager.AnalysisManager` so exactly the
right cached analyses are invalidated — see the invalidation matrix
there.  It also records which functions the fix touched, the scope of
the per-fix verification.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, TYPE_CHECKING

from ..errors import RollbackError
from ..ir.instructions import Instruction
from ..ir.module import Module

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.manager import AnalysisManager
    from ..revalidate.witness import InsertionSpec, StructuralSpec
    from .fixes import Fix
    from .subprogram import SubprogramTransformer


class FixTransaction:
    """An undo journal covering the application of a single fix."""

    def __init__(
        self, module: Module, manager: Optional["AnalysisManager"] = None
    ):
        self.module = module
        self.manager = manager
        #: Functions whose bodies this fix changed (callers add to it).
        self.touched_functions: Set[str] = set()
        #: True once the fix did more than insert flushes/fences.
        self.structural = False
        #: iids of the existing instructions this fix inserted
        #: flushes/fences after — the incremental-revalidation witness.
        self.anchor_iids: Set[int] = set()
        #: full insertion descriptions (one per anchored fix), or None
        #: once an insertion could not be described — incremental
        #: revalidation then degrades from synthesis to replay.
        self.insertions: Optional[List["InsertionSpec"]] = []
        #: structural (hoisted-fix) witnesses, or None once a structural
        #: mutation could not be described — incremental revalidation
        #: then degrades from structural synthesis to a full re-record.
        self.structural_specs: Optional[List["StructuralSpec"]] = []
        self._undo: List[Callable[[], None]] = []
        self._done = False

    def touch(self, function_name: Optional[str]) -> None:
        """Record that the fix modified the named function's body."""
        if function_name:
            self.touched_functions.add(function_name)

    def anchor(self, anchor_iid: int, spec: Optional["InsertionSpec"]) -> None:
        """Witness a flush/fence insertion anchored at ``anchor_iid``.

        ``spec`` describes exactly what was inserted; None marks the
        insertion as present but indescribable (unknown shape)."""
        self.anchor_iids.add(anchor_iid)
        if spec is None:
            self.insertions = None
        elif self.insertions is not None:
            self.insertions.append(spec)

    def anchor_structural(self, spec: Optional["StructuralSpec"]) -> None:
        """Witness a hoisted fix (call retarget onto a clone tree).

        ``spec`` describes the retarget, the clone closure and the
        inserted fence exactly; None marks the structural mutation as
        present but indescribable."""
        if spec is None:
            self.structural_specs = None
        elif self.structural_specs is not None:
            self.structural_specs.append(spec)

    # -- trackers -----------------------------------------------------------

    def track_attr(self, obj: object, name: str) -> None:
        """Snapshot ``obj.name`` now; restore it on rollback.

        Used for call-site retargeting (``call.callee``) — a structural
        mutation, so the module epoch is bumped again when the attribute
        is restored (content changed both times)."""
        saved = getattr(obj, name)
        self.structural = True

        def undo() -> None:
            setattr(obj, name, saved)
            self.module.bump_epoch()

        self._undo.append(undo)

    def track_fix(self, fix: "Fix") -> None:
        """Track ``fix.inserted`` growth: on rollback, every instruction
        appended after this point is detached from its block and dropped
        from the list (the fix can then be re-applied)."""
        mark = len(fix.inserted)

        def undo() -> None:
            for instr in reversed(fix.inserted[mark:]):
                self._detach(instr)
            del fix.inserted[mark:]

        self._undo.append(undo)

    def track_transformer(self, transformer: "SubprogramTransformer") -> None:
        """Track a subprogram transformer's growth: clones created and
        instructions inserted after this point are removed on rollback,
        and the clone-reuse cache is restored so a later fix re-creates
        (rather than silently reusing) a rolled-back clone."""
        created_mark = len(transformer.created)
        inserted_mark = len(transformer.inserted)
        clones_before = dict(transformer.clones)
        meta_before = dict(transformer.clone_meta)
        self.structural = True

        def undo() -> None:
            for name in transformer.created[created_mark:]:
                self.module.remove_function(name)
            for instr in reversed(transformer.inserted[inserted_mark:]):
                self._detach(instr)
            del transformer.created[created_mark:]
            del transformer.inserted[inserted_mark:]
            transformer.clones.clear()
            transformer.clones.update(clones_before)
            transformer.clone_meta.clear()
            transformer.clone_meta.update(meta_before)

        self._undo.append(undo)

    @staticmethod
    def _detach(instr: Instruction) -> None:
        block = instr.parent
        if block is not None:
            block.remove(instr)

    # -- outcome ------------------------------------------------------------

    def commit(self) -> None:
        """Discard the journal; the fix is permanent.

        Notifies the attached analysis manager: flush/fence-only fixes
        preserve the whole-program analyses, structural fixes drop the
        points-to solution and call graph."""
        self._undo.clear()
        self._done = True
        if self.manager is not None:
            self.manager.mutation_committed(structural=self.structural)

    def rollback(self) -> None:
        """Undo every recorded mutation, most recent first.

        A failing undo action does not stop the rollback: the remaining
        actions still run (restoring as much state as possible), then a
        :class:`~repro.errors.RollbackError` is raised describing every
        undo that failed.  Callers unwinding from an original failure
        must chain it (``raise rollback_error from original``) so the
        root cause is never masked by the double failure.
        """
        if self._done:
            return
        failures: List[BaseException] = []
        while self._undo:
            undo = self._undo.pop()
            try:
                undo()
            except Exception as exc:
                failures.append(exc)
        self._done = True
        if failures:
            # The module's content is unknown: count it as a change to
            # every function, so each one verifies again.
            self.module.bump_epoch()
        if self.manager is not None:
            # A clean rollback restored the exact prior content, so all
            # cached analyses are still valid; a failed one leaves the
            # module in an unknown state and everything must recompute.
            self.manager.mutation_rolled_back(clean=not failures)
        if failures:
            detail = "; ".join(f"{type(e).__name__}: {e}" for e in failures)
            error = RollbackError(
                f"rollback failed ({len(failures)} undo action(s) raised): {detail}"
            )
            error.__context__ = failures[0]
            raise error
