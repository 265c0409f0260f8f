"""Modules: the unit of analysis, transformation, and execution."""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import IRError
from .function import Function
from .instructions import Instruction
from .types import Type, VOID
from .values import GlobalVariable


class Module:
    """A collection of functions and globals — a whole program.

    Hippocrates operates on whole-program IR ("whole-program LLVM" in
    the paper); all of its passes take a :class:`Module`.

    Every structural mutation — function add/remove, global add, block
    creation, instruction insert/remove anywhere in the module — bumps a
    monotonic **mutation epoch** (:attr:`epoch`): equal epoch means the
    module provably has not changed.  The complementary
    :meth:`fingerprint` is a deterministic *content* hash — equal across
    processes, builders, and parser→printer round trips — used to key
    the content-addressed on-disk analysis cache.

    The same primitives also say *where* the change was.  A change
    confined to one function's body (instruction insert/remove, block
    creation) moves that function's :attr:`~Function.stamp`; any other
    change (a function added, inserted or removed, a global added, a
    call retargeted, a bare :meth:`bump_epoch`) moves the module's
    :attr:`shape_epoch`, which counts as a change to every function.
    The verifier keys each function's verified state on these (see
    :func:`~repro.ir.verifier.is_verified`), and the whole-program
    analyses (:class:`~repro.analysis.manager.AnalysisManager`) on the
    shape epoch alone.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self._epoch = 0
        #: epoch of the last change not confined to one function body
        self.shape_epoch = 0
        self._fingerprint: Optional[Tuple[int, str]] = None
        #: the flat engine's latest compile of this module
        #: (:func:`~repro.interp.compile.cached_program`).  Held here, not
        #: in a table keyed by the module: the compile references the
        #: module's instructions, so a table entry would keep the module
        #: alive for the rest of the process.
        self.compiled_program = None

    # -- mutation tracking ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; bumped by every structural change."""
        return self._epoch

    def bump_epoch(self, fn: Optional[Function] = None) -> None:
        """Record a structural mutation.

        Called by every mutation primitive (module-level construction,
        block insertion/removal, builder emission, call retargeting);
        manual passes mutating IR through other means must call it
        themselves.  ``fn`` names the one function whose body changed;
        without it the change counts against every function, which is
        what a pass that cannot say more must use (retargeting a call
        can change whether an untouched caller verifies).

        A body-only change (``fn`` given) keeps the cached whole-program
        analyses, so it must add **no call and no store**: every body
        edit after construction is a fix's flush, fence or gep (or its
        undo).  A pass that adds either to a built module must also
        call ``bump_epoch()`` without ``fn``.
        """
        self._epoch += 1
        if fn is None:
            self.shape_epoch = self._epoch
        else:
            fn.stamp = self._epoch

    def fingerprint(self) -> str:
        """Deterministic SHA-256 of the module's textual content.

        Content-addressed and process-independent: two modules that
        print identically — including a module re-parsed from its own
        printed text — share a fingerprint, regardless of instruction
        ids or construction order.  Cached against :attr:`epoch`, so
        repeated calls between mutations are free.
        """
        if self._fingerprint is None or self._fingerprint[0] != self._epoch:
            from .printer import format_module

            digest = hashlib.sha256(
                format_module(self).encode("utf-8")
            ).hexdigest()
            self._fingerprint = (self._epoch, digest)
        return self._fingerprint[1]

    # -- construction -----------------------------------------------------------

    def add_function(
        self,
        name: str,
        params: Sequence[Tuple[str, Type]] = (),
        return_type: Type = VOID,
        source_file: str = "",
    ) -> Function:
        if name in self.functions:
            raise IRError(f"duplicate function {name!r}")
        fn = Function(name, params, return_type, source_file or f"{self.name}.c")
        fn.parent = self
        self.functions[name] = fn
        self.bump_epoch()
        return fn

    def insert_function(self, fn: Function) -> Function:
        """Insert an already-built function (used by cloning)."""
        if fn.name in self.functions:
            raise IRError(f"duplicate function {fn.name!r}")
        fn.parent = self
        # A stamp from another module's epoch count means nothing here.
        fn.verified_at = -1
        self.functions[fn.name] = fn
        self.bump_epoch()
        return fn

    def remove_function(self, name: str) -> Optional[Function]:
        """Remove a function by name (used by fix rollback).

        Returns the removed function, or None if it was not present.
        """
        fn = self.functions.pop(name, None)
        if fn is not None:
            fn.parent = None
            self.bump_epoch()
        return fn

    def add_global(
        self,
        name: str,
        size: int,
        space: str = "vol",
        initializer: Optional[bytes] = None,
    ) -> GlobalVariable:
        if name in self.globals:
            raise IRError(f"duplicate global {name!r}")
        gv = GlobalVariable(name, size, space, initializer)
        self.globals[name] = gv
        self.bump_epoch()
        return gv

    # -- lookup -------------------------------------------------------------------

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function {name!r} in module {self.name!r}") from None

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"no global {name!r} in module {self.name!r}") from None

    # -- metrics --------------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for fn in self.functions.values():
            yield from fn.instructions()

    def instruction_count(self) -> int:
        """Total instruction count — the module's "lines of IR".

        Used for the code-bloat measurements (paper §6.4) and the KLOC
        column of the offline-overhead table (Fig 5).
        """
        return sum(fn.instruction_count() for fn in self.functions.values())

    def function_names(self) -> List[str]:
        return sorted(self.functions)

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r}: {len(self.functions)} functions, "
            f"{self.instruction_count()} instructions>"
        )
