"""IR execution: interpreter, machine state, cost model, intrinsics.

Two engines execute the same IR with byte-identical observable behavior:

- ``"flat"`` (:class:`FlatEngine`, the default) — register-compiled
  dispatch over flat opcode tuples (see :mod:`repro.interp.compile` and
  :mod:`repro.interp.engine`);
- ``"reference"`` (:class:`Interpreter`) — the tree-walking reference
  implementation, kept as the semantic oracle.  ``--engine reference``
  on the CLI selects it; for ``repro batch`` it also selects the rest of
  the oracle pipeline (full re-run revalidation, fresh machines).

:func:`make_interpreter` is the construction point everything routes
through; the engine differential suite holds the two engines
byte-identical, the oracle differential suite the two batch pipelines.
"""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .interpreter import Interpreter

_EXPORTS = {
    ".compile": (
        "CompiledFunction", "CompiledProgram", "cached_program",
        "compile_function", "compile_module",
    ),
    ".costs": ("CostCounter", "CostModel", "KIND_ORDER"),
    ".engine": ("FlatEngine",),
    ".frame": ("Frame",),
    ".interpreter": (
        "Allocation", "ExecutionResult", "Interpreter", "Machine", "run_module",
    ),
    ".intrinsics": ("SimulatedCrash", "intrinsic_names", "is_intrinsic"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

#: Valid engine kinds, in preference order.
ENGINES = ("flat", "reference")


def engine_class(engine: str = None):
    """The interpreter class implementing ``engine`` (``"flat"`` when
    ``None``)."""
    kind = engine or "flat"
    if kind == "flat":
        from .engine import FlatEngine

        return FlatEngine
    if kind == "reference":
        from .interpreter import Interpreter

        return Interpreter
    raise ValueError(f"unknown engine {kind!r} (choose from {ENGINES})")


def make_interpreter(module, engine: str = None, **kwargs) -> "Interpreter":
    """Construct an interpreter for ``module`` on the chosen engine.

    ``kwargs`` are forwarded to the engine constructor (``machine``,
    ``cost_model``, ``fuel``, ``obs``, ``run_recorder``, ...); both
    engines take the same arguments.
    """
    return engine_class(engine)(module, **kwargs)


__all__ = [
    *(name for names in _EXPORTS.values() for name in names),
    "engine_class",
    "ENGINES",
    "make_interpreter",
]
