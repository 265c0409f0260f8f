"""Replaying a driver from a materialized snapshot.

The driver function is re-invoked from scratch against a
:class:`ReplayInterpreter` whose machine was materialized from a
mid-run snapshot.  Calls the recording already executed are *skipped*:
the interpreter verifies the driver asks for the same function with the
same arguments (anything else is a :class:`ReplayDivergence`, which the
engine turns into a full-revalidation fallback) and returns the
recorded :class:`~repro.interp.interpreter.ExecutionResult` without
executing.  Once the skip list drains, execution proceeds normally from
the snapshot state, emitting trace events that continue the baseline
trace's sequence numbers.

Host-side driver effects before the replay point (e.g. a workload
wrapper staging request bytes into a volatile buffer) re-execute
against the restored machine; they are byte-idempotent by construction
(the same writes that produced the snapshot state), and the corpus
drivers never branch on call results beyond what the recorded results
reproduce.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional

from ..errors import ReproError
from ..interp.costs import CostModel
from ..interp.engine import FlatEngine
from ..interp.interpreter import ExecutionResult, Interpreter, Machine
from ..ir.module import Module
from ..obs.observability import NULL_OBS, Observability
from .recording import CallRecord
from .snapshot import MachineSnapshot


class ReplayDivergence(ReproError):
    """The driver's calls no longer match the recording."""


class ReplayInterpreter(Interpreter):
    """An interpreter resuming mid-workload from a snapshot.

    ``skip`` lists the call records of segments *before* the replay
    point; those calls return their recorded results.  Fuel accounting
    matches a full run: the snapshot's consumed steps are subtracted
    from the budget, so a workload that would exhaust fuel in a full
    revalidation exhausts it here too.
    """

    def __init__(
        self,
        module: Module,
        machine: Machine,
        snapshot: MachineSnapshot,
        skip: Iterable[CallRecord],
        cost_model: Optional[CostModel] = None,
        fuel: int = 50_000_000,
        obs: Observability = NULL_OBS,
    ):
        super().__init__(
            module,
            machine=machine,
            cost_model=cost_model,
            fuel=max(0, fuel - snapshot.steps),
            obs=obs,
        )
        self._skip = deque(skip)
        # Observable output accumulated before the replay point, so
        # emit-order inspection sees the full run's output.
        self.output.extend(snapshot.output)

    def call(self, fn_name: str, args: Optional[List[int]] = None) -> ExecutionResult:
        if self._skip:
            record = self._skip.popleft()
            actual_args = list(args or [])
            if (
                record.fn_name != fn_name
                or record.args != actual_args
                or record.result is None
            ):
                raise ReplayDivergence(
                    f"driver diverged at call {record.index}: recorded "
                    f"@{record.fn_name}({record.args}), replay asked for "
                    f"@{fn_name}({actual_args})"
                )
            return record.result
        return super().call(fn_name, args)

    @property
    def skipped_remaining(self) -> int:
        return len(self._skip)


class FlatReplayInterpreter(ReplayInterpreter, FlatEngine):
    """Snapshot replay on the flat engine.

    Pure mixin composition: :class:`ReplayInterpreter` contributes only
    the ``call()`` skip-list logic, :class:`FlatEngine` the compiled
    execution core, so replay-from-snapshot runs the same code path the
    recording did under the flat engine."""
