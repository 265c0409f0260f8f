"""An empty stand-in for the deleted machine pool."""


class MachinePool:
    # held only for `e2ebench/tracing.py` `TARGETS`; delete after ROADMAP item 1
    def acquire(self):
        raise NotImplementedError("the machine pool was removed")
