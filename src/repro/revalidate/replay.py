"""An empty stand-in for the deleted snapshot-replay interpreter."""


class ReplayInterpreter:
    # held only for `e2ebench/tracing.py` `TARGETS`; delete after ROADMAP item 1
    def call(self, fn_name, args=None):
        raise NotImplementedError("snapshot replay was removed")
