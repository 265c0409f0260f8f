"""The end-to-end benchmark still reaches the program it measures.

``e2ebench/`` names parts of ``repro`` directly: its traced run wraps
the functions in ``tracing.TARGETS``, and every iteration (and the
oracle run beside it) is a ``repro`` command line built by
``Workload.command``.  Deleting or renaming one of those breaks the
benchmark's run, not any test of ``repro`` itself; these checks read
``e2ebench/`` (without changing it) so the local suite catches that.
"""

import importlib
import os
import sys

import pytest

from repro.cli import build_parser

E2EBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "e2ebench"
)
#: e2ebench's own top-level modules (it imports them by bare name)
BENCH_MODULES = ("run", "stats", "tracing", "workloads")


@pytest.fixture(scope="module")
def bench():
    """e2ebench's ``run`` module, imported from its directory; the bare
    module names are dropped again afterwards."""
    loaded = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    sys.path.insert(0, E2EBENCH)
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(E2EBENCH)
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(loaded)


def test_every_traced_target_resolves(bench):
    for target in bench.tracing.TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        # The same lookup ``tracing.install`` makes: a method is patched
        # on its class, so it must be defined there.
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), f"{target.module}.{target.attr}"


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("smoke", [False, True])
def test_every_workload_command_parses(bench, smoke, oracle):
    parser = build_parser()
    for workload in bench.WORKLOADS.values():
        argv = workload.command(smoke, oracle=oracle)
        try:
            parser.parse_args(argv)
        except SystemExit:  # argparse reports the bad option on stderr
            pytest.fail(f"{workload.name} (oracle={oracle}): {argv}")
