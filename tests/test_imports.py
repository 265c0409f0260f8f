"""Import hygiene: a command loads only the layers it runs.

``repro`` loads its subpackages on first attribute access, so ``repro
detect`` never imports the repair pipeline, while the batch supervisor
still imports all of it before it forks workers.  Each check runs in a
fresh interpreter, because this test process has imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: subpackages ``import repro.cli`` must leave unloaded
PIPELINE_ONLY = (
    "analysis",
    "apps",
    "bench",
    "core",
    "corpus",
    "revalidate",
    "supervisor",
    "workloads",
)


def _loaded_after(statement: str):
    """The ``repro`` subpackages loaded after running ``statement``."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted({name.split('.')[1] for name in sys.modules"
        " if name.startswith('repro.')})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_cli_import_loads_no_pipeline_layer():
    loaded = _loaded_after("import repro.cli")
    assert not loaded & set(PIPELINE_ONLY), sorted(loaded)
    assert {"cli", "detect", "interp", "ir", "memory", "trace"} <= loaded


def test_supervisor_import_loads_the_pipeline_before_forking():
    """Forked workers inherit these modules instead of importing them."""
    loaded = _loaded_after("import repro.supervisor")
    assert {"core", "corpus", "analysis", "revalidate"} <= loaded


@pytest.mark.parametrize("statement", ["import repro", "from repro import *"])
def test_every_public_name_resolves(statement):
    code = (
        f"{statement}\n"
        "import repro, types\n"
        "for name in repro.__all__:\n"
        "    value = getattr(repro, name)\n"
        "    assert name == '__version__' or isinstance(value, types.ModuleType), name\n"
    )
    if statement.startswith("from"):
        code += "assert set(repro.__all__) <= set(globals())\n"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_unknown_attribute_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
