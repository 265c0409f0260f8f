"""Import hygiene: a command loads only the modules it runs.

``repro`` and each of its subpackages resolve their names on first use,
so ``repro detect`` never imports the repair pipeline and a batch of
file repairs never imports the interpreter, the corpus or the apps.  A
batch loads what its task kinds run before its first task, so forked
workers inherit those modules instead of compiling them.  Each check
runs the real CLI in a fresh interpreter, because this test process has
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import build_listing5_module, drive_main

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

#: modules a batch of file repairs never runs
FILE_BATCH_NEVER = (
    "repro.apps",
    "repro.interp.compile",
    "repro.interp.engine",
    "repro.memory.pool",
    "repro.revalidate.engine",
    "repro.revalidate.recording",
    "repro.revalidate.replay",
    "repro.revalidate.synthesize",
)

#: modules ``repro detect`` never runs
DETECT_NEVER = ("repro.ir.builder", "repro.memory.crash", "repro.memory.pool")

#: Runs ``repro.cli.main(ARGV)`` after installing a meta-path finder
#: that appends "<main|worker> <module>" to LOG for every ``repro``
#: module a process imports for the first time.  The log is a file
#: because a forked worker's stdout is its protocol pipe.
CLI_WITH_IMPORT_LOG = """
import os, sys

MAIN = os.getpid()


class ImportLog:
    def find_spec(self, name, path=None, target=None):
        if name == "repro" or name.startswith("repro."):
            who = "main" if os.getpid() == MAIN else "worker"
            with open(LOG, "a") as handle:
                handle.write(f"{who} {name}\\n")
        return None


sys.meta_path.insert(0, ImportLog())
from repro.cli import main

sys.exit(main(ARGV))
"""


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


def _cli_imports(argv, cwd):
    """Run the CLI on ``argv`` in a fresh interpreter; returns its exit
    code and the (process, module) first imports it logged."""
    log = os.path.join(str(cwd), "imports.log")
    code = f"LOG = {log!r}\nARGV = {list(argv)!r}\n" + CLI_WITH_IMPORT_LOG
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(cwd),
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    with open(log) as handle:
        imports = [tuple(line.split()) for line in handle]
    return done.returncode, imports, done.stderr


@pytest.fixture(scope="module")
def listing5_files(tmp_path_factory):
    """Listing 5 and its trace on disk: a file repair that clones."""
    from repro.detect import pmemcheck_run
    from repro.ir import format_module
    from repro.trace import dump_trace

    directory = tmp_path_factory.mktemp("listing5")
    module = build_listing5_module()
    (directory / "app.ir").write_text(format_module(module))
    _, trace, _ = pmemcheck_run(module, drive_main)
    (directory / "app.trace").write_text(dump_trace(trace))
    return directory


def _file_task(directory, output="fixed.ir"):
    return f"{directory / 'app.ir'}:{directory / 'app.trace'}:{directory / output}"


def test_cli_import_loads_no_pipeline_layer():
    loaded = _loaded_after("import repro.cli")
    assert not loaded & set(PIPELINE_ONLY), sorted(loaded)
    assert {"cli", "detect", "interp", "ir", "memory", "trace"} <= loaded


def _worker_and_main_imports(selection, directory, tmp_path):
    code, imports, stderr = _cli_imports(
        [
            "batch", *selection, "--task", _file_task(directory),
            "--mode", "subprocess", "--jobs", "2", "--journal", "batch.journal",
        ],
        tmp_path,
    )
    assert code == 0, stderr
    worker = [name for who, name in imports if who == "worker"]
    return worker, {name for who, name in imports if who == "main"}


def test_supervisor_import_loads_the_pipeline_before_forking(listing5_files, tmp_path):
    """No ``repro`` module is first imported in a forked worker: the
    supervisor loads what each pending task kind runs before it forks,
    and the workers inherit it.  Three tasks on two slots: one worker
    serves two of them, and imports nothing for its later task
    either."""
    worker, main = _worker_and_main_imports(
        ["--cases", "PMDK-447", "P-CLHT"], listing5_files, tmp_path
    )
    assert worker == []
    assert {"repro.corpus.bugs", "repro.revalidate.engine"} <= main


def test_file_batch_workers_inherit_the_clone_transformer(listing5_files, tmp_path):
    worker, main = _worker_and_main_imports([], listing5_files, tmp_path)
    assert worker == []
    assert "repro.core.subprogram" in main  # the listing's fix clones
    assert "repro.corpus.bugs" not in main


def test_file_batch_never_loads_the_interpreter(listing5_files, tmp_path):
    code, imports, stderr = _cli_imports(
        [
            "batch", "--task", _file_task(listing5_files), "--mode", "inprocess",
            "--journal", "batch.journal",
        ],
        tmp_path,
    )
    assert code == 0, stderr
    loaded = {name for _, name in imports}
    assert "repro.core.hippocrates" in loaded
    assert not loaded & set(FILE_BATCH_NEVER), sorted(loaded & set(FILE_BATCH_NEVER))


def test_detect_never_loads_the_builder_or_crash_model(listing5_files, tmp_path):
    code, imports, stderr = _cli_imports(
        ["detect", str(listing5_files / "app.ir"), "--trace-out", "app.trace"],
        tmp_path,
    )
    assert code == 1, stderr  # bugs found
    loaded = {name for _, name in imports}
    assert "repro.interp.engine" in loaded
    assert not loaded & set(DETECT_NEVER), sorted(loaded & set(DETECT_NEVER))


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


def test_every_subpackage_export_resolves():
    """Each subpackage's lazily resolved ``__all__`` names a real object."""
    code = (
        "import importlib, repro\n"
        "for package in set(repro.__all__) - {'__version__'}:\n"
        "    module = importlib.import_module(f'repro.{package}')\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
    )
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
    import repro.ir

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
    with pytest.raises(AttributeError, match="'repro.ir' has no attribute 'nope'"):
        repro.ir.nope
