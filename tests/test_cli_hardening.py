"""CLI failure-mode hardening: distinct exit codes, --lenient,
--keep-going, and stderr quarantine summaries."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import EXIT_CODES, main
from repro.errors import (
    BudgetExceeded,
    FixError,
    LocateError,
    ReproError,
    TraceError,
    ValidationError,
)
from repro.ir import I64, ModuleBuilder, PTR, format_module

from test_engine_differential import build_undefined_return

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def workspace(tmp_path):
    """A buggy module file plus its detect-produced trace file."""
    mb = ModuleBuilder("cli")
    b = mb.function("main", [], I64, source_file="cli.c")
    p = b.call("pm_alloc", [64], PTR)
    b.store(42, p)
    b.call("emit", [b.load(p)])
    b.ret(0)
    ir = tmp_path / "app.ir"
    ir.write_text(format_module(mb.module))
    trace = tmp_path / "app.trace"
    assert main(["detect", str(ir), "--trace-out", str(trace)]) == 1
    return ir, trace


def test_exit_code_table_is_ordered_most_specific_first():
    codes = dict(EXIT_CODES)
    assert codes[TraceError] == 3
    assert codes[LocateError] == 4
    assert codes[FixError] == 5
    assert codes[ValidationError] == 6
    assert codes[BudgetExceeded] == 7
    assert codes[ReproError] == 2
    classes = [cls for cls, _ in EXIT_CODES]
    # subclasses must be matched before their bases
    assert classes.index(LocateError) < classes.index(FixError)
    assert classes.index(ValidationError) < classes.index(FixError)
    assert classes.index(FixError) < classes.index(ReproError)


def test_malformed_trace_exits_3(workspace, capsys):
    ir, trace = workspace
    text = trace.read_text().splitlines()
    text[1] = text[1][:9]  # crash-truncate the STORE record
    trace.write_text("\n".join(text) + "\n")

    assert main(["fix", str(ir), "--trace", str(trace)]) == 3
    assert "line 2:" in capsys.readouterr().err


def test_lenient_flag_skips_malformed_lines(workspace, capsys):
    ir, trace = workspace
    lines = trace.read_text().splitlines()
    lines.insert(2, "%%%garbage%%%")
    trace.write_text("\n".join(lines) + "\n")

    assert main(["fix", str(ir), "--trace", str(trace), "--lenient"]) == 0
    captured = capsys.readouterr()
    # warnings carry the source filename so batch logs stay attributable
    assert f"warning: {trace}: line 3:" in captured.err
    assert "malformed trace line(s) skipped" in captured.out
    assert main(["detect", str(ir)]) == 0  # the bug still got fixed


def test_unlocatable_bug_exits_4(workspace, capsys):
    ir, trace = workspace
    # debug-info drift: the trace names a function the module lacks
    trace.write_text(trace.read_text().replace("main@", "ghost@"))
    assert main(["fix", str(ir), "--trace", str(trace)]) == 4
    assert "error:" in capsys.readouterr().err


def test_keep_going_quarantines_and_exits_1(workspace, capsys):
    ir, trace = workspace
    trace.write_text(trace.read_text().replace("main@", "ghost@"))
    code = main(["fix", str(ir), "--trace", str(trace), "--keep-going"])
    assert code == 1
    captured = capsys.readouterr()
    assert "[quarantined:locate]" in captured.err
    assert "LocateError" in captured.err
    assert "1 bug(s) quarantined" in captured.out
    # the (unfixed) module was still written out and is valid
    assert main(["show", str(ir)]) == 0


def test_missing_trace_file_exits_2(workspace, capsys):
    ir, _ = workspace
    assert main(["fix", str(ir), "--trace", str(ir.parent / "nope.trace")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--task-timeout", "0"], ["--jobs", "0"], ["--retries", "-1"]],
    ids=["task-timeout-0", "jobs-0", "retries-negative"],
)
def test_bad_batch_config_exits_2_before_journaling(tmp_path, capsys, flags):
    """A supervision policy that cannot work is rejected up front: no
    task runs and no journal is created."""
    journal = tmp_path / "b.journal"
    code = main(["batch", "--cases", "PMDK-447", "--journal", str(journal),
                 *flags])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not journal.exists()


@pytest.mark.parametrize(
    "flags",
    [["--no-incr"], ["--metrics", "m.json"], ["--profile"], ["--profile", "10"]],
    ids=["abbreviated-alias", "abbreviated-option", "profile", "profile-n"],
)
def test_abbreviated_or_deleted_batch_option_is_a_usage_error(
    tmp_path, capsys, flags
):
    """No option parses by a prefix of its name, so a renamed or deleted
    option cannot keep parsing as the prefix of one that survives;
    ``--profile`` is gone."""
    journal = tmp_path / "b.journal"
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--corpus", "--journal", str(journal), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not journal.exists()


@pytest.mark.parametrize(
    "argv",
    [["detect", "app.ir", "--trace", "t.log"], ["fix", "app.ir", "--tr", "t.log"],
     ["--he"]],
    ids=["detect", "fix", "top-level"],
)
def test_no_command_parses_an_abbreviation(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.fixture
def echo_module(tmp_path):
    """A module whose entry ``echo(x)`` returns its argument."""
    mb = ModuleBuilder("args")
    b = mb.function("echo", [("x", I64)], I64, source_file="args.c")
    b.ret(b.function.args[0])
    ir = tmp_path / "args.ir"
    ir.write_text(format_module(mb.module))
    return ir


@pytest.mark.parametrize("command", ["run", "detect"])
def test_malformed_args_value_is_a_usage_error(echo_module, capsys, command):
    """A bad ``--args`` value exits 2 (usage), never 1 (bugs found)."""
    with pytest.raises(SystemExit) as exc:
        main([command, str(echo_module), "--entry", "echo", "--args", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --args: invalid integer 'x'" in err
    assert "Traceback" not in err


def test_malformed_args_value_exits_2_from_the_command_line(echo_module):
    done = subprocess.run(
        [sys.executable, "-m", "repro", "detect", str(echo_module),
         "--entry", "echo", "--args", "0x"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 2
    assert done.stderr.strip().splitlines()[-1] == (
        "repro detect: error: argument --args: invalid integer '0x'"
    )


@pytest.mark.parametrize("command", ["run", "detect"])
@pytest.mark.parametrize(
    "text, shown, result",
    [("7", 7, 7), ("0x28", 40, 40), ("-1", -1, (1 << 64) - 1)],
    ids=["decimal", "hex", "negative"],
)
def test_args_values_parse_in_any_base(
    echo_module, capsys, command, text, shown, result
):
    assert main(
        [command, str(echo_module), "--entry", "echo", "--args", text]
    ) == 0
    assert f"@echo({shown}) -> {result}\n" in capsys.readouterr().out


def test_trace_with_an_impossible_store_size_exits_3(workspace):
    """A store size of ~10^11 bytes is a malformed record, refused with
    one error line before any checker sizes a cache-line set from it."""
    ir, trace = workspace
    with trace.open("a") as handle:
        handle.write("STORE;9;0x100000040;99999999999;pm;main@cli.c:3#2061\n")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "fix", str(ir), "--trace", str(trace)],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: line ")
    assert "bad store size '99999999999'" in lines[0]


def _write_into_missing_dir(kind, ir, trace, target):
    if kind == "detect":
        return ["detect", str(ir), "--trace-out", target]
    if kind == "fix":
        return ["fix", str(ir), "--trace", str(trace), "-o", target]
    return ["batch", "--task", f"{ir}:{trace}", "--journal",
            str(ir.parent / "b.journal"), "--report-out", target]


@pytest.mark.parametrize("kind", ["detect", "fix", "batch"])
def test_output_into_missing_directory_names_the_requested_path(
    workspace, capsys, kind
):
    """The error names the file the user asked for, never the random
    temp file the atomic write would have renamed over it."""
    ir, trace = workspace
    target = str(ir.parent / "missing" / "out.file")
    capsys.readouterr()
    assert main(_write_into_missing_dir(kind, ir, trace, target)) == 2
    err = capsys.readouterr().err
    assert f"error: [Errno 2] No such file or directory: '{target}'" in err
    assert ".tmp" not in err


def test_every_output_file_is_complete_when_the_process_exits(workspace):
    """``python -m repro`` freezes the heap before exiting instead of
    collecting it, so every output must already be closed and whole."""
    from repro.ir import parse_module
    from repro.supervisor.journal import CheckpointJournal
    from repro.trace import load_trace

    ir, trace = workspace
    out = ir.parent
    env = dict(os.environ, PYTHONPATH=SRC)

    def repro(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ).returncode

    assert repro("detect", str(ir), "--trace-out", str(out / "d.trace")) == 1
    assert load_trace((out / "d.trace").read_text()).stores()
    assert repro("fix", str(ir), "--trace", str(trace),
                 "-o", str(out / "fixed.ir")) == 0
    assert parse_module((out / "fixed.ir").read_text()).get_function("main")
    assert repro(
        "batch", "--task", f"{ir}:{trace}:{out / 'batch.ir'}",
        "--journal", str(out / "b.journal"),
        "--report-out", str(out / "report.json"),
        "--spans-out", str(out / "spans.jsonl"),
        "--metrics-out", str(out / "metrics.json"),
    ) == 0
    assert parse_module((out / "batch.ir").read_text()).get_function("main")
    assert json.loads((out / "report.json").read_text())
    assert json.loads((out / "metrics.json").read_text())
    spans = (out / "spans.jsonl").read_text()
    assert spans.endswith("\n")
    assert all(json.loads(line) for line in spans.splitlines())
    journal = CheckpointJournal.read(str(out / "b.journal"))
    assert not journal.torn
    assert journal.records[-1]["type"] == "batch-end"


@pytest.mark.parametrize("engine", ["flat", "reference"])
@pytest.mark.parametrize(
    "entry_args", [["--entry", "main"], ["--entry", "callee", "--args", "0"]]
)
def test_return_of_undefined_value_exits_2(tmp_path, capsys, engine, entry_args):
    """``callee(0)`` returns a value defined only on the branch it did
    not take: a one-line error and exit 2 on both engines, whether the
    return lands in a caller or ends the run."""
    ir = tmp_path / "u.ir"
    ir.write_text(format_module(build_undefined_return()))
    assert main(["detect", str(ir), *entry_args, "--engine", engine]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: undefined value %t1 in @callee\n"
    assert "->" not in captured.out


@pytest.mark.parametrize(
    "body, line",
    [
        ("  %a = load i65, %p", 3),
        ("  %a = alloca x", 3),
        ("  %a = alloca 0", 3),
        ("  flush bogus, %p", 3),
        ("  fence nope", 3),
        ("  %c = icmp zz i64 1, 2", 3),
        ("  ret i64 0", 4),  # after the block's terminator
    ],
    ids=["bad-type", "bad-size", "zero-size", "flush-kind", "fence-kind",
         "predicate", "after-terminator"],
)
@pytest.mark.parametrize("command", ["detect", "show", "fix"])
def test_malformed_module_exits_2_with_its_line(
    tmp_path, workspace, capsys, command, body, line
):
    """Malformed IR is a bad module (exit 2, one stderr line naming the
    line), never a traceback or exit 1 ("bugs found")."""
    ir = tmp_path / "bad.ir"
    ir.write_text(
        f"func @main(%p: ptr) -> i64 {{\nentry:\n{body}\n  ret i64 0\n}}\n"
        if line == 3
        else f"func @main(%p: ptr) -> i64 {{\nentry:\n  ret i64 0\n{body}\n}}\n"
    )
    _, trace = workspace
    args = {"detect": ["--entry", "main"], "show": [], "fix": ["--trace", str(trace)]}
    assert main([command, str(ir), *args[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert err.count("\n") == 1


def test_malformed_module_exits_2_from_the_command_line(tmp_path):
    ir = tmp_path / "bad.ir"
    ir.write_text("func @main(%p: ptr) -> i64 {\nentry:\n  %a = load i65, %p\n}\n")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "detect", str(ir), "--entry", "main"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 2
    assert done.stderr == "error: line 3: unknown type name: 'i65'\n"
