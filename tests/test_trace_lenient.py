"""Lenient ingestion of malformed pmemcheck logs.

The static corpus in ``tests/data/malformed_traces/`` covers the three
real-world damage shapes: crash-truncated records, field-reordered
records, and interleaved garbage.  Strict mode must refuse each file
with the offending line number; lenient mode must skip exactly the
damaged lines and repair every bug whose records survived.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import build_listing5_module, drive_main
from repro.core import Hippocrates, assert_fixed
from repro.errors import TraceError
from repro.trace import TraceWarning, load_trace

DATA = Path(__file__).parent / "data" / "malformed_traces"

#: file -> (1-based damaged line numbers, surviving event count)
CORPUS = {
    "truncated.trace": ([4], 3),
    "reordered.trace": ([2, 4], 3),
    "garbage.trace": ([3, 5, 6], 3),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_strict_mode_raises_with_line_number(name):
    text = (DATA / name).read_text()
    first_bad = CORPUS[name][0][0]
    with pytest.raises(TraceError) as info:
        load_trace(text)
    assert info.value.line == first_bad
    assert f"line {first_bad}:" in str(info.value)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lenient_mode_skips_exactly_the_damaged_lines(name):
    bad_lines, survivors = CORPUS[name]
    warnings = []
    trace = load_trace((DATA / name).read_text(), strict=False, warnings=warnings)
    assert len(trace) == survivors
    assert [w.line for w in warnings] == bad_lines
    for warning in warnings:
        assert isinstance(warning, TraceWarning)
        assert warning.message
        assert f"line {warning.line}:" in str(warning)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lenient_pipeline_repairs_surviving_bugs(name):
    # every corpus file keeps listing5's missing-flush records intact,
    # so the lenient pipeline must still produce a complete repair
    module = build_listing5_module()
    fixer = Hippocrates(module, (DATA / name).read_text(), lenient=True)
    report = fixer.fix()
    assert len(report.trace_warnings) == len(CORPUS[name][0])
    assert report.bugs_fixed >= 1
    assert "malformed trace line(s) skipped" in report.summary()
    assert_fixed(module, drive_main)


def test_strict_is_the_default_for_text_traces():
    module = build_listing5_module()
    with pytest.raises(TraceError):
        Hippocrates(module, (DATA / "truncated.trace").read_text())


def test_warning_text_is_truncated_for_display():
    warning = TraceWarning(line=3, message="bad", text="x" * 200)
    shown = str(warning)
    assert "..." in shown
    assert len(shown) < 200


# ---------------------------------------------------------------------------
# warning accumulation: the cap and the source stamp
# ---------------------------------------------------------------------------


_GOOD_STORE = "STORE;1;0x100000000;8;pm;main@app.c:1#1"


@pytest.mark.parametrize(
    "bad",
    [
        "STORE;2;0x100000040;99999999999;pm;main@app.c:1#1",
        "STORE;2;0x100000040;-8;pm;main@app.c:1#1",
        "STORE;2;0x100000040;0;pm;main@app.c:1#1",
        "STORE;2;0x100000040;8;xyz;main@app.c:1#1",
        "STORE;2;-0x100000040;8;pm;main@app.c:1#1",
        "FLUSH;2;0x100000000;0x100000000;bogus;1;main@app.c:1#1",
        "FLUSH;2;0x100000000;0x100000000;clwb;7;main@app.c:1#1",
        "FENCE;2;bogus;main@app.c:1#1",
    ],
)
def test_out_of_domain_fields_are_refused_or_skipped(bad):
    text = f"{_GOOD_STORE}\n{bad}\n"
    with pytest.raises(TraceError) as info:
        load_trace(text)
    assert info.value.line == 2
    warnings = []
    trace = load_trace(text, strict=False, warnings=warnings)
    assert len(trace) == 1  # the good record survives
    assert [(w.line, w.text) for w in warnings] == [(2, bad)]


def _many_bad_lines(count):
    good = "STORE;1;0x100000000;8;pm;main@app.c:1#1"
    bad = "\n".join(f"GARBAGE line {i}" for i in range(count))
    return f"{good}\n{bad}\n"


def test_warning_accumulation_is_capped_with_a_summary():
    warnings = []
    trace = load_trace(
        _many_bad_lines(20), strict=False, warnings=warnings, max_warnings=5
    )
    assert len(trace) == 1  # the good record survives
    assert len(warnings) == 6  # 5 individual + 1 summary
    summary = warnings[-1]
    assert summary.suppressed == 15
    assert summary.line == 0
    assert "15 more malformed record(s) suppressed" in str(summary)
    assert all(w.suppressed == 0 for w in warnings[:-1])


def test_warning_cap_unbounded_when_nonpositive():
    warnings = []
    load_trace(_many_bad_lines(60), strict=False, warnings=warnings,
               max_warnings=0)
    assert len(warnings) == 60
    assert all(w.suppressed == 0 for w in warnings)


def test_default_cap_bounds_pathological_logs():
    from repro.trace import MAX_TRACE_WARNINGS

    warnings = []
    load_trace(
        _many_bad_lines(MAX_TRACE_WARNINGS + 10), strict=False,
        warnings=warnings,
    )
    assert len(warnings) == MAX_TRACE_WARNINGS + 1
    assert warnings[-1].suppressed == 10


def test_warnings_carry_the_source_filename():
    warnings = []
    load_trace(
        _many_bad_lines(2), strict=False, warnings=warnings,
        source="app.trace",
    )
    assert all(w.source == "app.trace" for w in warnings)
    assert str(warnings[0]).startswith("app.trace: line 2:")


def test_hippocrates_stamps_trace_source_on_warnings():
    module = build_listing5_module()
    fixer = Hippocrates(
        module,
        (DATA / "truncated.trace").read_text(),
        lenient=True,
        trace_source="truncated.trace",
    )
    assert fixer.trace_warnings
    assert all(w.source == "truncated.trace" for w in fixer.trace_warnings)
