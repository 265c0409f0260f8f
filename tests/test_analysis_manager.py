"""The analysis manager: caching, invalidation, disk sharing, and the
cache-on/cache-off differential.

Covers the invalidation matrix (flush/fence insertion preserves the
whole-program analyses; clones/retargets drop them; clean rollbacks
preserve everything; failed rollbacks drop everything), failure
memoization (a budget-exhausted Andersen solves once, not once per
mode per fix), the content-addressed on-disk
round trip (including the UNKNOWN site's identity), scoped
verification, and the contract that matters most: enabling the cache
never changes repair output — cold or warm, and across a mid-run
kill/resume, the batch report is byte-identical to the oracle's, which
runs with no cache (``test_oracle_differential.py``).
"""

import json
import os

import pytest

from repro.analysis import CallGraph, PointsTo, UNKNOWN_SITE
from repro.analysis.diskcache import AnalysisDiskCache
from repro.analysis.manager import (
    CALLGRAPH,
    POINTS_TO,
    VERIFIED,
    AnalysisManager,
    classification_key,
)
from repro.budget import Budget
from repro.core import Hippocrates
from repro.core.transaction import FixTransaction
from repro.detect import pmemcheck_run
from repro.errors import BudgetExceeded
from repro.ir import (
    I64,
    ModuleBuilder,
    PTR,
    format_module,
    parse_module,
)

from conftest import build_listing5_module, drive_main
from test_oracle_differential import (
    assert_batch_matches_oracle,
    assert_killed_fast_batch_resumes_to_oracle,
)


def build_module():
    mb = ModuleBuilder("mgr")
    b = mb.function("main", [], I64, source_file="m.c")
    p = b.call("pm_alloc", [64], PTR)
    b.store(7, p)
    b.ret(0)
    return mb.module


# ---------------------------------------------------------------------------
# caching basics
# ---------------------------------------------------------------------------


def test_repeated_lookup_hits_the_cache():
    module = build_module()
    manager = AnalysisManager(module)
    first = manager.get(POINTS_TO)
    assert manager.get(POINTS_TO) is first
    assert manager.stats.misses == 1
    assert manager.stats.hits == 1


def test_mutation_without_notification_recomputes():
    module = build_module()
    manager = AnalysisManager(module)
    first = manager.get(POINTS_TO)
    module.bump_epoch()  # a mutation nobody revalidated
    assert manager.get(POINTS_TO) is not first
    assert manager.stats.misses == 2


def test_unknown_key_raises():
    manager = AnalysisManager(build_module())
    with pytest.raises(KeyError):
        manager.get("no-such-analysis")


# ---------------------------------------------------------------------------
# the invalidation matrix
# ---------------------------------------------------------------------------


def test_flush_fence_commit_preserves_whole_program_analyses():
    module = build_module()
    manager = AnalysisManager(module)
    points_to = manager.get(POINTS_TO)
    callgraph = manager.get(CALLGRAPH)

    txn = FixTransaction(module, manager=manager)
    txn.touch("main")
    module.bump_epoch()  # the inserted flush/fence
    txn.commit()

    assert manager.get(POINTS_TO) is points_to
    assert manager.get(CALLGRAPH) is callgraph


def test_structural_commit_drops_points_to_and_callgraph():
    module = build_module()
    manager = AnalysisManager(module)
    points_to = manager.get(POINTS_TO)
    callgraph = manager.get(CALLGRAPH)

    txn = FixTransaction(module, manager=manager)
    call = next(i for i in module.get_function("main").entry if i.opcode == "call")
    txn.track_attr(call, "callee")  # marks the mutation structural
    call.callee = "pm_alloc_PM"
    module.bump_epoch()
    txn.commit()

    assert manager.get(POINTS_TO) is not points_to
    assert manager.get(CALLGRAPH) is not callgraph


def test_structural_commit_cascades_to_dependents():
    module = build_module()
    manager = AnalysisManager(module)
    manager.register(
        classification_key("full"),
        lambda m: object(),
        depends=(POINTS_TO,),
    )
    first = manager.get(classification_key("full"))

    txn = FixTransaction(module, manager=manager)
    txn.track_attr(module.get_function("main"), "name")  # any structural witness
    module.bump_epoch()
    txn.commit()

    assert manager.get(classification_key("full")) is not first


def test_commit_drops_only_touched_verified_state():
    module = build_listing5_module()
    manager = AnalysisManager(module)
    manager.verify_scope(["update", "modify"])
    baseline_misses = manager.stats.misses

    txn = FixTransaction(module, manager=manager)
    txn.touch("update")
    module.bump_epoch()
    txn.commit()

    manager.verify_scope(["update", "modify"])
    # "update" re-verified (one more miss); "modify" was revalidated.
    assert manager.stats.misses == baseline_misses + 1


def test_clean_rollback_preserves_everything():
    module = build_module()
    manager = AnalysisManager(module)
    points_to = manager.get(POINTS_TO)

    txn = FixTransaction(module, manager=manager)
    call = next(i for i in module.get_function("main").entry if i.opcode == "call")
    txn.track_attr(call, "callee")
    call.callee = "pm_alloc_PM"
    module.bump_epoch()
    txn.rollback()

    assert call.callee == "pm_alloc"
    assert manager.get(POINTS_TO) is points_to
    assert manager.stats.misses == 1


def test_failed_rollback_entries_are_never_restamped():
    """A failed rollback leaves integrity unknown: no entry may survive
    it, not even by being re-stamped at a later commit's epoch."""
    module = build_module()
    manager = AnalysisManager(module)
    manager.get(POINTS_TO)
    manager.get(CALLGRAPH)

    module.bump_epoch()  # the mutation whose undo failed
    manager.mutation_rolled_back(clean=False)
    assert manager.stats.invalidations == 2
    module.bump_epoch()  # a later fix commits
    manager.mutation_committed()

    assert manager.cached(POINTS_TO) is None
    assert manager.cached(CALLGRAPH) is None


# ---------------------------------------------------------------------------
# failure memoization
# ---------------------------------------------------------------------------


def test_failures_replay_without_recomputing():
    module = build_module()
    manager = AnalysisManager(module)
    calls = []

    def doomed(_module):
        calls.append(1)
        raise BudgetExceeded("analysis budget exhausted")

    manager.register("doomed", doomed)
    with pytest.raises(BudgetExceeded):
        manager.get("doomed")
    with pytest.raises(BudgetExceeded):
        manager.get("doomed")
    assert len(calls) == 1
    assert manager.stats.failures_replayed == 1


def test_failures_do_not_survive_revalidation():
    module = build_module()
    manager = AnalysisManager(module)
    attempts = []

    def flaky(_module):
        attempts.append(1)
        if len(attempts) == 1:
            raise BudgetExceeded("first attempt dies")
        return "ok"

    manager.register("flaky", flaky)
    with pytest.raises(BudgetExceeded):
        manager.get("flaky")

    # A clean rollback revalidates cached *values* but must drop the
    # cached failure: the failed attempt described a different content
    # state and replaying it here would wedge the analysis forever.
    txn = FixTransaction(module, manager=manager)
    txn.track_attr(module.get_function("main"), "name")
    module.bump_epoch()
    txn.rollback()

    assert manager.get("flaky") == "ok"


def test_exhausted_budget_solves_andersen_exactly_once(monkeypatch):
    """The satellite bugfix: a budget-exhausted Full-AA downgrades
    through trace to off with exactly one fixpoint attempt — the cached
    failure replays for the trace mode instead of re-solving."""
    module = build_listing5_module()
    detection, trace, interp = pmemcheck_run(module, drive_main)

    import repro.analysis.manager as manager_module

    constructions = []
    real_points_to = manager_module.PointsTo

    def counting_points_to(*args, **kwargs):
        constructions.append(1)
        return real_points_to(*args, **kwargs)

    monkeypatch.setattr(manager_module, "PointsTo", counting_points_to)

    fixer = Hippocrates(
        module,
        trace,
        interp.machine,
        analysis_budget=Budget(max_items=1, label="andersen"),
    )
    report = fixer.fix()

    assert len(constructions) == 1
    assert fixer.effective_heuristic == "off"
    assert [d.to_mode for d in report.downgrades] == ["trace", "off"]
    # Degraded all the way down, the always-safe baseline still repairs.
    assert report.bugs_fixed == detection.bug_count


# ---------------------------------------------------------------------------
# the on-disk cache
# ---------------------------------------------------------------------------


def build_disk_module():
    mb = ModuleBuilder("disk")
    b = mb.function("make", [("n", I64)], PTR, source_file="d.c")
    raw = b.cast("inttoptr", b.function.args[0], PTR)  # -> UNKNOWN site
    pm = b.call("pm_alloc", [64], PTR)
    cond = b.icmp("eq", b.function.args[0], 0)
    b.ret(b.select(cond, pm, raw))
    b = mb.function("main", [], I64, source_file="d.c")
    p = b.call("make", [3], PTR)
    slot = b.alloca(8)
    b.store(p, slot)
    b.store(5, b.load(slot, PTR))
    b.ret(0)
    return mb.module


def test_disk_round_trip_preserves_solution(tmp_path):
    module = build_disk_module()
    cache = AnalysisDiskCache(str(tmp_path))
    assert cache.load(module) is None  # empty cache -> miss
    solved = PointsTo(module)
    assert cache.store(module, solved, CallGraph(module))

    reparsed = parse_module(format_module(module))
    restored = cache.load(reparsed)
    assert restored is not None
    points_to, callgraph = restored
    assert callgraph.summary() == CallGraph(module).summary()

    for fn_name in module.function_names():
        original_fn = module.get_function(fn_name)
        restored_fn = reparsed.get_function(fn_name)
        for a, b in zip(original_fn.instructions(), restored_fn.instructions()):
            sites_a = solved.sites_of(a)
            sites_b = points_to.sites_of(b)
            assert len(sites_a) == len(sites_b)
            assert {s.space for s in sites_a} == {s.space for s in sites_b}


def test_disk_round_trip_keeps_unknown_site_identity(tmp_path):
    module = build_disk_module()
    cache = AnalysisDiskCache(str(tmp_path))
    cache.store(module, PointsTo(module), CallGraph(module))
    reparsed = parse_module(format_module(module))
    points_to, _ = cache.load(reparsed)

    unknowns = [
        site
        for instr in reparsed.instructions()
        for site in points_to.sites_of(instr)
        if site.space == "unknown"
    ]
    assert unknowns
    # Classifiers compare against the singleton by identity.
    assert all(site is UNKNOWN_SITE for site in unknowns)


def test_corrupt_or_stale_entries_load_as_misses(tmp_path):
    module = build_disk_module()
    cache = AnalysisDiskCache(str(tmp_path))
    cache.store(module, PointsTo(module), CallGraph(module))
    entry_path = os.path.join(str(tmp_path), f"{module.fingerprint()}.json")

    with open(entry_path) as handle:
        payload = json.load(handle)
    payload["schema"] = "some-other-schema"
    with open(entry_path, "w") as handle:
        json.dump(payload, handle)
    assert cache.load(module) is None

    with open(entry_path, "w") as handle:
        handle.write("{ torn mid-wri")
    assert cache.load(module) is None


def test_manager_seeds_callgraph_from_disk_hit(tmp_path):
    module = build_disk_module()
    warmer = AnalysisManager(module, disk_cache=AnalysisDiskCache(str(tmp_path)))
    warmer.get(POINTS_TO)
    assert warmer.stats.disk_misses == 1

    reparsed = parse_module(format_module(module))
    manager = AnalysisManager(
        reparsed, disk_cache=AnalysisDiskCache(str(tmp_path))
    )
    manager.get(POINTS_TO)
    assert manager.stats.disk_hits == 1
    # The call graph came along with the entry: no extra miss for it.
    misses_before = manager.stats.misses
    manager.get(CALLGRAPH)
    assert manager.stats.misses == misses_before


# ---------------------------------------------------------------------------
# scoped verification
# ---------------------------------------------------------------------------


def test_verify_scope_caches_per_function():
    module = build_listing5_module()
    manager = AnalysisManager(module)
    manager.verify_scope(["update", "modify"])
    assert manager.stats.misses == 2
    manager.verify_scope(["update", "modify"])
    assert manager.stats.misses == 2
    assert manager.stats.hits == 2


def test_verify_scope_skips_unknown_functions():
    manager = AnalysisManager(build_module())
    manager.verify_scope(["main", "not-a-function"])
    assert manager.cached((VERIFIED, "main"))
    assert manager.cached((VERIFIED, "not-a-function")) is None


# ---------------------------------------------------------------------------
# the differential: cache on == cache off (the oracle), byte for byte
# ---------------------------------------------------------------------------


def test_corpus_cache_on_vs_off_is_byte_identical(tmp_path):
    cache_dir = str(tmp_path / "acache")
    assert_batch_matches_oracle(analysis_cache_dir=cache_dir)  # cold
    warm = assert_batch_matches_oracle(analysis_cache_dir=cache_dir)
    assert warm.analysis_stats["disk_hits"] == len(warm.outcomes)
    assert "analysis cache" in warm.summary()


def test_resume_after_kill_with_cache_is_byte_identical(tmp_path):
    assert_killed_fast_batch_resumes_to_oracle(
        str(tmp_path / "kill.journal"),
        boundary=3,  # right after the first task-done checkpoint
        cases=["PMDK-447", "PMDK-452", "PMDK-458"],
        analysis_cache_dir=str(tmp_path / "acache"),
    )
