"""The analysis manager: caching, the shape rule, disk sharing, and the
cache-on/cache-off differential.

Covers the shape rule (a fix's flush/fence insertion, or its clean
undo, keeps the whole-program analyses; a clone, a retarget, the undo
of either and a failed rollback drop them), failure memoization (a
budget-exhausted Andersen solves once, not once per mode per fix), that
each corpus repair builds its analyses once, the content-addressed
on-disk round trip (including the UNKNOWN site's identity), scoped
verification, and the contract that matters most: enabling the cache
never changes repair output — cold or warm, and across a mid-run
kill/resume, the batch report is byte-identical to the oracle's, which
runs with no cache (``test_oracle_differential.py``).
"""

import json
import os
from collections import Counter

import pytest

from repro.analysis import PointsTo, UNKNOWN_SITE, classify_full_aa
from repro.analysis.diskcache import AnalysisDiskCache
from repro.analysis.manager import CALLGRAPH, POINTS_TO, AnalysisManager
from repro.budget import Budget
from repro.core import Hippocrates
from repro.core.fixes import InsertFenceAfterStore
from repro.core.transaction import FixTransaction
from repro.corpus.bugs import all_cases
from repro.detect import pmemcheck_run
from repro.errors import BudgetExceeded, RollbackError
from repro.ir import (
    I64,
    ModuleBuilder,
    PTR,
    format_module,
    parse_module,
)
from repro.ir.instructions import Fence
from repro.ir.verifier import is_verified, verify_changed
from repro.obs import Observability
from repro.supervisor.tasks import run_case

from conftest import build_listing5_module, drive_main
from test_analysis_andersen import decode, sites_of
from test_oracle_differential import (
    assert_batch_matches_oracle,
    assert_killed_fast_batch_resumes_to_oracle,
)


def counted(module, **kwargs):
    """An analysis manager counting into its own enabled Observability."""
    return AnalysisManager(module, obs=Observability(), **kwargs)


def stats(manager):
    """The manager's ``analysis.*`` counters by key (0 when never counted)."""
    counters = manager.obs.metrics_snapshot()["counters"]
    return Counter({
        name[len("analysis."):]: count
        for name, count in counters.items()
        if name.startswith("analysis.")
    })


def build_module():
    """One PM store through a gep: the gep is Andersen's one constraint,
    so every fixpoint pass charges the analysis budget."""
    mb = ModuleBuilder("mgr")
    b = mb.function("main", [], I64, source_file="m.c")
    p = b.call("pm_alloc", [64], PTR)
    b.store(7, b.gep(p, 8))
    b.ret(0)
    return mb.module


# ---------------------------------------------------------------------------
# caching basics
# ---------------------------------------------------------------------------


def test_repeated_lookup_hits_the_cache():
    module = build_module()
    manager = counted(module)
    first = manager.get(POINTS_TO)
    assert manager.get(POINTS_TO) is first
    assert stats(manager)["misses"] == 1
    assert stats(manager)["hits"] == 1


def test_mutation_without_notification_recomputes():
    module = build_module()
    manager = counted(module)
    first = manager.get(POINTS_TO)
    module.bump_epoch()  # a mutation nobody revalidated
    assert manager.get(POINTS_TO) is not first
    assert stats(manager)["misses"] == 2


def test_unknown_key_raises():
    manager = counted(build_module())
    with pytest.raises(KeyError):
        manager.get("no-such-analysis")


# ---------------------------------------------------------------------------
# the shape rule: kept across body edits, dropped when the shape moves
# ---------------------------------------------------------------------------


def main_call(module):
    return next(i for i in module.get_function("main").entry if i.opcode == "call")


def insert_fence(module, txn):
    """A real fix's insertion, journaled: a fence after ``main``'s store."""
    main = module.get_function("main")
    fix = InsertFenceAfterStore(
        store=next(i for i in main.entry if i.opcode == "store")
    )
    txn.track_fix(fix)
    txn.touch("main")
    fence = Fence()
    main.entry.insert_after(fix.store, fence)
    fix.inserted.append(fence)


def retarget(txn, call):
    txn.track_attr(call, "callee")  # marks the mutation structural
    call.callee = "pm_alloc_PM"
    call.function.parent.bump_epoch()


def test_flush_fence_commit_preserves_whole_program_analyses():
    module = build_module()
    manager = counted(module)
    points_to = manager.get(POINTS_TO)
    callgraph = manager.get(CALLGRAPH)

    txn = FixTransaction(module)
    epoch = module.epoch
    insert_fence(module, txn)
    txn.commit()
    assert module.epoch > epoch  # the body changed...

    # ...but not the shape, so both analyses are still answered.
    assert manager.get(POINTS_TO) is points_to
    assert manager.get(CALLGRAPH) is callgraph
    assert stats(manager)["misses"] == 2
    assert stats(manager)["invalidations"] == 0


def test_structural_commit_drops_points_to_and_callgraph():
    module = build_module()
    manager = counted(module)
    points_to = manager.get(POINTS_TO)
    callgraph = manager.get(CALLGRAPH)

    txn = FixTransaction(module)
    retarget(txn, main_call(module))
    txn.commit()

    assert manager.get(POINTS_TO) is not points_to
    assert manager.get(CALLGRAPH) is not callgraph


def test_structural_commit_cascades_to_dependents(tmp_path):
    """The call graph built beside a points-to solution restored from
    disk goes with it when the shape moves."""
    module = build_module()
    counted(module, disk_cache=AnalysisDiskCache(str(tmp_path))).get(
        POINTS_TO
    )
    manager = counted(module, disk_cache=AnalysisDiskCache(str(tmp_path)))
    manager.get(POINTS_TO)
    built = manager.get(CALLGRAPH)
    assert stats(manager)["disk_hits"] == 1
    assert stats(manager)["misses"] == 2  # the entry holds no call graph

    txn = FixTransaction(module)
    retarget(txn, main_call(module))
    txn.commit()

    assert manager.get(CALLGRAPH) is not built
    assert stats(manager)["invalidations"] == 1
    assert stats(manager)["misses"] == 3


def test_commit_drops_only_touched_verified_state(verifications):
    module = build_listing5_module()
    verify_changed(module, ["update", "modify"])
    assert verifications == ["modify", "update"]

    txn = FixTransaction(module)
    txn.touch("update")
    update = module.get_function("update")
    first = update.entry.instructions[0]
    update.entry.insert_after(first, Fence())
    txn.commit()

    verify_changed(module, ["update", "modify"])
    # "update" re-verified; "modify" stayed verified.
    assert verifications == ["modify", "update", "update"]


def test_clean_rollback_preserves_everything():
    module = build_module()
    manager = counted(module)
    points_to = manager.get(POINTS_TO)
    callgraph = manager.get(CALLGRAPH)
    text = format_module(module)

    txn = FixTransaction(module)
    insert_fence(module, txn)
    txn.rollback()

    assert format_module(module) == text
    assert manager.get(POINTS_TO) is points_to
    assert manager.get(CALLGRAPH) is callgraph
    assert stats(manager)["misses"] == 2


def test_clean_rollback_of_a_retarget_recomputes():
    """Undoing a retarget moves the shape again, so the analyses are
    rebuilt on content the rollback restored."""
    module = build_module()
    manager = counted(module)
    points_to = manager.get(POINTS_TO)

    txn = FixTransaction(module)
    call = main_call(module)
    retarget(txn, call)
    txn.rollback()

    assert call.callee == "pm_alloc"
    assert manager.get(POINTS_TO) is not points_to
    assert stats(manager)["misses"] == 2


class Fragile:
    """An attribute whose restore raises: a rollback that fails."""

    @property
    def x(self):
        return 1

    @x.setter
    def x(self, value):
        raise RuntimeError("undo exploded")


def test_failed_rollback_entries_are_never_restamped():
    """A failed rollback leaves integrity unknown: no entry may survive
    it, and a later body-only commit cannot bring one back."""
    module = build_module()
    manager = counted(module)
    points_to = manager.get(POINTS_TO)
    callgraph = manager.get(CALLGRAPH)

    txn = FixTransaction(module)
    txn.track_attr(Fragile(), "x")
    insert_fence(module, txn)
    with pytest.raises(RollbackError):
        txn.rollback()
    later = FixTransaction(module)
    insert_fence(module, later)
    later.commit()

    assert manager.get(POINTS_TO) is not points_to
    assert manager.get(CALLGRAPH) is not callgraph
    assert stats(manager)["invalidations"] == 2


# ---------------------------------------------------------------------------
# failure memoization
# ---------------------------------------------------------------------------


@pytest.fixture
def verifications(monkeypatch):
    """The names of the functions ``verify_function`` checks, in order."""
    import repro.ir.verifier as verifier_module

    checked = []
    real = verifier_module.verify_function

    def counting(fn):
        checked.append(fn.name)
        real(fn)

    monkeypatch.setattr(verifier_module, "verify_function", counting)
    return checked


@pytest.fixture
def constructions(monkeypatch):
    """How many ``PointsTo`` and ``CallGraph`` objects the analysis
    manager builds, counted by name."""
    import repro.analysis.manager as manager_module

    built = {"PointsTo": 0, "CallGraph": 0}
    for name in built:
        real = getattr(manager_module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(manager_module, name, counting)
    return built


def test_failures_replay_without_recomputing(constructions):
    module = build_module()
    manager = counted(module, budget=Budget(max_items=0))
    with pytest.raises(BudgetExceeded):
        manager.get(POINTS_TO)
    # A fix's fence moves no shape: the same failure replays.
    insert_fence(module, FixTransaction(module))
    with pytest.raises(BudgetExceeded):
        manager.get(POINTS_TO)
    assert constructions["PointsTo"] == 1
    assert stats(manager)["failures_replayed"] == 1


def test_failures_do_not_survive_revalidation(constructions):
    module = build_module()
    manager = counted(module, budget=Budget(max_items=0))
    with pytest.raises(BudgetExceeded):
        manager.get(POINTS_TO)
    manager.budget = None
    with pytest.raises(BudgetExceeded):
        manager.get(POINTS_TO)  # same shape: still the cached failure

    # A cleanly rolled-back retarget restores the content at a new
    # shape: the failure described the old one and is dropped.
    txn = FixTransaction(module)
    retarget(txn, main_call(module))
    txn.rollback()

    assert isinstance(manager.get(POINTS_TO), PointsTo)
    assert constructions["PointsTo"] == 2


def test_exhausted_budget_solves_andersen_exactly_once(constructions):
    """The satellite bugfix: a budget-exhausted Full-AA downgrades
    through trace to off with exactly one fixpoint attempt — the cached
    failure replays for the trace mode instead of re-solving."""
    module = build_listing5_module()
    detection, trace, interp = pmemcheck_run(module, drive_main)

    fixer = Hippocrates(
        module,
        trace,
        interp.machine,
        analysis_budget=Budget(max_items=1, label="andersen"),
    )
    report = fixer.fix()

    assert constructions["PointsTo"] == 1
    assert fixer.effective_heuristic == "off"
    assert [d.to_mode for d in report.downgrades] == ["trace", "off"]
    # Degraded all the way down, the always-safe baseline still repairs.
    assert report.bugs_fixed == detection.bug_count


@pytest.mark.parametrize("case_id", [case.case_id for case in all_cases()])
def test_each_corpus_repair_builds_its_analyses_once(case_id, constructions):
    """Every corpus repair solves Andersen exactly once and builds at
    most one call graph (only a hoisted fix needs one)."""
    case = next(c for c in all_cases() if c.case_id == case_id)
    outcome = run_case(case)
    assert outcome.reports_after_fix == 0
    assert constructions["PointsTo"] == 1
    assert constructions["CallGraph"] <= 1
    assert constructions["CallGraph"] == (
        outcome.fix_report.interprocedural_count > 0
    )


def test_corpus_pass_counts_analysis_lookups_only(constructions):
    """``analysis.misses`` counts analysis builds and nothing else: an
    uncached pass over the 13 corpus repairs builds 13 points-to
    solutions and 9 call graphs, and misses exactly that often (function
    verifications are the verifier's, not the manager's)."""
    obs = Observability()
    for case in all_cases():
        assert run_case(case, obs=obs).reports_after_fix == 0
    counters = obs.metrics_snapshot()["counters"]
    assert constructions == {"PointsTo": 13, "CallGraph": 9}
    assert counters["analysis.misses"] == 22


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


def portable_key(module, site):
    """``site``'s key with an embedded instruction id replaced by the
    instruction's position, so keys compare across re-parsed modules."""
    prefix, _, iid = site.key.partition(":")
    if prefix not in ("alloca", "call"):
        return site.key, site.space
    for fn in module.functions.values():
        for bi, block in enumerate(fn.blocks):
            for ii, instr in enumerate(block.instructions):
                if str(instr.iid) == iid:
                    return f"{prefix}:{fn.name}:{bi}:{ii}", site.space
    raise AssertionError(f"{site.key} names no instruction")


def portable_sites(module, sites):
    return frozenset(portable_key(module, site) for site in sites)


def portable_heap(points_to):
    module = points_to.module
    return {
        portable_key(module, points_to._site_list[bit]): portable_sites(
            module, decode(points_to, mask)
        )
        for bit, mask in points_to._heap.items()
    }


def test_disk_round_trip_preserves_solution(tmp_path):
    module = build_disk_module()
    cache = AnalysisDiskCache(str(tmp_path))
    assert cache.load(module) is None  # empty cache -> miss
    solved = PointsTo(module)
    assert cache.store(module, solved)

    reparsed = parse_module(format_module(module))
    points_to = cache.load(reparsed)
    assert points_to is not None

    for fn_name in module.function_names():
        original_fn = module.get_function(fn_name)
        restored_fn = reparsed.get_function(fn_name)
        originals = [*original_fn.args, *original_fn.instructions()]
        restoreds = [*restored_fn.args, *restored_fn.instructions()]
        assert len(originals) == len(restoreds)
        for a, b in zip(originals, restoreds):
            assert portable_sites(module, sites_of(solved, a)) == portable_sites(
                reparsed, sites_of(points_to, b)
            )
    assert portable_heap(solved) == portable_heap(points_to)
    assert portable_heap(solved)  # the module does store a pointer
    assert portable_sites(module, solved.sites.values()) == portable_sites(
        reparsed, points_to.sites.values()
    )


def test_disk_round_trip_keeps_unknown_site_identity(tmp_path):
    module = build_disk_module()
    cache = AnalysisDiskCache(str(tmp_path))
    cache.store(module, PointsTo(module))
    reparsed = parse_module(format_module(module))
    points_to = cache.load(reparsed)

    unknowns = [
        site
        for instr in reparsed.instructions()
        for site in sites_of(points_to, instr)
        if site.space == "unknown"
    ]
    assert unknowns
    # Classifiers compare against the singleton by identity.
    assert all(site is UNKNOWN_SITE for site in unknowns)


def test_corrupt_or_stale_entries_load_as_misses(tmp_path):
    module = build_disk_module()
    cache = AnalysisDiskCache(str(tmp_path))
    cache.store(module, PointsTo(module))
    entry_path = os.path.join(str(tmp_path), f"{module.fingerprint()}.json")

    with open(entry_path) as handle:
        good = json.load(handle)
    assert sorted(good) == ["fingerprint", "points_to", "schema"]

    def loads_with(payload):
        with open(entry_path, "w") as handle:
            json.dump(payload, handle)
        return cache.load(module)

    def edited(edit):
        payload = json.loads(json.dumps(good))
        edit(payload)
        return payload

    assert loads_with(good) is not None  # the unedited entry is a hit
    width = len(good["points_to"]["sites"])
    some_var = sorted(good["points_to"]["var"])[0]

    def set_var(text):
        return lambda p: p["points_to"]["var"].__setitem__(some_var, text)

    def set_heap(row):
        return lambda p: p["points_to"].__setitem__("heap", [row])

    bad = {
        "stale schema": edited(lambda p: p.__setitem__("schema", "some-other-schema")),
        "null": None,
        "list": [],
        # The previous format also stored the call graph's edges.
        "v2 entry": edited(
            lambda p: p.update(
                schema="repro-analysis-cache-v2",
                callgraph={"main": ["make"], "make": []},
            )
        ),
        "points_to is a list": edited(lambda p: p.__setitem__("points_to", [])),
        "negative mask": edited(set_var("-1")),
        "non-hex mask": edited(set_var("xyz")),
        "prefixed mask": edited(set_var("0x1")),
        "empty mask": edited(set_var("")),
        "numeric mask": edited(set_var(3)),
        "mask past the site list": edited(set_var(format(1 << width, "x"))),
        "heap mask past the site list": edited(
            set_heap([0, format(1 << width, "x")])
        ),
        "heap bit past the site list": edited(set_heap([width, "1"])),
        "negative heap bit": edited(set_heap([-1, "1"])),
        "heap row too short": edited(set_heap([0])),
        "site path names an argument": edited(
            lambda p: p["points_to"]["sites"][1].__setitem__(2, "a:make:0")
        ),
        "UNKNOWN not first": edited(
            lambda p: p["points_to"]["sites"].reverse()
        ),
        "duplicate site": edited(
            lambda p: p["points_to"]["sites"].append(p["points_to"]["sites"][1])
        ),
        # The previous format: interned site sets and a registry flag.
        "v1 entry": {
            "schema": "repro-analysis-cache-v1",
            "fingerprint": good["fingerprint"],
            "callgraph": {"main": ["make"], "make": []},
            "points_to": {
                "sites": [
                    ["instr", "call", "i:make:0:1", "pm", True],
                    ["key", "unknown", "unknown", False],
                ],
                "sets": [[0], [0, 1]],
                "var": {"i:make:0:1": 0, "i:make:0:3": 1},
                "heap": [],
            },
        },
    }
    for what, payload in bad.items():
        assert loads_with(payload) is None, what

    with open(entry_path, "w") as handle:
        handle.write("{ torn mid-wri")
    assert cache.load(module) is None


def test_queries_leave_solution_and_entry_unchanged(tmp_path):
    mb = ModuleBuilder("queries")
    counter = mb.global_("counter", 8, "pm")
    buffer = mb.global_("buffer", 8, "vol")
    b = mb.function("main", [], I64, source_file="q.c")
    p = b.call("pm_alloc", [64], PTR)
    b.store(1, counter)  # globals in no pointer constraint
    b.store(2, buffer)
    b.store(3, p)
    b.ret(0)
    module = mb.module
    points_to = PointsTo(module)
    cache = AnalysisDiskCache(str(tmp_path))
    assert cache.store(module, points_to)
    entry_path = os.path.join(str(tmp_path), f"{module.fingerprint()}.json")
    with open(entry_path, "rb") as handle:
        before = handle.read()
    sites_before = dict(points_to.sites)

    classification = classify_full_aa(module, points_to)
    assert classification.score(counter) == 1
    assert classification.score(buffer) == -1
    for value in [counter, buffer, *module.get_function("main").instructions()]:
        points_to.mask_of(value)
        classification.score(value)
        classification.may_be_pm(value)
    assert classification.may_be_pm(counter)
    assert not classification.may_be_pm(buffer)

    assert points_to.sites == sites_before
    assert cache.store(module, points_to)
    with open(entry_path, "rb") as handle:
        assert handle.read() == before


def test_fresh_solves_count_fixpoint_work_and_disk_hits_do_not(tmp_path):
    module = build_disk_module()
    cold = counted(module, disk_cache=AnalysisDiskCache(str(tmp_path)))
    solved = cold.get(POINTS_TO)
    assert solved.passes > 0 and solved.evaluations > 0
    assert stats(cold)["andersen_passes"] == solved.passes
    assert stats(cold)["andersen_evaluations"] == solved.evaluations

    warm = counted(
        parse_module(format_module(module)),
        disk_cache=AnalysisDiskCache(str(tmp_path)),
    )
    restored = warm.get(POINTS_TO)
    assert stats(warm)["disk_hits"] == 1
    assert restored.passes == restored.evaluations == 0
    assert "andersen_passes" not in stats(warm)
    assert "andersen_evaluations" not in stats(warm)


def test_manager_seeds_callgraph_from_disk_hit(tmp_path):
    module = build_disk_module()
    warmer = counted(module, disk_cache=AnalysisDiskCache(str(tmp_path)))
    warmer.get(POINTS_TO)
    assert stats(warmer)["disk_misses"] == 1

    reparsed = parse_module(format_module(module))
    manager = counted(
        reparsed, disk_cache=AnalysisDiskCache(str(tmp_path))
    )
    manager.get(POINTS_TO)
    assert stats(manager)["disk_hits"] == 1
    # An entry holds the points-to solution alone: the call graph is
    # built here, on its first lookup, and cached like any analysis.
    misses_before = stats(manager)["misses"]
    callgraph = manager.get(CALLGRAPH)
    assert stats(manager)["misses"] == misses_before + 1
    assert callgraph._callees["main"] == {"make"}
    assert manager.get(CALLGRAPH) is callgraph


# ---------------------------------------------------------------------------
# scoped verification
# ---------------------------------------------------------------------------


def test_verify_scope_caches_per_function(verifications):
    """Verifying a fix's touched functions (``verify_changed`` with
    names) checks each once per change; the analysis counters never
    see it."""
    module = build_listing5_module()
    manager = counted(module)
    verify_changed(module, ["update", "modify"])
    assert verifications == ["modify", "update"]
    verify_changed(module, ["update", "modify"])
    assert verifications == ["modify", "update"]
    assert stats(manager) == Counter()


def test_verify_scope_skips_unknown_functions(verifications):
    module = build_module()
    verify_changed(module, ["main", "not-a-function"])
    assert is_verified(module.get_function("main"))
    assert verifications == ["main"]


# ---------------------------------------------------------------------------
# the differential: cache on == cache off (the oracle), byte for byte
# ---------------------------------------------------------------------------


def test_corpus_cache_on_vs_off_is_byte_identical(tmp_path):
    cache_dir = str(tmp_path / "acache")
    assert_batch_matches_oracle(analysis_cache_dir=cache_dir)  # cold
    obs = Observability()
    warm = assert_batch_matches_oracle(analysis_cache_dir=cache_dir, obs=obs)
    counters = obs.metrics_snapshot()["counters"]
    assert counters["analysis.disk_hits"] == len(warm.outcomes)
    assert "analysis.disk_misses" not in counters
    assert "analysis.andersen_passes" not in counters


def test_resume_after_kill_with_cache_is_byte_identical(tmp_path):
    assert_killed_fast_batch_resumes_to_oracle(
        str(tmp_path / "kill.journal"),
        boundary=3,  # right after the first task-done checkpoint
        cases=["PMDK-447", "PMDK-452", "PMDK-458"],
        analysis_cache_dir=str(tmp_path / "acache"),
    )
