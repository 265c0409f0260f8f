"""Unit tests for Andersen's points-to analysis, and a property test
of the mask solver against a set-based reference solver."""

from typing import Dict, List, Set, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import AllocSite, PointsTo, UNKNOWN_SITE, classify_full_aa
from repro.budget import Budget
from repro.corpus.bugs import all_cases
from repro.errors import BudgetExceeded
from repro.ir import I64, ModuleBuilder, PTR
from repro.ir.instructions import Alloca, Call, Cast, Gep, Load, Ret, Select, Store
from repro.ir.values import NULL, Constant, GlobalVariable, Value


# ---------------------------------------------------------------------------
# decoders: the solver answers in masks; the tests compare site sets
# ---------------------------------------------------------------------------


def decode(points_to, mask):
    """The :class:`AllocSite` objects of ``mask``'s bits."""
    sites = points_to._site_list
    while mask:
        low = mask & -mask
        yield sites[low.bit_length() - 1]
        mask ^= low


def sites_of(points_to, value):
    """The abstract objects ``value`` may point to."""
    return frozenset(decode(points_to, points_to.mask_of(value)))


def decoded_heap(points_to):
    """``PointsTo``'s heap solution as site -> frozenset of sites."""
    return {
        points_to._site_list[bit]: frozenset(decode(points_to, mask))
        for bit, mask in points_to._heap.items()
    }


def test_alloc_sites_distinct():
    mb = ModuleBuilder("a")
    b = mb.function("main", [], I64)
    p = b.call("pm_alloc", [64], PTR)
    q = b.call("vol_alloc", [64], PTR)
    b.ret(0)
    pts = PointsTo(mb.module)
    sp, sq = sites_of(pts, p), sites_of(pts, q)
    assert len(sp) == 1 and len(sq) == 1
    assert next(iter(sp)).space == "pm"
    assert next(iter(sq)).space == "vol"
    assert not sp & sq


def test_gep_preserves_target():
    mb = ModuleBuilder("a")
    b = mb.function("main", [], I64)
    p = b.call("pm_alloc", [64], PTR)
    g = b.gep(p, 8)
    b.ret(0)
    pts = PointsTo(mb.module)
    assert sites_of(pts, g) == sites_of(pts, p)
    assert pts.mask_of(g) == pts.mask_of(p) != 0


def test_argument_flow_through_calls():
    mb = ModuleBuilder("a")
    b = mb.function("callee", [("q", PTR)], I64)
    b.store(1, b.function.args[0])
    b.ret(0)
    b = mb.function("main", [], I64)
    p = b.call("pm_alloc", [64], PTR)
    v = b.call("vol_alloc", [64], PTR)
    b.call("callee", [p], I64)
    b.call("callee", [v], I64)
    b.ret(0)
    pts = PointsTo(mb.module)
    callee_arg = mb.module.get_function("callee").args[0]
    spaces = {s.space for s in sites_of(pts, callee_arg)}
    assert spaces == {"pm", "vol"}


def test_return_value_flow():
    mb = ModuleBuilder("a")
    b = mb.function("make", [], PTR)
    b.ret(b.call("pm_alloc", [64], PTR))
    b = mb.function("main", [], I64)
    p = b.call("make", [], PTR)
    b.ret(0)
    pts = PointsTo(mb.module)
    assert {s.space for s in sites_of(pts, p)} == {"pm"}


def test_pointers_through_memory():
    """Store a pointer into a slot, load it back: heap constraints."""
    mb = ModuleBuilder("a")
    b = mb.function("main", [], I64)
    slot = b.alloca(8)
    p = b.call("pm_alloc", [64], PTR)
    b.store(p, slot, PTR)
    loaded = b.load(slot, PTR)
    b.ret(0)
    pts = PointsTo(mb.module)
    assert sites_of(pts, loaded) == sites_of(pts, p)


def test_pointer_chains_through_pm():
    """Entries linked through PM (the hash-chain pattern)."""
    mb = ModuleBuilder("a")
    b = mb.function("main", [], I64)
    bucket = b.call("pm_alloc", [8], PTR)
    entry = b.call("pm_alloc", [64], PTR)
    b.store(entry, bucket, PTR)
    walked = b.load(bucket, PTR)
    b.store(7, walked)
    b.ret(0)
    pts = PointsTo(mb.module)
    assert sites_of(pts, entry) <= sites_of(pts, walked)
    assert {s.space for s in sites_of(pts, walked)} == {"pm"}


def test_select_union():
    mb = ModuleBuilder("a")
    b = mb.function("main", [("c", I64)], I64)
    p = b.call("pm_alloc", [64], PTR)
    v = b.call("vol_alloc", [64], PTR)
    cond = b.icmp("ne", b.function.args[0], 0)
    chosen = b.select(cond, p, v)
    b.ret(0)
    pts = PointsTo(mb.module)
    assert sites_of(pts, chosen) == sites_of(pts, p) | sites_of(pts, v)


def test_inttoptr_is_unknown():
    mb = ModuleBuilder("a")
    b = mb.function("main", [], I64)
    p = b.call("pm_alloc", [64], PTR)
    as_int = b.cast("ptrtoint", p, I64)
    back = b.cast("inttoptr", as_int, PTR)
    b.ret(0)
    pts = PointsTo(mb.module)
    assert sites_of(pts, back) == {UNKNOWN_SITE}
    assert UNKNOWN_SITE not in sites_of(pts, p)


def test_globals_are_singleton_sites():
    mb = ModuleBuilder("a")
    table = mb.global_("table", 64, "pm")
    b = mb.function("main", [], I64)
    g = b.gep(table, 8)
    b.ret(0)
    pts = PointsTo(mb.module)
    sites = sites_of(pts, g)
    assert len(sites) == 1 and next(iter(sites)).key == "global:table"


def test_pm_root_shared_site():
    mb = ModuleBuilder("a")
    b = mb.function("f", [], PTR)
    b.ret(b.call("pm_root", [64], PTR))
    b = mb.function("g", [], PTR)
    b.ret(b.call("pm_root", [64], PTR))
    pts = PointsTo(mb.module)
    f_root = mb.module.get_function("f").calls()[0]
    g_root = mb.module.get_function("g").calls()[0]
    assert sites_of(pts, f_root) == sites_of(pts, g_root)


def test_may_point_to_space_conservative_on_empty():
    mb = ModuleBuilder("a")
    b = mb.function("f", [("p", PTR)], I64)
    b.ret(0)
    pts = PointsTo(mb.module)
    arg = mb.module.get_function("f").args[0]
    # No callers: empty points-to set, conservatively maybe-anything.
    assert pts.mask_of(arg) == 0
    assert classify_full_aa(mb.module, pts).may_be_pm(arg)


# ---------------------------------------------------------------------------
# the mask solver against a set-based reference
# ---------------------------------------------------------------------------


class ReferencePointsTo:
    """The set-based solver, kept here only as a test oracle.

    One ``Set[AllocSite]`` per value and per heap object, the same
    constraints with every ``gep`` and pointer cast a plain copy, and
    the same round-robin passes (copies, then loads, then stores)
    charged to the budget once per pass; :attr:`per_pass` is the
    module's constraint count.
    """

    def __init__(self, module, budget=None):
        self.module = module
        self.budget = budget
        self.sites: Dict[str, AllocSite] = {}
        self.var_pts: Dict[Value, Set[AllocSite]] = {}
        self.heap_pts: Dict[AllocSite, Set[AllocSite]] = {}
        self._solve()

    def sites_of(self, value):
        if isinstance(value, GlobalVariable):
            return frozenset({self._global_site(value)})
        return frozenset(self.var_pts.get(value, set()))

    def _site(self, key, space):
        if key not in self.sites:
            self.sites[key] = AllocSite(key, space)
        return self.sites[key]

    def _global_site(self, gv):
        return self._site(f"global:{gv.name}", gv.space)

    def _pts(self, value):
        if value not in self.var_pts:
            self.var_pts[value] = set()
        return self.var_pts[value]

    def _heap(self, site):
        if site not in self.heap_pts:
            self.heap_pts[site] = set()
        return self.heap_pts[site]

    def _solve(self):
        copies: List[Tuple[Value, Value]] = []
        loads: List[Tuple[Value, Value]] = []
        stores: List[Tuple[Value, Value]] = []
        returns: Dict[str, List[Value]] = {}

        def base_set(value):
            if isinstance(value, GlobalVariable):
                return {self._global_site(value)}
            if isinstance(value, Constant):
                return set()
            return self._pts(value)

        for fn in self.module.functions.values():
            for instr in fn.instructions():
                if isinstance(instr, Alloca):
                    self._pts(instr).add(self._site(f"alloca:{instr.iid}", "stack"))
                elif isinstance(instr, Gep):
                    copies.append((instr.base, instr))
                elif isinstance(instr, Select) and instr.type.is_pointer:
                    copies.append((instr.operands[1], instr))
                    copies.append((instr.operands[2], instr))
                elif isinstance(instr, Cast) and instr.type.is_pointer:
                    if instr.kind == "inttoptr":
                        self._pts(instr).add(UNKNOWN_SITE)
                    else:
                        copies.append((instr.operands[0], instr))
                elif isinstance(instr, Load) and instr.type.is_pointer:
                    loads.append((instr.pointer, instr))
                elif isinstance(instr, Store) and instr.value.type.is_pointer:
                    stores.append((instr.value, instr.pointer))
                elif isinstance(instr, Ret) and instr.value is not None:
                    if instr.value.type.is_pointer:
                        returns.setdefault(fn.name, []).append(instr.value)
                elif isinstance(instr, Call):
                    self._call_constraints(instr, copies)

        for fn in self.module.functions.values():
            for call in fn.calls():
                if not call.type.is_pointer:
                    continue
                if self.module.has_function(call.callee):
                    for ret_value in returns.get(call.callee, []):
                        copies.append((ret_value, call))

        self.per_pass = per_pass = len(copies) + len(loads) + len(stores)
        changed = True
        while changed:
            if self.budget is not None:
                self.budget.charge(per_pass)
            changed = False
            for src, dst in copies:
                before = len(self._pts(dst))
                self._pts(dst).update(base_set(src))
                changed |= len(self._pts(dst)) != before
            for ptr, dst in loads:
                target = self._pts(dst)
                before = len(target)
                for site in list(base_set(ptr)):
                    target.update(self._heap(site))
                changed |= len(target) != before
            for src, ptr in stores:
                src_sites = base_set(src)
                for site in list(base_set(ptr)):
                    heap = self._heap(site)
                    before = len(heap)
                    heap.update(src_sites)
                    changed |= len(heap) != before

    def _call_constraints(self, call, copies):
        callee_name = call.callee
        if self.module.has_function(callee_name):
            callee = self.module.get_function(callee_name)
            for formal, actual in zip(callee.args, call.args):
                if formal.type.is_pointer:
                    copies.append((actual, formal))
            return
        if callee_name in ("pm_alloc", "vol_alloc"):
            space = "pm" if callee_name == "pm_alloc" else "vol"
            self._pts(call).add(self._site(f"call:{call.iid}", space))
            return
        if callee_name == "pm_root":
            self._pts(call).add(self._site("pm_root", "pm"))
            return
        if call.type.is_pointer:
            self._pts(call).add(UNKNOWN_SITE)


def assert_matches_reference(module):
    budget, reference_budget = Budget(), Budget()
    solved = PointsTo(module, budget=budget)
    reference = ReferencePointsTo(module, budget=reference_budget)
    for fn in module.functions.values():
        for value in [*fn.args, *fn.instructions()]:
            assert sites_of(solved, value) == reference.sites_of(value), value
    for gv in module.globals.values():
        assert sites_of(solved, gv) == reference.sites_of(gv)
    assert decoded_heap(solved) == {
        site: frozenset(sites)
        for site, sites in reference.heap_pts.items()
        if sites
    }
    # Every pass charges the module's full constraint count, collapsed
    # copies included, and collapsing can only save passes.
    per_pass, spent = reference.per_pass, budget.spent_items
    assert spent == solved.passes * per_pass
    assert spent <= reference_budget.spent_items
    # The charge is exact: a budget of exactly ``spent`` completes, one
    # item less refuses the last pass's charge.
    PointsTo(module, budget=Budget(max_items=spent))
    with pytest.raises(BudgetExceeded):
        PointsTo(module, budget=Budget(max_items=spent - 1))
    return solved


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_corpus_matches_reference_solver(case):
    assert_matches_reference(case.build())


def build_pointer_web(functions=4, sites=6, chain=30):
    """The benchmark's pointer-web shape, scaled down: each helper
    merges fresh PM sites, stores the merge through a slot and back
    through itself after a gep chain, and passes it to the next."""
    mb = ModuleBuilder("web")
    for i in range(functions):
        b = mb.function(f"web{i}", [("p", PTR)], PTR, source_file="web.c")
        cond = b.icmp("eq", i + 7, i)
        merged = b.function.args[0]
        for _ in range(sites):
            merged = b.select(cond, b.call("pm_alloc", [8], PTR), merged)
        slot = b.alloca(8)
        b.store(merged, slot, PTR)
        cursor = b.load(slot, PTR)
        for _ in range(chain):
            cursor = b.gep(cursor, 8)
        b.store(cursor, merged, PTR)
        if i + 1 < functions:
            linked = b.call(f"web{i + 1}", [cursor], PTR)
            cursor = b.select(cond, cursor, linked)
        b.ret(cursor)
    b = mb.function("work", [], source_file="work.c")
    b.call("web0", [b.call("pm_root", [64], PTR)], PTR)
    b.ret()
    return mb.module


def test_pointer_web_matches_reference_solver():
    solved = assert_matches_reference(build_pointer_web())
    # the web really does merge: the last helper sees earlier helpers' sites
    last = solved.module.get_function("web3").args[0]
    assert len(sites_of(solved, last)) > 6


def build_late_bases():
    """Geps and casts whose base is defined in a block printed later:
    ``entry`` branches to ``late`` (printed last), which jumps back to
    ``use`` (printed second), whose chains start at ``late``'s gep.

    Every def dominates its uses, but the verifier also wants each def
    printed before its uses (the parser resolves names in text order),
    so only a builder makes this module; the solver must not care."""
    mb = ModuleBuilder("late")
    b = mb.function("main", [("n", I64)], I64, source_file="late.c")
    slot = b.alloca(8)
    use, done, late = b.new_block("use"), b.new_block("done"), b.new_block("late")
    b.br(b.icmp("eq", b.function.args[0], 0), late, done)
    b.position_at_end(late)
    p = b.call("pm_alloc", [64], PTR)
    field = b.gep(p, 8)
    b.jmp(use)
    b.position_at_end(use)
    chained = b.gep(b.cast("zext", b.gep(field, 8), PTR), 8)
    b.store(chained, slot, PTR)  # a store through a late-collapsed chain
    b.store(b.call("vol_alloc", [8], PTR), field, PTR)  # endpoint used early
    b.store(5, b.load(b.cast("trunc", field, PTR), PTR))
    b.jmp(done)
    b.position_at_end(done)
    b.ret(0)
    return mb.module


def test_late_bases_match_reference_solver():
    module = build_late_bases()
    solved = assert_matches_reference(module)
    main = module.get_function("main")
    field = next(i for i in main.instructions() if isinstance(i, Gep))
    assert {s.space for s in sites_of(solved, field)} == {"pm"}
    last = [i for i in main.instructions() if isinstance(i, Load)][-1]
    assert {s.space for s in sites_of(solved, last)} == {"vol"}


def test_geps_of_global_and_null_match_reference_solver():
    mb = ModuleBuilder("roots")
    table = mb.global_("table", 64, "pm")
    b = mb.function("main", [], I64, source_file="r.c")
    of_global = b.gep(b.gep(table, 8), 8)
    of_null = b.gep(b.cast("zext", NULL, PTR), 8)
    b.store(of_null, of_global, PTR)
    b.ret(0)
    solved = assert_matches_reference(mb.module)
    assert sites_of(solved, of_global) == {solved.sites["global:table"]}
    # an empty class root leaves its members without an entry
    assert of_null not in solved._var


def test_cast_gep_chains_match_reference_solver():
    mb = ModuleBuilder("chains")
    b = mb.function("main", [], I64, source_file="c.c")
    p = b.call("pm_alloc", [64], PTR)
    slot = b.alloca(8)
    cursor = p
    for _ in range(5):
        cursor = b.cast("zext", b.gep(b.cast("trunc", cursor, PTR), 8), PTR)
    b.store(cursor, slot, PTR)
    b.store(slot, b.gep(cursor, 8), PTR)
    b.store(7, b.load(b.load(slot, PTR), PTR))
    b.ret(0)
    solved = assert_matches_reference(mb.module)
    assert sites_of(solved, cursor) == sites_of(solved, p)


def test_gep_only_module_still_trips_an_empty_budget():
    mb = ModuleBuilder("geps")
    table = mb.global_("table", 64, "pm")
    b = mb.function("main", [], I64, source_file="g.c")
    b.store(1, b.gep(b.gep(table, 8), 8))
    b.ret(0)
    # both constraints collapse, yet each pass charges them
    assert ReferencePointsTo(mb.module).per_pass == 2
    assert_matches_reference(mb.module)
    with pytest.raises(BudgetExceeded):
        PointsTo(mb.module, budget=Budget(max_items=0))


def test_copy_cycle_terminates_and_matches_reference_solver():
    """Unverifiable input: geps that reach themselves stay plain copies."""
    mb = ModuleBuilder("cycle")
    b = mb.function("main", [], I64, source_file="y.c")
    p = b.call("pm_alloc", [64], PTR)
    first = b.gep(p, 8)
    second = b.gep(first, 8)
    hanging = b.gep(second, 8)
    selfish = b.gep(p, 8)
    b.store(p, hanging, PTR)
    b.store(p, selfish, PTR)
    b.ret(0)
    first.replace_operand(p, second)  # first <-> second
    selfish.replace_operand(p, selfish)  # selfish <- selfish
    solved = assert_matches_reference(mb.module)
    assert not solved.mask_of(hanging) and not solved.mask_of(selfish)


HELPERS = 3
pick = st.integers(min_value=0, max_value=63)
pointer_op = st.one_of(
    st.tuples(st.just("alloca")),
    st.tuples(st.just("alloc"), st.sampled_from(["pm_alloc", "vol_alloc", "pm_root"])),
    st.tuples(st.just("gep"), pick),
    st.tuples(st.just("gep_gep"), pick),
    st.tuples(st.just("select"), pick, pick),
    st.tuples(st.just("select_null"), pick),
    st.tuples(st.just("load"), pick),
    st.tuples(st.just("store"), pick, pick),
    st.tuples(st.just("store_null"), pick),
    st.tuples(st.just("call"), st.integers(0, HELPERS - 1), pick),
    st.tuples(st.just("mystery")),
    st.tuples(st.just("inttoptr"), pick),
    st.tuples(st.just("zext"), pick),
)
#: one (body, returned pointer) per helper, then main's
pointer_program = st.lists(
    st.tuples(st.lists(pointer_op, max_size=12), pick),
    min_size=HELPERS + 1,
    max_size=HELPERS + 1,
)


def build_pointer_program(bodies):
    """Helpers ``h0..h2`` (pointer in, pointer out) and ``main``, each a
    random straight-line body over a pool of pointers that starts with
    its parameter and a PM and a volatile global."""
    mb = ModuleBuilder("ptrs")
    pm_global = mb.global_("pmg", 64, "pm")
    vol_global = mb.global_("volg", 64, "vol")
    for index, (ops, ret_pick) in enumerate(bodies):
        if index < HELPERS:
            b = mb.function(f"h{index}", [("p", PTR)], PTR, source_file="p.c")
            pool = [b.function.args[0], pm_global, vol_global]
        else:
            b = mb.function("main", [], I64, source_file="p.c")
            pool = [pm_global, vol_global]
        cond = b.icmp("eq", 1, 2)

        def at(i):
            return pool[i % len(pool)]

        for op, *args in ops:
            if op == "alloca":
                pool.append(b.alloca(8))
            elif op == "alloc":
                pool.append(b.call(args[0], [64], PTR))
            elif op == "gep":
                pool.append(b.gep(at(args[0]), 8))
            elif op == "gep_gep":
                pool.append(b.gep(b.gep(at(args[0]), 8), 16))
            elif op == "select":
                pool.append(b.select(cond, at(args[0]), at(args[1])))
            elif op == "select_null":
                pool.append(b.select(cond, NULL, at(args[0])))
            elif op == "load":
                pool.append(b.load(at(args[0]), PTR))
            elif op == "store":
                b.store(at(args[0]), at(args[1]), PTR)
            elif op == "store_null":
                b.store(NULL, at(args[0]), PTR)
            elif op == "call":
                pool.append(b.call(f"h{args[0]}", [at(args[1])], PTR))
            elif op == "mystery":
                pool.append(b.call("mystery_ptr", [], PTR))
            elif op == "inttoptr":
                as_int = b.cast("ptrtoint", at(args[0]), I64)
                pool.append(b.cast("inttoptr", as_int, PTR))
            elif op == "zext":  # a pointer-to-pointer cast: a copy
                pool.append(b.cast("zext", at(args[0]), PTR))
        if index < HELPERS:
            b.ret(at(ret_pick))
        else:
            b.ret(0)
    return mb.module


@settings(max_examples=60, deadline=None)
@given(bodies=pointer_program)
def test_random_pointer_programs_match_reference_solver(bodies):
    assert_matches_reference(build_pointer_program(bodies))
