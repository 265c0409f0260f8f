"""The executable bug corpus: 23 reproduced durability bugs.

Mirrors the paper's §6.1 evaluation set:

- **11 PMDK issues** (447, 452, 458, 459, 460, 461, 585, 940, 942, 943,
  945), each a mini-PMDK build with the issue's persistence omission
  seeded plus the failing unit test as an IR ``test_<issue>`` function;
- **2 P-CLHT bugs** (one target module, both seeds);
- **10 memcached-pm bugs** (one target module, all seeds).

Each case records the *developer fix* (from the PMDK commit history
categories in Fig. 3) and the fix Hippocrates is expected to produce,
so the accuracy comparison (Fig. 3: 8/11 functionally identical, 3/11
equivalent-but-dev-more-portable) is regenerated rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..apps import (
    Memcached,
    PCLHT,
    build_pclht,
    build_pmdk_module,
    build_pmemcached,
)
from ..core.fixes import (  # noqa: F401 - the fix-kind vocabulary, re-exported
    EQUIVALENT_PORTABLE,
    IDENTICAL,
    INTERPROC_FLUSH,
    INTERPROC_FLUSH_FENCE,
    INTRAPROC_FENCE,
    INTRAPROC_FLUSH,
    INTRAPROC_FLUSH_FENCE,
    classify_fix,
    compare_fix_kinds,
)
from ..interp.interpreter import Interpreter
from ..ir.builder import ModuleBuilder
from ..ir.module import Module
from ..ir.types import I64, PTR

@dataclass
class BugCase:
    """One reproducible durability bug (or seeded bug group)."""

    case_id: str
    system: str  # "PMDK" | "P-CLHT" | "memcached-pm"
    description: str
    build: Callable[[], Module]
    drive: Callable[[Interpreter], None]
    expected_reports: int
    developer_fix: Optional[str] = None  # None for undocumented bugs
    expected_hippocrates_fix: Optional[str] = None

    def __repr__(self) -> str:
        return f"<BugCase {self.case_id}: {self.description}>"


# ---------------------------------------------------------------------------
# PMDK unit tests (one module per issue, seeded mini-PMDK + IR test fn)
# ---------------------------------------------------------------------------


def _add_test_fixture(mb: ModuleBuilder) -> None:
    """Volatile test scaffolding shared by every PMDK unit test.

    ``prepare_input`` exercises memcpy/memset on volatile buffers
    (building the test's input data), exactly like PMDK's real test
    fixtures — and, incidentally, what makes those helpers' stores
    alias volatile memory in the whole-program analysis.
    """
    mb.global_("test_src", 256, "vol", bytes(range(256)))
    mb.global_("test_buf", 256, "vol")
    mb.global_("oid_tmp", 16, "vol")

    b = mb.function("prepare_input", [("n", I64)], source_file="test_fixture.c")
    (n,) = b.function.args
    src = mb.module.get_global("test_src")
    buf = mb.module.get_global("test_buf")
    b.call("memset", [buf, 0, n])
    b.call("memcpy", [buf, src, n])
    b.ret()


def _pmdk_case(
    issue: int,
    description: str,
    seeds: Tuple[str, ...],
    body: Callable[[ModuleBuilder], None],
    expected_reports: int,
    developer_fix: str,
    expected_hippocrates_fix: str,
) -> BugCase:
    test_name = f"test_{issue}"

    def build() -> Module:
        mb = build_pmdk_module(seeds=seeds, name=f"pmdk_{issue}")
        _add_test_fixture(mb)
        body(mb)
        return mb.module

    def drive(interp: Interpreter) -> None:
        interp.call(test_name)

    return BugCase(
        case_id=f"PMDK-{issue}",
        system="PMDK",
        description=description,
        build=build,
        drive=drive,
        expected_reports=expected_reports,
        developer_fix=developer_fix,
        expected_hippocrates_fix=expected_hippocrates_fix,
    )


def _test_header(mb: ModuleBuilder, issue: int):
    """Common test prologue: fixture data + a fresh pool."""
    b = mb.function(f"test_{issue}", [], source_file=f"test_{issue}.c")
    b.call("prepare_input", [64])
    buf = mb.module.get_global("test_buf")
    b.call("pool_create", [1 << 16, buf, 16])
    return b


def _body_447(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 447)
    b.call("checkpoint", [])
    b.ret()


def _body_452(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 452)
    b.call("pmalloc", [128], PTR)
    b.call("checkpoint", [])
    b.ret()


def _body_458(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 458)
    src = mb.module.get_global("test_src")
    b.call("obj_alloc_construct", [src, 96], PTR)
    b.call("checkpoint", [])
    b.ret()


def _body_459(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 459)
    src = mb.module.get_global("test_src")
    b.call("redo_log_append", [src, 64])
    b.call("checkpoint", [])
    b.ret()


def _body_460(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 460)
    oid_tmp = mb.module.get_global("oid_tmp")
    # A volatile OID temporary also goes through oid_write, so the
    # helper's stores alias volatile memory.
    b.call("oid_write", [oid_tmp, 1, 2])
    obj = b.call("pmalloc", [64], PTR)
    b.call("set_oid_persist", [obj, 7, 42])
    b.call("checkpoint", [])
    b.ret()


def _body_461(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 461)
    b.call("checkpoint", [])
    b.ret()


def _body_585(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 585)
    src = mb.module.get_global("test_src")
    obj = b.call("pmalloc", [128], PTR)
    b.call("memcpy", [obj, src, 64])  # API misuse: no persist
    b.call("checkpoint", [])
    b.ret()


def _body_940(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 940)
    obj = b.call("pmalloc", [64], PTR)
    b.call("set_flag", [obj, 7])  # API misuse: store never flushed
    b.call("pmem_drain", [])
    b.call("checkpoint", [])
    b.ret()


def _body_942(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 942)
    src = mb.module.get_global("test_src")
    obj = b.call("pmalloc", [128], PTR)
    b.call("memcpy", [obj, src, 64])  # API misuse: drained but unflushed
    b.call("pmem_drain", [])
    b.call("checkpoint", [])
    b.ret()


def _body_943(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 943)
    obj = b.call("pmalloc", [64], PTR)
    b.call("checksum_update", [obj, 123456])  # API misuse: unflushed
    b.call("pmem_drain", [])
    b.call("checkpoint", [])
    b.ret()


def _body_945(mb: ModuleBuilder) -> None:
    b = _test_header(mb, 945)
    src = mb.module.get_global("test_src")
    obj = b.call("pmalloc", [128], PTR)
    b.call("memcpy", [b.gep(obj, 16), src, 32])  # key field, no persist
    b.call("checkpoint", [])
    b.ret()


def pmdk_cases() -> List[BugCase]:
    """The 11 reproduced PMDK issues (Fig. 3's rows)."""
    return [
        _pmdk_case(
            447,
            "pool header layout-name memcpy never persisted",
            ("447",),
            _body_447,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            452,
            "allocator watermark store missing its flush",
            ("452",),
            _body_452,
            1,
            INTERPROC_FLUSH,
            INTRAPROC_FLUSH,
        ),
        _pmdk_case(
            458,
            "constructed object payload never persisted",
            ("458",),
            _body_458,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            459,
            "redo-log entry payload never persisted",
            ("459",),
            _body_459,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            460,
            "OID words written without a persist",
            ("460",),
            _body_460,
            2,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            461,
            "arena allocator metadata memset never persisted",
            ("461",),
            _body_461,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            585,
            "unit test memcpy to PM without pmem_persist",
            (),
            _body_585,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            940,
            "unit test flag store drained but never flushed",
            (),
            _body_940,
            1,
            INTERPROC_FLUSH,
            INTRAPROC_FLUSH,
        ),
        _pmdk_case(
            942,
            "unit test memcpy drained but never flushed",
            (),
            _body_942,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
        _pmdk_case(
            943,
            "unit test checksum store drained but never flushed",
            (),
            _body_943,
            1,
            INTERPROC_FLUSH,
            INTRAPROC_FLUSH,
        ),
        _pmdk_case(
            945,
            "unit test key-field memcpy without pmem_persist",
            (),
            _body_945,
            1,
            INTERPROC_FLUSH_FENCE,
            INTERPROC_FLUSH_FENCE,
        ),
    ]


# ---------------------------------------------------------------------------
# P-CLHT and memcached-pm (one module each; multiple seeded bugs)
# ---------------------------------------------------------------------------


def _drive_pclht(interp: Interpreter) -> None:
    index = PCLHT(interp.module, interp)
    index.create(16)
    for key in range(1, 80):
        index.put(key, key * 100)
    index.put(5, 555)
    index.delete(7)
    for key in (1, 5, 50):
        index.get(key)


def _drive_memcached(interp: Interpreter) -> None:
    server = Memcached(interp.module, interp)
    server.init(32, 128)
    for i in range(60):
        server.set(f"key{i:04d}0".encode(), b"VALUEVALUE16BYTE")
    server.set(b"key00300", b"UPDATED-UPDATED!")
    server.get(b"key00300")
    server.delete(b"key00400")
    server.set(b"keyNEW00", b"NEWVALUE")


def pclht_case() -> BugCase:
    """RECIPE's P-CLHT with its 2 previously-undocumented bugs."""
    return BugCase(
        case_id="P-CLHT",
        system="P-CLHT",
        description="2 undocumented bugs: unflushed slot publish; "
        "unfenced chain-link clwb",
        build=build_pclht,
        drive=_drive_pclht,
        expected_reports=2,
    )


def memcached_case() -> BugCase:
    """memcached-pm with its 10 previously-undocumented bugs."""
    return BugCase(
        case_id="memcached-pm",
        system="memcached-pm",
        description="10 undocumented bugs across init/set/update/delete",
        build=build_pmemcached,
        drive=_drive_memcached,
        expected_reports=10,
    )


def all_cases() -> List[BugCase]:
    """All 13 cases covering the 23 reproduced bugs (11 + 2 + 10)."""
    return pmdk_cases() + [pclht_case(), memcached_case()]


def total_expected_bugs() -> int:
    """11 PMDK issues + 2 P-CLHT + 10 memcached-pm = 23."""
    return len(pmdk_cases()) + 2 + 10
