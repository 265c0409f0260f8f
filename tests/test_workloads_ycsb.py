"""Unit tests for YCSB workload generation and execution."""

import os
import subprocess
import sys
from collections import Counter

from repro.apps import KVStore, build_kvstore
from repro.workloads import (
    CORE_WORKLOADS,
    FIG4_ORDER,
    INSERT,
    READ,
    RMW,
    SCAN,
    UPDATE,
    execute,
    generate_load,
    generate_run,
    make_key,
    make_value,
)


class TestGeneration:
    def test_load_inserts_every_record(self):
        ops = generate_load(50, value_size=32)
        assert len(ops) == 50
        assert all(op.kind == INSERT for op in ops)
        assert len({op.key for op in ops}) == 50
        assert all(len(op.value) == 32 for op in ops)

    def test_workload_a_mix(self):
        ops = generate_run(CORE_WORKLOADS["A"], 100, 2000, seed=1)
        counts = Counter(op.kind for op in ops)
        assert 0.4 < counts[READ] / 2000 < 0.6
        assert 0.4 < counts[UPDATE] / 2000 < 0.6

    def test_workload_c_read_only(self):
        ops = generate_run(CORE_WORKLOADS["C"], 100, 500, seed=2)
        assert all(op.kind == READ for op in ops)

    def test_workload_d_inserts_fresh_keys(self):
        ops = generate_run(CORE_WORKLOADS["D"], 100, 1000, seed=3)
        inserts = [op for op in ops if op.kind == INSERT]
        assert inserts, "D should contain inserts"
        assert all(int(op.key[4:]) >= 100 for op in inserts)

    def test_workload_e_scans(self):
        ops = generate_run(CORE_WORKLOADS["E"], 100, 500, seed=4, max_scan_length=8)
        scans = [op for op in ops if op.kind == SCAN]
        assert len(scans) > 400
        assert all(1 <= op.scan_length <= 8 for op in scans)

    def test_workload_f_rmw(self):
        ops = generate_run(CORE_WORKLOADS["F"], 100, 1000, seed=5)
        counts = Counter(op.kind for op in ops)
        assert counts[RMW] > 300

    def test_determinism(self):
        a = generate_run(CORE_WORKLOADS["A"], 100, 200, seed=9)
        b = generate_run(CORE_WORKLOADS["A"], 100, 200, seed=9)
        assert a == b

    def test_reads_target_loaded_keyspace(self):
        ops = generate_run(CORE_WORKLOADS["B"], 100, 500, seed=6)
        for op in ops:
            if op.kind == READ:
                assert 0 <= int(op.key[4:]) < 100 + 500

    def test_key_value_format(self):
        assert make_key(3) == b"user000000000003"
        assert len(make_value(3, 96)) == 96

    def test_fig4_order(self):
        assert FIG4_ORDER[0] == "Load"
        assert set(FIG4_ORDER[1:]) == set(CORE_WORKLOADS)


class TestExecution:
    def test_execute_load_and_run(self):
        store = KVStore(build_kvstore("manual"))
        store.init(64, 1 << 21)
        load = execute(store, generate_load(40, value_size=48))
        assert load.operations == 40
        assert load.cycles > 0
        assert load.throughput > 0
        run = execute(store, generate_run(CORE_WORKLOADS["B"], 40, 80, 48, seed=1))
        assert run.operations == 80
        # zipfian reads over loaded keys mostly hit
        assert run.read_hits > run.read_misses

    def test_rmw_round_trips(self):
        store = KVStore(build_kvstore("manual"))
        store.init(32, 1 << 20)
        execute(store, generate_load(10, value_size=24))
        ops = generate_run(CORE_WORKLOADS["F"], 10, 40, 24, seed=2)
        execute(store, ops)
        assert store.count() >= 10


#: workload E's cycles at a small size, printed by a fresh interpreter
_E_CYCLES = """
from repro.apps import KVStore, build_kvstore
from repro.workloads import CORE_WORKLOADS, execute, generate_load, generate_run
store = KVStore(build_kvstore("manual"))
store.init(32, 1 << 21)
execute(store, generate_load(20, value_size=32))
print(execute(store, generate_run(CORE_WORKLOADS["E"], 20, 30, 32, seed=4)).cycles)
"""


def test_workload_e_cycles_do_not_depend_on_the_hash_seed():
    """Scans start at a stable hash of the key, so Fig. 4's E row is the
    same in every process (Python salts ``hash(bytes)`` per process)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    printed = set()
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _E_CYCLES],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
        )
        printed.add(done.stdout)
    assert len(printed) == 1
