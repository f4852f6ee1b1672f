"""Failure-injection and degraded-mode tests.

SPCD must degrade gracefully, not crash, when its resources are starved:
tiny hash tables (constant collisions), exhausted NUMA nodes, pathological
cache pressure, and extreme injection settings.
"""

import numpy as np
import pytest

from repro.core.manager import SpcdConfig
from repro.core.spcd import SpcdDetector
from repro.engine.simulator import EngineConfig, Simulator
from repro.machine.cache_params import CacheParams
from repro.machine.topology import build_machine
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.units import KIB, PAGE_SIZE
from repro.workloads.npb import make_npb


def _fault(pipeline, tid, pu, vaddr, *, is_write=False, now_ns=0):
    """Resolve one fault as a one-element batch."""
    return pipeline.handle_fault_batch(
        tid, pu, np.array([vaddr], dtype=np.int64), np.array([is_write]), now_ns=now_ns
    )


class TestHashCollisionStorm:
    def test_one_slot_table_still_detects_some_communication(self):
        """Overwrite-on-collision loses history but must never corrupt."""
        space = AddressSpace(256)
        space.mmap("d", 32 * PAGE_SIZE)
        pipeline = FaultPipeline(space, FrameAllocator(1, 500), node_of_pu=lambda p: 0)
        det = SpcdDetector(4, table_size=1, pipeline=pipeline)
        table = space.page_table
        base = space.region("d").base
        # Two threads hammer the same page: entry survives (same region).
        for i in range(10):
            vpn = base // PAGE_SIZE
            if table.is_present(vpn):
                table.clear_present(vpn)
            _fault(pipeline, i % 2, 0, base, is_write=False, now_ns=i)
        assert det.matrix.matrix[0, 1] > 0

    def test_collision_storm_degrades_but_does_not_crash(self):
        space = AddressSpace(512)
        space.mmap("d", 200 * PAGE_SIZE)
        pipeline = FaultPipeline(space, FrameAllocator(1, 500), node_of_pu=lambda p: 0)
        det = SpcdDetector(4, table_size=3, pipeline=pipeline)
        region = space.region("d")
        table = space.page_table
        for i, vpn in enumerate(region.vpns()):
            if table.is_present(int(vpn)):
                table.clear_present(int(vpn))
            _fault(pipeline, i % 4, 0, int(vpn) * PAGE_SIZE, is_write=False, now_ns=i)
        assert det.table.collisions > 100
        assert len(det.table) <= 3

    def test_tiny_table_reduces_detection_vs_large(self, rng):
        """Accuracy falls with table size — the trade-off of Sec. III-B1."""
        def events_with(table_size):
            space = AddressSpace(512)
            space.mmap("d", 64 * PAGE_SIZE)
            pipeline = FaultPipeline(space, FrameAllocator(1, 500), node_of_pu=lambda p: 0)
            det = SpcdDetector(2, table_size=table_size, pipeline=pipeline)
            table = space.page_table
            order = rng.permutation(128)
            for i in order:
                # pages 0..63, each touched once by thread 0 and once by 1
                vpn = space.region("d").first_vpn + int(i) % 64
                tid = (int(i) // 64) % 2
                if table.is_present(vpn):
                    table.clear_present(vpn)
                _fault(pipeline, tid, 0, vpn * PAGE_SIZE, is_write=False, now_ns=int(i))
            return det.stats.comm_events

        assert events_with(2) < events_with(10_000)


class TestMemoryPressure:
    def test_node_exhaustion_falls_back(self):
        """First-touch falls back to the other node instead of failing."""
        space = AddressSpace(64)
        space.mmap("d", 8 * PAGE_SIZE)
        frames = FrameAllocator(2, 4)  # node 0 holds only 4 frames
        pipeline = FaultPipeline(space, frames, node_of_pu=lambda p: 0)
        homes = set()
        for vpn in space.region("d").vpns():
            batch = _fault(pipeline, 0, 0, int(vpn) * PAGE_SIZE)
            homes.add(int(batch.home_nodes[0]))
        assert homes == {0, 1}


class TestPathologicalCaches:
    def test_simulation_survives_minuscule_caches(self):
        tiny = build_machine(
            2, 2, 2,
            l1=CacheParams("L1", 1 * KIB, 1, 64, 2.0, 1),
            l2=CacheParams("L2", 1 * KIB, 1, 64, 6.0, 2),
            l3=CacheParams("L3", 2 * KIB, 2, 64, 15.0, 3),
        )
        wl = make_npb("SP", n_threads=8)
        sim = Simulator(wl, "spcd", machine=tiny, seed=1,
                        config=EngineConfig(batch_size=64, steps=15))
        res = sim.run()
        assert res.exec_time_s > 0
        assert sim.hierarchy.check_invariants() == []
        # tiny inclusive L3 must be back-invalidating constantly
        assert res.stats.back_invalidations > 0


class TestExtremeInjection:
    def test_injector_clearing_everything_every_wake(self):
        """max-rate injection: correctness preserved, overhead explodes."""
        cfg = EngineConfig(batch_size=96, steps=25)
        scfg = SpcdConfig(injector_floor=4096, injector_max_per_wake=4096)
        sim = Simulator(make_npb("BT"), "spcd", seed=1, config=cfg, spcd_config=scfg)
        res = sim.run()
        assert res.injected_faults > 0
        assert sim.address_space.page_table.consistency_ok()

    def test_zero_steps_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            EngineConfig(steps=0)

    def test_filter_disabled_still_converges(self):
        cfg = EngineConfig(batch_size=128, steps=50)
        scfg = SpcdConfig(filter_enabled=False, filter_min_events=32)
        sim = Simulator(make_npb("SP"), "spcd", seed=1, config=cfg, spcd_config=scfg)
        res = sim.run()
        assert sim.manager.overheads.mapper_calls >= 1
        assert res.migrations >= 1
