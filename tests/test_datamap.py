"""Tests for SPCD-driven data mapping (NUMA page migration)."""

import numpy as np
import pytest

from repro.core.datamap import SpcdDataMapper
from repro.errors import ConfigurationError
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.units import PAGE_SIZE


def _fault(pipeline, tid, pu, vaddr, *, is_write=False, now_ns=0):
    """Resolve one fault as a one-element batch."""
    return pipeline.handle_fault_batch(
        tid, pu, np.array([vaddr], dtype=np.int64), np.array([is_write]), now_ns=now_ns
    )


@pytest.fixture
def env():
    space = AddressSpace(256)
    space.mmap("data", 16 * PAGE_SIZE)
    frames = FrameAllocator(2, 1000)
    pipeline = FaultPipeline(space, frames, node_of_pu=lambda pu: pu % 2)
    mapper = SpcdDataMapper(pipeline, 2, node_of_pu=lambda pu: pu % 2, min_faults=2)
    return space, pipeline, frames, mapper


def fault(space, pipeline, tid, pu, page, now=0):
    addr = space.region("data").base + page * PAGE_SIZE
    vpn = addr // PAGE_SIZE
    if space.page_table.is_present(vpn):
        space.page_table.clear_present(vpn)
    _fault(pipeline, tid, pu, addr, is_write=False, now_ns=now)
    return vpn


class TestAffinityTracking:
    def test_counts_faults_per_node(self, env):
        space, pipeline, frames, mapper = env
        vpn = fault(space, pipeline, 0, 0, 0)  # node 0
        fault(space, pipeline, 1, 1, 0)        # node 1
        fault(space, pipeline, 1, 1, 0)
        affinity = mapper.node_affinity(vpn)
        assert affinity.tolist() == [1.0, 2.0]

    def test_unknown_page_has_no_affinity(self, env):
        _, _, _, mapper = env
        assert mapper.node_affinity(999) is None

    def test_decay_on_scan(self, env):
        space, pipeline, frames, mapper = env
        vpn = fault(space, pipeline, 0, 0, 0)
        mapper.scan(0)
        assert mapper.node_affinity(vpn)[0] == pytest.approx(0.5)


class TestMigration:
    def test_remote_dominated_page_migrates(self, env):
        space, pipeline, frames, mapper = env
        vpn = fault(space, pipeline, 0, 0, 0)  # first touch on node 0
        assert space.page_table.home_node_of(vpn) == 0
        for _ in range(5):
            fault(space, pipeline, 1, 1, 0)  # node 1 dominates
        moved = mapper.scan(0)
        assert moved == 1
        assert space.page_table.home_node_of(vpn) == 1
        assert mapper.stats.pages_migrated == 1

    def test_truly_shared_page_left_alone(self, env):
        space, pipeline, frames, mapper = env
        vpn = fault(space, pipeline, 0, 0, 0)
        for _ in range(3):
            fault(space, pipeline, 0, 0, 0)
        for _ in range(5):
            fault(space, pipeline, 1, 1, 0)
        # node 1 leads 5:4 — not dominant enough (< 70%) to migrate
        assert mapper.scan(0) == 0
        assert space.page_table.home_node_of(vpn) == 0
        assert mapper.stats.migrations_vetoed_shared >= 1

    def test_local_dominated_page_not_touched(self, env):
        space, pipeline, frames, mapper = env
        vpn = fault(space, pipeline, 0, 0, 0)
        for _ in range(5):
            fault(space, pipeline, 0, 0, 0)
        assert mapper.scan(0) == 0
        assert space.page_table.home_node_of(vpn) == 0

    def test_few_faults_not_enough_evidence(self, env):
        space, pipeline, frames, mapper = env
        fault(space, pipeline, 1, 1, 0)
        assert mapper.scan(0) == 0

    def test_migration_preserves_present_bit_state(self, env):
        space, pipeline, frames, mapper = env
        vpn = fault(space, pipeline, 0, 0, 0)
        for _ in range(5):
            fault(space, pipeline, 1, 1, 0)
        # page ends present after last fault
        mapper.scan(0)
        assert space.page_table.is_present(vpn)
        assert space.page_table.consistency_ok()

    def test_old_frame_freed(self, env):
        space, pipeline, frames, mapper = env
        fault(space, pipeline, 0, 0, 0)
        allocated_before = sum(frames.allocated)
        for _ in range(5):
            fault(space, pipeline, 1, 1, 0)
        mapper.scan(0)
        assert sum(frames.allocated) == allocated_before

    def test_copy_time_charged(self, env):
        space, pipeline, frames, mapper = env
        fault(space, pipeline, 0, 0, 0)
        for _ in range(5):
            fault(space, pipeline, 1, 1, 0)
        mapper.scan(0)
        assert mapper.stats.copy_time_ns == mapper.copy_cost_ns

    def test_pages_only_rescanned_when_touched(self, env):
        space, pipeline, frames, mapper = env
        fault(space, pipeline, 0, 0, 0)
        for _ in range(5):
            fault(space, pipeline, 1, 1, 0)
        mapper.scan(0)
        # second scan without new faults does nothing
        assert mapper.scan(1) == 0


class TestConfig:
    def test_rejects_bad_dominance(self, env):
        space, pipeline, _, _ = env
        with pytest.raises(ConfigurationError):
            SpcdDataMapper(pipeline, 2, node_of_pu=lambda pu: 0, dominance=0.4)

    def test_detach(self, env):
        space, pipeline, frames, mapper = env
        mapper.detach()
        vpn = fault(space, pipeline, 0, 0, 0)
        assert mapper.node_affinity(vpn) is None


class TestManagerIntegration:
    def test_manager_registers_data_mapper(self, small_machine, rng):
        from repro.core.manager import SpcdConfig, SpcdManager
        from repro.kernelsim.kthread import TimerWheel
        from repro.kernelsim.scheduler import PinnedScheduler

        space = AddressSpace(256)
        space.mmap("d", 4 * PAGE_SIZE)
        pipeline = FaultPipeline(
            space, FrameAllocator(2, 100), node_of_pu=small_machine.numa_node_of
        )
        sched = PinnedScheduler(small_machine, 4, [0, 1, 2, 3])
        sched.start()
        wheel = TimerWheel()
        mgr = SpcdManager(
            small_machine, 4, pipeline, sched, rng,
            timer_wheel=wheel, config=SpcdConfig(data_mapping=True),
        )
        assert mgr.data_mapper is not None
        assert "spcd-datamap" in [kt.name for kt in wheel.threads()]

    def test_simulator_runs_with_data_mapping(self):
        from repro import EngineConfig, Simulator, SpcdConfig, make_npb

        from repro.units import MSEC

        cfg = EngineConfig(batch_size=128, steps=40, pretouch="parallel")
        sim = Simulator(
            make_npb("BT"), "spcd", seed=3, config=cfg,
            spcd_config=SpcdConfig(data_mapping=True, data_scan_period_ns=20 * MSEC),
        )
        sim.run()
        assert sim.manager.data_mapper.stats.scans >= 1
        assert sim.address_space.page_table.consistency_ok()


class TestDataPlusThreadMapping:
    """Data mapping and thread mapping composing in one SPCD run."""

    def _run(self, seed=5):
        from repro import EngineConfig, Simulator, SpcdConfig, make_npb
        from repro.units import MSEC

        cfg = EngineConfig(batch_size=128, steps=60, pretouch="parallel")
        sim = Simulator(
            make_npb("SP"), "spcd", seed=seed, config=cfg,
            spcd_config=SpcdConfig(
                data_mapping=True,
                data_scan_period_ns=20 * MSEC,
                filter_min_events=16.0,
            ),
        )
        result = sim.run()
        return sim, result

    def test_both_mechanisms_act_in_one_run(self):
        sim, result = self._run()
        mapper = sim.manager.data_mapper
        # the data mapper scanned and tracked per-node affinity...
        assert mapper.stats.scans >= 1
        # ...while the thread-mapping side evaluated the same fault stream
        assert sim.manager.overheads.filter_evaluations >= 1
        assert sim.manager.detector.stats.comm_events > 0
        # and the composition left the page table consistent
        assert sim.address_space.page_table.consistency_ok()

    def test_composition_is_deterministic(self):
        _, first = self._run(seed=9)
        _, second = self._run(seed=9)
        assert first.migrations == second.migrations
        assert first.os_migrations == second.os_migrations
        assert first.exec_time_s == second.exec_time_s
        assert first.detected_matrix is not None
        assert np.array_equal(
            first.detected_matrix.matrix, second.detected_matrix.matrix
        )

    def test_thread_mapping_unaffected_by_data_mapping_toggle(self):
        # data mapping moves pages between NUMA nodes; the communication
        # pattern the detector sees (thread/page sharing) is address-based,
        # so the detected matrix digest must not depend on the toggle
        from repro import EngineConfig, Simulator, SpcdConfig, make_npb
        from repro.core.manager import matrix_digest
        from repro.units import MSEC

        digests = []
        for data_mapping in (False, True):
            cfg = EngineConfig(batch_size=128, steps=40, pretouch="parallel")
            sim = Simulator(
                make_npb("CG"), "spcd", seed=4, config=cfg,
                spcd_config=SpcdConfig(
                    data_mapping=data_mapping, data_scan_period_ns=20 * MSEC
                ),
            )
            sim.run()
            digests.append(matrix_digest(sim.manager.detector.matrix))
        assert digests[0] == digests[1]
