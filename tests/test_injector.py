"""Tests for the additional-page-fault injector."""

import numpy as np
import pytest

from repro.core.injector import FaultInjector, InjectorMode
from repro.errors import ConfigurationError
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray
from repro.units import PAGE_SIZE


def _fault(pipeline, tid, pu, vaddr, *, is_write=False, now_ns=0):
    """Resolve one fault as a one-element batch."""
    return pipeline.handle_fault_batch(
        tid, pu, np.array([vaddr], dtype=np.int64), np.array([is_write]), now_ns=now_ns
    )


@pytest.fixture
def env(rng):
    space = AddressSpace(512)
    space.mmap("data", 64 * PAGE_SIZE)
    tlbs = TlbArray(4)
    pipeline = FaultPipeline(space, FrameAllocator(1, 1000), tlbs, node_of_pu=lambda pu: 0)
    return space, pipeline, tlbs, rng


def touch_all(space, pipeline, n_threads=2):
    region = space.region("data")
    for i, vpn in enumerate(region.vpns()):
        _fault(pipeline, i % n_threads, 0, int(vpn) * PAGE_SIZE, is_write=False, now_ns=0)


class TestBudget:
    def test_no_clear_without_mapped_pages(self, env):
        space, pipeline, tlbs, rng = env
        inj = FaultInjector(pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=8)
        assert inj.wake(0) == 0

    def test_steady_floor_clears_pages(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=8, sampling="uniform"
        )
        assert inj.wake(0) == 8
        assert inj.cleared_total == 8

    def test_cumulative_mode_respects_ratio(self, env):
        """Paper-literal controller: injected <= ratio/(1-ratio) * natural."""
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)  # 64 natural faults
        inj = FaultInjector(
            pipeline,
            rng,
            target_ratio=0.10,
            mode=InjectorMode.CUMULATIVE,
            max_per_wake=1000,
            sampling="uniform",
        )
        cleared = inj.wake(0)
        assert cleared == int(0.1 / 0.9 * 64)  # 7

    def test_cumulative_accounts_in_flight(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.CUMULATIVE, sampling="uniform"
        )
        first = inj.wake(0)
        # None of the cleared pages re-faulted yet: second wake clears none.
        assert inj.wake(1) == 0
        assert inj.cleared_total == first

    def test_max_per_wake_cap(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=100,
            max_per_wake=5, sampling="uniform",
        )
        assert inj.wake(0) == 5

    def test_rejects_bad_ratio(self, env):
        space, pipeline, tlbs, rng = env
        with pytest.raises(ConfigurationError):
            FaultInjector(pipeline, rng, target_ratio=1.5)

    def test_rejects_bad_sampling(self, env):
        space, pipeline, tlbs, rng = env
        with pytest.raises(ConfigurationError):
            FaultInjector(pipeline, rng, sampling="nope")


class TestClearing:
    def test_cleared_pages_fault_again(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=16, sampling="uniform"
        )
        inj.wake(0)
        table = space.page_table
        refaulted = 0
        for vpn in space.region("data").vpns():
            if not table.is_present(int(vpn)):
                _fault(pipeline, 0, 0, int(vpn) * PAGE_SIZE, is_write=False, now_ns=1)
                refaulted += 1
        assert refaulted == 16
        assert pipeline.injected_faults == 16

    def test_tlb_shootdown_on_clear(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, tlbs=tlbs, mode=InjectorMode.STEADY,
            floor_per_wake=64, max_per_wake=64, sampling="uniform",
        )
        before = tlbs.shootdowns
        inj.wake(0)
        assert tlbs.shootdowns == before + 1
        # Every cleared page's translation is gone from every TLB.
        table = space.page_table
        for vpn in space.region("data").vpns():
            if not table.is_present(int(vpn)):
                assert all(int(vpn) not in tlbs[p] for p in range(4))

    def test_inject_time_accrues(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=8,
            clear_cost_ns=100.0, sampling="uniform",
        )
        inj.wake(0)
        assert inj.inject_time_ns == 800.0


class TestAccessedSampling:
    def test_prefers_accessed_pages(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        table = space.page_table
        table.age_accessed()
        hot = space.region("data").vpns()[:8]
        table.mark_accessed_batch(hot)
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=8, sampling="accessed"
        )
        inj.wake(0)
        cleared = set(np.flatnonzero(~table.present_mask(space.region("data").vpns())))
        assert cleared == set(range(8))  # exactly the accessed subset

    def test_ages_accessed_bits_each_wake(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        table = space.page_table
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=4, sampling="accessed"
        )
        inj.wake(0)
        assert table.accessed_present_vpns().size == 0

    def test_falls_back_to_uniform_when_too_few_accessed(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        table = space.page_table
        table.age_accessed()
        table.mark_accessed_batch(space.region("data").vpns()[:2])
        inj = FaultInjector(
            pipeline, rng, mode=InjectorMode.STEADY, floor_per_wake=16, sampling="accessed"
        )
        assert inj.wake(0) == 16


class TestRatioConvergence:
    def test_achieved_ratio_tracks_target_cumulative(self, env):
        space, pipeline, tlbs, rng = env
        touch_all(space, pipeline)
        inj = FaultInjector(
            pipeline, rng, target_ratio=0.10, mode=InjectorMode.CUMULATIVE,
            sampling="uniform",
        )
        table = space.page_table
        for wake in range(30):
            inj.wake(wake)
            for vpn in space.region("data").vpns():
                if not table.is_present(int(vpn)):
                    _fault(pipeline, 0, 0, int(vpn) * PAGE_SIZE, is_write=False, now_ns=wake)
        assert inj.achieved_ratio() == pytest.approx(0.10, abs=0.02)
