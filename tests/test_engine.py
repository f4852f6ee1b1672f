"""Tests for the execution engine: time model, energy model, policies."""

import numpy as np
import pytest

from repro.cachesim.stats import CacheStats
from repro.engine.energy import EnergyModel
from repro.engine.metrics import TimeModel, TimeParams
from repro.engine.policies import Policy, make_scheduler
from repro.errors import ConfigurationError
from repro.kernelsim.scheduler import CfsLikeScheduler, PinnedScheduler
from repro.workloads.npb import make_npb


class TestTimeModel:
    @pytest.fixture
    def tm(self, machine):
        return TimeModel(machine)

    def test_compute_time_scales_with_instructions(self, tm):
        assert tm.compute_time_ns(2000) == 2 * tm.compute_time_ns(1000)

    def test_compute_time_uses_frequency(self, machine):
        tm = TimeModel(machine)
        expected = 1000 * tm.params.cpi_base / machine.frequency_ghz
        assert tm.compute_time_ns(1000) == pytest.approx(expected)

    def test_l1_hits_are_free(self, tm):
        s = CacheStats(l1_hits=1000)
        assert tm.stall_time_ns(s) == 0.0

    def test_stall_ordering_by_event_depth(self, tm):
        def stall(**kw):
            return tm.stall_time_ns(CacheStats(**kw))

        l2 = stall(l2_hits=1)
        l3 = stall(l3_hits=1)
        c2c_x = stall(c2c_inter=1)
        dram_r = stall(dram_reads_remote=1)
        assert l2 < l3 < c2c_x < dram_r

    def test_remote_dram_slower_than_local(self, tm):
        local = tm.stall_time_ns(CacheStats(dram_reads_local=1))
        remote = tm.stall_time_ns(CacheStats(dram_reads_remote=1))
        assert remote > local

    def test_c2c_intra_cheaper_than_inter(self, tm):
        intra = tm.stall_time_ns(CacheStats(l3_hits=1, c2c_intra=1))
        inter = tm.stall_time_ns(CacheStats(c2c_inter=1))
        assert intra < inter

    def test_exposure_scales_stalls(self, machine):
        full = TimeModel(machine, params=TimeParams(stall_exposure=1.0))
        half = TimeModel(machine, params=TimeParams(stall_exposure=0.5))
        s = CacheStats(dram_reads_local=10)
        assert half.stall_time_ns(s) == pytest.approx(0.5 * full.stall_time_ns(s))

    def test_batch_time_is_compute_plus_stall(self, tm):
        s = CacheStats(l2_hits=5)
        assert tm.batch_time_ns(100, s) == pytest.approx(
            tm.compute_time_ns(100) + tm.stall_time_ns(s)
        )


class TestEnergyModel:
    @pytest.fixture
    def em(self, machine):
        return EnergyModel(machine)

    def test_static_energy_proportional_to_time(self, em):
        e1 = em.compute(1e9, 0, CacheStats())
        e2 = em.compute(2e9, 0, CacheStats())
        assert e2.processor_static_j == pytest.approx(2 * e1.processor_static_j)

    def test_static_power_per_socket(self, em, machine):
        e = em.compute(1e9, 0, CacheStats())
        assert e.processor_static_j == pytest.approx(
            em.params.static_w_per_socket * machine.n_sockets
        )

    def test_dram_energy_tracks_accesses(self, em):
        base = em.compute(1e9, 0, CacheStats())
        busy = em.compute(1e9, 0, CacheStats(dram_reads_local=10_000))
        assert busy.dram_j > base.dram_j
        assert busy.dram_background_j == base.dram_background_j

    def test_writebacks_count_as_dram_traffic(self, em):
        e = em.compute(1e9, 0, CacheStats(dram_writebacks=1000))
        assert e.dram_dynamic_j > 0

    def test_scale_multiplies_dynamic_only(self, em):
        s = CacheStats(dram_reads_local=100, l2_hits=100)
        e1 = em.compute(1e9, 1000, s, scale=1.0)
        e2 = em.compute(1e9, 1000, s, scale=2.0)
        assert e2.dram_dynamic_j == pytest.approx(2 * e1.dram_dynamic_j)
        assert e2.processor_static_j == e1.processor_static_j

    def test_remote_traffic_costs_more_processor_energy(self, em):
        near = em.compute(1e9, 0, CacheStats(l3_hits=1000, c2c_intra=1000))
        far = em.compute(1e9, 0, CacheStats(l3_misses=1000, c2c_inter=1000))
        assert far.processor_dynamic_j > near.processor_dynamic_j

    def test_epi_metrics(self, em):
        e = em.compute(1e9, 1000, CacheStats())
        assert e.proc_epi_nj(1e6) == pytest.approx(1e9 * e.processor_j / 1e6)
        assert e.dram_epi_nj(0) == 0.0


class TestPolicies:
    def test_parse_accepts_strings(self):
        assert Policy.parse("SPCD") is Policy.SPCD
        assert Policy.parse(Policy.OS) is Policy.OS

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            Policy.parse("best-effort")

    def test_os_policy_builds_cfs(self, machine, rng):
        sched = make_scheduler("os", machine, make_npb("BT"), rng)
        assert isinstance(sched, CfsLikeScheduler)
        assert len(sched.tasks) == 32

    def test_random_policy_is_pinned_permutation(self, machine, rng):
        sched = make_scheduler("random", machine, make_npb("BT"), rng)
        assert isinstance(sched, PinnedScheduler)
        assert sorted(sched.placement().tolist()) == sorted(
            set(sched.placement().tolist())
        )

    def test_oracle_policy_pairs_chain_neighbours(self, machine, rng):
        sched = make_scheduler("oracle", machine, make_npb("SP"), rng)
        placement = sched.placement()
        same_core = sum(
            machine.core_of(int(placement[i])) == machine.core_of(int(placement[i + 1]))
            for i in range(0, 31, 2)
        )
        assert same_core >= 12  # chain pairs mostly co-located

    def test_spcd_policy_is_pinnable(self, machine, rng):
        sched = make_scheduler("spcd", machine, make_npb("BT"), rng)
        assert isinstance(sched, PinnedScheduler)

    def test_too_many_threads_rejected(self, small_machine, rng):
        from repro.workloads.npb import SyntheticNpbWorkload, NPB_SPECS

        wl = SyntheticNpbWorkload(NPB_SPECS["BT"], n_threads=9)
        with pytest.raises(ConfigurationError):
            make_scheduler("os", small_machine, wl, rng)

    def test_random_differs_between_seeds(self, machine):
        a = make_scheduler("random", machine, make_npb("BT"), np.random.default_rng(1))
        b = make_scheduler("random", machine, make_npb("BT"), np.random.default_rng(2))
        assert a.placement().tolist() != b.placement().tolist()
