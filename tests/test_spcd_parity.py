"""Differential tests: batched fault/SPCD fast path vs the reference engine.

The vectorised fault pipeline (``FaultPipeline.handle_fault_batch``) and the
array-backed detector engine (:class:`ArrayShareTable`) must be *bit
identical* to the per-fault reference path selected by ``REPRO_SLOW_SPCD=1``
— same page-table state, same frame placement, same TLB contents, same
communication matrices and same counters.  These tests pin that equivalence
at four levels: the bulk primitives, randomised fault streams through both
complete stacks, intra-batch collision/duplicate handling, and full
simulations of the producer/consumer phase-shift workload and a small NPB
kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashtable import ArrayShareTable, ShareTable, hash_64, hash_64_batch
from repro.core.spcd import SpcdDetector
from repro.engine.runner import run_single
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import ConfigurationError
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import Tlb, TlbArray
from repro.units import PAGE_SHIFT, PAGE_SIZE
from repro.workloads.npb import make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload


# -- bulk primitives ----------------------------------------------------------


def test_hash_64_batch_matches_scalar():
    values = np.array([0, 1, 17, 2**40, 2**63 - 1], dtype=np.int64)
    for bits in (8, 18, 64):
        batch = hash_64_batch(values, bits)
        for v, h in zip(values.tolist(), batch.tolist()):
            assert h == hash_64(v, bits)


def test_allocate_batch_matches_scalar_with_free_list_and_spill():
    """Bulk allocation replays allocate() exactly: LIFO free list, then bump,
    spilling to the nearest node when one runs out."""
    a = FrameAllocator(n_nodes=4, frames_per_node=8)
    b = FrameAllocator(n_nodes=4, frames_per_node=8)
    for alloc in (a, b):
        taken = [alloc.allocate(1) for _ in range(5)]
        for f in (taken[3], taken[0], taken[4]):
            alloc.free(f)
    # 3 frames on node 1's free list, 3 by bump, then spill to neighbours
    want = 14
    got_a = [a.allocate(1) for _ in range(want)]
    got_b = b.allocate_batch(1, want).tolist()
    assert got_a == got_b
    assert [a.node_of_frame(f) for f in got_a] == b.nodes_of_frames(
        np.asarray(got_b)
    ).tolist()


def test_tlb_insert_batch_matches_loop():
    vpns = np.arange(100, dtype=np.int64)
    frames = vpns * 7
    loop, batch = Tlb(capacity=16), Tlb(capacity=16)
    for v, f in zip(vpns.tolist(), frames.tolist()):
        loop.insert(v, f)
    batch.insert_batch(vpns, frames, assume_unique=True)  # shortcut path
    assert list(loop._entries.items()) == list(batch._entries.items())

    small_v, small_f = vpns[:5], frames[:5]
    loop2, batch2 = Tlb(capacity=16), Tlb(capacity=16)
    for v, f in zip(small_v.tolist(), small_f.tolist()):
        loop2.insert(v, f)
    batch2.insert_batch(small_v, small_f, assume_unique=True)  # loop path
    assert list(loop2._entries.items()) == list(batch2._entries.items())


def test_bulk_shootdown_matches_scalar_invalidate():
    bulk, scalar = TlbArray(3, capacity=8), TlbArray(3, capacity=8)
    for tlbs in (bulk, scalar):
        for pu in range(3):
            for vpn in range(pu, pu + 6):
                tlbs[pu].insert(vpn, vpn * 10)
    targets = np.array([2, 3, 100], dtype=np.int64)
    removed = bulk.shootdown(targets)
    expected = sum(
        scalar[pu].invalidate(int(v)) for pu in range(3) for v in targets
    )
    assert removed == expected
    for pu in range(3):
        assert sorted(bulk[pu]._entries) == sorted(scalar[pu]._entries)
        assert bulk[pu].invalidations == scalar[pu].invalidations


# -- stack-level randomized fault streams -------------------------------------


def _build_stack(engine, *, n_threads=8, n_pages=192, table_size=251, granularity=PAGE_SIZE):
    space = AddressSpace(1 << 12)
    region = space.mmap("data", n_pages * PAGE_SIZE)
    frames = FrameAllocator(n_nodes=4, frames_per_node=n_pages)
    tlbs = TlbArray(n_threads, capacity=16)
    pipeline = FaultPipeline(space, frames, tlbs, node_of_pu=lambda pu: pu % 4)
    detector = SpcdDetector(
        n_threads,
        table_size=table_size,
        granularity=granularity,
        window_ns=5_000,
        pipeline=pipeline,
        engine=engine,
    )
    return space, region, pipeline, detector, tlbs


def _drive_differential(seed, table_size, granularity=PAGE_SIZE, steps=300, max_batch=24):
    """Run one random fault stream through both stacks and compare everything."""
    rng = np.random.default_rng(seed)
    fast = _build_stack("array", table_size=table_size, granularity=granularity)
    slow = _build_stack("dict", table_size=table_size, granularity=granularity)
    f_space, f_region, f_pipe, f_det, f_tlbs = fast
    s_space, s_region, s_pipe, s_det, s_tlbs = slow
    vpn_lo = int(f_region.vpns()[0])
    vpn_hi = int(f_region.vpns()[-1])

    for step in range(steps):
        tid = int(rng.integers(0, 8))
        m = int(rng.integers(1, max_batch))
        vpns = rng.integers(vpn_lo, vpn_hi + 1, size=m)
        vaddrs = (vpns << PAGE_SHIFT) + rng.integers(0, PAGE_SIZE, size=m)
        writes = rng.random(m) < 0.4
        now = step * 700
        mask = f_pipe.faulting_mask(vpns)
        if not mask.any():
            present = f_space.page_table.present_vpns()
            chosen = rng.choice(present, size=min(30, present.size), replace=False)
            for space, tlbs in ((f_space, f_tlbs), (s_space, s_tlbs)):
                space.page_table.clear_present(chosen)
                tlbs.shootdown(chosen)
            continue
        va, wr = vaddrs[mask], writes[mask]
        # fast stack: one batched call
        f_pipe.handle_fault_batch(tid, tid, va, wr, now_ns=now)
        # slow stack: reference per-fault loop (ascending unique VPNs)
        _, first = np.unique(va >> PAGE_SHIFT, return_index=True)
        for k in first:
            s_pipe.handle_fault(tid, tid, int(va[k]), is_write=bool(wr[k]), now_ns=now)

    # detector: matrix, stats, table counters, live entries
    assert np.array_equal(f_det.matrix.matrix, s_det.matrix.matrix)
    assert f_det.stats == s_det.stats
    assert f_det.table.collisions == s_det.table.collisions
    assert f_det.table.inserts == s_det.table.inserts
    assert len(f_det.table) == len(s_det.table)
    assert f_det.shared_region_count() == s_det.shared_region_count()
    f_entries = {e.region: e.last_access for e in f_det.table.entries()}
    s_entries = {e.region: e.last_access for e in s_det.table.entries()}
    assert f_entries == s_entries
    # pipeline counters and accounting
    assert f_pipe.first_touch_faults == s_pipe.first_touch_faults
    assert f_pipe.injected_faults == s_pipe.injected_faults
    assert f_pipe.fault_time_ns == s_pipe.fault_time_ns
    assert f_pipe.hook_time_ns == s_pipe.hook_time_ns
    # page table state, frame placement, walk accounting
    ft, st = f_space.page_table, s_space.page_table
    assert np.array_equal(ft._frame, st._frame)
    assert np.array_equal(ft._home_node, st._home_node)
    assert np.array_equal(ft._dirty, st._dirty)
    assert ft.walk_count == st.walk_count
    # TLBs: exact LRU order per PU
    for f_tlb, s_tlb in zip(f_tlbs.tlbs, s_tlbs.tlbs):
        assert list(f_tlb._entries.items()) == list(s_tlb._entries.items())


@pytest.mark.parametrize("table_size", [7, 251, 4096])
def test_random_fault_streams_are_bit_identical(table_size):
    """Random streams across table sizes; size 7 forces constant collisions."""
    _drive_differential(seed=100 + table_size, table_size=table_size)


def test_coarse_granularity_duplicate_regions():
    """Granularity above the page size maps several batch VPNs onto one
    region — the intra-batch slot-conflict replay must stay bit-identical."""
    _drive_differential(
        seed=9, table_size=61, granularity=4 * PAGE_SIZE, steps=200, max_batch=40
    )


def test_one_fault_batches_match_scalar_entry_point():
    """m=1 batches (the scalar cutover's smallest case) equal handle_fault."""
    _drive_differential(seed=5, table_size=251, steps=150, max_batch=2)


# -- engine selection ---------------------------------------------------------


def test_engine_selection_follows_env(monkeypatch):
    monkeypatch.delenv("REPRO_SLOW_SPCD", raising=False)
    assert isinstance(SpcdDetector(4).table, ArrayShareTable)
    monkeypatch.setenv("REPRO_SLOW_SPCD", "1")
    assert isinstance(SpcdDetector(4).table, ShareTable)
    monkeypatch.delenv("REPRO_SLOW_SPCD", raising=False)
    assert isinstance(SpcdDetector(4, engine="dict").table, ShareTable)
    with pytest.raises(ConfigurationError):
        SpcdDetector(4, engine="bogus")


@pytest.mark.parametrize(
    "slow_spcd,env,engine,table",
    [(True, "0", "dict", ShareTable), (False, "1", "array", ArrayShareTable)],
)
def test_explicit_settings_select_detector_engine(
    slow_spcd, env, engine, table, monkeypatch
):
    """An explicit ``slow_spcd`` picks the detector engine, whatever
    ``REPRO_SLOW_SPCD`` says."""
    monkeypatch.setenv("REPRO_SLOW_SPCD", env)
    sim = Simulator(
        make_npb("CG", 8), "spcd", seed=1, config=EngineConfig(steps=1, batch_size=16),
        settings=RunSettings(slow_spcd=slow_spcd),
    )
    assert sim.manager.detector.engine == engine
    assert type(sim.manager.detector.table) is table


# -- full simulations ---------------------------------------------------------


@pytest.mark.parametrize(
    "name,factory",
    [
        ("prodcons", lambda: ProducerConsumerWorkload(n_threads=32)),
        ("cg", lambda: make_npb("CG")),
    ],
)
def test_full_simulation_parity(name, factory, monkeypatch):
    """End-to-end: fast fault/SPCD path vs ``REPRO_SLOW_SPCD=1`` reference."""
    cfg = EngineConfig(steps=30, batch_size=128)
    monkeypatch.delenv("REPRO_SLOW_SPCD", raising=False)
    fast = run_single(factory, "spcd", seed=7, config=cfg)
    monkeypatch.setenv("REPRO_SLOW_SPCD", "1")
    slow = run_single(factory, "spcd", seed=7, config=cfg)

    assert np.array_equal(fast.detected_matrix.matrix, slow.detected_matrix.matrix)
    assert fast.perf.faults == slow.perf.faults
    assert fast.first_touch_faults == slow.first_touch_faults
    assert fast.injected_faults == slow.injected_faults
    assert fast.migrations == slow.migrations
    for metric in ("exec_time_s", "l2_mpki", "l3_mpki", "c2c_transactions"):
        assert fast.metric(metric) == slow.metric(metric)
    # The subsystem timers are disjoint sub-intervals of the run's wall
    # clock; a negative raw residual would mean two timers double-count.
    for result in (fast, slow):
        assert result.perf.other_s >= 0.0
        assert result.perf.tracked_s <= result.perf.wall_s
