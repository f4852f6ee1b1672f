"""Bulk primitives of the batched fault path against their scalar twins.

The fault pipeline resolves a thread batch's faults with bulk operations:
vectorised ``hash_64``, bulk frame allocation, bulk TLB refill and bulk
TLB shootdown.  Each must equal the scalar operation applied in a loop.
Whole fault streams through the pipeline and the SPCD detector are pinned
in ``tests/test_golden_digests.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashtable import hash_64, hash_64_batch
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import Tlb, TlbArray


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
