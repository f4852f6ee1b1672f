"""Tests for the page-fault pipeline and its hooks."""

import numpy as np
import pytest

from repro.errors import PageFaultError
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultBatch, FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray
from repro.units import PAGE_SIZE


@pytest.fixture
def pipeline():
    space = AddressSpace(256)
    space.mmap("data", 16 * PAGE_SIZE)
    frames = FrameAllocator(2, 1000)
    tlbs = TlbArray(4)
    return FaultPipeline(space, frames, tlbs, node_of_pu=lambda pu: pu % 2)


def _addr(pipeline, page=0):
    return pipeline.address_space.region("data").base + page * PAGE_SIZE


def _fault(pipeline, tid, pu, vaddr, *, is_write=False, now_ns=0) -> FaultBatch:
    """Resolve one fault as a one-element batch."""
    return pipeline.handle_fault_batch(
        tid, pu, np.array([vaddr], dtype=np.int64), np.array([is_write]), now_ns=now_ns
    )


class TestFirstTouch:
    def test_first_touch_allocates_on_local_node(self, pipeline):
        batch = _fault(pipeline, 0, 1, _addr(pipeline))
        assert not batch.injected[0]
        assert batch.home_nodes[0] == 1  # pu 1 -> node 1

    def test_page_present_after_first_touch(self, pipeline):
        batch = _fault(pipeline, 0, 0, _addr(pipeline), is_write=True)
        vpn = int(batch.vpns[0])
        table = pipeline.address_space.page_table
        assert table.is_present(vpn)
        assert table.entry(vpn).dirty

    def test_tlb_filled(self, pipeline):
        batch = _fault(pipeline, 0, 2, _addr(pipeline))
        assert int(batch.vpns[0]) in pipeline.tlbs[2]

    def test_fault_on_present_page_rejected(self, pipeline):
        _fault(pipeline, 0, 0, _addr(pipeline))
        with pytest.raises(PageFaultError):
            _fault(pipeline, 0, 0, _addr(pipeline), now_ns=1)

    def test_counters(self, pipeline):
        _fault(pipeline, 0, 0, _addr(pipeline, 0))
        _fault(pipeline, 0, 0, _addr(pipeline, 1))
        assert pipeline.first_touch_faults == 2
        assert pipeline.total_faults == 2
        assert pipeline.fault_time_ns == 2 * pipeline.first_touch_cost_ns


class TestInjectedFaults:
    def test_injected_fault_restores_present(self, pipeline):
        batch = _fault(pipeline, 0, 0, _addr(pipeline))
        table = pipeline.address_space.page_table
        table.clear_present(batch.vpns)
        batch2 = _fault(pipeline, 1, 1, _addr(pipeline), now_ns=10)
        assert batch2.injected[0]
        assert table.is_present(int(batch.vpns[0]))
        # frame unchanged: injected faults do not reallocate
        assert batch2.home_nodes[0] == batch.home_nodes[0]

    def test_injected_fraction(self, pipeline):
        table = pipeline.address_space.page_table
        for page in range(9):
            _fault(pipeline, 0, 0, _addr(pipeline, page))
        batch = _fault(pipeline, 0, 0, _addr(pipeline, 9))
        table.clear_present(batch.vpns)
        _fault(pipeline, 1, 1, _addr(pipeline, 9), now_ns=1)
        assert pipeline.injected_faults == 1
        assert pipeline.injected_fraction() == pytest.approx(1 / 11)

    def test_injected_cheaper_than_first_touch(self, pipeline):
        assert pipeline.injected_cost_ns < pipeline.first_touch_cost_ns


class TestHooks:
    def test_hook_sees_fault_info(self, pipeline):
        seen: list[FaultBatch] = []
        pipeline.add_batch_hook(seen.append)
        _fault(pipeline, 3, 1, _addr(pipeline) + 123, is_write=True, now_ns=55)
        assert len(seen) == 1
        batch = seen[0]
        assert batch.thread_id == 3 and batch.pu_id == 1
        assert batch.n_faults == 1
        assert batch.vaddrs[0] % PAGE_SIZE == 123
        assert batch.now_ns == 55 and batch.is_write[0]

    def test_hook_sees_unique_vpns_in_ascending_order(self, pipeline):
        seen: list[FaultBatch] = []
        pipeline.add_batch_hook(seen.append)
        pages = [5, 2, 5, 9, 2, 7]
        vaddrs = np.array([_addr(pipeline, p) + k for k, p in enumerate(pages)])
        pipeline.handle_fault_batch(0, 0, vaddrs, np.zeros(len(pages), dtype=bool), now_ns=0)
        batch = seen[0]
        base = int(batch.vpns[0]) - 2
        assert (batch.vpns - base).tolist() == [2, 5, 7, 9]
        # the first faulting access of each page is the one reported
        assert (batch.vaddrs % PAGE_SIZE).tolist() == [1, 0, 5, 3]

    def test_hook_removal(self, pipeline):
        seen = []
        pipeline.add_batch_hook(seen.append)
        pipeline.remove_batch_hook(seen.append)
        _fault(pipeline, 0, 0, _addr(pipeline))
        assert not seen

    def test_hook_time_charged_separately(self, pipeline):
        pipeline.add_batch_hook(lambda batch: pipeline.charge_hook_time(100.0))
        _fault(pipeline, 0, 0, _addr(pipeline))
        assert pipeline.hook_time_ns == 100.0


class TestFaultingMask:
    def test_mask_tracks_present_bits(self, pipeline):
        region = pipeline.address_space.region("data")
        vpns = region.vpns()[:4]
        assert pipeline.faulting_mask(vpns).all()
        _fault(pipeline, 0, 0, _addr(pipeline, 1))
        mask = pipeline.faulting_mask(vpns)
        assert mask.tolist() == [True, False, True, True]
