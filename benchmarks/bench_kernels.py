"""Performance benchmarks of the library's hot kernels (pytest-benchmark).

Not a paper figure — these measure the simulator substrate itself so that
regressions in the per-access and per-fault paths are caught: the MESI
hierarchy's access path, the fault pipeline with the SPCD hook attached,
the injector wake, the hierarchical mapper, and the communication filter.
"""

import numpy as np
import pytest

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.core.commmatrix import CommunicationMatrix
from repro.core.filter import CommunicationFilter
from repro.core.injector import FaultInjector, InjectorMode
from repro.core.mapping import HierarchicalMapper
from repro.core.spcd import SpcdDetector
from repro.machine.topology import dual_xeon_e5_2650
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultBatch, FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.units import PAGE_SIZE
from repro.workloads.patterns import chain_pattern


@pytest.fixture(scope="module")
def machine():
    return dual_xeon_e5_2650()


def _pretouch(pipeline, region):
    """First-touch every page of *region* from thread 0 in one batch."""
    vpns = region.vpns()
    pipeline.handle_fault_batch(
        0, 0, vpns * PAGE_SIZE, np.zeros(vpns.size, dtype=bool), now_ns=0
    )


def test_bench_hierarchy_access_path(benchmark, machine):
    """Throughput of the coherent-hierarchy access loop (per 10k accesses)."""
    hier = CoherentHierarchy(machine)
    rng = np.random.default_rng(0)
    pus = rng.integers(0, machine.n_pus, 10_000).tolist()
    lines = rng.integers(0, 4_000, 10_000).tolist()
    writes = (rng.random(10_000) < 0.3).tolist()
    homes = rng.integers(0, 2, 10_000).tolist()

    def run():
        hier.access_batch(pus, lines, writes, homes)

    benchmark(run)
    assert hier.check_invariants() == []


def test_bench_fault_path_with_detector(benchmark, machine):
    """Cost of one injected fault through the pipeline + SPCD hook."""
    space = AddressSpace(4096)
    region = space.mmap("d", 1024 * PAGE_SIZE)
    pipeline = FaultPipeline(space, FrameAllocator(2, 100_000), node_of_pu=lambda p: 0)
    SpcdDetector(32, pipeline=pipeline)
    _pretouch(pipeline, region)
    table = space.page_table
    no_write = np.zeros(1, dtype=bool)
    state = {"i": 0}

    def one_fault():
        vpn = int(region.first_vpn) + state["i"] % 1024
        state["i"] += 1
        table.clear_present(vpn)
        pipeline.handle_fault_batch(
            state["i"] % 32, 0, np.array([vpn * PAGE_SIZE]), no_write, now_ns=0
        )

    benchmark(one_fault)


def test_bench_injector_wake(benchmark, machine):
    """One injector wakeup over a populated 8k-page table."""
    space = AddressSpace(1 << 14)
    region = space.mmap("d", 8192 * PAGE_SIZE)
    pipeline = FaultPipeline(space, FrameAllocator(2, 100_000), node_of_pu=lambda p: 0)
    _pretouch(pipeline, region)
    inj = FaultInjector(
        pipeline,
        np.random.default_rng(0),
        mode=InjectorMode.STEADY,
        floor_per_wake=256,
        sampling="uniform",
    )
    table = space.page_table

    def wake():
        inj.wake(0)
        # restore so the candidate set stays constant
        for vpn in table.populated_vpns()[~table.present_mask(table.populated_vpns())]:
            table.restore_present(int(vpn))

    benchmark(wake)


def test_bench_hierarchical_mapper(benchmark, machine):
    """Full 32-thread mapping (blossom matching at two hierarchy levels)."""
    mapper = HierarchicalMapper(machine)
    rng = np.random.default_rng(0)
    comm = chain_pattern(32, 10.0) + rng.random((32, 32))
    comm = (comm + comm.T) / 2
    np.fill_diagonal(comm, 0.0)
    mapping = benchmark(mapper.map, comm)
    assert len(set(mapping.tolist())) == 32


def test_bench_communication_filter(benchmark):
    """One filter evaluation over a 32-thread matrix (Theta(N^2))."""
    matrix = CommunicationMatrix(32, chain_pattern(32, 100.0))
    filt = CommunicationFilter(32)
    filt.should_remap(matrix)
    benchmark(filt.should_remap, matrix)


def test_bench_detector_hook(benchmark):
    """The SPCD fault hook alone on one-fault batches (table + matrix update)."""
    det = SpcdDetector(32)
    batches = [
        FaultBatch(
            thread_id=t % 32,
            pu_id=0,
            now_ns=t,
            vaddrs=np.array([(t % 64) * PAGE_SIZE]),
            vpns=np.array([t % 64]),
            is_write=np.zeros(1, dtype=bool),
            injected=np.ones(1, dtype=bool),
            home_nodes=np.zeros(1, dtype=np.int64),
        )
        for t in range(128)
    ]
    state = {"i": 0}

    def hook():
        det.on_fault_batch(batches[state["i"] % 128])
        state["i"] += 1

    benchmark(hook)
