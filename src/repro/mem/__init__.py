"""Simulated virtual-memory subsystem.

This is the substrate SPCD hooks into: a 4-level page table with present /
accessed / dirty bits, per-PU TLBs with shootdown, a NUMA-aware physical frame
allocator with first-touch policy, process address spaces, and a page-fault
pipeline with hook points (the simulation equivalent of the paper's modified
Linux fault handler).
"""

from repro.mem.address import (
    VPN_BITS_PER_LEVEL,
    page_offset,
    radix_indices,
    vaddr_of_vpn,
    vpn_of,
)
from repro.mem.addresspace import AddressSpace, Region
from repro.mem.fault import FaultBatch, FaultPipeline
from repro.mem.pagetable import PageTable, PageTableEntry
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import Tlb, TlbArray

__all__ = [
    "AddressSpace",
    "FaultBatch",
    "FaultPipeline",
    "FrameAllocator",
    "PageTable",
    "PageTableEntry",
    "Region",
    "Tlb",
    "TlbArray",
    "VPN_BITS_PER_LEVEL",
    "page_offset",
    "radix_indices",
    "vaddr_of_vpn",
    "vpn_of",
]
