"""Replica-coherence enumeration for the Mitosis-style page table.

The placement engine's replication directive
(:class:`~repro.mem.ptreplica.ReplicatedPageTable`) must keep every
node's replica element-wise identical to the primary across *any*
interleaving of the three mutator streams that run concurrently in a
real run: the fault path (``map_page`` / ``restore_present``), the data
mapper's page migrations (``unmap_page`` + ``map_page`` + TLB
shootdown), and SPCD's fault injection (``clear_present`` + shootdown).
Hypothesis shrinks poorly over such schedules, so — exactly like
:mod:`repro.check.interleave` — this module brute-forces them: every op
sequence over a tiny model (2 nodes × 4 pages by default) is executed
against the **real** ``mem/`` stack, and after every single op two
invariants are checked:

* **replica coherence**: :meth:`ReplicatedPageTable.replica_divergence`
  must be ``None`` — no replica may disagree with the primary on
  present / populated / frame / home-node state;
* **TLB coherence** (carried over from the interleave check): every
  cached translation must match a page the primary currently marks
  present, with the same frame.

Two negative controls prove the checker has teeth before we trust its
silence:

* ``broadcast_present=False`` drops the present-bit half of every
  coherence broadcast — the enumerator must find the divergence;
* ``migrate_noshoot`` migrates a page *without* the TLB shootdown —
  the exact data-mapper bug the shootdown in
  :meth:`~repro.core.datamap.DataMapper.apply_moves` exists to prevent.
"""

from __future__ import annotations

import numpy as np

from repro.check.interleave import Counterexample, _minimise, op_sequences
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.ptreplica import ReplicatedPageTable
from repro.mem.tlb import TlbArray

__all__ = ["ReplicaModel", "check_replica_interleavings", "replica_alphabet"]

#: one op: ("fault", node, page) | ("migrate", page, node)
#:       | ("migrate_noshoot", page, node) | ("clear", page)
Op = tuple


def replica_alphabet(
    n_nodes: int = 2, n_pages: int = 4, *, with_noshoot: bool = False
) -> "list[Op]":
    """The op alphabet of the small model (optionally with the bug op)."""
    ops: "list[Op]" = [
        ("fault", node, page) for node in range(n_nodes) for page in range(n_pages)
    ]
    ops += [
        ("migrate", page, node) for page in range(n_pages) for node in range(n_nodes)
    ]
    if with_noshoot:
        ops += [
            ("migrate_noshoot", page, node)
            for page in range(n_pages)
            for node in range(n_nodes)
        ]
    ops += [("clear", page) for page in range(n_pages)]
    return ops


class ReplicaModel:
    """One fresh n-node × n-page instance of the real mem/ stack, replicated.

    One PU per node (``node_of_pu`` is the identity), so a ``fault`` op
    names both the faulting PU and the node its frame lands on.  The
    replicas are activated mid-setup — after the region exists, before
    any page is touched — matching the placement engine's mid-run
    activation path.
    """

    def __init__(
        self,
        n_nodes: int,
        n_pages: int,
        tlb_capacity: int,
        *,
        broadcast_present: bool = True,
    ) -> None:
        table = ReplicatedPageTable(
            n_pages + 8, n_nodes, broadcast_present=broadcast_present
        )
        self.space = AddressSpace(capacity_pages=n_pages + 8, page_table=table)
        self.region = self.space.mmap("model", n_pages * 4096)
        self.vpns = [int(v) for v in self.region.vpns()]
        self.frames = FrameAllocator(n_nodes=n_nodes, frames_per_node=n_pages + 8)
        self.tlbs = TlbArray(n_pus=n_nodes, capacity=tlb_capacity)
        self.pipeline = FaultPipeline(
            self.space, self.frames, self.tlbs, node_of_pu=lambda pu: pu
        )
        table.activate()
        self.clock = 0

    def apply(self, op: Op) -> None:
        table = self.space.page_table
        self.clock += 1
        if op[0] == "fault":
            _, node, page = op
            vpn = self.vpns[page]
            if self.tlbs[node].lookup(vpn) is not None:
                # TLB hit: hardware translates without consulting the table.
                # The invariant check below catches a stale hit; nothing to do.
                return
            if table.is_present(vpn):
                # soft miss: refill from the page table, no fault
                self.tlbs[node].insert(vpn, table.frame_of(vpn))
                return
            self.pipeline.handle_fault_batch(
                node,
                node,
                np.array([vpn * 4096], dtype=np.int64),
                np.zeros(1, dtype=bool),
                now_ns=self.clock,
            )
        elif op[0] in ("migrate", "migrate_noshoot"):
            # the exact DataMapper.apply_moves sequence for one page
            _, page, node = op
            vpn = self.vpns[page]
            if not table.is_populated(vpn):
                return  # the real mapper only moves populated pages
            old_frame = table.frame_of(vpn)
            new_frame = self.frames.allocate(node)
            if self.frames.node_of_frame(new_frame) != node:
                self.frames.free(new_frame)
                return
            was_present = table.is_present(vpn)
            table.unmap_page(vpn)
            table.map_page(vpn, new_frame, node)
            if not was_present:
                table.clear_present(vpn)
            self.frames.free(old_frame)
            if op[0] == "migrate":
                self.tlbs.shootdown(np.array([vpn], dtype=np.int64))
        elif op[0] == "clear":
            # the injector's wake: clear the present bit, shoot the TLBs
            vpn = self.vpns[op[1]]
            if not (table.is_populated(vpn) and table.is_present(vpn)):
                return
            cleared = np.array([vpn], dtype=np.int64)
            table.clear_present(cleared)
            self.tlbs.shootdown(cleared)
        else:  # pragma: no cover - enumerator misuse
            raise ValueError(f"unknown op {op!r}")

    def violation(self) -> "str | None":
        """First violated invariant (replica coherence, then TLB), or None."""
        table = self.space.page_table
        divergence = table.replica_divergence()
        if divergence is not None:
            return divergence
        for pu, tlb in enumerate(self.tlbs.tlbs):
            for vpn, frame in tlb._entries.items():
                if not table.is_present(vpn):
                    return (
                        f"stale translation: PU {pu} TLB caches vpn {vpn} "
                        "after its present bit was cleared (missed shootdown)"
                    )
                if table.frame_of(vpn) != frame:
                    return (
                        f"wrong translation: PU {pu} TLB maps vpn {vpn} to "
                        f"frame {frame}, page table says {table.frame_of(vpn)}"
                    )
        return None


def check_replica_interleavings(
    *,
    n_nodes: int = 2,
    n_pages: int = 4,
    max_len: int = 4,
    tlb_capacity: int = 2,
    broadcast_present: bool = True,
    with_noshoot: bool = False,
    max_counterexamples: int = 1,
) -> "list[Counterexample]":
    """Exhaustively run every op sequence up to *max_len*; return violations.

    A fresh real ``mem/`` stack (with active replicas) is built per
    sequence and both invariants are asserted after every op.  An empty
    list is the pass verdict; counterexamples are greedily minimised.
    """
    alphabet = replica_alphabet(n_nodes, n_pages, with_noshoot=with_noshoot)

    def run(ops: "tuple[Op, ...]") -> "tuple[int, str] | None":
        model = ReplicaModel(
            n_nodes, n_pages, tlb_capacity, broadcast_present=broadcast_present
        )
        for i, op in enumerate(ops):
            model.apply(op)
            reason = model.violation()
            if reason is not None:
                return i, reason
        return None

    found: "list[Counterexample]" = []
    for length in range(1, max_len + 1):
        for ops in op_sequences(alphabet, length):
            outcome = run(ops)
            if outcome is None:
                continue
            minimal, failed_at, reason = _minimise(ops, run)
            cx = Counterexample(ops=minimal, failed_at=failed_at, reason=reason)
            if cx not in found:
                found.append(cx)
            if len(found) >= max_counterexamples:
                return found
    return found
