"""SPCD-driven data mapping (the paper's stated extension, Sec. IV).

"Although we focus on thread mapping in this paper, the mechanisms can be
used to perform data mapping as well."  This module implements exactly
that: the same injected page faults that feed the communication matrix also
reveal *which NUMA node uses each page*.  A page whose recent faults come
predominantly from a remote node is migrated there — the simulation
analogue of NUMA balancing built on SPCD's existing fault stream, with no
additional detection cost.

Mechanism:

* the fault hook records, per region, a small exponential counter of
  faults per NUMA node;
* a periodic kernel thread scans the regions touched since its last wake
  and migrates pages whose dominant node (a) differs from the current home
  and (b) holds at least ``dominance`` of the recent faults;
* a migrated page pays an explicit copy cost and its new home node is
  visible to the cache simulator's DRAM accounting immediately.

Pages shared roughly equally by both nodes (true communication pages) are
intentionally left alone — thread mapping, not data mapping, is the right
tool for those, which is why the two mechanisms compose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.fault import FaultBatch, FaultPipeline
from repro.units import MSEC


@dataclass
class DataMapperStats:
    """Counters of the data-mapping mechanism."""

    pages_migrated: int = 0
    migrations_vetoed_shared: int = 0
    scans: int = 0
    copy_time_ns: float = 0.0


class SpcdDataMapper:
    """NUMA page migration driven by the SPCD fault stream.

    Attributes:
        n_nodes: number of NUMA nodes.
        dominance: minimum share of a page's recent faults that one node
            must hold before the page is migrated there.
        decay: exponential decay of the per-node fault counters at each
            scan (keeps the view recent, like the detector's matrix aging).
        min_faults: minimum recent-fault mass before a page is considered.
        copy_cost_ns: virtual time to copy one page across nodes.
    """

    def __init__(
        self,
        pipeline: FaultPipeline,
        n_nodes: int,
        node_of_pu,
        *,
        dominance: float = 0.7,
        decay: float = 0.5,
        min_faults: float = 3.0,
        copy_cost_ns: float = 3000.0,
        scan_period_ns: int = 100 * MSEC,
    ) -> None:
        if not 0.5 < dominance <= 1.0:
            raise ConfigurationError("dominance must be in (0.5, 1]")
        if not 0.0 <= decay <= 1.0:
            raise ConfigurationError("decay must be in [0, 1]")
        self.pipeline = pipeline
        self.n_nodes = n_nodes
        self.node_of_pu = node_of_pu
        self.dominance = dominance
        self.decay = decay
        self.min_faults = min_faults
        self.copy_cost_ns = copy_cost_ns
        self.scan_period_ns = scan_period_ns
        #: vpn -> per-node recent fault mass
        self._node_faults: dict[int, np.ndarray] = {}
        self._touched: set[int] = set()
        self.stats = DataMapperStats()
        pipeline.add_batch_hook(self.on_fault_batch)

    # -- fault hook ---------------------------------------------------------
    def on_fault_batch(self, batch: FaultBatch) -> None:
        """Record which node faulted on each page (free: rides SPCD's hook)."""
        node = self.node_of_pu(batch.pu_id)
        for vpn in batch.vpns.tolist():
            counts = self._node_faults.get(vpn)
            if counts is None:
                counts = np.zeros(self.n_nodes)
                self._node_faults[vpn] = counts
            counts[node] += 1.0
            self._touched.add(vpn)

    # -- periodic scan ---------------------------------------------------------
    def scan(self, now_ns: int) -> int:
        """Migrate pages dominated by a remote node; returns pages moved.

        The legacy timer-driven entry point: decide, apply, then age the
        counters — kept as the composition of the three phases so the
        placement engine can drive them separately (decide inside a
        :class:`~repro.placement.decision.PlacementDecision`, apply in
        ``SpcdManager.apply_decision``).
        """
        self.stats.scans += 1
        moves, _ = self.decide()
        moved = self.apply_moves(moves)
        self.finish_scan()
        return moved

    def decide(self, *, defer_shared: bool = False) -> "tuple[list[tuple[int, int]], int]":
        """Pick pages to migrate; returns ``(moves, shared_deferred)``.

        Pure decision — no page-table mutation.  Each move is
        ``(vpn, target_node)``.  Pages whose fault mass no node dominates
        are *communication* pages: with ``defer_shared`` (combined
        placement policies) they are counted as deferred to the thread
        mapper; otherwise they are recorded as vetoed, the data-only
        semantics.
        """
        table = self.pipeline.address_space.page_table
        moves: "list[tuple[int, int]]" = []
        deferred = 0
        for vpn in list(self._touched):
            counts = self._node_faults[vpn]
            total = counts.sum()
            if total < self.min_faults or not table.is_populated(vpn):
                continue
            best = int(np.argmax(counts))
            share = counts[best] / total
            home = table.home_node_of(vpn)
            if best == home:
                continue
            if share < self.dominance:
                if defer_shared:
                    deferred += 1
                else:
                    self.stats.migrations_vetoed_shared += 1
                continue
            moves.append((vpn, best))
        return moves, deferred

    def apply_moves(self, moves: "list[tuple[int, int]]") -> int:
        """Migrate the decided pages; returns pages actually moved.

        A move migrates the frame (allocate on the dominant node, remap,
        free the old frame), preserves a cleared present bit, charges the
        copy cost, and — crucially — shoots the migrated VPNs out of every
        TLB: stale cached translations would otherwise keep resolving to
        the freed frame.
        """
        table = self.pipeline.address_space.page_table
        frames = self.pipeline.frames
        moved_vpns: "list[int]" = []
        for vpn, best in moves:
            old_frame = table.frame_of(vpn)
            new_frame = frames.allocate(best)
            if frames.node_of_frame(new_frame) != best:
                frames.free(new_frame)  # target node full: keep the page
                continue
            was_present = table.is_present(vpn)
            table.unmap_page(vpn)
            table.map_page(vpn, new_frame, best)
            if not was_present:
                table.clear_present(vpn)
            frames.free(old_frame)
            self.stats.pages_migrated += 1
            self.stats.copy_time_ns += self.copy_cost_ns
            moved_vpns.append(vpn)
        if moved_vpns and self.pipeline.tlbs is not None:
            self.pipeline.tlbs.shootdown(np.asarray(moved_vpns, dtype=np.int64))
        return len(moved_vpns)

    def finish_scan(self) -> None:
        """Age the per-node counters and reset the touched set."""
        if self.decay < 1.0:
            for counts in self._node_faults.values():
                counts *= self.decay
        self._touched.clear()

    def node_affinity(self, vpn: int) -> np.ndarray | None:
        """The recent per-node fault mass of a page (None if never seen)."""
        counts = self._node_faults.get(vpn)
        return None if counts is None else counts.copy()

    def detach(self) -> None:
        """Unregister from the fault pipeline."""
        self.pipeline.remove_batch_hook(self.on_fault_batch)
