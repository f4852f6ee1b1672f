"""TLB-shootdown × fault-injection interleaving enumeration.

SPCD's correctness hinges on one hardware-ish invariant (paper Sec.
III-A): when the injector clears a page's present bit, the shootdown must
remove every PU's cached translation *in the same step* — otherwise a PU
keeps translating through its TLB, no fault fires, and the detector goes
blind to that sharer.  Hypothesis shrinks poorly over thread schedules,
so this module brute-forces them: every op sequence over a tiny model
(2 threads × 4 pages by default) is executed against the **real**
``mem/`` stack — :class:`~repro.mem.tlb.TlbArray`,
:class:`~repro.mem.fault.FaultPipeline`, the real page table — and the
coherence invariant is checked after every single op:

    every TLB entry (vpn → frame) on every PU must match a page the
    page table currently marks present, with the same frame.

The op alphabet deliberately includes ``inject_noshoot`` — the injector
*without* its shootdown half — as a negative control: the enumerator must
find a counterexample for it (the tests assert it does), which proves the
invariant check has teeth before we trust its silence on the real
``clear_present + shootdown`` sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray

__all__ = [
    "Counterexample",
    "check_tlb_fault_interleavings",
    "interleavings",
    "op_sequences",
]

#: one op: ("access", thread, page) | ("inject", page) | ("inject_noshoot", page)
Op = tuple


@dataclass(frozen=True)
class Counterexample:
    """A minimised op sequence that violated the checked invariant."""

    ops: "tuple[Op, ...]"
    failed_at: int  # index of the op after which the invariant broke
    reason: str
    state: "dict[str, object]" = field(default_factory=dict, compare=False)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        trace = " ; ".join(":".join(str(p) for p in op) for op in self.ops)
        return f"[{trace}] step {self.failed_at}: {self.reason}"


def interleavings(*seqs: Sequence) -> "Iterator[tuple]":
    """All order-preserving merges of *seqs* (the thread-schedule space)."""
    seqs = tuple(tuple(s) for s in seqs if len(s))
    if not seqs:
        yield ()
        return
    for i, seq in enumerate(seqs):
        rest = seqs[:i] + ((seq[1:],) if len(seq) > 1 else ()) + seqs[i + 1 :]
        for tail in interleavings(*rest):
            yield (seq[0],) + tail


def op_sequences(alphabet: "Iterable[Op]", length: int) -> "Iterator[tuple[Op, ...]]":
    """Every op sequence of exactly *length* drawn from *alphabet*."""
    return itertools.product(tuple(alphabet), repeat=length)


def tlb_fault_alphabet(
    n_threads: int = 2, n_pages: int = 4, *, with_noshoot: bool = False
) -> "list[Op]":
    """The op alphabet of the small model (optionally with the bug op)."""
    ops: "list[Op]" = [
        ("access", tid, page) for tid in range(n_threads) for page in range(n_pages)
    ]
    ops += [("inject", page) for page in range(n_pages)]
    if with_noshoot:
        ops += [("inject_noshoot", page) for page in range(n_pages)]
    return ops


class _SmallModel:
    """One fresh 2-thread × n-page instance of the real mem/ stack."""

    def __init__(self, n_threads: int, n_pages: int, tlb_capacity: int) -> None:
        self.space = AddressSpace(capacity_pages=n_pages + 8)
        self.region = self.space.mmap("model", n_pages * 4096)
        self.vpns = [int(v) for v in self.region.vpns()]
        self.frames = FrameAllocator(n_nodes=1, frames_per_node=n_pages + 8)
        self.tlbs = TlbArray(n_pus=n_threads, capacity=tlb_capacity)
        self.pipeline = FaultPipeline(
            self.space, self.frames, self.tlbs, node_of_pu=lambda pu: 0
        )
        self.clock = 0

    def apply(self, op: Op) -> None:
        table = self.space.page_table
        self.clock += 1
        if op[0] == "access":
            _, tid, page = op
            vpn = self.vpns[page]
            frame = self.tlbs[tid].lookup(vpn)
            if frame is not None:
                # TLB hit: hardware translates without consulting the table.
                # The invariant check below catches a stale hit; nothing to do.
                return
            if table.is_present(vpn):
                # soft miss: refill from the page table, no fault
                self.tlbs[tid].insert(vpn, table.frame_of(vpn))
                return
            self.pipeline.handle_fault_batch(
                tid,
                tid,
                np.array([vpn * 4096], dtype=np.int64),
                np.zeros(1, dtype=bool),
                now_ns=self.clock,
            )
        elif op[0] in ("inject", "inject_noshoot"):
            vpn = self.vpns[op[1]]
            if not (table.is_populated(vpn) and table.is_present(vpn)):
                return  # the real injector only picks populated present pages
            cleared = np.array([vpn], dtype=np.int64)
            table.clear_present(cleared)
            if op[0] == "inject":
                self.tlbs.shootdown(cleared)
        else:  # pragma: no cover - enumerator misuse
            raise ValueError(f"unknown op {op!r}")

    def violation(self) -> "str | None":
        """The invariant: no TLB may cache a non-present or remapped page."""
        table = self.space.page_table
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


def _minimise(
    ops: "tuple[Op, ...]", run: "callable"
) -> "tuple[tuple[Op, ...], int, str]":
    """Greedy delta-debugging: drop ops while the sequence still fails."""
    current = ops
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if candidate and run(candidate) is not None:
                current = candidate
                shrunk = True
                break
    failed_at, reason = run(current)
    return current, failed_at, reason


def check_tlb_fault_interleavings(
    *,
    n_threads: int = 2,
    n_pages: int = 4,
    max_len: int = 4,
    tlb_capacity: int = 2,
    with_noshoot: bool = False,
    max_counterexamples: int = 1,
) -> "list[Counterexample]":
    """Exhaustively run every op sequence up to *max_len*; return violations.

    A fresh real ``mem/`` stack is built per sequence and the TLB/page-table
    coherence invariant is asserted after every op.  An empty list is the
    pass verdict.  Counterexamples are greedily minimised before being
    returned; enumeration stops after *max_counterexamples* (the alphabet
    makes failures highly redundant — one witness per bug suffices).
    """
    alphabet = tlb_fault_alphabet(n_threads, n_pages, with_noshoot=with_noshoot)

    def run(ops: "tuple[Op, ...]") -> "tuple[int, str] | None":
        model = _SmallModel(n_threads, n_pages, tlb_capacity)
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
