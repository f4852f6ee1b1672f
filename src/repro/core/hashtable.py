"""The SPCD sharing table (paper Sec. III-B1, Figure 4).

A fixed-size hash table keyed by memory-region id (the faulting address
divided by the detection granularity).  Each entry stores the region id, the
set of threads that faulted on it and the time stamp of each thread's last
access.  As in the paper:

* the size is fixed at construction (default 256,000 elements);
* the hash function is Linux's ``hash_64`` (golden-ratio multiplication);
* on a collision the previous entry is **overwritten** — the paper accepts
  this accuracy loss to keep the fault-path cost constant.

Two implementations share this contract:

* :class:`ShareTable` — dict-of-entries; one Python dict per slot's sharer
  timestamps.  The differential-testing reference engine
  (``REPRO_SLOW_SPCD=1``).
* :class:`ArrayShareTable` — NumPy slot arrays (a region-id vector plus a
  ``(size, n_threads)`` last-access timestamp matrix) with a vectorised
  batch touch path that reads and writes each slot once per batch, however
  often the batch repeats it; its ``collisions``/``lookups``/``inserts``
  counters are bit-identical to the reference under the same fault stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Linux's GOLDEN_RATIO_64 (include/linux/hash.h since v4.7; v3.2 used the
#: equivalent GOLDEN_RATIO_PRIME_64 multiply — same construction).
GOLDEN_RATIO_64 = 0x61C8864680B583EB
_MASK64 = (1 << 64) - 1

#: Table size used in the paper's evaluation (covers 1 GiB at 4 KiB pages).
DEFAULT_TABLE_SIZE = 256_000


def hash_64(value: int, bits: int = 64) -> int:
    """Linux kernel ``hash_64``: multiply by the golden ratio, keep top bits."""
    if not 0 < bits <= 64:
        raise ConfigurationError("bits must be in (0, 64]")
    return ((value * GOLDEN_RATIO_64) & _MASK64) >> (64 - bits)


def hash_64_batch(values: np.ndarray, bits: int = 64) -> np.ndarray:
    """Vectorised :func:`hash_64` over a non-negative int vector (uint64 out)."""
    if not 0 < bits <= 64:
        raise ConfigurationError("bits must be in (0, 64]")
    hashed = np.asarray(values).astype(np.uint64) * np.uint64(GOLDEN_RATIO_64)  # mod 2^64
    return hashed >> np.uint64(64 - bits)


@dataclass
class ShareEntry:
    """One sharing record: a region, its sharers and their last-access times."""

    region: int
    #: thread id -> virtual time (ns) of that thread's last fault here
    last_access: dict[int, int] = field(default_factory=dict)

    @property
    def sharers(self) -> list[int]:
        """Thread ids that have faulted on this region."""
        return list(self.last_access)

    @property
    def is_shared(self) -> bool:
        """A region becomes *shared* once two threads have touched it."""
        return len(self.last_access) >= 2

    def touch(self, tid: int, now_ns: int) -> None:
        """Record a fault by *tid* at *now_ns*."""
        self.last_access[tid] = now_ns


class ShareTable:
    """Fixed-size, overwrite-on-collision hash table of :class:`ShareEntry`.

    Attributes:
        size: number of slots (paper: 256,000 — ~18 MiB in the kernel).
        collisions: number of times an entry was overwritten by a different
            region hashing to the same slot.
    """

    def __init__(self, size: int = DEFAULT_TABLE_SIZE) -> None:
        if size <= 0:
            raise ConfigurationError("table size must be positive")
        self.size = size
        self._slots: dict[int, ShareEntry] = {}
        self.collisions = 0
        self.lookups = 0
        self.inserts = 0

    def _slot_of(self, region: int) -> int:
        return hash_64(region) % self.size

    def lookup(self, region: int) -> ShareEntry | None:
        """The entry for *region*, or ``None`` if absent / overwritten."""
        self.lookups += 1
        entry = self._slots.get(self._slot_of(region))
        if entry is not None and entry.region == region:
            return entry
        return None

    def get_or_create(self, region: int) -> ShareEntry:
        """The entry for *region*, creating (and possibly evicting) one."""
        slot = self._slot_of(region)
        entry = self._slots.get(slot)
        if entry is not None and entry.region == region:
            return entry
        if entry is not None:
            self.collisions += 1
        entry = ShareEntry(region=region)
        self._slots[slot] = entry
        self.inserts += 1
        return entry

    def clear(self) -> None:
        """Drop every entry (e.g. when the application exits)."""
        self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)

    def occupancy(self) -> float:
        """Fraction of slots in use."""
        return len(self._slots) / self.size

    def shared_region_count(self) -> int:
        """Number of currently tracked regions with >= 2 sharers."""
        return sum(1 for e in self._slots.values() if e.is_shared)

    def entries(self) -> list[ShareEntry]:
        """All live entries (inspection/testing)."""
        return list(self._slots.values())


#: sentinel region id for an empty ArrayShareTable slot (region ids are >= 0)
_EMPTY_REGION = -1

#: batches at or below this size take the scalar replay path: at steady
#: state a thread batch produces only a handful of faults, where the fixed
#: cost of the vectorised pass (hash, np.unique, fancy indexing) exceeds a
#: direct per-fault replay.  Purely a performance threshold — both paths are
#: bit-identical, so the cutover never changes results.
_SCALAR_TOUCH_MAX = 12


class ArrayShareTable:
    """Array-backed, overwrite-on-collision sharing table (the fast engine).

    State is two NumPy arrays: a per-slot region id (``-1`` = empty) and a
    ``(size, n_threads)`` last-access matrix storing ``timestamp + 1`` with
    ``0`` as the "never touched" sentinel — the bias keeps the matrix a
    plain ``np.zeros`` allocation, so untouched slots of a paper-sized
    256k-entry table never cost physical memory.

    :meth:`touch_batch` replays a whole fault batch: slots are computed with
    a vectorised ``hash_64`` and the batch is grouped by slot.  A slot
    whose members all carry one region is touched once with its repeat
    count — a matching entry emits its in-window partners once per repeat,
    a fresh or overwritten one counts a single insert.  Only the rare slots
    where two distinct regions of the batch land are replayed scalarly in
    fault order.  So ``collisions`` and ``inserts`` match the dict engine
    exactly, and the returned communication events are, per batch, the
    multiset of the reference engine's per-event matrix updates.  Region
    ids must be non-negative: ``-1`` marks an empty slot.
    """

    def __init__(self, size: int = DEFAULT_TABLE_SIZE, n_threads: int = 1) -> None:
        if size <= 0:
            raise ConfigurationError("table size must be positive")
        if n_threads <= 0:
            raise ConfigurationError("need at least one thread")
        self.size = size
        self.n_threads = n_threads
        self._region = np.full(size, _EMPTY_REGION, dtype=np.int64)
        #: biased timestamps: value v != 0 means last access at time v - 1
        self._last = np.zeros((size, n_threads), dtype=np.int64)
        self.collisions = 0
        self.lookups = 0
        self.inserts = 0

    # -- hashing ------------------------------------------------------------
    def slots_of(self, regions: np.ndarray) -> np.ndarray:
        """Vectorised slot computation (``hash_64(region) % size``)."""
        return (hash_64_batch(regions) % np.uint64(self.size)).astype(np.int64)

    def _slot_of(self, region: int) -> int:
        # hash_64(region) inlined (bits=64): called once per fault.
        return ((region * GOLDEN_RATIO_64) & _MASK64) % self.size

    # -- batch touch (the fault path) -----------------------------------------
    def touch_batch(
        self, regions: np.ndarray, tid: int, now_ns: int, window_ns: int
    ) -> tuple[np.ndarray, int]:
        """Record a fault batch by *tid* at *now_ns*; returns the comm events.

        Returns ``(partners, windowed_out)``: one entry in *partners* per
        communication event (the other thread's id, possibly repeated —
        exactly the events the reference engine would emit one
        ``matrix.add`` at a time), and the count of sharer timestamps that
        fell outside the temporal window.
        """
        regions = np.asarray(regions, dtype=np.int64)
        m = int(regions.size)
        if m == 0:
            return np.empty(0, dtype=np.int64), 0
        if m <= _SCALAR_TOUCH_MAX:
            found: list[int] = []
            windowed_out = 0
            for region in regions.tolist():
                js, wout = self.touch(region, tid, now_ns, window_ns)
                found.extend(js)
                windowed_out += wout
            return np.asarray(found, dtype=np.int64), windowed_out
        # Repeats of one region on a slot fold into one grouped touch;
        # members of distinct regions sharing a slot replay in fault order.
        slots = self.slots_of(regions)
        uniq, first, inverse, counts = np.unique(
            slots, return_index=True, return_inverse=True, return_counts=True
        )
        # A slot is mixed when its batch members carry two or more regions.
        clash = regions != regions[first][inverse]
        if not clash.any():
            return self._touch_distinct(uniq, regions[first], counts, tid, now_ns, window_ns)
        mixed = np.zeros(uniq.size, dtype=bool)
        mixed[inverse[clash]] = True
        pure = ~mixed
        partners, windowed_out = self._touch_distinct(
            uniq[pure], regions[first[pure]], counts[pure], tid, now_ns, window_ns
        )
        events = [partners]
        # Members of a mixed slot overwrite each other; replay them in fault order.
        for k in np.flatnonzero(mixed[inverse]).tolist():
            js, wout = self._touch_one(int(slots[k]), int(regions[k]), tid, now_ns, window_ns)
            events.append(np.asarray(js, dtype=np.int64))
            windowed_out += wout
        return np.concatenate(events), windowed_out

    def _touch_distinct(
        self,
        slots: np.ndarray,
        regions: np.ndarray,
        counts: np.ndarray,
        tid: int,
        now_ns: int,
        window_ns: int,
    ) -> tuple[np.ndarray, int]:
        """Touch distinct slots, each hit ``counts`` times by one region.

        A matching entry emits its in-window partners once per repeat: the
        repeats see the same stamps of the other threads, since only
        *tid*'s own stamp changes.  A fresh or overwritten entry counts one
        insert (and at most one collision); its repeats emit nothing, since
        the row then holds *tid*'s stamp alone.
        """
        current = self._region[slots]
        match = current == regions
        self.collisions += int(np.count_nonzero((current != _EMPTY_REGION) & ~match))
        partners = np.empty(0, dtype=np.int64)
        windowed_out = 0
        if match.any():
            rows = self._last[slots[match]]
            valid = rows != 0
            valid[:, tid] = False
            # biased stamp v: now - (v - 1) <= window  <=>  v > now - window
            in_window = valid & (rows > now_ns - window_ns)
            repeats = counts[match]
            hit_rows, hit_tids = np.divmod(np.flatnonzero(in_window), self.n_threads)
            partners = np.repeat(hit_tids, repeats[hit_rows])
            windowed_out = int(np.count_nonzero(valid, axis=1) @ repeats) - int(partners.size)
        fresh = ~match
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            fresh_slots = slots[fresh]
            self._region[fresh_slots] = regions[fresh]
            self._last[fresh_slots] = 0
            self.inserts += n_fresh
        self._last[slots, tid] = now_ns + 1
        return partners, windowed_out

    def touch(
        self, region: int, tid: int, now_ns: int, window_ns: int
    ) -> tuple[list[int], int]:
        """Record one fault by *tid* on *region*; returns its comm events.

        The scalar entry point (reference ``get_or_create`` + window-scan
        semantics); the detector's small-batch path calls it per fault.
        """
        return self._touch_one(self._slot_of(region), region, tid, now_ns, window_ns)

    def _touch_one(
        self, slot: int, region: int, tid: int, now_ns: int, window_ns: int
    ) -> tuple[list[int], int]:
        """Scalar replay of one fault (reference ``get_or_create`` semantics)."""
        biased = now_ns + 1
        if self._region[slot] != region:
            if self._region[slot] != _EMPTY_REGION:
                self.collisions += 1
            self._region[slot] = region
            self._last[slot] = 0
            self.inserts += 1
            self._last[slot, tid] = biased
            return [], 0
        partners: list[int] = []
        windowed_out = 0
        for j, stamp in enumerate(self._last[slot].tolist()):
            if stamp == 0 or j == tid:
                continue
            if biased - stamp <= window_ns:
                partners.append(j)
            else:
                windowed_out += 1
        self._last[slot, tid] = biased
        return partners, windowed_out

    # -- dict-engine-compatible inspection API --------------------------------
    def lookup(self, region: int) -> ShareEntry | None:
        """Snapshot of the entry for *region*, or ``None`` (absent/overwritten).

        Unlike the dict engine this returns a materialised copy, not a live
        entry — mutate the table through :meth:`touch_batch`.
        """
        self.lookups += 1
        slot = self._slot_of(region)
        if self._region[slot] != region:
            return None
        return self._entry_at(slot)

    def _entry_at(self, slot: int) -> ShareEntry:
        row = self._last[slot]
        touched = np.flatnonzero(row)
        return ShareEntry(
            region=int(self._region[slot]),
            last_access={int(t): int(row[t]) - 1 for t in touched},
        )

    def clear(self) -> None:
        """Drop every entry (e.g. when the application exits)."""
        self._region[:] = _EMPTY_REGION
        self._last[:] = 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self._region != _EMPTY_REGION))

    def occupancy(self) -> float:
        """Fraction of slots in use."""
        return len(self) / self.size

    def shared_region_count(self) -> int:
        """Number of currently tracked regions with >= 2 sharers."""
        occupied = self._region != _EMPTY_REGION
        if not occupied.any():
            return 0
        return int(np.count_nonzero((self._last[occupied] != 0).sum(axis=1) >= 2))

    def entries(self) -> list[ShareEntry]:
        """All live entries as snapshots (inspection/testing)."""
        return [self._entry_at(int(s)) for s in np.flatnonzero(self._region != _EMPTY_REGION)]
