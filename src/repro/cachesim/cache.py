"""A set-associative cache with true LRU replacement.

Stores only *presence* (plus a dirty flag for L3 write-back accounting);
coherence state lives in the directory (:mod:`repro.cachesim.hierarchy`).
Each set is an ``OrderedDict`` in LRU order (oldest first) whose values are
the dirty flags: a hit moves the line to the end, the victim is the first
entry, and re-insertion refreshes recency and ORs the dirty flag.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.machine.cache_params import CacheParams

__all__ = ["SetAssocCache"]


class SetAssocCache:
    """One cache instance (an L1, L2 or L3).

    Lines are identified by their global line id; the set index is derived
    from its low bits.
    """

    __slots__ = ("name", "num_sets", "ways", "_set_mask", "_sets", "hits", "misses", "evictions")

    def __init__(self, params: CacheParams, name: str | None = None) -> None:
        self.name = name or params.name
        self.num_sets = params.num_sets
        self.ways = params.associativity
        self._set_mask = self.num_sets - 1
        self._sets: list[OrderedDict[int, bool]] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def set_index(self, line: int) -> int:
        """Set holding *line*."""
        return line & self._set_mask

    def lookup(self, line: int) -> bool:
        """Probe for *line*; refreshes LRU on hit.  Counts hit/miss."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check without LRU update or hit/miss accounting."""
        return line in self._sets[line & self._set_mask]

    def insert(self, line: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Install *line*; returns ``(victim_line, victim_dirty)`` if one was
        evicted, else ``None``.  Re-inserting an existing line refreshes LRU
        and ORs the dirty flag."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return None
        victim: tuple[int, bool] | None = None
        if len(s) >= self.ways:
            victim = s.popitem(last=False)
            self.evictions += 1
        s[line] = dirty
        return victim

    def remove(self, line: int) -> bool:
        """Invalidate *line* if present; returns its dirty flag (False if absent)."""
        return self._sets[line & self._set_mask].pop(line, False)

    def mark_dirty(self, line: int) -> None:
        """Set the dirty flag of a resident line (no-op if absent)."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s[line] = True

    def is_dirty(self, line: int) -> bool:
        """Dirty flag of a resident line (False if absent)."""
        return self._sets[line & self._set_mask].get(line, False)

    def clear_dirty(self, line: int) -> None:
        """Clear the dirty flag of a resident line (no-op if absent)."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s[line] = False

    def flush(self) -> int:
        """Drop all contents; returns the number of lines dropped."""
        n = len(self)
        for s in self._sets:
            s.clear()
        return n

    def resident_lines(self) -> list[int]:
        """All resident line ids (test/inspection helper)."""
        out: list[int] = []
        for s in self._sets:
            out.extend(s.keys())
        return out

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def accesses(self) -> int:
        """Total probes."""
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Miss ratio over all probes (0 if never probed)."""
        return self.misses / self.accesses if self.accesses else 0.0
