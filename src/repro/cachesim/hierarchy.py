"""Coherent cache hierarchy: private L1/L2 per core, inclusive L3 per socket.

The L1/L2 are private to a physical **core** and shared by its SMT siblings —
this is exactly the paper's communication case (a): threads mapped to the two
hardware threads of one core communicate through the fast L1/L2.  A global
directory tracks, per line, the bitmask of cores holding it in their private
caches and the core owning it dirty (MESI ``M``).  The protocol follows
SandyBridge-EP semantics closely enough for the paper's metrics:

* inclusive L3 — a line cached privately on a socket is in that socket's L3;
  L3 evictions back-invalidate private copies;
* writes invalidate every other copy (private and remote-L3); writes to a
  line nobody else holds upgrade silently (``E`` -> ``M``);
* reads hitting dirty data in another private cache trigger a
  **cache-to-cache transaction** — intra-socket if the owner shares the L3,
  inter-socket (off-chip) otherwise;
* demand misses that no cache can serve go to DRAM, counted local/remote
  relative to the accessing PU's NUMA node.

Invariants (checked by :meth:`CoherentHierarchy.check_invariants`):

1. L1[c] is a subset of L2[c];
2. ``c in sharers[l]``  iff  ``l in L2[c]``;
3. a privately cached line is present in its socket's L3 (inclusion);
4. a dirty-owned line has exactly one private sharer and lives in no other
   socket's L3.

There is one engine: every access, single or batched, runs through the
per-access protocol (:meth:`CoherentHierarchy._read` /
:meth:`CoherentHierarchy._write`) over ``OrderedDict``-backed caches.
"""

from __future__ import annotations

from repro.cachesim.cache import SetAssocCache
from repro.cachesim.line import iter_set_bits
from repro.cachesim.stats import CacheStats
from repro.machine.topology import Machine

NO_OWNER = -1


def _aslist(values) -> list:
    """Fast conversion of numpy arrays (or sequences) to Python lists."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


class CoherentHierarchy:
    """MESI-coherent L1/L2/L3 hierarchy for one :class:`Machine`.

    Public entry points take **PU** ids (what the scheduler places threads
    on); internally coherence operates on the owning core.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        n_cores = machine.n_cores
        self.l1 = [SetAssocCache(machine.l1_params, f"L1.c{c}") for c in range(n_cores)]
        self.l2 = [SetAssocCache(machine.l2_params, f"L2.c{c}") for c in range(n_cores)]
        self.l3 = [
            SetAssocCache(machine.l3_params, f"L3.s{s}") for s in range(machine.n_sockets)
        ]
        #: line -> bitmask of cores holding it in L1 or L2
        self._sharers: dict[int, int] = {}
        #: line -> core owning it dirty (MESI M); absent if clean everywhere
        self._dirty_owner: dict[int, int] = {}
        self._core_of_pu = [machine.core_of(p) for p in range(machine.n_pus)]
        self._socket_of_core = [
            machine.socket_of(machine.pus_of_core(c)[0]) for c in range(n_cores)
        ]
        #: cores grouped per socket, as bitmasks, for fast same-socket tests
        self._socket_mask = [0] * machine.n_sockets
        for c in range(n_cores):
            self._socket_mask[self._socket_of_core[c]] |= 1 << c
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # internal helpers (all in core ids)
    # ------------------------------------------------------------------
    def _evict_from_l2(self, core: int, line: int) -> None:
        """Handle an L2 victim: drop from L1, update directory, write back."""
        self.l1[core].remove(line)
        mask = self._sharers.get(line, 0) & ~(1 << core)
        if mask:
            self._sharers[line] = mask
        else:
            self._sharers.pop(line, None)
        if self._dirty_owner.get(line, NO_OWNER) == core:
            # Dirty data retreats into the (inclusive) local L3.
            del self._dirty_owner[line]
            self.l3[self._socket_of_core[core]].mark_dirty(line)

    def _evict_from_l3(self, socket: int, line: int, dirty: bool) -> None:
        """Handle an inclusive-L3 victim: back-invalidate the socket's cores."""
        mask = self._sharers.get(line, 0) & self._socket_mask[socket]
        owner = self._dirty_owner.get(line, NO_OWNER)
        for c in iter_set_bits(mask):
            self.l1[c].remove(line)
            self.l2[c].remove(line)
            self.stats.back_invalidations += 1
        rest = self._sharers.get(line, 0) & ~self._socket_mask[socket]
        if rest:
            self._sharers[line] = rest
        else:
            self._sharers.pop(line, None)
        if owner != NO_OWNER and self._socket_of_core[owner] == socket:
            del self._dirty_owner[line]
            dirty = True
        if dirty:
            self.stats.dram_writebacks += 1

    def _install_private(self, core: int, line: int) -> None:
        """Put *line* into L2 and L1 of *core*, handling victims."""
        victim = self.l2[core].insert(line)
        if victim is not None:
            self._evict_from_l2(core, victim[0])
        self.l1[core].insert(line)
        # L1 victims need no action: inclusion keeps their data in L2 and
        # dirtiness is tracked by the directory, not the L1 copy.

    def _install_l3(self, socket: int, line: int, dirty: bool = False) -> None:
        """Put *line* into a socket's L3, handling the inclusive victim."""
        victim = self.l3[socket].insert(line, dirty)
        if victim is not None:
            self._evict_from_l3(socket, victim[0], victim[1])

    # ------------------------------------------------------------------
    # public access API (PU ids)
    # ------------------------------------------------------------------
    def access(self, pu: int, line: int, is_write: bool, home_node: int) -> None:
        """Simulate one memory access by *pu* to *line* homed at *home_node*."""
        core = self._core_of_pu[pu]
        if is_write:
            self._write(core, line, home_node)
        else:
            self._read(core, line, home_node)

    def access_batch(self, pus, lines, writes, home_nodes) -> None:
        """Simulate a sequence of accesses given as parallel arrays."""
        access = self.access
        for pu, line, w, h in zip(
            _aslist(pus), _aslist(lines), _aslist(writes), _aslist(home_nodes)
        ):
            access(pu, line, w, h)

    def access_batch_pu(self, pu: int, lines, writes, home_nodes) -> None:
        """Batch variant for one PU (the engine's per-thread hot path)."""
        core = self._core_of_pu[pu]
        read = self._read
        write = self._write
        for line, w, h in zip(_aslist(lines), _aslist(writes), _aslist(home_nodes)):
            if w:
                write(core, line, h)
            else:
                read(core, line, h)

    # ------------------------------------------------------------------
    # protocol (core ids)
    # ------------------------------------------------------------------
    def _read(self, core: int, line: int, home_node: int) -> None:
        stats = self.stats
        if self.l1[core].lookup(line):
            stats.l1_hits += 1
            return
        stats.l1_misses += 1
        if self.l2[core].lookup(line):
            stats.l2_hits += 1
            # The L1 dirty bit mirrors the directory: "this core owns the
            # line in M".
            self.l1[core].insert(line, self._dirty_owner.get(line, NO_OWNER) == core)
            return
        stats.l2_misses += 1

        socket = self._socket_of_core[core]
        owner = self._dirty_owner.get(line, NO_OWNER)
        if self.l3[socket].lookup(line):
            stats.l3_hits += 1
            if owner != NO_OWNER and owner != core:
                # Dirty in a same-socket private cache (inclusion guarantees
                # the owner is on this socket if our L3 holds the line).
                stats.c2c_intra += 1
                del self._dirty_owner[line]
                self.l1[owner].clear_dirty(line)
                self.l3[socket].mark_dirty(line)
        else:
            stats.l3_misses += 1
            if owner != NO_OWNER:
                # Dirty on the other socket: off-chip cache-to-cache.
                stats.c2c_inter += 1
                del self._dirty_owner[line]
                self.l1[owner].clear_dirty(line)
                owner_socket = self._socket_of_core[owner]
                self.l3[owner_socket].mark_dirty(line)
                self._install_l3(socket, line)
            else:
                served = False
                for s in range(self.machine.n_sockets):
                    if s != socket and self.l3[s].contains(line):
                        stats.c2c_inter += 1
                        self._install_l3(socket, line)
                        served = True
                        break
                if not served:
                    if home_node == socket:
                        stats.dram_reads_local += 1
                    else:
                        stats.dram_reads_remote += 1
                    self._install_l3(socket, line)
        self._install_private(core, line)
        self._sharers[line] = self._sharers.get(line, 0) | (1 << core)

    def _write(self, core: int, line: int, home_node: int) -> None:
        stats = self.stats
        owner = self._dirty_owner.get(line, NO_OWNER)

        if self.l1[core].lookup(line):
            stats.l1_hits += 1
            if owner == core:
                return
            self._acquire_ownership(core, line)
            return
        stats.l1_misses += 1
        if self.l2[core].lookup(line):
            stats.l2_hits += 1
            self.l1[core].insert(line)
            if owner != core:
                self._acquire_ownership(core, line)
            else:
                self.l1[core].mark_dirty(line)
            return
        stats.l2_misses += 1

        # RFO: fetch with intent to modify.
        socket = self._socket_of_core[core]
        if self.l3[socket].lookup(line):
            stats.l3_hits += 1
            if owner != NO_OWNER and owner != core:
                stats.c2c_intra += 1
                self._drop_owner_copies(owner, line)
        else:
            stats.l3_misses += 1
            if owner != NO_OWNER and owner != core:
                stats.c2c_inter += 1
                self._drop_owner_copies(owner, line)
                self._install_l3(socket, line)
            else:
                served = False
                for s in range(self.machine.n_sockets):
                    if s != socket and self.l3[s].contains(line):
                        stats.c2c_inter += 1
                        served = True
                        break
                if not served:
                    if home_node == socket:
                        stats.dram_reads_local += 1
                    else:
                        stats.dram_reads_remote += 1
                self._install_l3(socket, line)
        self._invalidate_other_copies(core, line)
        self._install_private(core, line)
        self.l1[core].mark_dirty(line)
        self._sharers[line] = 1 << core
        self._dirty_owner[line] = core
        self.l3[socket].mark_dirty(line)

    def _acquire_ownership(self, core: int, line: int) -> None:
        """Upgrade a resident clean/shared copy to M (hit path of a write)."""
        stats = self.stats
        others = self._sharers.get(line, 0) & ~(1 << core)
        remote_l3 = any(
            s != self._socket_of_core[core] and self.l3[s].contains(line)
            for s in range(self.machine.n_sockets)
        )
        if others == 0 and not remote_l3:
            stats.silent_upgrades += 1
        else:
            self._invalidate_other_copies(core, line)
        self.l1[core].mark_dirty(line)
        self._sharers[line] = 1 << core
        self._dirty_owner[line] = core
        self.l3[self._socket_of_core[core]].mark_dirty(line)

    def _drop_owner_copies(self, owner: int, line: int) -> None:
        """Remove the dirty owner's private copies (its data moved away)."""
        self.l1[owner].remove(line)
        self.l2[owner].remove(line)
        mask = self._sharers.get(line, 0) & ~(1 << owner)
        if mask:
            self._sharers[line] = mask
        else:
            self._sharers.pop(line, None)
        del self._dirty_owner[line]
        self.stats.invalidations += 1

    def _invalidate_other_copies(self, core: int, line: int) -> None:
        """Invalidate all other private copies and remote L3 copies."""
        stats = self.stats
        mask = self._sharers.get(line, 0) & ~(1 << core)
        for c in iter_set_bits(mask):
            self.l1[c].remove(line)
            self.l2[c].remove(line)
            stats.invalidations += 1
        remaining = self._sharers.get(line, 0) & ~mask
        if remaining:
            self._sharers[line] = remaining
        else:
            self._sharers.pop(line, None)
        my_socket = self._socket_of_core[core]
        for s in range(self.machine.n_sockets):
            if s == my_socket:
                continue
            if self.l3[s].contains(line):
                dirty = self.l3[s].remove(line)
                stats.invalidations += 1
                if dirty:
                    stats.dram_writebacks += 1

    # ------------------------------------------------------------------
    # inspection / verification
    # ------------------------------------------------------------------
    def sharer_mask(self, line: int) -> int:
        """Current private-cache sharer bitmask of *line* (core bits)."""
        return self._sharers.get(line, 0)

    def dirty_owner(self, line: int) -> int:
        """Core owning *line* dirty, or -1."""
        return self._dirty_owner.get(line, NO_OWNER)

    def check_invariants(self) -> list[str]:
        """Return a list of invariant violations (empty when consistent)."""
        problems: list[str] = []
        n_cores = self.machine.n_cores
        presence = [set(self.l2[c].resident_lines()) for c in range(n_cores)]
        l1_presence = [set(self.l1[c].resident_lines()) for c in range(n_cores)]
        l3_presence = [set(cache.resident_lines()) for cache in self.l3]
        for c in range(n_cores):
            extra = l1_presence[c] - presence[c]
            if extra:
                problems.append(f"L1 of core{c} not subset of L2: {sorted(extra)[:4]}")
            s = self._socket_of_core[c]
            not_incl = presence[c] - l3_presence[s]
            if not_incl:
                problems.append(f"L2 of core{c} not in L3 s{s}: {sorted(not_incl)[:4]}")
        # directory vs presence
        for line in set(self._sharers):
            mask = self._sharers[line]
            actual = 0
            for c in range(n_cores):
                if line in presence[c]:
                    actual |= 1 << c
            if actual != mask:
                problems.append(
                    f"sharer mask mismatch line {line}: dir={mask:x} act={actual:x}"
                )
        for c in range(n_cores):
            for line in presence[c]:
                if not self._sharers.get(line, 0) & (1 << c):
                    problems.append(f"line {line} in L2 of core{c} but not in directory")
        for line, owner in self._dirty_owner.items():
            mask = self._sharers.get(line, 0)
            if mask != (1 << owner):
                problems.append(f"dirty line {line} owner {owner} has sharers {mask:x}")
            owner_socket = self._socket_of_core[owner]
            for s, pres in enumerate(l3_presence):
                if s != owner_socket and line in pres:
                    problems.append(f"dirty line {line} also present in L3 s{s}")
        return problems
