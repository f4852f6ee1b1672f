"""Core-sharded process-parallel simulator core.

The MESI hierarchy and the workload generators dominate a run's host
wall-clock; both are embarrassingly parallel *if* the partition respects
the protocol's data dependencies.  This module partitions them across
worker processes by **set stripe**: shard ``s`` of ``S`` (a power of two)
owns every cache line with ``line & (S - 1) == s``.  Because the stripe
bits are the low bits of the set index at *every* cache level (``S`` may
not exceed the smallest ``num_sets``), two different stripes never share
a cache set, a directory entry, or an LRU ordering — every MESI
transaction a line can trigger (lookups, refills, invalidations,
cache-to-cache transfers, inclusive-L3 back-invalidations) touches only
lines of the same stripe.  Each worker therefore runs a complete
:class:`~repro.cachesim.hierarchy.CoherentHierarchy` and simply drops
accesses outside its stripe; summing the per-shard counters reproduces
the single-process counters **bit for bit**, for any shard count.

Workers double as workload generators: worker ``w`` owns threads
``t % S == w`` and their rng streams (the same ``RngFactory`` label
derivation as the serial engine, so the streams are identical).  The
per-step protocol, coordinated by :class:`ShardPool` from inside
:meth:`repro.engine.simulator.Simulator.run`:

1. **generate** (parallel) — every worker produces its threads' access
   batches for the step's clock value and ships them to the coordinator;
2. **fault resolution** (serial, coordinator) — page faults resolve in
   the step's thread permutation order against the shared page table,
   frame allocator and SPCD hooks, exactly as in the serial engine;
3. **coherence** (parallel) — the coordinator broadcasts every thread's
   lines/writes/home-nodes plus the permutation, each worker drains its
   stripe in permutation order, and returns per-thread counter deltas;
4. **barrier merge** (coordinator) — shard deltas sum into the exact
   per-batch :class:`CacheStats` the time model needs; the virtual clock
   advances and kernel threads (SPCD injector/evaluator, balancer) fire.

Fault tolerance reuses the supervision idioms of :mod:`repro.engine.pool`
(pipe-EOF crash detection, deadline kills, graceful reaps) adapted to
*stateful* workers: every broadcast is journaled, and a dead worker is
respawned and replayed — the journal deterministically reconstructs its
rng streams, workload cursors and hierarchy state — before the step
continues.  A shard that keeps dying exhausts its attempts and surfaces
as a :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.cachesim.stats import CacheStats
from repro.errors import ConfigurationError, SimulationError
from repro.machine.topology import Machine
from repro.rng import RngFactory
from repro.units import CACHE_LINE_SHIFT
from repro.workloads.base import Workload

__all__ = ["ShardPool", "ShardSpec", "max_shards"]


def max_shards(machine: Machine) -> int:
    """Largest stripe count the machine's cache geometry permits."""
    return min(
        machine.l1_params.num_sets,
        machine.l2_params.num_sets,
        machine.l3_params.num_sets,
    )


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its slice of the simulation."""

    machine: Machine
    workload: Workload
    seed: int
    n_threads: int
    batch_size: int
    shard: int
    n_shards: int


def _shard_worker_main(conn, spec: ShardSpec) -> None:  # pragma: no cover - subprocess
    """Worker loop: generate owned threads' batches, drain the owned stripe.

    Messages arrive as pickled tuples (the coordinator journals the exact
    bytes for crash replay): ``("gen", now_ns)``, ``("mesi", order, pus,
    slices_by_tid)`` where each slice is this stripe's pre-partitioned
    ``(lines, writes, homes)`` in original access order, ``("stats",)``
    and ``("close",)``.  Any exception ships to the coordinator as an
    ``("error", message)`` reply before the worker exits.
    """
    try:
        hierarchy = CoherentHierarchy(spec.machine)
        workload = spec.workload
        rngs = RngFactory(spec.seed)
        owned = list(range(spec.shard, spec.n_threads, spec.n_shards))
        thread_rngs = {t: rngs.rng("workload", t) for t in owned}
        while True:
            msg = pickle.loads(conn.recv_bytes())
            tag = msg[0]
            if tag == "gen":
                now_ns = msg[1]
                out = {}
                for tid in owned:
                    ab = workload.generate(
                        tid, spec.batch_size, now_ns, thread_rngs[tid]
                    )
                    out[tid] = (ab.vaddrs, ab.is_write)
                conn.send(("gen", out))
            elif tag == "mesi":
                _, order, pus, slices_by = msg
                stats = hierarchy.stats
                deltas = []
                zero = None
                for tid in order:
                    sl = slices_by.get(tid)
                    if sl is None:
                        if zero is None:
                            zero = tuple(0 for _ in stats.snapshot())
                        deltas.append(zero)
                        continue
                    lines, writes, homes = sl
                    before = stats.snapshot()
                    hierarchy.access_batch_pu(pus[tid], lines, writes, homes)
                    after = stats.snapshot()
                    deltas.append(tuple(a - b for a, b in zip(after, before)))
                conn.send(("mesi", deltas))
            elif tag == "stats":
                conn.send(("stats", hierarchy.stats))
            elif tag == "close":
                break
            else:  # unknown message: protocol bug, fail loudly
                conn.send(("error", f"unknown message tag {tag!r}"))
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    except BaseException as exc:  # noqa: BLE001 - forwarded to the coordinator
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class _Shard:
    """One live worker: its process, duplex pipe and replay bookkeeping."""

    index: int
    proc: object
    conn: object


class ShardPool:
    """Coordinates ``n_shards`` stripe workers for one simulation run.

    The pool is deterministic state, not policy: the
    :class:`~repro.engine.simulator.Simulator` drives the step protocol
    and owns everything serial (clock, faults, scheduler).  All
    broadcasts are journaled so a crashed worker can be respawned and
    replayed mid-run (``max_respawns`` attempts per worker per call).
    """

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        *,
        seed: int,
        n_threads: int,
        batch_size: int,
        n_shards: int,
        step_timeout_s: "float | None" = 600.0,
        max_respawns: int = 1,
        mp_context=None,
    ) -> None:
        if n_shards < 2:
            raise ConfigurationError("ShardPool needs at least 2 shards")
        if n_shards & (n_shards - 1):
            raise ConfigurationError("n_shards must be a power of two")
        limit = max_shards(machine)
        if n_shards > limit:
            raise ConfigurationError(
                f"n_shards={n_shards} exceeds the machine's smallest cache "
                f"set count ({limit}); stripes would share cache sets and "
                "the sharded run would not be bit-identical"
            )
        self.n_shards = n_shards
        self._specs = [
            ShardSpec(
                machine=machine,
                workload=workload,
                seed=seed,
                n_threads=n_threads,
                batch_size=batch_size,
                shard=s,
                n_shards=n_shards,
            )
            for s in range(n_shards)
        ]
        self._ctx = mp_context or get_context(
            "fork" if "fork" in get_all_start_methods() else "spawn"
        )
        self._step_timeout_s = step_timeout_s
        self._max_respawns = max_respawns
        #: replay log: one list of per-shard payload bytes per broadcast
        #: (broadcasts that are identical for every shard store one object
        #: ``n_shards`` times — a reference, not a copy)
        self._journal: list[list[bytes]] = []
        self._shards: list[_Shard] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every worker (idempotent)."""
        if self._shards:
            return
        self._shards = [self._spawn(s) for s in range(self.n_shards)]

    def close(self) -> None:
        """Shut workers down; terminate any that ignore the request."""
        for shard in self._shards:
            try:
                shard.conn.send_bytes(pickle.dumps(("close",), protocol=-1))
            except Exception:
                pass
        for shard in self._shards:
            self._reap(shard)
        self._shards = []

    def __enter__(self) -> "ShardPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, index: int) -> _Shard:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self._specs[index]),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Shard(index=index, proc=proc, conn=parent_conn)

    def _reap(self, shard: _Shard) -> None:
        """Join a worker without ever blocking the run (pool.py idiom)."""
        try:
            shard.conn.close()
        except Exception:
            pass
        shard.proc.join(timeout=5.0)
        if shard.proc.is_alive():  # pragma: no cover - stuck in kernel space
            shard.proc.kill()
            shard.proc.join(timeout=5.0)

    # -- supervised request/response -----------------------------------
    def _respawn_and_replay(self, pos: int) -> _Shard:
        """Fresh worker for slot *pos*, fast-forwarded through the journal.

        Replay feeds every journaled broadcast back in order; the worker's
        generators, workload cursors and hierarchy state are deterministic
        functions of that history, so it rejoins the run bit-identical.
        Replay replies are drained and discarded (their content was already
        consumed when the original worker produced it).
        """
        dead = self._shards[pos]
        dead.proc.terminate()
        self._reap(dead)
        shard = self._spawn(dead.index)
        for entry in self._journal:
            shard.conn.send_bytes(entry[shard.index])
            reply = shard.conn.recv()  # drain; blocks only while replaying
            if reply[0] == "error":
                self._reap(shard)
                raise SimulationError(
                    f"shard {shard.index} failed during replay: {reply[1]}"
                )
        self._shards[pos] = shard
        return shard

    def _roundtrip(self, payloads: "list[bytes]", *, journal: bool) -> list:
        """Send each shard its payload, collect every reply, survive crashes.

        All sends happen *before* any reply is awaited — the workers run
        their phase concurrently; the collection loop is the step barrier.
        A worker that dies or stalls (pipe EOF, reset, or timeout) is
        respawned, fast-forwarded through the journal, re-sent the
        in-flight payload and re-awaited, up to ``max_respawns`` times.
        """
        if not self._shards:
            raise SimulationError("ShardPool is not running (call start())")
        if journal:
            self._journal.append(payloads)
        for pos in range(self.n_shards):
            try:
                self._shards[pos].conn.send_bytes(payloads[pos])
            except (OSError, ValueError):
                pass  # dead pipe: caught (and respawned) by the await below
        replies: list = [None] * self.n_shards
        for pos in range(self.n_shards):
            attempts = 0
            while True:
                shard = self._shards[pos]
                try:
                    if not shard.conn.poll(self._step_timeout_s):
                        raise TimeoutError(
                            f"no reply within {self._step_timeout_s:g}s"
                        )
                    reply = shard.conn.recv()
                except (EOFError, OSError, TimeoutError) as exc:
                    attempts += 1
                    if attempts > self._max_respawns:
                        raise SimulationError(
                            f"shard {shard.index} died and exhausted its "
                            f"{self._max_respawns} respawn(s): {exc}"
                        ) from exc
                    # The journal's last entry is this very broadcast;
                    # replay everything *before* it, then re-send it live
                    # to get a fresh reply.
                    tail = None
                    if journal and self._journal and self._journal[-1] is payloads:
                        tail = self._journal.pop()
                    shard = self._respawn_and_replay(pos)
                    if tail is not None:
                        self._journal.append(tail)
                    shard.conn.send_bytes(payloads[pos])
                    continue
                if reply[0] == "error":
                    raise SimulationError(
                        f"shard {shard.index} failed: {reply[1]}"
                    )
                replies[pos] = reply
                break
        return replies

    # -- step protocol --------------------------------------------------
    def generate(self, now_ns: int) -> dict:
        """Phase 1: every worker generates its threads' batches at *now_ns*.

        Returns ``{tid: (vaddrs, is_write)}`` covering every thread.
        """
        payload = pickle.dumps(("gen", now_ns), protocol=-1)
        batches: dict = {}
        for reply in self._roundtrip([payload] * self.n_shards, journal=True):
            batches.update(reply[1])
        return batches

    def coherence(
        self,
        order: "list[int]",
        pus: dict,
        vaddrs_by: dict,
        writes_by: dict,
        homes_by: dict,
    ) -> "list[tuple[int, ...]]":
        """Phase 3: drain every stripe, return per-thread merged deltas.

        Each thread's batch is partitioned by stripe here (one stable
        argsort per thread) so every worker receives only its own slice,
        in original access order — the coherence payload shrinks by
        ``1/n_shards`` and workers skip the per-batch stripe scan.

        The result is aligned with *order*: element ``i`` is the summed
        :meth:`CacheStats.snapshot` delta of thread ``order[i]``'s batch
        across all shards — exactly the serial engine's per-batch delta.
        """
        n_shards = self.n_shards
        mask = n_shards - 1
        edges = np.arange(n_shards + 1)
        slices: list[dict] = [{} for _ in range(n_shards)]
        for tid in order:
            lines = vaddrs_by[tid] >> CACHE_LINE_SHIFT
            writes = writes_by[tid]
            homes = homes_by[tid]
            stripe = lines & mask
            by = np.argsort(stripe, kind="stable")  # stable: keeps access order
            bounds = np.searchsorted(stripe[by], edges)
            for s in range(n_shards):
                ix = by[bounds[s] : bounds[s + 1]]
                if ix.size:
                    slices[s][tid] = (lines[ix], writes[ix], homes[ix])
        payloads = [
            pickle.dumps(("mesi", order, pus, slices[s]), protocol=-1)
            for s in range(n_shards)
        ]
        replies = self._roundtrip(payloads, journal=True)
        merged = replies[0][1]
        for reply in replies[1:]:
            merged = [
                tuple(a + b for a, b in zip(acc, cur))
                for acc, cur in zip(merged, reply[1])
            ]
        return merged

    def final_stats(self) -> CacheStats:
        """Field-wise sum of every shard's counters (== serial counters)."""
        payload = pickle.dumps(("stats",), protocol=-1)
        total = CacheStats()
        for reply in self._roundtrip([payload] * self.n_shards, journal=False):
            total = total.merged(reply[1])
        return total

    @property
    def journal_bytes(self) -> int:
        """Total size of the replay journal (observability/tests)."""
        return sum(len(p) for entry in self._journal for p in entry)
