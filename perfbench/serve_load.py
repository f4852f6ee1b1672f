"""The serve workload: a default single-process ``MappingServer`` and a
closed-loop load in one asyncio process.

Each tenant is one ``AsyncServeClient`` connection (two in all),
streaming a seeded pairwise-sharing pattern: every phase draws a fresh
random perfect matching of the tenant's threads, and each thread's batches
touch pages of its pair's pool.  The session matrix never decays, so phase
*k* lasts ``1.6**k`` times the first phase: that keeps each new pairing
strong enough to clear the filter's hysteresis, and remaps keep occurring.
Every ``FLUSH_EVERY`` batches a client sends FLUSH and times the round
trip.  After the run every tenant's stream is replayed through
``offline_reference`` with the same flush points.

Server and load share one process (and so one CPU), which lets the
host-speed probe of :mod:`hostspeed` pause both and read the host alone.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
from time import perf_counter

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.mapping import HierarchicalMapper
from repro.machine.topology import dual_xeon_e5_2650
from repro.serve import AsyncServeClient, SessionConfig, offline_reference, protocol
from repro.serve.server import MappingServer, ServeConfig
from repro.serve.session import ShardedShareTable, TenantSession
from repro.units import MSEC, PAGE_SIZE

from hostspeed import probe, slowdown
from spans import Tracer

THREADS = 32
TENANTS = 2
#: sharing-table slots per tenant: the default 256000 at 32 threads exceeds
#: the server's default 64 MiB per-tenant cap
TABLE_SIZE = 32768
#: batches of 256 events each tenant streams per second of ``--seconds``
#: (what this load reaches on a 2-CPU Xeon host), so a run does a fixed
#: amount of work and every count, FLUSH point and mapping decision is a
#: function of the seed alone
BATCHES_PER_S = 400
BATCH_EVENTS = 256
PAGES_PER_PAIR = 64
ROUND_NS = 100 * MSEC
FIRST_PHASE = 2
PHASE_GROWTH = 1.6
#: batches between two FLUSHes; 24 x 256 events stay well inside the
#: 65536-event credit window
FLUSH_EVERY = 24
#: a run must time at least this many FLUSH round trips
MIN_FLUSHES = 100
#: server start + admission repetitions per run (median reported)
SETUP_REPS = 9
#: seconds between two host-speed probes during the load
PROBE_EVERY_S = 1.0

TRACE_TARGETS = [
    (protocol, "decode_events", "serve.decode"),
    (TenantSession, "ingest", "serve.ingest"),
    (ShardedShareTable, "touch_batch", "serve.touch"),
    (CommunicationMatrix, "add_events", "serve.fold"),
    (TenantSession, "evaluate", "serve.evaluate"),
    (TenantSession, "merged_matrix", "serve.merge"),
    (HierarchicalMapper, "map", "core.map"),
]


def pair_stream(seed: int):
    """Endless ``(tid, now_ns, vaddrs)`` batches of the phased pair pattern."""
    rng = np.random.default_rng(seed)
    pairs = THREADS // 2
    round_index = 0
    phase = 0
    while True:
        order = rng.permutation(THREADS)
        pair_of = np.empty(THREADS, dtype=np.int64)
        pair_of[order] = np.arange(THREADS) // 2
        for _ in range(math.ceil(FIRST_PHASE * PHASE_GROWTH**phase)):
            now_ns = round_index * ROUND_NS
            for tid in rng.permutation(THREADS).tolist():
                pool = 1 + phase * pairs + int(pair_of[tid])
                pages = rng.integers(0, PAGES_PER_PAIR, size=BATCH_EVENTS)
                yield tid, now_ns, (pool * PAGES_PER_PAIR + pages) * PAGE_SIZE
            round_index += 1
        phase += 1


def verify(name, sent, flush_after, summary, corrupt_digest):
    """Compare a served session with the offline replay of its stream."""
    if summary is None:
        return [f"{name}: no SUMMARY"]
    cfg = SessionConfig(n_threads=THREADS, table_size=TABLE_SIZE)
    ref = offline_reference(sent, cfg, dual_xeon_e5_2650(), flush_after=flush_after)
    events = sum(v.size for _, _, v in sent)
    digest = summary["matrix_digest"] + ("x" if corrupt_digest else "")
    problems = []
    if not summary["events"] == ref.events == events:
        problems.append(f"{name}: events served {summary['events']}, sent {events}")
    if digest != ref.final_digest:
        problems.append(f"{name}: matrix digest differs from offline replay")
    if summary["mapping"] != ref.final_mapping:
        problems.append(f"{name}: final mapping differs from offline replay")
    if not summary["remaps"] > 0:
        problems.append(f"{name}: no remap")
    return problems


class _KeepingServer(MappingServer):
    """Keeps every session so its table counters can be read after BYE."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.kept: list[TenantSession] = []

    def _make_session(self, tenant, session_cfg):
        session = super()._make_session(tenant, session_cfg)
        self.kept.append(session)
        return session


class Tenant:
    """One tenant's connection, its sent stream and its measurements."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.stream = pair_stream(seed)
        self.sent: list[tuple[int, int, np.ndarray]] = []
        self.flush_after: list[int] = []
        #: (start, end) of every timed FLUSH round trip
        self.flushes: list[tuple[float, float]] = []
        self.credit_wait_s = 0.0
        self.end = 0.0
        self.client: "AsyncServeClient | None" = None
        self.summary: "dict | None" = None

    async def connect(self, port: int) -> None:
        self.client = await AsyncServeClient.connect(
            "127.0.0.1", port, tenant=self.name, n_threads=THREADS,
            config={"table_size": TABLE_SIZE},
        )

    async def _send_next(self) -> None:
        tid, now_ns, vaddrs = next(self.stream)
        client = self.client
        if client.credits < vaddrs.size:
            t = perf_counter()
            await client.send_events(tid, now_ns, vaddrs)
            self.credit_wait_s += perf_counter() - t
        else:
            await client.send_events(tid, now_ns, vaddrs)
        self.sent.append((tid, now_ns, vaddrs))

    async def drive(self, batches: int) -> None:
        """Stream *batches* batches, FLUSHing every ``FLUSH_EVERY`` of them."""
        while len(self.sent) < batches:
            await self._send_next()
            if len(self.sent) % FLUSH_EVERY:
                continue
            t = perf_counter()
            await self.client.flush()
            self.flushes.append((t, perf_counter()))
            self.flush_after.append(len(self.sent) - 1)
        self.end = perf_counter()
        # one untimed batch, so BYE's forced evaluation replays at its own index
        await self._send_next()
        self.flush_after.append(len(self.sent) - 1)

    async def close(self) -> None:
        self.summary = await self.client.close()

    @property
    def operations(self) -> int:
        return len(self.sent) + len(self.flushes)


async def _sample_host(done: asyncio.Event, probes: list) -> None:
    """Probe every ``PROBE_EVERY_S`` until *done*; the probe blocks the
    event loop, so server and clients pause while it runs."""
    while not done.is_set():
        try:
            await asyncio.wait_for(done.wait(), PROBE_EVERY_S)
        except asyncio.TimeoutError:
            t = perf_counter()
            probes.append((t, t + probe()))


async def _session(seed: int, batches: int) -> dict:
    """Start a server, admit the tenants, stream, close, drain; one pass."""
    before = probe()
    t0 = perf_counter()
    server = _KeepingServer(ServeConfig(host="127.0.0.1", port=0), machine=dual_xeon_e5_2650())
    await server.start()
    try:
        tenants = [Tenant(f"tenant-{i}", seed * 1009 + i) for i in range(TENANTS)]
        for tenant in tenants:
            await tenant.connect(server.port)
        setup_s = perf_counter() - t0
        after_setup = probe()
        probes: list[tuple[float, float]] = []
        start = perf_counter()
        if batches:
            done = asyncio.Event()
            sampler = asyncio.ensure_future(_sample_host(done, probes))
            await asyncio.gather(*(t.drive(batches) for t in tenants))
            done.set()
            await sampler
        for tenant in tenants:
            await tenant.close()
    finally:
        await server.drain()
    return {
        "setup_s": setup_s / slowdown([before, after_setup]),
        "raw_setup_s": setup_s,
        "start": start,
        "tenants": tenants,
        "server": server,
        "probes": probes,
        "slowdown": slowdown([before, after_setup] + [b - a for a, b in probes]),
    }


def _measure(run: dict) -> dict[str, float]:
    """End-to-end metrics of one pass, host times in reference seconds.

    Probe time is taken out of the pass, and FLUSHes a probe overlapped
    are left out of the percentiles.
    """
    tenants, probes, speed = run["tenants"], run["probes"], run["slowdown"]
    end = max(t.end for t in tenants)
    busy = end - run["start"] - sum(b - a for a, b in probes if b <= end)
    events = sum(v.size for t in tenants for _, _, v in t.sent[:-1])
    flushes = [
        (b - a) / speed
        for t in tenants for a, b in t.flushes
        if not any(pa < b and a < pb for pa, pb in probes)
    ]
    ratios = [
        m["cost_new"] / m["cost_now"]
        for t in tenants for m in t.client.mappings if m["cost_now"] > 0
    ]
    return {
        "work_per_s": events * speed / busy,
        "raw_work_per_s": events / busy,
        "latency_p50_ms": 1e3 * statistics.median(flushes),
        "latency_p90_ms": 1e3 * statistics.quantiles(flushes, n=10)[-1],
        "spcd_vs_baseline": statistics.median(ratios) if ratios else 0.0,
    }


def _layers(run: dict, tracer: Tracer, plain_rate: float, traced_rate: float):
    own = tracer.self_times()
    tenants, server = run["tenants"], run["server"]
    evaluations = sum(t.summary["evaluations"] for t in tenants if t.summary)
    remaps = sum(t.summary["remaps"] for t in tenants if t.summary)
    window = max(t.end for t in tenants) - run["start"]
    window -= sum(b - a for a, b in run["probes"])
    return {
        "serve.decode_s": own.get("serve.decode", 0.0),
        "serve.touch_s": own.get("serve.touch", 0.0),
        "serve.fold_s": own.get("serve.fold", 0.0),
        "serve.ingest_s": own.get("serve.ingest", 0.0),
        "serve.merge_s": own.get("serve.merge", 0.0),
        "serve.evaluate_s": own.get("serve.evaluate", 0.0),
        "serve.map_s": own.get("core.map", 0.0),
        "serve.collision_ratio": sum(s.table.collisions for s in server.kept)
        / max(1, server.events_total),
        "serve.evaluations": evaluations,
        "serve.remap_ratio": remaps / max(1, evaluations),
        "serve.credit_wait_s": sum(t.credit_wait_s for t in tenants),
        "trace.overhead_ratio": plain_rate / traced_rate - 1.0,
        # the clients share the process: the rest of the pass is theirs,
        # the event loop's and the sockets'
        "trace.unattributed_ratio": 1.0 - tracer.root_seconds() / window,
    }


def _batches(seconds: float, smoke: bool) -> int:
    """Batches per tenant: the rate times *seconds*, and enough for the
    tenants together to time at least ``MIN_FLUSHES`` FLUSHes."""
    if smoke:
        # one round, so every thread has a partner and a remap can occur
        return THREADS + 4 * FLUSH_EVERY
    per_tenant = math.ceil(MIN_FLUSHES / TENANTS) * FLUSH_EVERY
    return max(round(BATCHES_PER_S * seconds), per_tenant)


async def _run(seed, seconds, trace, smoke, out_dir, workload):
    batches = _batches(seconds, smoke)
    setups = [await _session(seed, 0) for _ in range(SETUP_REPS - 1)]
    if not trace:
        run = await _session(seed, batches)
        measured = _measure(run)
        passes = [run]
    else:
        # the same stream twice, plain then traced: the per-layer split comes
        # from the traced pass, the throughput ratio is the overhead
        half = batches if smoke else batches // 2
        plain = await _session(seed, half)
        tracer = Tracer()
        with tracer.patch(TRACE_TARGETS):
            run = await _session(seed, half)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        measured = _measure(run)
        plain_rate = _measure(plain)["work_per_s"]
        measured["layers"] = _layers(run, tracer, plain_rate, measured["work_per_s"])
        passes = [plain, run]
    setups.append(passes[0])
    layers = measured.pop("layers", None)
    raw = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "work_per_s": measured.pop("raw_work_per_s"),
        "slowdown": run["slowdown"],
    }
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    summary = {"end_to_end": measured, "raw": raw}
    if layers is not None:
        summary["layers"] = layers
    return summary, [t for p in passes for t in p["tenants"]]


def run(workload, seed, seconds, trace, smoke, corrupt_digest, out_dir) -> dict:
    """One benchmark run of the serve workload; returns the run summary."""
    summary, tenants = asyncio.run(_run(seed, seconds, trace, smoke, out_dir, workload))
    # The offline replays run in this process: a process pool would leave
    # multiprocessing's resource tracker running after the benchmark exits.
    results = [
        verify(t.name, t.sent, t.flush_after, t.summary, corrupt_digest) for t in tenants
    ]
    summary["problems"] = [p for found in results for p in found]
    summary["attempted"] = sum(t.operations for t in tenants)
    summary["failed"] = sum(t.operations for t, found in zip(tenants, results) if found)
    summary["digests"] = [
        {"tenant": t.name, "digest": (t.summary or {}).get("matrix_digest")}
        for t in tenants
    ]
    return summary
