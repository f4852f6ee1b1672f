"""The execution-driven simulator.

One :class:`Simulator` instance runs one workload under one mapping policy.
Per simulation step it lets every thread issue a batch of memory accesses
(threads run concurrently, so the step's duration is the slowest batch),
resolves page faults through the fault pipeline (where SPCD's detector is
hooked), feeds every access to the MESI hierarchy, advances the virtual
clock, and fires due kernel threads (SPCD's injector and evaluator, the
baseline scheduler's balancer).

Sampling semantics: simulating every access of an NPB run is infeasible, so
the access stream is a sample — each simulated access stands for
``time_scale`` real ones.  The clock advances by scaled batch time, so the
10 ms injector period, the temporal window and phase periods are meaningful;
event *counts* (faults, misses) stay raw and are scaled only where physical
units require it (energy).  Ratios such as MPKI are scale-free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.cachesim.stats import CacheStats
from repro.core.commmatrix import CommunicationMatrix
from repro.core.manager import SpcdConfig, SpcdManager
from repro.engine.energy import EnergyBreakdown, EnergyModel, EnergyParams
from repro.engine.metrics import TimeModel, TimeParams
from repro.engine.perf import PerfCounters
from repro.engine.policies import Policy
from repro.engine.settings import RunSettings
from repro.errors import ConfigurationError, SimulationError
from repro.kernelsim.clock import VirtualClock
from repro.kernelsim.kthread import TimerWheel
from repro.kernelsim.scheduler import PinnedScheduler
from repro.machine.numa import NumaModel
from repro.machine.topology import Machine, dual_xeon_e5_2650
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.ptreplica import ReplicatedPageTable
from repro.mem.tlb import TlbArray
from repro.obs.events import CacheEpoch, FaultBatchSummary, RunEnd, RunStart
from repro.obs.recorder import JsonlRecorder, TraceRecorder, run_trace_path
from repro.placement import PlacementPolicy, resolve_policy
from repro.rng import RngFactory
from repro.units import CACHE_LINE_SHIFT, PAGE_SHIFT
from repro.workloads.base import Workload
from repro.workloads.trace import TraceCollector

StepCallback = Callable[["Simulator", int, int], None]


@dataclass
class EngineConfig:
    """Simulation parameters."""

    batch_size: int = 256
    steps: int = 400
    #: sampling factor: each simulated access represents this many real ones
    time_scale: float = 1500.0
    time_params: TimeParams = field(default_factory=TimeParams)
    energy_params: EnergyParams = field(default_factory=EnergyParams)
    #: capacity of the flat page table (pages)
    capacity_pages: int = 1 << 17
    collect_trace: bool = False
    #: how the workload's memory is first touched: "serial" pre-faults every
    #: region page from thread 0 before the parallel phase (NPB-OMP
    #: initialises its arrays in the serial master region, so all data lands
    #: on the master's NUMA node); "parallel" leaves demand first-touch to
    #: whichever thread reaches a page first.
    pretouch: str = "serial"

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.steps <= 0 or self.time_scale <= 0:
            raise ConfigurationError("batch_size, steps and time_scale must be positive")
        if self.pretouch not in ("serial", "parallel"):
            raise ConfigurationError("pretouch must be 'serial' or 'parallel'")


@dataclass
class SimulationResult:
    """Everything one run produces (the paper's Table II row, per policy)."""

    workload: str
    policy: str
    exec_time_s: float
    instructions: float
    l2_mpki: float
    l3_mpki: float
    c2c_transactions: int
    c2c_inter: int
    invalidations: int
    proc_energy_j: float
    dram_energy_j: float
    proc_epi_nj: float
    dram_epi_nj: float
    migrations: int
    os_migrations: int
    detection_pct: float
    mapping_pct: float
    first_touch_faults: int
    injected_faults: int
    injected_ratio: float
    stats: CacheStats
    energy: EnergyBreakdown
    detected_matrix: CommunicationMatrix | None = None
    #: host-side wall-clock breakdown of the run (not simulated time)
    perf: PerfCounters | None = None

    def metric(self, name: str) -> float:
        """Uniform numeric access for the analysis layer."""
        return float(getattr(self, name))


class Simulator:
    """Runs one workload under one policy on one machine."""

    def __init__(
        self,
        workload: Workload,
        policy: "PlacementPolicy | str | Policy",
        *,
        machine: Machine | None = None,
        seed: int = 0,
        config: EngineConfig | None = None,
        spcd_config: SpcdConfig | None = None,
        recorder: TraceRecorder | None = None,
        settings: RunSettings | None = None,
    ) -> None:
        self.workload = workload
        #: the typed placement policy; ``policy`` accepts an instance, a
        #: name string, or (deprecated, warns) a legacy ``Policy`` member
        self.placement: PlacementPolicy = resolve_policy(policy)
        #: the policy's stable name (seed derivation, result rows, traces)
        self.policy: str = self.placement.name
        self.machine = machine or dual_xeon_e5_2650()
        self.config = config or EngineConfig()
        self.seed = seed
        self.rngs = RngFactory(seed)
        # Execution-environment knobs (slow reference paths, tracing):
        # an explicit settings object wins; otherwise the environment
        # (RunSettings.from_env()) decides, exactly as before.
        self.settings = settings if settings is not None else RunSettings.from_env()
        # Tracing: an explicit recorder wins; otherwise the settings' trace
        # base enables a JSONL recorder (a NullRecorder or no trace base
        # leaves tracing off, and the hot paths then pay a single None test
        # per fault batch).
        if recorder is None and self.settings.trace:
            recorder = JsonlRecorder(
                run_trace_path(
                    Path(self.settings.trace), workload.name, self.policy, seed
                )
            )
        self.recorder: TraceRecorder | None = recorder if recorder else None

        n = workload.n_threads
        self.clock = VirtualClock()
        # Page-table choice: replication-capable tables are created only
        # when a policy or env knob asks for them, so default runs keep the
        # plain table (and its digests) bit-identical.
        page_table = None
        if self.placement.replicate_pt or self.settings.pt_replicate:
            page_table = ReplicatedPageTable(
                self.config.capacity_pages, self.machine.n_numa_nodes
            )
            if self.settings.pt_replicate:
                # Env-forced replication is active from the first fault;
                # policy-directed replication waits for a PlacementDecision.
                page_table.activate()
        self.address_space = AddressSpace(
            self.config.capacity_pages, page_table=page_table
        )
        workload.setup(self.address_space)
        self.tlbs = TlbArray(self.machine.n_pus)
        frames = FrameAllocator.for_memory(
            self.machine.n_numa_nodes, self.machine.memory_per_node
        )
        self.pipeline = FaultPipeline(
            self.address_space,
            frames,
            self.tlbs,
            node_of_pu=self.machine.numa_node_of,
        )
        # NUMA-aware page-table-walk charging (REPRO_PLACEMENT_WALK):
        # enabled before the pretouch so the serial init phase homes the
        # page-table directory pages on the master's node — exactly the
        # all-walks-remote starting point Phoenix/Mitosis address.
        if self.settings.placement_walk:
            numa = NumaModel(self.machine)
            local_ns = (
                self.settings.placement_walk_local_ns
                if self.settings.placement_walk_local_ns is not None
                else numa.pt_walk_level_ns(local=True)
            )
            remote_ns = (
                self.settings.placement_walk_remote_ns
                if self.settings.placement_walk_remote_ns is not None
                else numa.pt_walk_level_ns(local=False)
            )
            self.pipeline.enable_numa_walk(local_ns, remote_ns)
        #: ``settings.slow_spcd`` keeps the per-fault reference path end to
        #: end (scalar resolution loop + dict detection engine)
        self._batch_faults = not self.settings.slow_spcd
        self.hierarchy = CoherentHierarchy(self.machine)
        self.time_model = TimeModel(self.machine, params=self.config.time_params)
        self.energy_model = EnergyModel(self.machine, params=self.config.energy_params)
        self.wheel = TimerWheel()
        self.scheduler = self.placement.make_scheduler(
            self.machine, workload, self.rngs.rng("policy")
        )
        # Serial pretouch runs before SPCD hooks the fault pipeline, exactly
        # as an application's init phase precedes the detector's attachment.
        if self.config.pretouch == "serial":
            self._pretouch_serial()
        self.manager: SpcdManager | None = None
        if self.placement.uses_spcd:
            if not isinstance(self.scheduler, PinnedScheduler):
                raise SimulationError("SPCD requires a pinnable scheduler")
            # The detector engine follows this run's settings, not the
            # environment, unless the SpcdConfig names one explicitly.
            effective_spcd = spcd_config or SpcdConfig()
            if effective_spcd.detector_engine is None:
                effective_spcd = dataclasses.replace(
                    effective_spcd,
                    detector_engine="dict" if self.settings.slow_spcd else "array",
                )
            self.manager = SpcdManager(
                self.machine,
                n,
                self.pipeline,
                self.scheduler,
                self.rngs.rng("injector"),
                tlbs=self.tlbs,
                timer_wheel=self.wheel,
                config=effective_spcd,
                recorder=self.recorder,
                placement=self.placement,
            )
        self.trace = TraceCollector() if self.config.collect_trace else None
        self._thread_rngs = [self.rngs.rng("workload", t) for t in range(n)]
        self._sched_rng = self.rngs.rng("scheduler")
        self._order_rng = self.rngs.rng("step-order")
        self.instructions = 0.0
        self._accounted_overhead_ns = 0.0
        self.steps_run = 0
        self.perf = PerfCounters()
        #: REPRO_SIM_SHARDS>1: merged shard counters, fetched once the
        #: sharded run finishes (the coordinator's own hierarchy stays idle)
        self._merged_stats: CacheStats | None = None
        #: live ShardPool while a sharded run() is in flight (observability)
        self._pool = None

    def _stats(self) -> CacheStats:
        """The run's cache counters, whichever engine produced them."""
        return self._merged_stats if self._merged_stats is not None else self.hierarchy.stats

    def _pretouch_serial(self) -> None:
        """Fault in every region page from thread 0 (serial init phase)."""
        pu0 = int(self.scheduler.pu_of(0))
        if self._batch_faults:
            # One bulk first-touch mapping per region: identical page-table
            # state, frames and counters as the per-VPN reference loop.
            for region in self.address_space.regions():
                vpns = region.vpns()
                if vpns.size == 0:
                    continue
                self.pipeline.handle_fault_batch(
                    0,
                    pu0,
                    vpns << PAGE_SHIFT,
                    np.ones(vpns.size, dtype=bool),
                    now_ns=self.clock.now_ns,
                )
            return
        for region in self.address_space.regions():
            for vpn in region.vpns():
                self.pipeline.handle_fault(
                    0,
                    pu0,
                    int(vpn) << PAGE_SHIFT,
                    is_write=True,
                    now_ns=self.clock.now_ns,
                )

    # ------------------------------------------------------------------
    def run(self, step_callback: StepCallback | None = None) -> SimulationResult:
        """Execute the configured number of steps and return the metrics."""
        cfg = self.config
        rec = self.recorder
        if rec is not None:
            rec.emit(
                RunStart(
                    workload=self.workload.name,
                    policy=self.policy,
                    seed=self.seed,
                    n_threads=self.workload.n_threads,
                    steps=cfg.steps,
                    batch_size=cfg.batch_size,
                )
            )
            # The serial pretouch phase faulted before run() — summarise it
            # as a step -1 batch so fault totals reconstruct from the trace.
            if self.pipeline.total_faults:
                rec.emit(
                    FaultBatchSummary(
                        step=-1,
                        now_ns=self.clock.now_ns,
                        thread_id=0,
                        pu_id=int(self.scheduler.pu_of(0)),
                        first_touch=self.pipeline.first_touch_faults,
                        injected=self.pipeline.injected_faults,
                        fault_time_ns=self.pipeline.fault_time_ns,
                        hook_time_ns=self.pipeline.hook_time_ns,
                    )
                )
        t0 = perf_counter()
        pool = None
        try:
            if self.settings.sim_shards > 1:
                from repro.engine.parsim import ShardPool

                pool = ShardPool(
                    self.machine,
                    self.workload,
                    seed=self.seed,
                    n_threads=self.workload.n_threads,
                    batch_size=cfg.batch_size,
                    n_shards=self.settings.sim_shards,
                )
                pool.start()
                self._pool = pool
            for step in range(cfg.steps):
                if pool is not None:
                    self._step_sharded(pool)
                else:
                    self._step()
                if step_callback is not None:
                    step_callback(self, step, self.clock.now_ns)
            if pool is not None:
                self._merged_stats = pool.final_stats()
        finally:
            if pool is not None:
                pool.close()
                self._pool = None
        self.perf.wall_s += perf_counter() - t0
        if self.manager is not None:
            self.perf.match_s = self.manager.map_wall_s
        table = self.address_space.page_table
        self.perf.pt_walk_levels_local = table.walk_levels_local
        self.perf.pt_walk_levels_remote = table.walk_levels_remote
        result = self._result()
        if rec is not None:
            self._emit_run_end(rec, result)
            rec.close()
        return result

    def _step(self) -> None:
        cfg = self.config
        workload = self.workload
        hierarchy = self.hierarchy
        table = self.address_space.page_table
        now = self.clock.now_ns
        batch = cfg.batch_size
        scale = cfg.time_scale

        placement = self.scheduler.placement()
        perf = self.perf
        step_time_ns = 0.0
        # Randomised thread order: with a fixed order the same thread would
        # always be first to re-fault on a cleared shared page, so its
        # partners would never be recorded in the sharing table.  Real
        # hardware interleaves threads arbitrarily.
        for tid in self._order_rng.permutation(workload.n_threads):
            tid = int(tid)
            pu = int(placement[tid])
            t_gen = perf_counter()
            ab = workload.generate(tid, batch, now, self._thread_rngs[tid])
            perf.workload_s += perf_counter() - t_gen
            vaddrs = ab.vaddrs
            writes = ab.is_write
            if self.trace is not None:
                self.trace.record(tid, now, vaddrs, writes)
            vpns = vaddrs >> PAGE_SHIFT
            fault_ns = self._handle_thread_faults(tid, pu, vaddrs, vpns, writes, now)

            homes = table.home_nodes(vpns)
            table.mark_accessed_batch(vpns)
            lines = vaddrs >> CACHE_LINE_SHIFT
            stats_before = hierarchy.stats.snapshot()
            t_hier = perf_counter()
            hierarchy.access_batch_pu(pu, lines, writes, homes)
            perf.hierarchy_s += perf_counter() - t_hier
            perf.accesses += batch
            delta = hierarchy.stats.delta_since(stats_before)

            instructions = batch * workload.instructions_per_access
            self.instructions += instructions
            self.scheduler.tasks[tid].instructions += int(instructions)
            batch_ns = scale * self.time_model.batch_time_ns(instructions, delta)
            batch_ns += fault_ns
            step_time_ns = max(step_time_ns, batch_ns)

        self._advance_step(step_time_ns)

    def _step_sharded(self, pool) -> None:
        """One step through the :class:`~repro.engine.parsim.ShardPool`.

        Same semantics as :meth:`_step`, re-ordered around the two parallel
        phases: workers generate every thread's batch up front, the
        coordinator resolves faults serially in the step's permutation order
        (computing each thread's home nodes at its turn, exactly as the
        serial loop does), then one coherence round trip drains all stripes
        and returns the per-thread counter deltas the time model needs.
        """
        cfg = self.config
        workload = self.workload
        table = self.address_space.page_table
        now = self.clock.now_ns
        batch = cfg.batch_size
        scale = cfg.time_scale
        placement = self.scheduler.placement()
        perf = self.perf

        t_gen = perf_counter()
        batches = pool.generate(now)
        perf.workload_s += perf_counter() - t_gen

        order = [int(t) for t in self._order_rng.permutation(workload.n_threads)]
        pus = {tid: int(placement[tid]) for tid in order}
        vaddrs_by: dict = {}
        writes_by: dict = {}
        homes_by: dict = {}
        fault_ns_by: dict = {}
        for tid in order:
            vaddrs, writes = batches[tid]
            if self.trace is not None:
                self.trace.record(tid, now, vaddrs, writes)
            vpns = vaddrs >> PAGE_SHIFT
            fault_ns_by[tid] = self._handle_thread_faults(
                tid, pus[tid], vaddrs, vpns, writes, now
            )
            homes_by[tid] = table.home_nodes(vpns)
            table.mark_accessed_batch(vpns)
            vaddrs_by[tid] = vaddrs
            writes_by[tid] = writes

        t_coh = perf_counter()
        deltas = pool.coherence(order, pus, vaddrs_by, writes_by, homes_by)
        perf.coherence_s += perf_counter() - t_coh

        step_time_ns = 0.0
        for tid, delta_tuple in zip(order, deltas):
            delta = CacheStats(*delta_tuple)
            perf.accesses += batch
            instructions = batch * workload.instructions_per_access
            self.instructions += instructions
            self.scheduler.tasks[tid].instructions += int(instructions)
            batch_ns = scale * self.time_model.batch_time_ns(instructions, delta)
            batch_ns += fault_ns_by[tid]
            step_time_ns = max(step_time_ns, batch_ns)

        self._advance_step(step_time_ns)

    def _handle_thread_faults(
        self, tid: int, pu: int, vaddrs, vpns, writes, now: int
    ) -> float:
        """Resolve one thread's faulting accesses; returns the fault charge (ns)."""
        pipeline = self.pipeline
        perf = self.perf
        t_fault = perf_counter()
        fault_ns_0 = pipeline.fault_time_ns + pipeline.hook_time_ns
        hook_wall_0 = pipeline.hook_wall_s
        fault_mask = pipeline.faulting_mask(vpns)
        had_faults = bool(fault_mask.any())
        ft_0 = pipeline.first_touch_faults
        inj_0 = pipeline.injected_faults
        if had_faults:
            if self._batch_faults:
                fb = pipeline.handle_fault_batch(
                    tid,
                    pu,
                    vaddrs[fault_mask],
                    writes[fault_mask],
                    now_ns=now,
                )
                perf.faults += fb.n_faults
            else:
                fault_vpns, first_idx = np.unique(vpns[fault_mask], return_index=True)
                fault_positions = np.flatnonzero(fault_mask)[first_idx]
                for pos in fault_positions:
                    pipeline.handle_fault(
                        tid,
                        pu,
                        int(vaddrs[pos]),
                        is_write=bool(writes[pos]),
                        now_ns=now,
                    )
                perf.faults += len(fault_positions)
        fault_ns = (pipeline.fault_time_ns + pipeline.hook_time_ns) - fault_ns_0
        perf.detect_s += pipeline.hook_wall_s - hook_wall_0
        perf.fault_s += perf_counter() - t_fault
        if had_faults and self.recorder is not None:
            self.recorder.emit(
                FaultBatchSummary(
                    step=self.steps_run,
                    now_ns=now,
                    thread_id=tid,
                    pu_id=pu,
                    first_touch=pipeline.first_touch_faults - ft_0,
                    injected=pipeline.injected_faults - inj_0,
                    fault_time_ns=pipeline.fault_time_ns,
                    hook_time_ns=pipeline.hook_time_ns,
                )
            )
        return fault_ns

    def _advance_step(self, step_time_ns: float) -> None:
        """Shared step tail: clock advance, kernel threads, SPCD charging."""
        self.clock.advance(step_time_ns)
        # Charge SPCD's asynchronous work (injection walks, mapping,
        # migrations) as it accrues.
        t_spcd = perf_counter()
        overhead_now = self._spcd_async_overhead_ns()
        self.wheel.tick(self.clock.now_ns)
        self.scheduler.on_quantum(self.clock.now_ns, self._sched_rng)
        overhead_delta = self._spcd_async_overhead_ns() - overhead_now
        if overhead_delta > 0:
            self.clock.advance(overhead_delta)
        self.perf.spcd_s += perf_counter() - t_spcd
        self.steps_run += 1

    def _emit_run_end(self, rec: TraceRecorder, result: SimulationResult) -> None:
        """Seal the trace: cache epoch snapshot + run summary (PerfCounters)."""
        rec.emit(
            CacheEpoch(
                step=self.steps_run,
                now_ns=self.clock.now_ns,
                stats=self._stats().as_dict(),
            )
        )
        detection_ns = mapping_ns = replication_ns = 0.0
        if self.manager is not None:
            detection_ns = self.manager.detection_time_ns()
            mapping_ns = self.manager.mapping_time_ns()
            replication_ns = self.manager.replication_time_ns()
        rec.emit(
            RunEnd(
                total_ns=float(self.clock.now_ns),
                steps_run=self.steps_run,
                migrations=result.migrations,
                os_migrations=result.os_migrations,
                first_touch_faults=result.first_touch_faults,
                injected_faults=result.injected_faults,
                detection_ns=detection_ns,
                mapping_ns=mapping_ns,
                detection_pct=result.detection_pct,
                mapping_pct=result.mapping_pct,
                replication_ns=replication_ns,
                perf=self.perf.as_dict(),
                perf_other_s=self.perf.other_s,
            )
        )

    def _spcd_async_overhead_ns(self) -> float:
        if self.manager is None:
            return 0.0
        total = self.manager.injector.inject_time_ns + self.manager.mapping_time_ns()
        if self.manager.data_mapper is not None:
            total += self.manager.data_mapper.stats.copy_time_ns
        return total

    # ------------------------------------------------------------------
    def _result(self) -> SimulationResult:
        cfg = self.config
        stats = self._stats()
        total_ns = float(self.clock.now_ns)
        instructions = self.instructions
        energy = self.energy_model.compute(
            total_ns, instructions, stats, scale=cfg.time_scale
        )
        scaled_instr = instructions * cfg.time_scale
        detection_pct = mapping_pct = 0.0
        migrations = 0
        detected: CommunicationMatrix | None = None
        if self.manager is not None:
            detection_pct = 100.0 * self.manager.detection_time_ns() / total_ns
            mapping_pct = 100.0 * self.manager.mapping_time_ns() / total_ns
            migrations = self.manager.migration_count
            detected = self.manager.detector.snapshot_matrix()
        os_migrations = self.scheduler.total_migrations()
        return SimulationResult(
            workload=self.workload.name,
            policy=self.policy,
            exec_time_s=total_ns * 1e-9,
            instructions=instructions,
            l2_mpki=stats.mpki(2, int(instructions)),
            l3_mpki=stats.mpki(3, int(instructions)),
            c2c_transactions=stats.c2c_total,
            c2c_inter=stats.c2c_inter,
            invalidations=stats.invalidations,
            proc_energy_j=energy.processor_j,
            dram_energy_j=energy.dram_j,
            proc_epi_nj=energy.proc_epi_nj(scaled_instr),
            dram_epi_nj=energy.dram_epi_nj(scaled_instr),
            migrations=migrations,
            os_migrations=os_migrations,
            detection_pct=detection_pct,
            mapping_pct=mapping_pct,
            first_touch_faults=self.pipeline.first_touch_faults,
            injected_faults=self.pipeline.injected_faults,
            injected_ratio=self.pipeline.injected_fraction(),
            stats=stats,
            energy=energy,
            detected_matrix=detected,
            perf=self.perf,
        )
