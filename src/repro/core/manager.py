"""SPCD orchestration: detection + injection + filter + mapping + migration.

:class:`SpcdManager` wires the pieces the way the paper's kernel module does:

* the detector hooks the page-fault pipeline;
* the injector runs as a 10 ms kernel thread;
* a second periodic activity evaluates the communication matrix, asks the
  communication filter whether the pattern changed, and if so computes a new
  hierarchical mapping and migrates the threads.

It also carries the virtual-time overhead accounting that reproduces the
paper's Fig. 16 split into *detection overhead* (fault hook + injection) and
*mapping overhead* (matrix analysis, matching, migrations).
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.filter import CommunicationFilter
from repro.core.injector import FaultInjector, InjectorMode
from repro.core.mapping import make_mapper, mapping_comm_cost
from repro.core.spcd import SpcdDetector
from repro.kernelsim.kthread import TimerWheel
from repro.kernelsim.migration import MigrationEngine
from repro.kernelsim.scheduler import PinnedScheduler
from repro.machine.topology import Machine
from repro.mem.fault import FaultPipeline
from repro.mem.tlb import TlbArray
from repro.mem.ptreplica import ReplicatedPageTable
from repro.obs.events import MappingDecision, PlacementApplied, SpcdEvaluation
from repro.obs.recorder import TraceRecorder
from repro.placement.decision import PageMigration, PlacementDecision, PlacementView
from repro.placement.policy import PlacementPolicy, ThreadPlacementPolicy
from repro.units import MSEC, PAGE_SIZE

_log = logging.getLogger(__name__)

#: default thread count of the Edmonds -> hierarchical auto-switch, used
#: when ``SpcdConfig.hierarchical_min_n`` is None
DEFAULT_HIERARCHICAL_MIN_N = 128


def matrix_digest(matrix) -> str:
    """Short content digest of a communication matrix (trace audit anchor).

    BLAKE2b over the raw float64 payload, 8-byte digest — the format every
    trace event (:class:`~repro.obs.events.SpcdEvaluation`, the serve
    layer's evaluation events) uses, so digests from any pipeline that
    detected the same matrix compare equal byte for byte.
    """
    return hashlib.blake2b(
        np.ascontiguousarray(matrix.matrix).tobytes(), digest_size=8
    ).hexdigest()


@dataclass
class SpcdConfig:
    """Tunables of the full SPCD mechanism (defaults follow Table I)."""

    granularity: int = PAGE_SIZE
    window_ns: int = 250 * MSEC
    table_size: int = 256_000
    injector_period_ns: int = 10 * MSEC
    injector_ratio: float = 0.10
    injector_mode: InjectorMode = InjectorMode.STEADY
    #: pages cleared per wake at minimum.  The paper keeps injected faults at
    #: ~10 % of total faults on a machine taking millions of faults; a
    #: sampled simulation has ~10^3x fewer natural faults per unit of virtual
    #: time, so STEADY mode keeps a fixed trickle instead to reach the same
    #: effective detection density (CUMULATIVE mode is the paper-literal
    #: controller, used by the rate ablation).
    injector_floor: int = 256
    injector_max_per_wake: int = 4096
    #: "accessed" (default) or "uniform" — see FaultInjector.sampling
    injector_sampling: str = "accessed"
    eval_period_ns: int = 50 * MSEC
    #: minimum time between two migration events.  Thread migration costs a
    #: working-set refill; production schedulers rate-limit migrations for
    #: exactly this reason, and the paper's low migration counts (Table II:
    #: at most 6) show SPCD remaps sparingly.
    remap_cooldown_ns: int = 250 * MSEC
    #: migrate only when the proposed mapping's communication cost (under
    #: the detected matrix) is below this fraction of the current
    #: placement's cost.  Homogeneous patterns, where every placement is
    #: equivalent, therefore migrate at most once — matching the paper's
    #: Table II (FT/IS/EP: 0-1 migrations) — while a genuine pattern change
    #: clears the bar easily.
    min_improvement: float = 0.85
    filter_threshold: int = 2
    filter_enabled: bool = True
    filter_hysteresis: float = 1.25
    filter_margin: float = 0.5
    #: do not trigger the first mapping before this many communication
    #: events were observed (guards against mapping pure noise right after
    #: start-up, when the matrix holds a handful of samples)
    filter_min_events: float = 128.0
    #: matrix aging factor applied after every evaluation; makes the
    #: partner/pattern view an exponential moving average so the mechanism
    #: can follow dynamic phase changes (Sec. V-B) instead of being
    #: dominated by stale history.  1.0 disables aging.
    matrix_decay: float = 0.92
    use_greedy_matching: bool = False
    #: mapper tie-breaking bonus toward the current placement (see
    #: HierarchicalMapper.stickiness)
    mapper_stickiness: float = 0.75
    #: virtual cost of one mapper call, per thread^3 (blossom is O(N^3))
    mapping_cost_ns_per_n3: float = 30.0
    detect_cost_ns: float = 250.0
    clear_cost_ns: float = 150.0
    #: detection engine: "array" (vectorised fast engine), "dict" (per-fault
    #: reference engine), or None to follow the run's ``slow_spcd`` setting
    detector_engine: str | None = None
    #: also perform SPCD-driven *data* mapping (NUMA page migration) — the
    #: extension the paper names in Sec. IV; see repro.core.datamap
    data_mapping: bool = False
    data_scan_period_ns: int = 100 * MSEC
    #: mapping engine: "edmonds", "hierarchical", or None = resolve by
    #: precedence (explicit config > placement policy's ``mapper_algorithm``
    #: > thread-count auto-switch)
    mapper_algorithm: str | None = None
    #: auto-switch to the hierarchical mapper at this thread count; None
    #: uses :data:`DEFAULT_HIERARCHICAL_MIN_N`
    hierarchical_min_n: int | None = None
    #: store the detection matrix as a
    #: :class:`~repro.graphs.sparse.SparseCommMatrix` (digest-identical)
    sparse_matrix: bool = False


@dataclass
class SpcdOverheads:
    """Virtual-time overhead split, as in the paper's Fig. 16 / Table II."""

    detection_ns: float = 0.0
    mapping_ns: float = 0.0
    migrations: int = 0
    mapper_calls: int = 0
    filter_evaluations: int = 0

    def detection_pct(self, total_ns: float) -> float:
        """Detection overhead as % of total execution time."""
        return 100.0 * self.detection_ns / total_ns if total_ns else 0.0

    def mapping_pct(self, total_ns: float) -> float:
        """Mapping overhead as % of total execution time."""
        return 100.0 * self.mapping_ns / total_ns if total_ns else 0.0


class SpcdManager:
    """The complete SPCD mechanism bound to one running application."""

    def __init__(
        self,
        machine: Machine,
        n_threads: int,
        pipeline: FaultPipeline,
        scheduler: PinnedScheduler,
        rng: np.random.Generator,
        *,
        tlbs: TlbArray | None = None,
        timer_wheel: TimerWheel | None = None,
        config: SpcdConfig | None = None,
        recorder: TraceRecorder | None = None,
        placement: PlacementPolicy | None = None,
    ) -> None:
        self.machine = machine
        self.n_threads = n_threads
        self.config = config or SpcdConfig()
        cfg = self.config
        #: the policy whose ``evaluate`` turns each periodic evaluation's
        #: evidence into one :class:`PlacementDecision`; the default
        #: reproduces the paper's thread-only mechanism bit for bit
        self.placement: PlacementPolicy = (
            ThreadPlacementPolicy() if placement is None else placement
        )
        self.pipeline = pipeline
        self.recorder = recorder
        self.detector = SpcdDetector(
            n_threads,
            granularity=cfg.granularity,
            window_ns=cfg.window_ns,
            table_size=cfg.table_size,
            detect_cost_ns=cfg.detect_cost_ns,
            pipeline=pipeline,
            engine=cfg.detector_engine,
            sparse_matrix=cfg.sparse_matrix,
        )
        self.injector = FaultInjector(
            pipeline,
            rng,
            tlbs=tlbs,
            target_ratio=cfg.injector_ratio,
            mode=cfg.injector_mode,
            floor_per_wake=cfg.injector_floor,
            max_per_wake=cfg.injector_max_per_wake,
            clear_cost_ns=cfg.clear_cost_ns,
            sampling=cfg.injector_sampling,
            recorder=recorder,
        )
        self.filter = CommunicationFilter(
            n_threads,
            cfg.filter_threshold,
            hysteresis=cfg.filter_hysteresis,
            margin=cfg.filter_margin,
        )
        self.mapper_algorithm = self._select_mapper_algorithm(cfg)
        self.mapper = make_mapper(
            self.mapper_algorithm,
            machine,
            use_greedy_matching=cfg.use_greedy_matching,
            stickiness=cfg.mapper_stickiness,
        )
        self.migrator = MigrationEngine(scheduler, tlbs, recorder=recorder)
        self.data_mapper = None
        if cfg.data_mapping or self.placement.maps_data:
            from repro.core.datamap import SpcdDataMapper

            self.data_mapper = SpcdDataMapper(
                pipeline,
                machine.n_numa_nodes,
                machine.numa_node_of,
                scan_period_ns=cfg.data_scan_period_ns,
            )
        self.overheads = SpcdOverheads()
        #: host wall-clock spent in the mapping kernels (grouping + matching
        #: + layout); harvested into ``PerfCounters.match_s`` at run end
        self.map_wall_s = 0.0
        self._mapping_history: list[tuple[int, np.ndarray]] = []
        self._events_at_last_trigger = 0.0
        self._last_migration_ns = -(1 << 62)
        if timer_wheel is not None:
            timer_wheel.register("spcd-injector", cfg.injector_period_ns, self.injector.wake)
            timer_wheel.register("spcd-evaluate", cfg.eval_period_ns, self.evaluate)
            # The legacy standalone data-mapping timer: only when the config
            # asks for it AND the placement policy does not already fold
            # page migrations into its co-decided evaluations.
            if self.data_mapper is not None and not self.placement.maps_data:
                timer_wheel.register(
                    "spcd-datamap", cfg.data_scan_period_ns, self.data_mapper.scan
                )

    def _select_mapper_algorithm(self, cfg: SpcdConfig) -> str:
        """Resolve the mapping engine for this run.

        Precedence: explicit ``SpcdConfig.mapper_algorithm``, then the
        placement policy's ``mapper_algorithm`` attribute (the ``spcd-hier``
        policy), then the thread-count auto-switch — Edmonds stays the
        default below the threshold, so every paper-scale digest is
        untouched.
        """
        explicit = cfg.mapper_algorithm or getattr(
            self.placement, "mapper_algorithm", None
        )
        if explicit:
            return str(explicit)
        min_n = (
            cfg.hierarchical_min_n
            if cfg.hierarchical_min_n is not None
            else DEFAULT_HIERARCHICAL_MIN_N
        )
        if self.n_threads >= min_n:
            _log.info(
                "mapping: auto-selected the hierarchical mapper "
                "(n_threads=%d >= hierarchical_min_n=%d); "
                "Edmonds matching would be O(n^3) here",
                self.n_threads,
                min_n,
            )
            return "hierarchical"
        return "edmonds"

    # -- periodic evaluation ---------------------------------------------------
    def evaluate(self, now_ns: int) -> bool:
        """One placement evaluation: policy decides, manager applies.

        The placement policy sees the communication matrix and (when data
        mapping is on) the per-page node-fault counters through one
        :class:`~repro.placement.decision.PlacementView` and returns one
        :class:`~repro.placement.decision.PlacementDecision`; the manager
        applies its thread remap, page migrations and replication
        directive atomically.  With the default thread-only policy this
        reproduces the pre-placement evaluation bit for bit (gates,
        overhead accounting, trace events, matrix aging).

        Returns True if a thread migration was performed.
        """
        self.overheads.filter_evaluations += 1
        matrix = self.detector.matrix
        verdict = "insufficient-evidence"
        # Each mapping decision requires a quota of *fresh* communication
        # evidence since the previous one; barely-communicating
        # applications (EP) accumulate events so slowly that they remap
        # at most once, as in the paper's Table II.
        fresh = self.detector.stats.comm_events - self._events_at_last_trigger
        try:
            decision = self.placement.evaluate(self._view(now_ns, matrix, fresh))
            verdict = decision.verdict
            moved, pages_moved, replicated = self.apply_decision(decision, now_ns)
            if decision.thread_mapping is not None:
                verdict = "migrated" if moved else "no-move"
            elif pages_moved and verdict == "data-idle":
                verdict = "data-migrated"
            return moved > 0
        finally:
            if self.recorder is not None:
                self.recorder.emit(
                    SpcdEvaluation(
                        now_ns=int(now_ns),
                        evaluation=self.overheads.filter_evaluations,
                        verdict=verdict,
                        fresh_events=float(fresh),
                        partners=[int(p) for p in matrix.partners()],
                        matrix_digest=self._matrix_digest(matrix),
                        mapping_ns=self.overheads.mapping_ns,
                    )
                )
            if self.config.matrix_decay < 1.0:
                matrix.decay(self.config.matrix_decay)

    def _view(self, now_ns: int, matrix, fresh: float) -> PlacementView:
        """Assemble the evidence one policy evaluation may observe."""
        table = self.pipeline.address_space.page_table
        return PlacementView(
            now_ns=int(now_ns),
            machine=self.machine,
            matrix=matrix,
            fresh_events=float(fresh),
            table=table,
            node_faults=self.data_mapper,
            pt_replicated=bool(getattr(table, "active", False)),
            _thread_proposal=lambda: self._propose_thread_mapping(now_ns, matrix, fresh),
            _page_proposal=self._propose_page_migrations,
            current_placement=tuple(
                int(p) for p in self.migrator.scheduler.placement()
            ),
        )

    def _propose_thread_mapping(
        self, now_ns: int, matrix, fresh: float
    ) -> "tuple[np.ndarray | None, str, float, float]":
        """Evidence gates + mapper; ``(mapping|None, verdict, cost_now, cost_new)``.

        This is the pre-placement evaluation body verbatim: the fresh-
        evidence quota, the migration cooldown, the communication filter,
        the mapper call with its virtual cost, the improvement veto and
        the :class:`MappingDecision` trace event all behave identically
        regardless of which placement policy asks for the proposal.
        """
        if fresh < self.config.filter_min_events:
            return None, "insufficient-evidence", 0.0, 0.0
        if now_ns - self._last_migration_ns < self.config.remap_cooldown_ns:
            return None, "cooldown", 0.0, 0.0
        if self.config.filter_enabled and not self.filter.should_remap(matrix):
            return None, "pattern-unchanged", 0.0, 0.0
        if not self.config.filter_enabled and matrix.total() == 0:
            return None, "no-communication", 0.0, 0.0
        self._events_at_last_trigger = self.detector.stats.comm_events
        current = self.migrator.scheduler.placement()
        t_map = perf_counter()
        mapping = self.mapper.map(matrix, current=current)
        decide_wall_s = perf_counter() - t_map
        self.map_wall_s += decide_wall_s
        self.overheads.mapper_calls += 1
        n = self.n_threads
        if self.mapper_algorithm == "hierarchical":
            # Recursive bisection + bounded refinement: ~n^2 log n work, so
            # its virtual cost scales the same way (same per-unit constant).
            self.overheads.mapping_ns += (
                self.config.mapping_cost_ns_per_n3 * n * n * max(1.0, math.log2(n))
            )
        else:
            self.overheads.mapping_ns += self.config.mapping_cost_ns_per_n3 * n**3
        cost_now = mapping_comm_cost(matrix.matrix, current, self.machine)
        cost_new = mapping_comm_cost(matrix.matrix, mapping, self.machine)
        vetoed = cost_now > 0 and cost_new > self.config.min_improvement * cost_now
        if self.recorder is not None:
            self.recorder.emit(
                MappingDecision(
                    now_ns=int(now_ns),
                    current=[int(p) for p in current],
                    proposed=[int(p) for p in mapping],
                    cost_now=float(cost_now),
                    cost_new=float(cost_new),
                    accepted=not vetoed,
                    algorithm=self.mapper_algorithm,
                    matrix_density=float(matrix.density()),
                    decide_wall_s=float(decide_wall_s),
                )
            )
        if vetoed:
            # Vetoed: the filter's snapshot stays updated — the change
            # was considered and judged not worth a migration.  If the
            # pattern keeps evolving, partners will drift against the
            # new snapshot and re-trigger naturally.
            return None, "vetoed", float(cost_now), float(cost_new)
        return mapping, "proposed", float(cost_now), float(cost_new)

    def _propose_page_migrations(self) -> "tuple[tuple[PageMigration, ...], int]":
        """Scan the node-fault counters; ``(migrations, shared_deferred)``.

        One call is one data-mapping scan: the counters are decided over,
        then aged — exactly the legacy timer-driven cadence, but on the
        evaluation clock and without mutating the page table (that waits
        for :meth:`apply_decision`).
        """
        if self.data_mapper is None:
            return (), 0
        self.data_mapper.stats.scans += 1
        moves, deferred = self.data_mapper.decide(
            defer_shared=self.placement.maps_threads
        )
        self.data_mapper.finish_scan()
        return (
            tuple(PageMigration(vpn=vpn, target_node=node) for vpn, node in moves),
            deferred,
        )

    def apply_decision(
        self, decision: PlacementDecision, now_ns: int
    ) -> "tuple[int, int, bool]":
        """Apply one decision atomically; ``(threads_moved, pages_moved, replicated)``.

        Order matters and is fixed: replication first (so the migrations'
        page-table updates are already broadcast to fresh replicas), then
        page migrations, then the thread remap — the NUMA-placement
        analogue of establishing the memory layout before moving the
        compute to it.
        """
        replicated = False
        replication_cost = 0.0
        table = self.pipeline.address_space.page_table
        if decision.replicate_pt and isinstance(table, ReplicatedPageTable):
            if not table.active:
                replication_cost = table.activate()
                replicated = True
        pages_moved = 0
        if decision.page_migrations and self.data_mapper is not None:
            pages_moved = self.data_mapper.apply_moves(
                [(m.vpn, m.target_node) for m in decision.page_migrations]
            )
        moved = 0
        if decision.thread_mapping is not None:
            mapping = np.asarray(decision.thread_mapping, dtype=np.int64)
            moved = self.migrator.apply_mapping(mapping, now_ns)
            if moved:
                self._last_migration_ns = now_ns
                self._mapping_history.append((now_ns, mapping.copy()))
        if self.recorder is not None and (
            pages_moved or decision.page_migrations or replicated or decision.shared_deferred
        ):
            self.recorder.emit(
                PlacementApplied(
                    now_ns=int(now_ns),
                    policy=self.placement.name,
                    verdict=decision.verdict,
                    thread_moves=int(moved),
                    page_migrations=int(pages_moved),
                    shared_deferred=int(decision.shared_deferred),
                    replicated=bool(replicated),
                    replication_cost_ns=float(replication_cost),
                    copy_time_ns=float(
                        self.data_mapper.stats.copy_time_ns if self.data_mapper else 0.0
                    ),
                )
            )
        return moved, pages_moved, replicated

    @staticmethod
    def _matrix_digest(matrix) -> str:
        """Short content digest of the matrix snapshot (trace audit anchor)."""
        return matrix_digest(matrix)

    # -- reporting ---------------------------------------------------------------
    @property
    def migration_count(self) -> int:
        """Full-mapping migration events performed (Table II row)."""
        return self.migrator.migration_events

    def detection_time_ns(self) -> float:
        """Virtual time spent detecting (hook work + injection walks)."""
        return self.pipeline.hook_time_ns + self.injector.inject_time_ns

    def mapping_time_ns(self) -> float:
        """Virtual time spent mapping, migrating and replicating.

        Includes the page-table replication bill (activation copies +
        coherence broadcasts) when a :class:`ReplicatedPageTable` is in
        play — zero otherwise, so thread-only totals are unchanged.
        """
        return (
            self.overheads.mapping_ns
            + self.migrator.cost_ns
            + self.replication_time_ns()
        )

    def replication_time_ns(self) -> float:
        """Virtual time spent on page-table replication (0.0 when off)."""
        table = self.pipeline.address_space.page_table
        return float(getattr(table, "replication_cost_ns", 0.0))

    def overhead_summary(self, total_ns: float) -> dict[str, float]:
        """Percentages for the Fig. 16 reproduction."""
        return {
            "detection_pct": 100.0 * self.detection_time_ns() / total_ns if total_ns else 0.0,
            "mapping_pct": 100.0 * self.mapping_time_ns() / total_ns if total_ns else 0.0,
            "migrations": float(self.migration_count),
        }

    @property
    def mapping_history(self) -> list[tuple[int, np.ndarray]]:
        """(time, mapping) for every applied migration."""
        return list(self._mapping_history)
