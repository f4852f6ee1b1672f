"""Replicated experiments with confidence intervals.

The paper runs each configuration 10 times and reports means with 95 %
confidence intervals from a Student's t-distribution (Sec. V-A); this module
reproduces that protocol (with a configurable repetition count) and offers
normalisation against the OS baseline for the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from repro.core.manager import SpcdConfig
from repro.engine.policies import Policy
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator
from repro.errors import ConfigurationError
from repro.machine.topology import Machine
from repro.placement import PlacementPolicy, resolve_policy
from repro.rng import derive_seed
from repro.workloads.base import Workload

from typing import Callable

WorkloadFactory = Callable[[], Workload]


@dataclass(frozen=True)
class MetricStats:
    """Mean and 95 % CI of one metric over repetitions."""

    mean: float
    ci95: float
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        """Number of repetitions."""
        return len(self.values)


def summarize(values: list[float] | np.ndarray, confidence: float = 0.95) -> MetricStats:
    """Mean + Student-t confidence half-width of *values*."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot summarise zero repetitions")
    mean = float(arr.mean())
    if arr.size == 1 or np.allclose(arr, mean):
        return MetricStats(mean=mean, ci95=0.0, values=tuple(arr))
    sem = arr.std(ddof=1) / np.sqrt(arr.size)
    half = float(sem * sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return MetricStats(mean=mean, ci95=half, values=tuple(arr))


#: metrics extracted from each run for the replicated summaries
REPORT_METRICS = (
    "exec_time_s",
    "l2_mpki",
    "l3_mpki",
    "c2c_transactions",
    "proc_energy_j",
    "dram_energy_j",
    "proc_epi_nj",
    "dram_epi_nj",
    "migrations",
    "detection_pct",
    "mapping_pct",
)


@dataclass
class ReplicatedResult:
    """Per-metric statistics of one (workload, policy) cell."""

    workload: str
    policy: str
    metrics: dict[str, MetricStats]
    runs: list[SimulationResult] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        """Mean of *metric*."""
        return self.metrics[metric].mean


def run_single(
    workload_factory: WorkloadFactory,
    policy: "PlacementPolicy | str | Policy",
    *,
    machine: Machine | None = None,
    seed: int = 0,
    config: EngineConfig | None = None,
    spcd_config: SpcdConfig | None = None,
    settings: "RunSettings | None" = None,
) -> SimulationResult:
    """One simulation run (fresh workload instance, derived seed)."""
    sim = Simulator(
        workload_factory(),
        policy,
        machine=machine,
        seed=seed,
        config=config,
        spcd_config=spcd_config,
        settings=settings,
    )
    return sim.run()


def run_replicated(
    workload_factory: WorkloadFactory,
    policy: "PlacementPolicy | str | Policy",
    *,
    machine: Machine | None = None,
    reps: int = 3,
    base_seed: int = 42,
    config: EngineConfig | None = None,
    spcd_config: SpcdConfig | None = None,
    keep_runs: bool = False,
    workers: "int | None" = None,
    cache: "object | None" = None,
    trace: "object | None" = None,
    settings: "RunSettings | None" = None,
) -> ReplicatedResult:
    """Run *reps* repetitions with derived seeds; summarise every metric.

    For the RANDOM policy each repetition derives a fresh seed and hence a
    fresh random mapping, reproducing the paper's "10 different mappings,
    one for each execution".

    With *workers* > 1 or a result *cache* (a directory or a live
    :class:`~repro.engine.cache.ResultCache`), delegates to
    :func:`repro.engine.gridrunner.run_grid` (same seed protocol, so the
    result is identical to the serial path) and inherits its fault
    tolerance: timeouts, retries and checkpointed resume.
    """
    if reps <= 0:
        raise ConfigurationError("reps must be positive")
    policy = resolve_policy(policy)
    if trace is not None:
        base = settings if settings is not None else RunSettings.from_env()
        settings = base.with_overrides(trace=str(trace))
    if (workers is not None and workers > 1) or cache is not None:
        from repro.engine import gridrunner  # local import: gridrunner imports us

        grid = gridrunner.run_grid(
            [workload_factory],
            [policy],
            reps,
            base_seed=base_seed,
            machine=machine,
            config=config,
            spcd_config=spcd_config,
            workers=workers,
            cache=cache,
            trace=trace,
            settings=settings,
            keep_runs=keep_runs,
        )
        return next(iter(grid.cells.values()))
    runs: list[SimulationResult] = []
    for rep in range(reps):
        seed = derive_seed(base_seed, "rep", rep, policy.name)
        runs.append(
            run_single(
                workload_factory,
                policy,
                machine=machine,
                seed=seed,
                config=config,
                spcd_config=spcd_config,
                settings=settings,
            )
        )
    metrics = {
        name: summarize([r.metric(name) for r in runs]) for name in REPORT_METRICS
    }
    first = runs[0]
    return ReplicatedResult(
        workload=first.workload,
        policy=policy.name,
        metrics=metrics,
        runs=runs if keep_runs else [],
    )


def normalized_to(
    results: dict[str, ReplicatedResult], metric: str, baseline_policy: str = "os"
) -> dict[str, float]:
    """Each policy's mean *metric* divided by the baseline's (Fig. 8-15 style)."""
    if baseline_policy not in results:
        raise ConfigurationError(f"baseline policy {baseline_policy!r} missing")
    base = results[baseline_policy].mean(metric)
    if base == 0:
        return {p: (0.0 if r.mean(metric) == 0 else float("inf")) for p, r in results.items()}
    return {p: r.mean(metric) / base for p, r in results.items()}
