"""The Fig. 8 simulator workloads: whole simulations under several policies.

One *cell* simulates one NPB kernel once per policy from the same seed;
cell *k* uses the simulator seed ``derive_seed(seed, "cell", k)``.  A run
simulates a fixed number of cells, ``cells_per_s * --seconds`` (the rate a
2-CPU Xeon host reaches), so every simulated result is a function of the
seed alone and only host time varies between runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import statistics
from pathlib import Path
from time import perf_counter

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.core.injector import FaultInjector
from repro.core.manager import SpcdManager
from repro.core.mapping import HierarchicalMapper
from repro.core.spcd import SpcdDetector
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator
from repro.kernelsim.kthread import TimerWheel
from repro.kernelsim.migration import MigrationEngine
from repro.kernelsim.scheduler import CfsLikeScheduler, PinnedScheduler
from repro.mem.fault import FaultPipeline
from repro.mem.pagetable import PageTable
from repro.rng import derive_seed
from repro.workloads.npb import SyntheticNpbWorkload, make_npb

from hostspeed import probe, slowdown
from spans import Tracer

#: 100 steps at 4x the default sampling factor cover the same ~1.2 s of
#: simulated time as the paper configuration's 400 steps, so SPCD gets past
#: its 250 ms remap cooldown, at a quarter of the host cost.
ENGINE = dict(steps=100, batch_size=256, time_scale=6000.0)
SMOKE_ENGINE = dict(steps=12, batch_size=64, time_scale=6000.0)

WORKLOADS = {
    # name: (NPB kernel, policies, cells per second of --seconds)
    "fig8-sp": ("SP", ("os", "oracle", "spcd"), 0.1),
    "fig8-ep": ("EP", ("os", "spcd"), 0.2),
}

#: SPCD's detected matrix on SP must correlate with the generator's ground
#: truth at least this well (it reaches > 0.95 at this configuration)
CORRELATION_FLOOR = 0.8
#: simulator constructions per run for ``setup_s`` (median reported)
SETUP_REPS = 9

#: the public calls timed in the traced pass, per layer
TRACE_TARGETS = [
    (Simulator, "__init__", "engine.setup"),
    (Simulator, "run", "engine.run"),
    (SyntheticNpbWorkload, "setup", "workloads.setup"),
    (SyntheticNpbWorkload, "generate", "workloads.generate"),
    (CoherentHierarchy, "access_batch_pu", "cachesim.access"),
    (FaultPipeline, "faulting_mask", "mem.fault"),
    (FaultPipeline, "handle_fault_batch", "mem.fault"),
    (PageTable, "home_nodes", "mem.pagetable"),
    (PageTable, "mark_accessed_batch", "mem.pagetable"),
    (SpcdDetector, "on_fault_batch", "core.detect"),
    (FaultInjector, "wake", "core.inject"),
    (SpcdManager, "evaluate", "core.evaluate"),
    (HierarchicalMapper, "map", "core.map"),
    (MigrationEngine, "apply_mapping", "kernelsim.migrate"),
    (TimerWheel, "tick", "kernelsim.tick"),
    (CfsLikeScheduler, "on_quantum", "kernelsim.sched"),
    (PinnedScheduler, "on_quantum", "kernelsim.sched"),
]

DIGEST_METRICS = (
    "exec_time_s",
    "instructions",
    "l2_mpki",
    "l3_mpki",
    "c2c_transactions",
    "c2c_inter",
    "invalidations",
    "migrations",
    "os_migrations",
    "first_touch_faults",
    "injected_faults",
)


def result_digest(result: SimulationResult) -> str:
    """Content hash of the cache counters and every simulated metric."""
    stats = dataclasses.astuple(result.stats)
    metrics = tuple(result.metric(m) for m in DIGEST_METRICS)
    return hashlib.sha256(repr((stats, metrics)).encode()).hexdigest()[:16]


def _build(kernel: str, policy: str, seed: int, config: EngineConfig) -> Simulator:
    return Simulator(
        make_npb(kernel), policy, seed=seed, config=config, settings=RunSettings()
    )


def simulate(kernel: str, policy: str, seed: int, config: EngineConfig) -> dict:
    """Build and run one simulation; return its timings, results and checks.

    Host times are raw; ``slowdown`` (probes just before and after) scales
    them to the reference host.
    """
    before = probe()
    t0 = perf_counter()
    sim = _build(kernel, policy, seed, config)
    t1 = perf_counter()
    marks: list[float] = []
    result = sim.run(step_callback=lambda _sim, _step, _now: marks.append(perf_counter()))
    t2 = perf_counter()
    steps = [b - a for a, b in zip([t1] + marks[:-1], marks)]
    after = probe()
    speed = slowdown([before, after])

    problems = [f"invariant: {p}" for p in sim.hierarchy.check_invariants()[:3]]
    expected = config.steps * sim.workload.n_threads * config.batch_size
    if result.perf.accesses != expected:
        problems.append(f"accesses {result.perf.accesses} != {expected}")
    row = {
        "policy": policy,
        "seed": seed,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "step_s": steps,
        "slowdown": speed,
        "probe_s": before + after,
        "accesses": result.perf.accesses,
        "digest": result_digest(result),
        "result": result,
        "problems": problems,
    }
    if sim.manager is not None:
        stats = sim.manager.detector.stats
        row["comm_events"] = stats.comm_events
        row["evaluations"] = sim.manager.overheads.filter_evaluations
        corr = result.detected_matrix.correlation(sim.workload.ground_truth())
        row["correlation"] = corr
        if kernel == "SP" and not corr >= CORRELATION_FLOOR:
            problems.append(f"detected-matrix correlation {corr:.3f} < {CORRELATION_FLOOR}")
    return row


def _cell_seed(seed: int, k: int) -> int:
    return derive_seed(seed, "cell", k) % (1 << 31)


def _run_cells(kernel, policies, seed, config, n_cells):
    return [
        {p: simulate(kernel, p, _cell_seed(seed, k), config) for p in policies}
        for k in range(n_cells)
    ]


def setup_seconds(kernel, policies, seed, config) -> tuple[float, float]:
    """Median over repetitions of building one cell's simulators:
    ``(reference seconds, raw seconds)``."""
    probes = [probe()]
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        t = perf_counter()
        for policy in policies:
            _build(kernel, policy, _cell_seed(seed, 0), config)
        raw.append(perf_counter() - t)
        probes.append(probe())
        scaled.append(raw[-1] / slowdown(probes[-2:]))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(cells) -> dict[str, float]:
    """The user-visible metrics of a list of cells (all but setup/memory),
    host times in reference seconds."""
    rows = [row for cell in cells for row in cell.values()]
    steps = [s / row["slowdown"] for row in rows for s in row["step_s"]]
    ratios = [
        cell["spcd"]["result"].exec_time_s / cell["os"]["result"].exec_time_s
        for cell in cells
    ]
    return {
        "work_per_s": sum(r["accesses"] for r in rows)
        / sum(r["run_s"] / r["slowdown"] for r in rows),
        "latency_p50_ms": 1e3 * statistics.median(steps),
        "latency_p90_ms": 1e3 * statistics.quantiles(steps, n=10)[-1],
        "spcd_vs_baseline": statistics.median(ratios),
    }


def simulated_counts(cells) -> dict[str, float]:
    """Per-layer simulated counts, medians over the cells' SPCD runs."""
    spcd = [cell["spcd"] for cell in cells]
    res = [row["result"] for row in spcd]
    os_res = [cell["os"]["result"] for cell in cells]
    out = {
        "cachesim.l2_mpki": statistics.median([r.l2_mpki for r in res]),
        "cachesim.l3_mpki": statistics.median([r.l3_mpki for r in res]),
        "cachesim.c2c": statistics.median([r.c2c_transactions for r in res]),
        "cachesim.c2c_inter": statistics.median([r.c2c_inter for r in res]),
        "cachesim.c2c_vs_os": statistics.median(
            [s.c2c_transactions / o.c2c_transactions for s, o in zip(res, os_res)]
        ),
        "cachesim.invalidations": statistics.median([r.invalidations for r in res]),
        "mem.faults_first_touch": statistics.median([r.first_touch_faults for r in res]),
        "mem.faults_injected": statistics.median([r.injected_faults for r in res]),
        "mem.injected_ratio": statistics.median([r.injected_ratio for r in res]),
        "core.comm_events": statistics.median([row["comm_events"] for row in spcd]),
        "core.evaluations": statistics.median([row["evaluations"] for row in spcd]),
        "core.remap_ratio": statistics.median(
            [r.migrations / max(1, row["evaluations"]) for r, row in zip(res, spcd)]
        ),
        "core.detect_correlation": statistics.median([row["correlation"] for row in spcd]),
        "kernelsim.migrations": statistics.median([r.migrations for r in res]),
        "core.oracle_gain_captured": 0.0,
    }
    if "oracle" in cells[0]:
        captured = []
        for cell in cells:
            t_os = cell["os"]["result"].exec_time_s
            t_oracle = cell["oracle"]["result"].exec_time_s
            t_spcd = cell["spcd"]["result"].exec_time_s
            captured.append((t_os - t_spcd) / (t_os - t_oracle))
        out["core.oracle_gain_captured"] = statistics.median(captured)
    return out


def layer_metrics(tracer: Tracer, accesses: int) -> dict[str, float]:
    """Per-layer host seconds from the traced pass's spans."""
    own = tracer.self_times()

    def total(*names):
        return sum(own.get(n, 0.0) for n in names)

    access_s = total("cachesim.access")
    return {
        "workloads.generate_s": total("workloads.generate", "workloads.setup"),
        "cachesim.access_s": access_s,
        "cachesim.ns_per_access": 1e9 * access_s / accesses if accesses else 0.0,
        "mem.fault_s": total("mem.fault"),
        "mem.pagetable_s": total("mem.pagetable"),
        "core.detect_s": total("core.detect"),
        "core.inject_s": total("core.inject"),
        "core.evaluate_s": total("core.evaluate"),
        "core.map_s": total("core.map"),
        "kernelsim.tick_s": total("kernelsim.tick", "kernelsim.sched", "kernelsim.migrate"),
        "engine.self_s": total("engine.run", "engine.setup"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        corrupt_digest: bool, out_dir: Path) -> dict:
    """One benchmark run of a Fig. 8 workload; returns the run summary."""
    kernel, policies, cells_per_s = WORKLOADS[workload]
    config = EngineConfig(**(SMOKE_ENGINE if smoke else ENGINE))
    n_cells = 1 if smoke else max(1, round(cells_per_s * seconds))
    setup_s, raw_setup_s = setup_seconds(kernel, policies, seed, config)
    tracer = None
    if not trace:
        cells = _run_cells(kernel, policies, seed, config, n_cells)
        traced_cells = []
    else:
        # Same cells twice: plain, then with every layer call wrapped in a
        # span.  The digests must agree (tracing changes nothing simulated)
        # and the host-time ratio is the tracing overhead.
        n_cells = max(1, n_cells // 2)
        cells = _run_cells(kernel, policies, seed, config, n_cells)
        tracer = Tracer()
        window_start = perf_counter()
        with tracer.patch(TRACE_TARGETS):
            traced_cells = _run_cells(kernel, policies, seed, config, n_cells)
        window_s = perf_counter() - window_start
    for cell, traced in zip(cells, traced_cells):
        for policy, row in traced.items():
            digest = row["digest"] + ("x" if corrupt_digest else "")
            if digest != cell[policy]["digest"]:
                row["problems"].append("traced run digest differs from plain run")
    plain = [row for cell in cells for row in cell.values()]
    rows = plain + [row for cell in traced_cells for row in cell.values()]
    failed = sum(1 for row in rows if row["problems"])
    summary = {
        "attempted": len(rows),
        "failed": failed,
        "problems": [p for row in rows for p in row["problems"]],
        "digests": [
            {k: r[k] for k in ("policy", "seed", "digest", "setup_s", "run_s", "slowdown")}
            for r in rows
        ],
        "end_to_end": end_to_end(cells),
        "raw": {
            "setup_s": raw_setup_s,
            "work_per_s": sum(r["accesses"] for r in plain) / sum(r["run_s"] for r in plain),
            "slowdown": statistics.median(r["slowdown"] for r in plain),
        },
    }
    if tracer is not None:
        traced_rows = [row for cell in traced_cells for row in cell.values()]
        plain_run_s = sum(r["run_s"] / r["slowdown"] for r in plain)
        traced_run_s = sum(r["run_s"] / r["slowdown"] for r in traced_rows)
        # the probes run inside the traced window but belong to no layer
        window_s -= sum(r["probe_s"] for r in traced_rows)
        layers = layer_metrics(tracer, sum(r["accesses"] for r in traced_rows))
        layers.update(simulated_counts(cells))
        layers["trace.overhead_ratio"] = traced_run_s / plain_run_s - 1.0
        layers["trace.unattributed_ratio"] = (window_s - tracer.root_seconds()) / window_s
        summary["layers"] = layers
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    summary["end_to_end"]["setup_s"] = setup_s
    summary["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return summary
