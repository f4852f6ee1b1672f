"""Fault-tolerant, resumable, disk-cached experiment grids.

The paper's figures are projections of one expensive grid: every NPB
benchmark under every mapping policy, replicated with derived seeds
(Sec. V-A).  :func:`run_grid` executes such a grid as independent
``(workload, policy, rep)`` cells with the robustness of a production
job scheduler:

* **parallel execution** — cells fan out over supervised worker
  processes (:mod:`repro.engine.pool`), sized by
  :class:`~repro.engine.settings.RunSettings` (``REPRO_GRID_WORKERS``);
* **fault tolerance** — a hung cell is killed at its per-cell timeout, a
  crashed worker is detected and respawned, and failed attempts retry
  with exponential backoff; a cell that exhausts its budget degrades to
  a typed :class:`CellFailure` entry instead of aborting the sweep
  (opt-in strict mode raises :class:`~repro.errors.GridExecutionError`);
* **resumability** — each cell's terminal state is durably appended to a
  checkpoint manifest (:mod:`repro.engine.checkpoint`) the moment it
  lands, so re-invoking an interrupted sweep with the same settings
  re-runs only unfinished cells and produces byte-identical aggregates;
* **caching** — each cell's :class:`~repro.engine.simulator.SimulationResult`
  is memoized in a content-addressed on-disk cache
  (:mod:`repro.engine.cache`, ``REPRO_RESULT_CACHE``);
* **observability** — scheduler decisions (retries, timeouts, crashes,
  resumes) are traced through :mod:`repro.obs`, and
  ``python -m repro.obs.report`` summarizes a sweep's reliability.

Determinism: a cell's seed is ``derive_seed(base_seed, "rep", rep,
policy)`` — exactly what the serial :func:`repro.engine.runner.run_replicated`
protocol uses — and each cell simulation is fully determined by its seed,
so grid results are byte-identical no matter how cells are scheduled,
killed, retried or resumed across processes and invocations.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from repro.core.manager import SpcdConfig
from repro.engine import cache as _cache_mod
from repro.engine import checkpoint as _checkpoint
from repro.engine import pool as _pool
from repro.engine.policies import Policy
from repro.engine.runner import (
    REPORT_METRICS,
    ReplicatedResult,
    WorkloadFactory,
    summarize,
)
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator
from repro.errors import ConfigurationError, GridExecutionError
from repro.machine.topology import Machine, dual_xeon_e5_2650
from repro.obs.events import (
    CellAttemptFailed,
    CellCompleted,
    CellFailed,
    CellRetry,
    GridEnd,
    GridStart,
)
from repro.obs.recorder import JsonlRecorder, cell_trace_path, grid_trace_path
from repro.placement import PlacementPolicy, resolve_policy
from repro.rng import derive_seed
from repro.workloads.npb import make_npb

__all__ = [
    "CellFailure",
    "GridResult",
    "run_cell",
    "run_grid",
]

#: a workload in a grid: an NPB benchmark name, a zero-arg factory, or an
#: explicit ``(name, factory)`` pair
WorkloadSpec = "str | WorkloadFactory | tuple[str, WorkloadFactory]"


def _resolve_spec(spec: "WorkloadSpec") -> tuple[str, WorkloadFactory]:
    """Normalise a workload spec to ``(name, factory)``."""
    if isinstance(spec, str):
        return spec, partial(make_npb, spec)
    if isinstance(spec, tuple):
        name, factory = spec
        return str(name), factory
    if callable(spec):
        name = getattr(spec, "__name__", None)
        if name is None and isinstance(spec, partial):
            name = getattr(spec.func, "__name__", "workload")
            if spec.args:
                name = f"{name}:{','.join(map(str, spec.args))}"
        return name or "workload", spec
    raise ConfigurationError(f"cannot interpret workload spec {spec!r}")


def _factory_token(factory: WorkloadFactory) -> tuple:
    """A stable, content-addressable identity for a workload factory.

    Built from import path + arguments, never ``repr`` (which leaks memory
    addresses).  Named module-level functions and :func:`functools.partial`
    over named functions yield stable tokens.  Factories *without* a stable
    import path — lambdas, closures (``<locals>`` in the qualname), objects
    with no ``__qualname__`` at all — raise :class:`ConfigurationError`:
    every lambda in a module shares the qualname ``<lambda>``, so two
    different ad-hoc factories would otherwise collide in the cell key and
    silently serve each other's cached results.  Callers bypass the cache
    for such factories (see :func:`_cache_token`).
    """
    if isinstance(factory, partial):
        return (
            "partial",
            _factory_token(factory.func),
            tuple(factory.args),
            tuple(sorted(factory.keywords.items())),
        )
    module = getattr(factory, "__module__", "?")
    qualname = getattr(factory, "__qualname__", getattr(factory, "__name__", None))
    if qualname is None or "<lambda>" in qualname or "<locals>" in qualname:
        raise ConfigurationError(
            f"workload factory {qualname or factory!r} (module {module}) has no "
            "stable import path, so its cached results would collide with any "
            "other such factory; define the factory at module level or use "
            "functools.partial over a named function"
        )
    return ("fn", module, qualname)


def _cache_token(factory: WorkloadFactory) -> "tuple | None":
    """The factory's cache token, or ``None`` to bypass the cache.

    A factory with no stable identity cannot be safely cached; degrade to
    an uncached run (with a warning) rather than failing the experiment or
    — worse — colliding silently.
    """
    try:
        return _factory_token(factory)
    except ConfigurationError as exc:
        warnings.warn(f"{exc}; running without the result cache", stacklevel=3)
        return None


@dataclass(frozen=True)
class _Cell:
    """One grid cell: a fully specified single simulation."""

    workload: str
    policy: str
    rep: int
    seed: int
    key: str  # content-addressed cache key


@dataclass(frozen=True)
class CellFailure:
    """A cell that exhausted its retry budget (graceful-degradation entry).

    The sweep completes around it; strict mode turns the presence of any
    such entry into a :class:`~repro.errors.GridExecutionError`.
    """

    workload: str
    policy: str
    rep: int
    seed: int
    #: attempts consumed (first try + retries)
    attempts: int
    #: terminal failure kind: ``timeout``, ``crash`` or ``error``
    kind: str
    #: terminal failure message
    message: str
    #: every attempt's ``kind: message`` history, oldest first
    history: tuple[str, ...] = ()


def _cell_key(
    wl_token: tuple,
    policy: str,
    seed: int,
    machine: Machine,
    config: EngineConfig,
    spcd_config: SpcdConfig,
) -> str:
    blob = repr((wl_token, policy, seed, repr(machine), repr(config), repr(spcd_config)))
    h = hashlib.blake2b(digest_size=20)
    h.update(_cache_mod.code_version().encode())
    h.update(blob.encode())
    return h.hexdigest()


def _run_cell_job(payload: tuple) -> SimulationResult:
    """Pool worker: run one cell simulation (module-level for pickling)."""
    factory, policy, seed, machine, config, spcd_config, trace_path, settings = payload
    recorder = JsonlRecorder(trace_path) if trace_path else None
    sim = Simulator(
        factory(),
        policy,
        machine=machine,
        seed=seed,
        config=config,
        spcd_config=spcd_config,
        recorder=recorder,
        settings=settings,
    )
    return sim.run()


# ---------------------------------------------------------------------------
# settings / kwarg resolution
# ---------------------------------------------------------------------------
def _effective_settings(settings: "RunSettings | None", **overrides) -> RunSettings:
    """Explicit kwargs > explicit ``settings`` > the environment."""
    base = settings if settings is not None else RunSettings.from_env()
    return base.with_overrides(**overrides)


def _resolve_cache(cache, eff: RunSettings) -> "_cache_mod.ResultCache | None":
    """The live cache object: an explicit instance wins, else the settings."""
    if isinstance(cache, _cache_mod.ResultCache):
        return cache
    if eff.cache_dir:
        return _cache_mod.ResultCache(eff.cache_dir)
    return None


def run_cell(
    workload: "WorkloadSpec",
    policy: "PlacementPolicy | str | Policy",
    rep: int = 0,
    *,
    base_seed: int = 42,
    machine: "Machine | None" = None,
    config: "EngineConfig | None" = None,
    spcd_config: "SpcdConfig | None" = None,
    cache: "object | None" = None,
    trace: "str | os.PathLike | None" = None,
    settings: "RunSettings | None" = None,
) -> tuple[SimulationResult, bool]:
    """One grid cell, through the cache; returns ``(result, was_cached)``.

    *cache* accepts a directory path or a live
    :class:`~repro.engine.cache.ResultCache`; unset, it follows
    *settings* (default: the ``REPRO_RESULT_CACHE`` environment).  With
    *trace* (default: ``REPRO_TRACE``) set, a freshly simulated cell
    writes its JSONL trace to :func:`repro.obs.recorder.cell_trace_path`;
    cells served from the cache do not re-run and produce no trace.  The
    recorder never participates in the cache key.
    """
    eff = _effective_settings(
        settings,
        cache_dir=None
        if cache is None or isinstance(cache, _cache_mod.ResultCache)
        else str(cache),
        trace=str(trace) if trace is not None else None,
    )
    policy = resolve_policy(policy)
    name, factory = _resolve_spec(workload)
    machine = machine or dual_xeon_e5_2650()
    config = config or EngineConfig()
    spcd_config = spcd_config or SpcdConfig()
    seed = derive_seed(base_seed, "rep", rep, policy.name)
    live_cache = _resolve_cache(cache, eff)
    key = ""
    if live_cache is not None:
        token = _cache_token(factory)
        if token is None:
            live_cache = None  # no stable identity: bypass, never collide
        else:
            key = _cell_key(token, policy.name, seed, machine, config, spcd_config)
            hit = live_cache.load(key)
            if hit is not None:
                return hit, True
    trace_root = Path(eff.trace) if eff.trace else None
    trace_path = (
        str(cell_trace_path(trace_root, name, policy.name, rep))
        if trace_root is not None
        else None
    )
    job_settings = replace(eff, trace=None)  # recorder is built explicitly
    result = _run_cell_job(
        (factory, policy, seed, machine, config, spcd_config, trace_path, job_settings)
    )
    if live_cache is not None:
        live_cache.store(key, result)
    return result, False


@dataclass
class GridResult:
    """All cells of one grid run, plus the sweep's reliability record."""

    #: ``(workload name, policy) -> ReplicatedResult`` (cells where at
    #: least one repetition produced a result)
    cells: dict[tuple[str, str], ReplicatedResult] = field(default_factory=dict)
    #: cells served from the on-disk cache
    cache_hits: int = 0
    #: cells actually simulated (or attempted)
    cache_misses: int = 0
    #: cells that exhausted their retry budget (graceful degradation)
    failures: list[CellFailure] = field(default_factory=list)
    #: attempts re-queued after a failure
    retries: int = 0
    #: attempts killed at the per-cell timeout
    timeouts: int = 0
    #: attempts whose worker died without delivering a result
    crashes: int = 0
    #: cells skipped because the checkpoint manifest recorded them done
    resumed_cells: int = 0

    @property
    def ok(self) -> bool:
        """True when every cell produced a result."""
        return not self.failures

    def cell(self, workload: str, policy: str) -> ReplicatedResult:
        """The replicated summary of one ``(workload, policy)`` cell."""
        return self.cells[(workload, resolve_policy(policy).name)]

    def by_workload(self, workload: str) -> dict[str, ReplicatedResult]:
        """``{policy: ReplicatedResult}`` for one workload (for
        :func:`repro.engine.runner.normalized_to`)."""
        return {p: r for (w, p), r in self.cells.items() if w == workload}

    def failed_cells(
        self, workload: "str | None" = None, policy: "str | None" = None
    ) -> list[CellFailure]:
        """Failure records, optionally filtered by workload and/or policy."""
        return [
            f
            for f in self.failures
            if (workload is None or f.workload == workload)
            and (policy is None or f.policy == policy)
        ]

    @property
    def workloads(self) -> list[str]:
        """Workload names present, in insertion order."""
        seen: dict[str, None] = {}
        for w, _ in self.cells:
            seen.setdefault(w)
        return list(seen)


def _resolve_manifest(
    checkpoint, cache: "_cache_mod.ResultCache | None", gkey: str
) -> "_checkpoint.GridManifest | None":
    """The sweep's checkpoint manifest (``False`` disables, ``None`` = auto)."""
    if checkpoint is False or not gkey:
        return None
    if checkpoint is None or checkpoint is True:
        if cache is None:
            if checkpoint is True:
                raise ConfigurationError(
                    "checkpoint=True needs a result cache to store cell results in"
                )
            return None
        path = cache.root / f"grid-{gkey}.manifest.jsonl"
    else:
        path = Path(checkpoint)
    return _checkpoint.GridManifest(path, gkey)


def run_grid(
    workloads: Sequence["WorkloadSpec"],
    policies: Sequence["PlacementPolicy | str | Policy"] = (
        "os",
        "random",
        "oracle",
        "spcd",
    ),
    reps: int = 3,
    *,
    base_seed: int = 42,
    machine: "Machine | None" = None,
    config: "EngineConfig | None" = None,
    spcd_config: "SpcdConfig | None" = None,
    workers: "int | None" = None,
    cache: "object | None" = None,
    trace: "str | os.PathLike | None" = None,
    settings: "RunSettings | None" = None,
    checkpoint: "str | os.PathLike | bool | None" = None,
    strict: "bool | None" = None,
    cell_timeout_s: "float | None" = None,
    cell_retries: "int | None" = None,
    retry_backoff_s: "float | None" = None,
    keep_runs: bool = False,
    progress: "Callable[[str], None] | None" = None,
) -> GridResult:
    """Run a ``workloads x policies x reps`` grid of simulations.

    Configuration resolves explicit keyword > *settings* object >
    environment (:meth:`RunSettings.from_env`).  Cells already in the
    result cache are loaded in the parent; the remaining cells are
    simulated on a supervised pool of *workers* child processes with
    per-cell timeouts, crash respawn and bounded exponential-backoff
    retry.  Results are byte-identical to running every cell serially
    with :func:`repro.engine.runner.run_replicated` under the same
    *base_seed*.

    **Failure model.**  A cell that exhausts ``1 + cell_retries``
    attempts becomes a :class:`CellFailure` in :attr:`GridResult.failures`
    and the sweep completes; with *strict* the sweep instead raises
    :class:`~repro.errors.GridExecutionError` after draining.  Cells are
    only aggregated over repetitions that produced results.

    **Checkpoint / resume.**  With a cache, each cell's terminal state is
    durably appended to a manifest (*checkpoint*: ``None`` = auto-derive
    next to the cache, a path = use it, ``False`` = disable).
    Re-invoking an interrupted grid with the same settings re-runs only
    cells without a ``done`` record; previously failed cells get a fresh
    attempt budget.

    With *trace* (default: ``REPRO_TRACE``) set, every freshly simulated
    cell writes one JSONL trace file and the sweep's scheduler decisions
    (retries, timeouts, crashes, resume counts) are traced to a
    ``grid-*.jsonl`` file for ``python -m repro.obs.report``.  Trace
    configuration is deliberately excluded from the cell cache keys:
    tracing never changes results.
    """
    if reps <= 0:
        raise ConfigurationError("reps must be positive")
    if not workloads or not policies:
        raise ConfigurationError("run_grid needs at least one workload and one policy")
    eff = _effective_settings(
        settings,
        workers=workers,
        cache_dir=None
        if cache is None or isinstance(cache, _cache_mod.ResultCache)
        else str(cache),
        trace=str(trace) if trace is not None else None,
        strict=strict,
        cell_timeout_s=cell_timeout_s,
        cell_retries=cell_retries,
        retry_backoff_s=retry_backoff_s,
    )
    machine = machine or dual_xeon_e5_2650()
    config = config or EngineConfig()
    spcd_config = spcd_config or SpcdConfig()
    live_cache = _resolve_cache(cache, eff)

    specs = [_resolve_spec(w) for w in workloads]
    pols = [resolve_policy(p) for p in policies]
    pol_by_name = {p.name: p for p in pols}

    cells: list[_Cell] = []
    factories: dict[str, WorkloadFactory] = {}
    for name, factory in specs:
        factories[name] = factory
        token = _cache_token(factory) if live_cache is not None else None
        for pol in pols:
            for rep in range(reps):
                seed = derive_seed(base_seed, "rep", rep, pol.name)
                key = (
                    _cell_key(token, pol.name, seed, machine, config, spcd_config)
                    if token is not None
                    else ""
                )
                cells.append(_Cell(name, pol.name, rep, seed, key))

    gkey = _checkpoint.grid_key([c.key for c in cells if c.key])
    manifest = _resolve_manifest(checkpoint, live_cache, gkey)
    prior_done = manifest.done_keys() if manifest is not None else set()
    prior_failed = manifest.failed_keys() if manifest is not None else set()

    results: dict[tuple[str, str, int], SimulationResult] = {}
    misses: list[_Cell] = []
    hits = resumed_done = resumed_failed = 0
    for cell in cells:
        cached = (
            live_cache.load(cell.key) if live_cache is not None and cell.key else None
        )
        if cached is not None:
            results[(cell.workload, cell.policy, cell.rep)] = cached
            hits += 1
            if cell.key in prior_done:
                resumed_done += 1
        else:
            if cell.key in prior_failed:
                resumed_failed += 1
            misses.append(cell)

    trace_root = Path(eff.trace) if eff.trace else None
    grid_rec = (
        JsonlRecorder(grid_trace_path(trace_root, gkey))
        if trace_root is not None
        else None
    )
    if grid_rec is not None:
        grid_rec.emit(
            GridStart(
                grid_key=gkey,
                workloads=[name for name, _ in specs],
                policies=[p.name for p in pols],
                reps=reps,
                cells=len(cells),
                cached=hits,
                resumed_done=resumed_done,
                resumed_failed=resumed_failed,
                to_run=len(misses),
                workers=eff.workers,
                timeout_s=eff.cell_timeout_s or 0.0,
                retries=eff.cell_retries,
                strict=eff.strict,
            )
        )
    if progress is not None and cells:
        resumed_note = (
            f", resuming checkpoint ({resumed_done} done, {resumed_failed} failed)"
            if resumed_done or resumed_failed
            else ""
        )
        progress(
            f"grid: {hits}/{len(cells)} cells cached, {len(misses)} to run{resumed_note}"
        )

    job_settings = replace(eff, trace=None)  # per-cell recorders are explicit

    def payload_of(c: _Cell) -> tuple:
        trace_path = (
            str(cell_trace_path(trace_root, c.workload, c.policy, c.rep))
            if trace_root is not None
            else None
        )
        return (
            factories[c.workload],
            pol_by_name[c.policy],
            c.seed,
            machine,
            config,
            spcd_config,
            trace_path,
            job_settings,
        )

    counters = {"retries": 0, "timeouts": 0, "crashes": 0}
    failures: list[CellFailure] = []
    attempt_history: dict[int, list[str]] = {}

    def settle(cell: _Cell, result: SimulationResult, attempts: int) -> None:
        """Persist one finished cell the moment it lands (durable resume)."""
        if live_cache is not None and cell.key:
            live_cache.store(cell.key, result)
        if manifest is not None and cell.key:
            manifest.record(
                _checkpoint.CellRecord(
                    key=cell.key,
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    status=_checkpoint.DONE,
                    attempts=attempts,
                )
            )
        if grid_rec is not None:
            grid_rec.emit(
                CellCompleted(
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    attempts=attempts,
                )
            )

    def settle_failure(cell: _Cell, attempts: int, kind: str, message: str) -> None:
        failures.append(
            CellFailure(
                workload=cell.workload,
                policy=cell.policy,
                rep=cell.rep,
                seed=cell.seed,
                attempts=attempts,
                kind=kind,
                message=message,
                history=tuple(attempt_history.get(id(cell), ())),
            )
        )
        if manifest is not None and cell.key:
            manifest.record(
                _checkpoint.CellRecord(
                    key=cell.key,
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    status=_checkpoint.FAILED,
                    attempts=attempts,
                    error=f"{kind}: {message}",
                )
            )
        if grid_rec is not None:
            grid_rec.emit(
                CellFailed(
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    attempts=attempts,
                    kind=kind,
                    message=message,
                )
            )

    def note_attempt_failure(cell: _Cell, attempt: int, kind: str, message: str) -> None:
        attempt_history.setdefault(id(cell), []).append(f"{kind}: {message}")
        if kind == _pool.TIMEOUT:
            counters["timeouts"] += 1
        elif kind == _pool.CRASH:
            counters["crashes"] += 1
        if grid_rec is not None:
            grid_rec.emit(
                CellAttemptFailed(
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    attempt=attempt,
                    kind=kind,
                    message=message,
                )
            )
        if progress is not None:
            progress(
                f"grid: {cell.workload}/{cell.policy}/rep{cell.rep} "
                f"attempt {attempt} {kind}: {message}"
            )

    def note_retry(cell: _Cell, attempt: int, backoff_s: float) -> None:
        counters["retries"] += 1
        if grid_rec is not None:
            grid_rec.emit(
                CellRetry(
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    attempt=attempt,
                    backoff_s=backoff_s,
                )
            )

    if misses:
        use_pool = eff.workers > 1 or eff.cell_timeout_s is not None
        if use_pool:
            tasks = [
                _pool.CellTask(
                    index=i,
                    payload=payload_of(c),
                    label=f"{c.workload}/{c.policy}/rep{c.rep}",
                )
                for i, c in enumerate(misses)
            ]

            def on_event(kind: str, task: _pool.CellTask, detail: dict) -> None:
                cell = misses[task.index]
                if kind in (_pool.TIMEOUT, _pool.CRASH, _pool.ERROR):
                    note_attempt_failure(
                        cell, detail["attempt"], kind, detail["message"]
                    )
                elif kind == "retry":
                    note_retry(cell, detail["attempt"], detail["backoff_s"])
                elif kind == "failed":
                    settle_failure(
                        cell, detail["attempts"], detail["kind"], detail["message"]
                    )

            outcomes = _pool.run_tasks(
                tasks,
                _run_cell_job,
                workers=eff.workers,
                timeout_s=eff.cell_timeout_s,
                retries=eff.cell_retries,
                backoff_s=eff.retry_backoff_s,
                on_event=on_event,
                on_result=lambda task, result, attempts: settle(
                    misses[task.index], result, attempts
                ),
            )
            for cell, outcome in zip(misses, outcomes):
                if outcome.ok:
                    results[(cell.workload, cell.policy, cell.rep)] = outcome.result
        else:
            for cell in misses:
                payload = payload_of(cell)
                attempt = 1
                while True:
                    try:
                        result = _run_cell_job(payload)
                    except Exception as exc:  # noqa: BLE001 - graceful degradation
                        message = f"{type(exc).__name__}: {exc}"
                        note_attempt_failure(cell, attempt, _pool.ERROR, message)
                        if attempt > eff.cell_retries:
                            settle_failure(cell, attempt, _pool.ERROR, message)
                            break
                        wait = eff.retry_backoff_s * (2.0 ** (attempt - 1))
                        note_retry(cell, attempt + 1, wait)
                        if wait:
                            time.sleep(wait)
                        attempt += 1
                        continue
                    results[(cell.workload, cell.policy, cell.rep)] = result
                    settle(cell, result, attempt)
                    break

    if grid_rec is not None:
        grid_rec.emit(
            GridEnd(
                grid_key=gkey,
                cells=len(cells),
                cache_hits=hits,
                cache_misses=len(misses),
                completed=len(results),
                failed=len(failures),
                retries=counters["retries"],
                timeouts=counters["timeouts"],
                crashes=counters["crashes"],
            )
        )
        grid_rec.close()
    if manifest is not None:
        manifest.close()

    if failures and eff.strict:
        detail = "; ".join(
            f"{f.workload}/{f.policy}/rep{f.rep} after {f.attempts} attempts "
            f"({f.kind}: {f.message})"
            for f in failures
        )
        raise GridExecutionError(
            f"strict grid run: {len(failures)} cell(s) failed: {detail}", failures
        )

    grid = GridResult(
        cache_hits=hits,
        cache_misses=len(misses),
        failures=failures,
        retries=counters["retries"],
        timeouts=counters["timeouts"],
        crashes=counters["crashes"],
        resumed_cells=resumed_done,
    )
    for name, _ in specs:
        for pol in pols:
            runs = [
                results[(name, pol.name, rep)]
                for rep in range(reps)
                if (name, pol.name, rep) in results
            ]
            if not runs:
                continue  # every repetition failed: see grid.failures
            metrics = {
                m: summarize([r.metric(m) for r in runs]) for m in REPORT_METRICS
            }
            grid.cells[(name, pol.name)] = ReplicatedResult(
                workload=runs[0].workload,
                policy=pol.name,
                metrics=metrics,
                runs=runs if keep_runs else [],
            )
    return grid
