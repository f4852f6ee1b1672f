"""Typed run configuration — the single home of every ``REPRO_*`` env read.

Historically the grid runner, the trace recorder and the slow-path
selectors each read their own environment variable at their own call
site, so the set of knobs that shaped a run was scattered across four
modules.  :class:`RunSettings` consolidates them: a frozen dataclass
holding every execution knob, built either explicitly (library use) or
from the environment via :meth:`RunSettings.from_env` (CLI / CI use).
No other module in ``src/repro`` may read a ``REPRO_*`` variable —
``tools/check_env_reads.py`` enforces the ban in CI.

Resolution order used by :func:`repro.engine.gridrunner.run_grid` and
friends: an explicit keyword argument beats a field of an explicit
``settings=`` object, which beats the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError

__all__ = [
    "ENV_CELL_RETRIES",
    "ENV_CELL_TIMEOUT",
    "ENV_GRID_STRICT",
    "ENV_GRID_WORKERS",
    "ENV_PLACEMENT_WALK",
    "ENV_PLACEMENT_WALK_LOCAL_NS",
    "ENV_PLACEMENT_WALK_REMOTE_NS",
    "ENV_PT_REPLICATE",
    "ENV_RESULT_CACHE",
    "ENV_RETRY_BACKOFF",
    "ENV_SERVE_CREDIT_WINDOW",
    "ENV_SERVE_EVAL_EVERY",
    "ENV_SERVE_HOST",
    "ENV_SERVE_MAX_SESSIONS",
    "ENV_SERVE_MAX_TABLE_MB",
    "ENV_SERVE_METRICS_PORT",
    "ENV_SERVE_PORT",
    "ENV_SERVE_SHARDS",
    "ENV_SERVE_WORKERS",
    "ENV_SIM_SHARDS",
    "ENV_SLOW_SPCD",
    "ENV_TRACE",
    "RunSettings",
    "available_cpus",
]

#: process-pool size for grid execution (0/1 = serial, in-process)
ENV_GRID_WORKERS = "REPRO_GRID_WORKERS"
#: result-cache directory (empty/unset = caching disabled)
ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"
#: trace sink: a ``.jsonl`` file or a directory (empty/unset = tracing off)
ENV_TRACE = "REPRO_TRACE"
#: select the per-fault reference fault/SPCD path
ENV_SLOW_SPCD = "REPRO_SLOW_SPCD"
#: coherence-stripe worker processes per simulation (1 = single-process)
ENV_SIM_SHARDS = "REPRO_SIM_SHARDS"
#: per-cell wall-clock timeout in seconds (unset = no timeout)
ENV_CELL_TIMEOUT = "REPRO_CELL_TIMEOUT_S"
#: retries after a cell's first failed attempt (default 2)
ENV_CELL_RETRIES = "REPRO_CELL_RETRIES"
#: base of the exponential retry backoff, seconds (default 0.25)
ENV_RETRY_BACKOFF = "REPRO_RETRY_BACKOFF_S"
#: strict mode: a cell that exhausts retries fails the whole sweep
ENV_GRID_STRICT = "REPRO_GRID_STRICT"
#: mapping-service bind address
ENV_SERVE_HOST = "REPRO_SERVE_HOST"
#: mapping-service port (0 = ephemeral, printed on stdout at startup)
ENV_SERVE_PORT = "REPRO_SERVE_PORT"
#: plaintext /metrics HTTP port (unset = disabled, 0 = ephemeral)
ENV_SERVE_METRICS_PORT = "REPRO_SERVE_METRICS_PORT"
#: maximum concurrently admitted sessions
ENV_SERVE_MAX_SESSIONS = "REPRO_SERVE_MAX_SESSIONS"
#: per-tenant detection-state memory cap, MiB
ENV_SERVE_MAX_TABLE_MB = "REPRO_SERVE_MAX_TABLE_MB"
#: sharing-table shards per session
ENV_SERVE_SHARDS = "REPRO_SERVE_SHARDS"
#: events between two mapping evaluations of a session
ENV_SERVE_EVAL_EVERY = "REPRO_SERVE_EVAL_EVERY"
#: credit window granted to each client, in events
ENV_SERVE_CREDIT_WINDOW = "REPRO_SERVE_CREDIT_WINDOW"
#: detection worker processes behind the serve router (1 = single-process)
ENV_SERVE_WORKERS = "REPRO_SERVE_WORKERS"
#: charge NUMA-aware page-table-walk latency on every fault
ENV_PLACEMENT_WALK = "REPRO_PLACEMENT_WALK"
#: per-level walk latency when the directory page is node-local, ns
ENV_PLACEMENT_WALK_LOCAL_NS = "REPRO_PLACEMENT_WALK_LOCAL_NS"
#: per-level walk latency when the directory page is remote, ns
ENV_PLACEMENT_WALK_REMOTE_NS = "REPRO_PLACEMENT_WALK_REMOTE_NS"
#: force per-node page-table replication from the first fault on
ENV_PT_REPLICATE = "REPRO_PT_REPLICATE"

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _get(environ: "dict[str, str] | None", name: str) -> str:
    source = os.environ if environ is None else environ
    return source.get(name, "").strip()


def _env_bool(environ: "dict[str, str] | None", name: str) -> bool:
    raw = _get(environ, name)
    if raw.lower() in _TRUE:
        return True
    if raw.lower() in _FALSE:
        return False
    raise ConfigurationError(f"bad {name} value {raw!r} (expected a boolean flag)")


def _env_int(environ: "dict[str, str] | None", name: str, default: int) -> int:
    raw = _get(environ, name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad {name} value {raw!r}") from exc


def _env_float(
    environ: "dict[str, str] | None",
    name: str,
    default: "float | None",
    *,
    positive: bool = False,
) -> "float | None":
    raw = _get(environ, name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad {name} value {raw!r}") from exc
    if positive and not value > 0:
        raise ConfigurationError(f"bad {name} value {raw!r} (must be positive)")
    return value


@dataclass(frozen=True)
class RunSettings:
    """Every knob shaping how experiments execute, in one frozen object.

    Construct directly for programmatic use (fields are validated), or
    with :meth:`from_env` to honor the ``REPRO_*`` environment.  Instances
    are immutable; derive variants with :meth:`with_overrides`.
    """

    #: process-pool size for grid execution; 1 = serial, in-process
    workers: int = 1
    #: result-cache directory; ``None`` disables the on-disk cache
    cache_dir: "str | None" = None
    #: trace sink (``.jsonl`` file or directory); ``None`` disables tracing
    trace: "str | None" = None
    #: run the per-fault reference fault/SPCD path (differential testing)
    slow_spcd: bool = False
    #: coherence-stripe worker processes per simulation; 1 = single-process
    sim_shards: int = 1
    #: per-cell wall-clock timeout in seconds; ``None`` = no timeout
    cell_timeout_s: "float | None" = None
    #: retries after a cell's first failed attempt (0 = fail immediately)
    cell_retries: int = 2
    #: base of the exponential retry backoff (attempt *n* waits
    #: ``retry_backoff_s * 2**(n-1)`` seconds)
    retry_backoff_s: float = 0.25
    #: strict mode: a cell that exhausts retries raises
    #: :class:`~repro.errors.GridExecutionError` instead of degrading to a
    #: :class:`~repro.engine.gridrunner.CellFailure` entry
    strict: bool = False
    #: mapping-service bind address (``python -m repro.serve``)
    serve_host: str = "127.0.0.1"
    #: mapping-service port; 0 binds an ephemeral port
    serve_port: int = 0
    #: plaintext ``/metrics`` HTTP port; ``None`` disables the listener,
    #: 0 binds an ephemeral port
    serve_metrics_port: "int | None" = None
    #: maximum concurrently admitted serve sessions
    serve_max_sessions: int = 64
    #: per-tenant detection-state memory cap in MiB
    serve_max_table_mb: float = 64.0
    #: sharing-table shards per serve session
    serve_shards: int = 4
    #: events between two mapping evaluations of a serve session
    serve_eval_every: int = 8192
    #: per-client send window, in events (credit-based backpressure)
    serve_credit_window: int = 65536
    #: detection worker processes behind the serve router; 1 runs the
    #: classic single-process server (no router tier).  Deliberately NOT
    #: capped at :func:`available_cpus` — routed parity tests and drills
    #: legitimately oversubscribe a small host.
    serve_workers: int = 1
    #: charge NUMA-aware per-level page-table-walk latency on every fault
    #: (the Fig. 16 walk split); off keeps flat-cost digests bit-identical
    placement_walk: bool = False
    #: per-level walk latency override when the directory page is local;
    #: ``None`` derives it from the machine's :class:`NumaModel`
    placement_walk_local_ns: "float | None" = None
    #: per-level walk latency override when the directory page is remote;
    #: ``None`` derives it from the machine's :class:`NumaModel`
    placement_walk_remote_ns: "float | None" = None
    #: activate per-node page-table replicas from the first fault on
    #: (policy-independent Mitosis baseline; ``spcd-replicated`` instead
    #: replicates when its first placement decision directs it)
    pt_replicate: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigurationError("cell_timeout_s must be positive (or None)")
        if self.cell_retries < 0:
            raise ConfigurationError("cell_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if self.sim_shards < 1:
            raise ConfigurationError("sim_shards must be >= 1")
        if self.sim_shards & (self.sim_shards - 1):
            raise ConfigurationError("sim_shards must be a power of two")
        if not 0 <= self.serve_port <= 65535:
            raise ConfigurationError("serve_port must be in [0, 65535]")
        if self.serve_metrics_port is not None and not 0 <= self.serve_metrics_port <= 65535:
            raise ConfigurationError("serve_metrics_port must be in [0, 65535] (or None)")
        if self.serve_max_sessions < 1:
            raise ConfigurationError("serve_max_sessions must be >= 1")
        if self.serve_max_table_mb <= 0:
            raise ConfigurationError("serve_max_table_mb must be positive")
        if self.serve_shards < 1:
            raise ConfigurationError("serve_shards must be >= 1")
        if self.serve_eval_every < 1:
            raise ConfigurationError("serve_eval_every must be >= 1")
        if self.serve_credit_window < 1:
            raise ConfigurationError("serve_credit_window must be >= 1")
        if self.serve_workers < 1:
            raise ConfigurationError("serve_workers must be >= 1")
        if self.placement_walk_local_ns is not None and self.placement_walk_local_ns <= 0:
            raise ConfigurationError("placement_walk_local_ns must be positive (or None)")
        if self.placement_walk_remote_ns is not None and self.placement_walk_remote_ns <= 0:
            raise ConfigurationError("placement_walk_remote_ns must be positive (or None)")

    @classmethod
    def from_env(cls, environ: "dict[str, str] | None" = None) -> "RunSettings":
        """Settings from the ``REPRO_*`` environment (*environ* overrides
        :data:`os.environ`, for tests).

        ``REPRO_GRID_WORKERS`` is capped at the CPUs actually available to
        the process: oversubscribing a grid of CPU-bound simulations only
        adds scheduling overhead, so on a constrained machine the env
        default degrades to serial rather than running slower than it.  An
        explicitly constructed :class:`RunSettings` (or an explicit
        ``workers=`` argument to :func:`~repro.engine.gridrunner.run_grid`)
        is honored verbatim.
        """
        raw_workers = _get(environ, ENV_GRID_WORKERS)
        if not raw_workers:
            workers = 1
        else:
            try:
                requested = max(1, int(raw_workers))
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad {ENV_GRID_WORKERS} value {raw_workers!r}"
                ) from exc
            workers = min(requested, available_cpus())
        return cls(
            workers=workers,
            cache_dir=_get(environ, ENV_RESULT_CACHE) or None,
            trace=_get(environ, ENV_TRACE) or None,
            slow_spcd=_env_bool(environ, ENV_SLOW_SPCD),
            sim_shards=_env_int(environ, ENV_SIM_SHARDS, 1),
            cell_timeout_s=_env_float(environ, ENV_CELL_TIMEOUT, None),
            cell_retries=_env_int(environ, ENV_CELL_RETRIES, 2),
            retry_backoff_s=_env_float(environ, ENV_RETRY_BACKOFF, 0.25) or 0.0,
            strict=_env_bool(environ, ENV_GRID_STRICT),
            serve_host=_get(environ, ENV_SERVE_HOST) or "127.0.0.1",
            serve_port=_env_int(environ, ENV_SERVE_PORT, 0),
            serve_metrics_port=(
                _env_int(environ, ENV_SERVE_METRICS_PORT, 0)
                if _get(environ, ENV_SERVE_METRICS_PORT)
                else None
            ),
            serve_max_sessions=_env_int(environ, ENV_SERVE_MAX_SESSIONS, 64),
            serve_max_table_mb=_env_float(
                environ, ENV_SERVE_MAX_TABLE_MB, 64.0, positive=True
            ),
            serve_shards=_env_int(environ, ENV_SERVE_SHARDS, 4),
            serve_eval_every=_env_int(environ, ENV_SERVE_EVAL_EVERY, 8192),
            serve_credit_window=_env_int(environ, ENV_SERVE_CREDIT_WINDOW, 65536),
            serve_workers=_env_int(environ, ENV_SERVE_WORKERS, 1),
            placement_walk=_env_bool(environ, ENV_PLACEMENT_WALK),
            placement_walk_local_ns=_env_float(environ, ENV_PLACEMENT_WALK_LOCAL_NS, None),
            placement_walk_remote_ns=_env_float(
                environ, ENV_PLACEMENT_WALK_REMOTE_NS, None
            ),
            pt_replicate=_env_bool(environ, ENV_PT_REPLICATE),
        )

    def with_overrides(self, **overrides: object) -> "RunSettings":
        """A copy with every non-``None`` override applied.

        ``None`` means "keep my value", matching the keyword-argument
        convention of :func:`~repro.engine.gridrunner.run_grid`; fields
        whose ``None`` is meaningful (``cache_dir``, ``trace``,
        ``cell_timeout_s``) cannot be *cleared* through this method — pass
        an explicitly constructed :class:`RunSettings` instead.
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(f"unknown RunSettings fields: {sorted(unknown)}")
        effective = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **effective) if effective else self

    def as_dict(self) -> "dict[str, object]":
        """Plain-dict view (JSON-friendly, for manifests and traces)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
