"""Per-tenant detection state: one sharing table and one matrix.

Each session owns the full SPCD pipeline for one tenant, as the paper's
SPCD keeps one sharing table per application (Sec. III-B1, Figure 4): an
:class:`~repro.core.hashtable.ArrayShareTable` of exactly ``table_size``
slots feeds one :class:`~repro.core.commmatrix.CommunicationMatrix`.  That
is the detector :func:`repro.serve.evaluator.offline_reference` replays,
so the served matrix digest and mapping decisions equal the offline
ones bit for bit, with or without ``matrix_decay``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.commmatrix import CommunicationMatrix
from repro.core.hashtable import DEFAULT_TABLE_SIZE, ArrayShareTable
from repro.core.manager import matrix_digest
from repro.errors import ConfigurationError, ProtocolError
from repro.machine.topology import Machine
from repro.serve.evaluator import EvalCadence, MappingEvaluator, MappingUpdate
from repro.serve.protocol import EventBatch
from repro.units import MSEC, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.recorder import JsonlRecorder

__all__ = [
    "SESSION_OVERRIDE_KEYS",
    "SessionConfig",
    "TenantSession",
    "validate_batch",
]


def validate_batch(batch: EventBatch, n_threads: int) -> None:
    """Reject a batch the session cannot ingest as sent.

    Its thread id must fall inside the session's threads, and every vaddr
    must be non-negative: a negative address maps to a negative region id,
    and region ``-1`` is the sharing table's empty-slot marker.  Shared by
    :meth:`TenantSession.ingest` and the router's forwarding path, so a bad
    batch produces the identical protocol error whether the session runs
    inline or on a worker — the router rejects it *before* the batch enters
    a ring, keeping worker-side state clean.
    """
    if not 0 <= batch.tid < n_threads:
        raise ProtocolError(
            f"thread id {batch.tid} outside the session's {n_threads} threads"
        )
    lowest = int(batch.vaddrs.min()) if batch.n_events else 0
    if lowest < 0:
        raise ProtocolError(f"negative vaddr {lowest} in EVENTS batch")


#: HELLO payload keys a client may override (everything else is server policy)
SESSION_OVERRIDE_KEYS = frozenset(
    {
        "n_threads",
        "granularity",
        "window_ns",
        "table_size",
        "eval_every_events",
        "filter_threshold",
        "filter_enabled",
        "filter_hysteresis",
        "filter_margin",
        "filter_min_events",
        "min_improvement",
        "remap_cooldown_ns",
        "mapper_stickiness",
        "use_greedy_matching",
        "matrix_decay",
    }
)


@dataclass(frozen=True)
class SessionConfig:
    """Detection/evaluation tunables of one tenant session.

    Defaults mirror :class:`repro.core.manager.SpcdConfig` except
    ``matrix_decay`` (1.0 here: the matrix keeps exact event counts unless
    decay is asked for) and the trigger, which is event-count based
    (``eval_every_events``) instead of timer based.
    """

    n_threads: int
    granularity: int = PAGE_SIZE
    window_ns: int = 250 * MSEC
    table_size: int = DEFAULT_TABLE_SIZE
    eval_every_events: int = 8192
    filter_threshold: int = 2
    filter_enabled: bool = True
    filter_hysteresis: float = 1.25
    filter_margin: float = 0.5
    filter_min_events: float = 128.0
    min_improvement: float = 0.85
    remap_cooldown_ns: int = 250 * MSEC
    mapper_stickiness: float = 0.75
    use_greedy_matching: bool = False
    matrix_decay: float = 1.0

    def __post_init__(self) -> None:
        if self.n_threads < 2:
            raise ConfigurationError("a session needs at least 2 threads")
        if self.granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        if self.window_ns <= 0:
            raise ConfigurationError("window_ns must be positive")
        if self.table_size <= 0:
            raise ConfigurationError("table_size must be positive")
        if self.eval_every_events <= 0:
            raise ConfigurationError("eval_every_events must be positive")
        if not 0.0 < self.matrix_decay <= 1.0:
            raise ConfigurationError("matrix_decay must be in (0, 1]")

    def memory_bytes(self) -> int:
        """Estimated resident bytes of this session's detection state.

        Slot arrays (region id + per-thread timestamps) plus the
        communication matrix — the figure admission control charges
        against the per-tenant memory cap.
        """
        table = self.table_size * 8 * (1 + self.n_threads)
        matrix = self.n_threads * self.n_threads * 8
        return table + matrix

    @classmethod
    def from_overrides(
        cls, defaults: "SessionConfig", overrides: "dict[str, object]"
    ) -> "SessionConfig":
        """Apply a HELLO config dict onto server defaults.

        Only :data:`SESSION_OVERRIDE_KEYS` are accepted; unknown keys raise
        :class:`~repro.errors.ProtocolError` so a typo in a client config
        fails loudly instead of being silently ignored.
        """
        unknown = set(overrides) - SESSION_OVERRIDE_KEYS
        if unknown:
            raise ProtocolError(f"unknown session config keys: {sorted(unknown)}")
        try:
            return replace(defaults, **overrides)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad session config: {exc}") from exc


#: ``perfbench/serve_load.py`` imports this name and times
#: ``ShardedShareTable.touch_batch`` as its ``serve.touch`` layer; the alias
#: keeps that benchmark running unchanged, and comparable across commits.
ShardedShareTable = ArrayShareTable


class TenantSession:
    """One tenant's full pipeline: sharing table, matrix, evaluator.

    Synchronous and asyncio-agnostic — the server feeds it decoded
    :class:`~repro.serve.protocol.EventBatch` objects from the session's
    ingest queue; tests and the offline tooling can drive it directly.
    """

    def __init__(
        self,
        tenant: str,
        config: SessionConfig,
        machine: Machine,
        *,
        session_id: int = 0,
        recorder: "JsonlRecorder | None" = None,
    ) -> None:
        cfg = config
        self.tenant = tenant
        self.config = cfg
        self.session_id = session_id
        self.recorder = recorder
        self.table = ArrayShareTable(cfg.table_size, cfg.n_threads)
        self.matrix = CommunicationMatrix(cfg.n_threads)
        self.evaluator = MappingEvaluator(machine, cfg)
        self._cadence = EvalCadence(cfg.eval_every_events)
        self.events_seen = 0
        self.batches_seen = 0
        self.comm_events = 0
        self.windowed_out = 0
        self.last_now_ns = 0
        self.updates: list[MappingUpdate] = []

    def ingest(self, batch: EventBatch) -> "list[MappingUpdate]":
        """Feed one event batch; returns any mapping updates it triggered.

        Detection first (table touch + matrix scatter), then as many
        evaluation ticks as the event-count cadence owes — the same order
        :func:`~repro.serve.evaluator.offline_reference` replays.
        """
        cfg = self.config
        validate_batch(batch, cfg.n_threads)
        n = batch.n_events
        if n:
            regions = batch.vaddrs // cfg.granularity
            partners, windowed = self.table.touch_batch(
                regions, batch.tid, batch.now_ns, cfg.window_ns
            )
            self.matrix.add_events(batch.tid, partners)
            self.comm_events += int(partners.size)
            self.windowed_out += windowed
            self.events_seen += n
            self.batches_seen += 1
            self.last_now_ns = max(self.last_now_ns, int(batch.now_ns))
        updates: list[MappingUpdate] = []
        for _ in range(self._cadence.due(self.events_seen)):
            update = self.evaluate()
            if update is not None:
                updates.append(update)
        return updates

    def merged_matrix(self) -> CommunicationMatrix:
        """The session matrix itself (live, not a copy).

        The accessor :meth:`evaluate` and :meth:`final_digest` read, and
        ``perfbench/serve_load.py`` times by this name.  No copy is needed:
        :meth:`MappingEvaluator.decide` only reads the matrix.
        """
        return self.matrix

    def evaluate(self, force: bool = False) -> "MappingUpdate | None":
        """Run one evaluation over the session matrix.

        Emits a :class:`~repro.obs.events.ServeEvaluation` trace event when
        a recorder is attached; applies ``matrix_decay`` afterwards (a
        no-op at the service default of 1.0).
        """
        cfg = self.config
        matrix = self.merged_matrix()
        digest = matrix_digest(matrix)
        verdict, update = self.evaluator.decide(
            matrix,
            comm_events=self.comm_events,
            events_seen=self.events_seen,
            now_ns=self.last_now_ns,
            digest=digest,
            force=force,
        )
        if update is not None:
            self.updates.append(update)
        if self.recorder is not None:
            from repro.obs.events import ServeEvaluation

            self.recorder.emit(
                ServeEvaluation(
                    tenant=self.tenant,
                    session_id=self.session_id,
                    evaluation=self.evaluator.evaluations,
                    events_seen=self.events_seen,
                    comm_events=self.comm_events,
                    verdict=verdict,
                    matrix_digest=digest,
                    mapping=tuple(update.mapping) if update else None,
                )
            )
        if cfg.matrix_decay < 1.0:
            matrix.decay(cfg.matrix_decay)
        return update

    def final_digest(self) -> str:
        """Digest of the current matrix (the drain-flush digest)."""
        return matrix_digest(self.merged_matrix())

    def summary(self) -> "dict[str, object]":
        """Session summary — the SUMMARY frame payload and trace-event body."""
        return {
            "tenant": self.tenant,
            "session_id": self.session_id,
            "events": self.events_seen,
            "batches": self.batches_seen,
            "comm_events": self.comm_events,
            "windowed_out": self.windowed_out,
            "evaluations": self.evaluator.evaluations,
            "remaps": self.evaluator.remaps,
            "shared_regions": self.table.shared_region_count(),
            "collisions": self.table.collisions,
            "inserts": self.table.inserts,
            "matrix_digest": self.final_digest(),
            "mapping": [int(p) for p in self.evaluator.current],
        }
