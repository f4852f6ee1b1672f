"""Multi-process serving tier: consistent-hash router + detection workers.

The single asyncio process tops out around ~275k events/s (see
``benchmarks/results/BENCH_serve.json``) because protocol I/O and SPCD
detection compete for one interpreter.  This module splits them: the
**router** process keeps every client socket — admission, credit
enforcement, frame decode, drain — while N supervised **worker**
processes own the per-tenant :class:`~repro.serve.session.TenantSession`
pipelines.  Tenants are assigned to workers by consistent hashing
(:class:`HashRing`), so detection state never has to be shared or folded
across workers: every tenant's whole pipeline lives on exactly one
worker, and the routed service is **bit-identical** to the
single-process server — same matrix digests, same mapping decisions,
same trace events — for any worker count.

Hot path: the router forwards each binary EVENTS body *verbatim* into
the worker's shared-memory ring (:class:`~repro.serve.shm.EventRing`) —
no re-framing, no pickling; the worker decodes with ``np.frombuffer``
directly over the shared pages.  Control traffic (session open, flush,
end, stop) travels over a pipe, and worker responses (per-batch acks
with mapping updates, trace events, flush/end results) over another;
pipe commands are only issued for a session once its ring batches are
fully acknowledged, which restores the single-process server's total
per-session order.

Fault tolerance reuses :class:`~repro.engine.pool.SupervisedProcess`:
the router journals every forwarded batch and flush per session, so
when a worker dies (pipe EOF, the :func:`~repro.engine.pool.run_tasks`
crash idiom) it is respawned with a fresh ring after exponential
backoff and every affected tenant's journal is **replayed** —
regenerating the worker-side detection state deterministically, digests
unchanged.  Acks/credits/trace events regenerated for work already
delivered before the crash are suppressed by count, so clients see
every credit exactly once.  A worker that exhausts its respawn budget
is retired from the hash ring and its tenants replay into the next
worker along the ring.
"""

from __future__ import annotations

import asyncio
import hashlib
import struct
import time
from bisect import bisect_right
from typing import Any

from repro.engine.pool import SupervisedProcess, _pick_context
from repro.errors import AdmissionError, ConfigurationError, ProtocolError
from repro.obs.events import (
    ServeSessionEnd,
    ServeTenantMigrated,
    ServeWorkerCrash,
    ServeWorkerStart,
)
from repro.serve import protocol
from repro.serve.protocol import EventBatch, MsgType
from repro.serve.server import MappingServer, _Connection
from repro.serve.session import SessionConfig, TenantSession, validate_batch
from repro.serve.shm import EventRing

__all__ = ["HashRing", "RoutedMappingServer"]

#: ring-record prefix: the session id the EVENTS body belongs to
_SID = struct.Struct("<I")
#: virtual points per worker on the hash ring
_REPLICAS = 64
#: journal entry marking a forced evaluation between two batches
_FLUSH = ("flush",)


class _WorkerGone(Exception):
    """Internal: the target worker crashed mid-operation; replay recovers."""


class HashRing:
    """Consistent-hash assignment of tenant names to worker ids.

    Each worker owns ``replicas`` virtual points (``blake2b("{id}#{r}")``);
    a tenant maps to the owner of the first point clockwise of its own
    hash.  Assignment is therefore stable across worker *respawns* (the
    ring never changes) and minimally disruptive across worker
    *retirement* (only the retired worker's arcs move).
    """

    def __init__(self, replicas: int = _REPLICAS) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.replicas = replicas
        self._ring: "list[tuple[int, int]]" = []  # sorted (point, worker_id)
        self._keys: "list[int]" = []

    @staticmethod
    def _point(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _rebuild(self, pairs: "list[tuple[int, int]]") -> None:
        self._ring = sorted(pairs)
        self._keys = [p for p, _ in self._ring]

    def add(self, worker_id: int) -> None:
        """Place *worker_id*'s virtual points on the ring."""
        fresh = [
            (self._point(f"{worker_id}#{replica}"), worker_id)
            for replica in range(self.replicas)
        ]
        self._rebuild(self._ring + fresh)

    def remove(self, worker_id: int) -> None:
        """Retire *worker_id*: only its arcs are redistributed."""
        self._rebuild([pair for pair in self._ring if pair[1] != worker_id])

    @property
    def workers(self) -> "list[int]":
        """Worker ids currently on the ring, sorted."""
        return sorted({wid for _, wid in self._ring})

    def assign(self, tenant: str) -> int:
        """The worker owning *tenant* (deterministic for a fixed ring)."""
        if not self._ring:
            raise ConfigurationError("hash ring is empty")
        index = bisect_right(self._keys, self._point(tenant)) % len(self._ring)
        return self._ring[index][1]


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------
class _PipeRecorder:
    """Worker-side recorder shim: trace events travel home over the pipe.

    The router re-emits them into its own recorder, preserving the
    single-process server's event stream shape (and letting replay
    suppression drop regenerated duplicates).
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def emit(self, event: Any) -> None:
        self._conn.send(("trace", int(getattr(event, "session_id", 0)), event))

    def close(self) -> None:  # pragma: no cover - interface parity
        pass


def _session_end_info(session: TenantSession) -> "dict[str, Any]":
    """The ServeSessionEnd fields only the worker can compute."""
    return {
        "events": session.events_seen,
        "batches": session.batches_seen,
        "comm_events": session.comm_events,
        "windowed_out": session.windowed_out,
        "evaluations": session.evaluator.evaluations,
        "remaps": session.evaluator.remaps,
        "matrix_digest": session.final_digest(),
        "mapping": [int(p) for p in session.evaluator.current],
    }


def _worker_main(worker_id, ring_name, cmd_conn, resp_conn, machine):  # pragma: no cover - subprocess
    """Detection worker: drain the ring, answer commands, ack every batch.

    Single-threaded and synchronous — all asyncio stays in the router.
    The router always writes a session's ``open`` command before pushing
    its first ring record (program order on one thread), so a record with
    an unknown session id means the open is already sitting in the command
    pipe — drain it and retry before concluding the session is gone.  A
    record whose session is *still* unknown after that belongs to a failed
    or ended session; it is acknowledged anyway so the router's unacked
    accounting (which gates flush and end commands) always drains.
    """
    ring = EventRing.attach(ring_name)
    recorder = _PipeRecorder(resp_conn)
    sessions: "dict[int, TenantSession]" = {}
    running = True

    def drain_cmds() -> bool:
        """Apply every queued control command; True when any was seen."""
        nonlocal running
        progressed = False
        while running and cmd_conn.poll(0):
            message = cmd_conn.recv()
            progressed = True
            op = message[0]
            if op == "open":
                _, sid, tenant, session_cfg = message
                sessions[sid] = TenantSession(
                    tenant,
                    session_cfg,
                    machine,
                    session_id=sid,
                    recorder=recorder,
                )
            elif op == "flush":
                sid = message[1]
                session = sessions.get(sid)
                if session is None:
                    resp_conn.send(("fail", sid, "flush for unknown session"))
                    continue
                update = session.evaluate(force=True)
                resp_conn.send(
                    ("flushed", sid, update.to_payload() if update else None)
                )
            elif op == "end":
                _, sid, reason = message
                session = sessions.pop(sid, None)
                if session is None:
                    resp_conn.send(("fail", sid, "end for unknown session"))
                    continue
                update = (
                    session.evaluate(force=True)
                    if reason in ("bye", "drain")
                    else None
                )
                resp_conn.send(
                    (
                        "ended",
                        sid,
                        update.to_payload() if update else None,
                        session.summary(),
                        _session_end_info(session),
                    )
                )
            elif op == "stop":
                running = False
        return progressed

    try:
        while running:
            progressed = False
            while running:
                record = ring.pop()
                if record is None:
                    break
                sid = _SID.unpack_from(record)[0]
                # decode in place over the shared pages; the astype inside
                # decode_events copies the addresses out, so the slot can
                # be released before ingest
                batch = protocol.decode_events(record[4:])
                del record
                ring.advance()
                progressed = True
                session = sessions.get(sid)
                if session is None:
                    # a record can land in the ring before this process
                    # first polls the pipe (fresh spawn draining a replay);
                    # its open command is guaranteed to be readable by now
                    drain_cmds()
                    session = sessions.get(sid)
                if session is None:
                    # failed/ended session: ack with no updates so the
                    # router's credit and idle tracking still drain
                    resp_conn.send(("ack", sid, batch.n_events, [], 0.0))
                    continue
                try:
                    started = time.perf_counter()
                    updates = session.ingest(batch)
                    elapsed = time.perf_counter() - started
                except Exception as exc:  # noqa: BLE001 - forwarded upstream
                    resp_conn.send(("fail", sid, f"{type(exc).__name__}: {exc}"))
                    sessions.pop(sid, None)
                    continue
                resp_conn.send(
                    (
                        "ack",
                        sid,
                        batch.n_events,
                        [u.to_payload() for u in updates],
                        elapsed,
                    )
                )
            progressed = drain_cmds() or progressed
            if not progressed and running:
                # nothing to do: block briefly on the command pipe (ring
                # pushes have no wakeup; 0.5 ms bounds the added latency)
                cmd_conn.poll(0.0005)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # router went away; nothing to clean up but the mapping
    finally:
        ring.close()


# ---------------------------------------------------------------------------
# router-side state
# ---------------------------------------------------------------------------
class _RemoteSession:
    """Router-side handle of a tenant session living on a worker.

    Duck-types the :class:`TenantSession` attributes the shared server
    code reads (``tenant`` / ``config`` / ``session_id``); everything
    else is forwarding state: the journal (replay source of truth), the
    delivered-work counters that drive replay suppression, and the
    futures control operations wait on.
    """

    def __init__(
        self, tenant: str, config: SessionConfig, session_id: int, worker_id: int
    ) -> None:
        self.tenant = tenant
        self.config = config
        self.session_id = session_id
        self.worker_id = worker_id
        #: bytes entries are ring records; _FLUSH entries are flush marks
        self.journal: "list[Any]" = []
        #: journal entries already forwarded to the current worker spawn
        self.forwarded = 0
        #: serialises forwarding against crash replay
        self.lock = asyncio.Lock()
        #: ring batches sent to the worker but not yet acknowledged
        self.unacked = 0
        self.idle = asyncio.Event()
        self.idle.set()
        # delivered-to-client counters (exclude suppressed replays)
        self.acked_batches = 0
        self.acked_flushes = 0
        self.traces_emitted = 0
        self.events_delivered = 0
        # replay suppression: responses regenerated for already-delivered
        # work are swallowed so clients are credited exactly once
        self.suppress_acks = 0
        self.suppress_flushes = 0
        self.suppress_traces = 0
        #: pending control futures, keyed "flush" / "end"
        self.pending: "dict[str, asyncio.Future]" = {}
        self.ending_reason: "str | None" = None

    @property
    def replayed_batches(self) -> int:
        return sum(1 for entry in self.journal if entry is not _FLUSH)

    @property
    def replayed_flushes(self) -> int:
        return sum(1 for entry in self.journal if entry is _FLUSH)


class _WorkerHandle:
    """One supervised worker: its ring, pipes, consumer task and metrics."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.ring: "EventRing | None" = None
        self.cmd: Any = None
        self.resp: Any = None
        self.sup: "SupervisedProcess | None" = None
        self.sessions: "set[int]" = set()
        self.resp_queue: "asyncio.Queue | None" = None
        self.consumer: "asyncio.Task | None" = None
        self.reader_fd: "int | None" = None
        self.crashed = False
        # per-worker instruments (satellite: the exposition reflects the
        # sharded topology)
        self.m_events: Any = None
        self.m_batches: Any = None
        self.m_ring: Any = None
        self.m_fold: Any = None
        self.m_sessions: Any = None
        self.m_respawns: Any = None


class RoutedMappingServer(MappingServer):
    """The sharded serving tier: identical protocol, N detection workers.

    A drop-in replacement for :class:`MappingServer` — same wire
    protocol, same trace events, same admission and drain semantics —
    that scales detection across ``config.workers`` supervised worker
    processes.  Per-tenant results are bit-identical to the
    single-process server for any worker count (pinned by
    ``tests/test_serve_router.py`` and ``benchmarks/serve_loadbench.py``).
    """

    def __init__(self, config=None, *, machine=None, recorder=None, metrics=None):
        super().__init__(config, machine=machine, recorder=recorder, metrics=metrics)
        if self.config.workers < 1:
            raise ConfigurationError("a routed server needs >= 1 worker")
        if self.config.ring_bytes < 4096:
            raise ConfigurationError("ring_bytes must be >= 4096")
        self._ctx = _pick_context(None)
        self._hash_ring = HashRing()
        self._workers: "dict[int, _WorkerHandle]" = {}
        self._remote_sessions: "dict[int, _RemoteSession]" = {}
        self.workers_crashed = 0
        self.tenants_migrated = 0
        self._m_migrated = self.metrics.counter(
            "serve_tenants_migrated_total", "tenant journals replayed into a worker"
        )

    @property
    def n_workers(self) -> int:
        return self.config.workers

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tier, then open the listening sockets.

        Workers come up before the first client can connect, but their
        ServeWorkerStart events are emitted *after* ServeStart so the
        trace keeps the single-process stream's book-end shape.
        """
        deferred: "list[Any]" = []
        for worker_id in range(self.config.workers):
            self._spawn_worker(worker_id, deferred_events=deferred)
        await super().start()
        for event in deferred:
            self.recorder.emit(event)

    async def _shutdown_backend(self, reason: str) -> None:
        for handle in self._workers.values():
            self._detach_reader(handle)
            self._send_cmd(handle, ("stop",))
        for handle in self._workers.values():
            if handle.consumer is not None:
                handle.consumer.cancel()
        # terminate() joins with a 5 s timeout (twice, after SIGKILL); run
        # it off-loop so a worker stuck in uninterruptible sleep cannot
        # stall every client connection
        await asyncio.gather(
            *(
                asyncio.to_thread(handle.sup.terminate)
                for handle in self._workers.values()
                if handle.sup is not None
            )
        )
        for handle in self._workers.values():
            self._close_plumbing(handle)
            if handle.m_sessions is not None:
                handle.m_sessions.set(0)
        self._workers.clear()
        self._remote_sessions.clear()

    # -- worker plumbing ----------------------------------------------------
    def _spawn_worker(
        self, worker_id: int, deferred_events: "list[Any] | None" = None
    ) -> None:
        handle = _WorkerHandle(worker_id)
        cfg = self.config

        def _start():
            ring = EventRing.create(cfg.ring_bytes)
            cmd_recv, cmd_send = self._ctx.Pipe(duplex=False)
            resp_recv, resp_send = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, ring.name, cmd_recv, resp_send, self.machine),
                daemon=True,
            )
            proc.start()
            # close the child's ends in the router so a dead worker shows
            # up as EOF on resp (the pool.py crash-detection idiom)
            cmd_recv.close()
            resp_send.close()
            handle.ring = ring
            handle.cmd = cmd_send
            handle.resp = resp_recv
            return proc

        handle.sup = SupervisedProcess(
            f"serve-worker-{worker_id}",
            _start,
            max_respawns=cfg.worker_respawns,
            backoff_s=cfg.respawn_backoff_s,
        )
        label = str(worker_id)
        m = self.metrics
        handle.m_events = m.counter(
            "serve_worker_events_total", "events routed to the worker", worker=label
        )
        handle.m_batches = m.counter(
            "serve_worker_batches_total", "batches routed to the worker", worker=label
        )
        handle.m_ring = m.gauge(
            "serve_worker_ring_occupancy_bytes",
            "bytes enqueued in the worker's event ring",
            worker=label,
        )
        handle.m_fold = m.histogram(
            "serve_worker_fold_seconds",
            "worker-side detection+evaluation latency per batch",
            worker=label,
        )
        handle.m_sessions = m.gauge(
            "serve_worker_sessions", "sessions assigned to the worker", worker=label
        )
        handle.m_respawns = m.counter(
            "serve_worker_respawns_total", "crash respawns of the worker", worker=label
        )
        handle.sup.start()
        self._attach_worker(handle)
        self._workers[worker_id] = handle
        self._hash_ring.add(worker_id)
        event = ServeWorkerStart(
            worker_id=worker_id,
            pid=handle.sup.proc.pid,
            spawn=handle.sup.spawns,
            ring_bytes=cfg.ring_bytes,
        )
        if deferred_events is None:
            self.recorder.emit(event)
        else:
            deferred_events.append(event)

    def _attach_worker(self, handle: _WorkerHandle) -> None:
        """Hook the worker's response pipe into the event loop."""
        handle.crashed = False
        handle.resp_queue = asyncio.Queue()
        handle.consumer = asyncio.ensure_future(self._consume_responses(handle))
        handle.reader_fd = handle.resp.fileno()
        asyncio.get_running_loop().add_reader(
            handle.reader_fd, self._drain_responses, handle
        )

    def _detach_reader(self, handle: _WorkerHandle) -> None:
        if handle.reader_fd is not None:
            try:
                asyncio.get_running_loop().remove_reader(handle.reader_fd)
            except (ValueError, OSError):  # pragma: no cover - loop closing
                pass
            handle.reader_fd = None

    def _close_plumbing(self, handle: _WorkerHandle) -> None:
        for conn in (handle.cmd, handle.resp):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        if handle.ring is not None:
            handle.ring.close()
            handle.ring.unlink()
            handle.ring = None

    def _send_cmd(self, handle: _WorkerHandle, message: tuple) -> bool:
        """Send a control command; False when the worker is already gone."""
        try:
            handle.cmd.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _drain_responses(self, handle: _WorkerHandle) -> None:
        """add_reader callback: move pipe messages onto the asyncio queue."""
        try:
            while handle.resp.poll(0):
                handle.resp_queue.put_nowait(handle.resp.recv())
        except (EOFError, OSError):
            self._detach_reader(handle)
            handle.resp_queue.put_nowait(("__eof__",))

    def _live_worker(self, sess: _RemoteSession) -> _WorkerHandle:
        handle = self._workers.get(sess.worker_id)
        if handle is None or handle.crashed or handle.sup is None:
            raise _WorkerGone()
        return handle

    # -- response handling --------------------------------------------------
    async def _consume_responses(self, handle: _WorkerHandle) -> None:
        """Serial consumer of one worker's responses (order-preserving)."""
        while True:
            message = await handle.resp_queue.get()
            kind = message[0]
            if kind == "__eof__":
                asyncio.ensure_future(self._handle_worker_crash(handle))
                return
            if kind == "ack":
                await self._on_ack(handle, *message[1:])
            elif kind == "trace":
                self._on_trace(message[1], message[2])
            elif kind == "flushed":
                self._resolve(message[1], "flush", message[2], suppressable=True)
            elif kind == "ended":
                self._resolve(message[1], "end", tuple(message[2:]))
            elif kind == "fail":
                self._on_fail(message[1], message[2])

    async def _on_ack(
        self,
        handle: _WorkerHandle,
        sid: int,
        n_events: int,
        update_payloads: "list[dict]",
        elapsed: float,
    ) -> None:
        sess = self._remote_sessions.get(sid)
        if handle.ring is not None:
            handle.m_ring.set(handle.ring.occupancy)
        if sess is None:
            return
        sess.unacked -= 1
        if sess.unacked <= 0:
            sess.idle.set()
        if sess.suppress_acks > 0:
            sess.suppress_acks -= 1
            return  # replayed work the client was already credited for
        sess.acked_batches += 1
        sess.events_delivered += n_events
        handle.m_fold.observe(elapsed)
        self._m_ingest.observe(elapsed)
        conn = self._connections.get(sid)
        self.events_total += n_events
        self.batches_total += 1
        self._m_events.inc(n_events)
        self._m_batches.inc()
        if conn is None:
            return
        conn.outstanding -= n_events
        try:
            for payload in update_payloads:
                self.remaps_total += 1
                self._m_remaps.inc()
                await conn.send(protocol.encode(MsgType.MAPPING, payload))
            await conn.send(protocol.encode(MsgType.CREDIT, {"events": n_events}))
        except (ConnectionError, RuntimeError):
            pass  # the read loop will surface the disconnect

    def _on_trace(self, sid: int, event: Any) -> None:
        sess = self._remote_sessions.get(sid)
        if sess is not None:
            if sess.suppress_traces > 0:
                sess.suppress_traces -= 1
                return
            sess.traces_emitted += 1
        self.recorder.emit(event)

    def _resolve(
        self, sid: int, key: str, value: Any, suppressable: bool = False
    ) -> None:
        sess = self._remote_sessions.get(sid)
        if sess is None:
            return
        if suppressable and sess.suppress_flushes > 0:
            sess.suppress_flushes -= 1
            return
        future = sess.pending.pop(key, None)
        if future is not None and not future.done():
            if suppressable:
                # counted at resolve time, not after the await, so a crash
                # landing in between still suppresses the right number of
                # replay-regenerated flush responses
                sess.acked_flushes += 1
            future.set_result(value)

    def _on_fail(self, sid: int, message: str) -> None:
        sess = self._remote_sessions.get(sid)
        if sess is None:
            return
        for future in sess.pending.values():
            if not future.done():
                future.set_exception(ProtocolError(message))
        sess.pending.clear()
        conn = self._connections.get(sid)
        if conn is not None and not conn.ended:
            conn.queue.put_nowait(("error", message))

    # -- session placement and forwarding -----------------------------------
    def _make_session(self, tenant: str, session_cfg: SessionConfig) -> _RemoteSession:
        if not self._hash_ring.workers:
            raise AdmissionError("no detection workers available", code="at-capacity")
        worker_id = self._hash_ring.assign(tenant)
        handle = self._workers[worker_id]
        sid = next(self._session_ids)
        sess = _RemoteSession(tenant, session_cfg, sid, worker_id)
        self._remote_sessions[sid] = sess
        handle.sessions.add(sid)
        handle.m_sessions.set(len(handle.sessions))
        self._send_cmd(handle, ("open", sid, tenant, session_cfg))
        return sess

    async def _push_record(self, sess: _RemoteSession, record: bytes) -> None:
        """Publish one ring record, waiting out a full ring."""
        delay = 0.0002
        while True:
            handle = self._live_worker(sess)
            if handle.ring.try_push(record):
                handle.m_events.inc((len(record) - _SID.size - 20) // 8)
                handle.m_batches.inc()
                handle.m_ring.set(handle.ring.occupancy)
                return
            # ring full: the worker is draining it.  Exponential backoff
            # keeps a slow or stalled worker from turning the event loop
            # into a hot spin; a crash wakes the pump via _WorkerGone.
            await asyncio.sleep(delay)
            delay = min(delay * 2, 0.004)

    async def _pump(self, sess: _RemoteSession) -> None:
        """Forward every not-yet-forwarded journal entry, in order.

        The per-session lock makes this the *only* forwarding path — live
        ingest and crash replay both come through here, so a replay reset
        (``forwarded = 0``) can never interleave with live pushes.  Flush
        markers wait for all prior batches to be acknowledged before the
        pipe command goes out, which keeps pipe-vs-ring ordering exact.
        """
        async with sess.lock:
            while sess.forwarded < len(sess.journal):
                entry = sess.journal[sess.forwarded]
                if entry is _FLUSH:
                    while sess.unacked > 0:
                        await sess.idle.wait()
                    handle = self._live_worker(sess)
                    self._send_cmd(handle, ("flush", sess.session_id))
                else:
                    await self._push_record(sess, entry)
                    sess.unacked += 1
                    sess.idle.clear()
                sess.forwarded += 1

    async def _ingest_batch(self, conn: _Connection, batch: EventBatch) -> None:
        sess: _RemoteSession = conn.session
        validate_batch(batch, sess.config.n_threads)
        record = _SID.pack(sess.session_id) + batch.body()
        cap = EventRing.record_cap(self.config.ring_bytes)
        if len(record) > cap:
            raise ProtocolError(
                f"EVENTS frame of {len(record)} bytes exceeds the worker ring's "
                f"{cap}-byte record cap"
            )
        sess.journal.append(record)
        try:
            await self._pump(sess)
        except _WorkerGone:
            pass  # journaled; crash recovery finishes the forwarding

    async def _flush_session(self, conn: _Connection) -> None:
        sess: _RemoteSession = conn.session
        future = asyncio.get_running_loop().create_future()
        sess.pending["flush"] = future
        sess.journal.append(_FLUSH)
        try:
            await self._pump(sess)
        except _WorkerGone:
            pass
        update_payload = await future
        if update_payload is not None:
            self.remaps_total += 1
            self._m_remaps.inc()
            await conn.send(protocol.encode(MsgType.MAPPING, update_payload))
        await conn.send(
            protocol.encode(MsgType.CREDIT, {"events": 0, "ack": "flush"})
        )

    async def _send_end_when_idle(self, sess: _RemoteSession) -> None:
        """Issue the end command once the worker has acked everything."""
        try:
            while sess.unacked > 0:
                await sess.idle.wait()
            handle = self._live_worker(sess)
            self._send_cmd(handle, ("end", sess.session_id, sess.ending_reason))
        except _WorkerGone:
            pass  # recovery replays the journal and re-issues the end

    async def _finalize_session(
        self, conn: _Connection, reason: str, notify: bool
    ) -> None:
        sess: _RemoteSession = conn.session
        sid = sess.session_id
        if sess.worker_id not in self._workers and not self._hash_ring.workers:
            # every worker exhausted its budget: emit what the router knows
            self._emit_degraded_end(sess, reason)
            self._drop_session(sess)
            return
        sess.ending_reason = reason
        future = asyncio.get_running_loop().create_future()
        sess.pending["end"] = future
        try:
            await self._pump(sess)
        except _WorkerGone:
            pass
        await self._send_end_when_idle(sess)
        try:
            update_payload, summary, end_info = await future
        except ProtocolError:
            self._emit_degraded_end(sess, "error")
            self._drop_session(sess)
            return
        if reason in ("bye", "drain") and update_payload is not None and notify:
            self.remaps_total += 1
            self._m_remaps.inc()
            try:
                await conn.send(protocol.encode(MsgType.MAPPING, update_payload))
            except (ConnectionError, RuntimeError):
                notify = False
        summary["reason"] = reason
        if notify:
            try:
                await conn.send(protocol.encode(MsgType.SUMMARY, summary))
            except (ConnectionError, RuntimeError):
                pass
        self.recorder.emit(
            ServeSessionEnd(
                tenant=sess.tenant, session_id=sid, reason=reason, **end_info
            )
        )
        self._drop_session(sess)

    def _emit_degraded_end(self, sess: _RemoteSession, reason: str) -> None:
        """Best-effort ServeSessionEnd when no worker can compute the real one."""
        self.recorder.emit(
            ServeSessionEnd(
                tenant=sess.tenant,
                session_id=sess.session_id,
                reason=reason,
                events=sess.events_delivered,
                batches=sess.acked_batches,
                comm_events=0,
                windowed_out=0,
                evaluations=0,
                remaps=0,
                matrix_digest="",
                mapping=[],
            )
        )

    def _drop_session(self, sess: _RemoteSession) -> None:
        self._remote_sessions.pop(sess.session_id, None)
        handle = self._workers.get(sess.worker_id)
        if handle is not None:
            handle.sessions.discard(sess.session_id)
            handle.m_sessions.set(len(handle.sessions))

    # -- crash recovery -----------------------------------------------------
    async def _handle_worker_crash(self, handle: _WorkerHandle) -> None:
        """Respawn-and-replay, or retire-and-migrate when the budget is spent."""
        if handle.crashed or self._draining:
            return  # drain tears workers down itself; EOFs there are expected
        handle.crashed = True
        self.workers_crashed += 1
        # reap the zombie off-loop: terminate() blocks in proc.join()
        await asyncio.to_thread(handle.sup.terminate)
        exitcode = handle.sup.proc.exitcode if handle.sup.proc is not None else None
        self._close_plumbing(handle)
        affected = [
            self._remote_sessions[sid]
            for sid in sorted(handle.sessions)
            if sid in self._remote_sessions
        ]
        # wake any pump blocked on acks from the dead worker; it will fault
        # on _live_worker and release the session lock for the replay
        for sess in affected:
            sess.unacked = 0
            sess.idle.set()
        backoff = handle.sup.next_backoff_s()
        self.recorder.emit(
            ServeWorkerCrash(
                worker_id=handle.worker_id,
                spawn=handle.sup.spawns,
                exitcode=exitcode,
                sessions=len(affected),
                respawns_left=handle.sup.respawns_left,
            )
        )
        if backoff is None:
            # budget exhausted: retire the worker, migrate its tenants
            self._hash_ring.remove(handle.worker_id)
            self._workers.pop(handle.worker_id, None)
            handle.m_sessions.set(0)
            for sess in affected:
                if not self._hash_ring.workers:
                    self._fail_session(sess, "no detection workers available")
                    continue
                await self._replay_session(
                    sess, self._hash_ring.assign(sess.tenant), reason="retired"
                )
        else:
            await asyncio.sleep(backoff)
            handle.m_respawns.inc()
            handle.sup.start()  # fresh ring + pipes via the factory
            # re-snapshot: sessions admitted during the reap/backoff awaits
            # also live on this worker and lost their open command to the
            # dead pipe, so they need the same re-open + replay treatment
            affected = [
                self._remote_sessions[sid]
                for sid in sorted(handle.sessions)
                if sid in self._remote_sessions
            ]
            # install every session's replay state *before* the handle is
            # marked live again: until _attach_worker clears handle.crashed,
            # a concurrent live _pump faults on _live_worker instead of
            # forwarding stale journal entries (forwarded not yet reset, no
            # open sent) that the fresh worker would orphan-ack — which
            # would credit clients for unprocessed events and make the real
            # replay suppress genuine acks
            for sess in affected:
                await self._prepare_replay(sess, handle.worker_id)
            self._attach_worker(handle)
            self.recorder.emit(
                ServeWorkerStart(
                    worker_id=handle.worker_id,
                    pid=handle.sup.proc.pid,
                    spawn=handle.sup.spawns,
                    ring_bytes=self.config.ring_bytes,
                )
            )
            for sess in affected:
                await self._replay_session(
                    sess, handle.worker_id, reason="respawn", prepared=True
                )

    async def _prepare_replay(self, sess: _RemoteSession, worker_id: int) -> None:
        """Install *sess*'s replay state for its next home on *worker_id*.

        Runs while the session's previous worker is still marked crashed
        (or already retired) so no live pump can interleave: resets the
        forwarded/unacked counters, arms response suppression for work
        the client was already credited for, and re-opens the worker-side
        session.  Only after this may the target see the session's ring
        records — otherwise stale journal entries (forwarded not reset,
        no open sent) would be orphan-acked without being ingested.
        """
        target = self._workers[worker_id]
        async with sess.lock:  # wait out any in-flight pump
            if sess.worker_id != worker_id:
                self._drop_session(sess)  # leaves the retired handle's set
                sess.worker_id = worker_id
                self._remote_sessions[sess.session_id] = sess
                target.sessions.add(sess.session_id)
                target.m_sessions.set(len(target.sessions))
            sess.forwarded = 0
            sess.unacked = 0
            sess.idle.set()
            sess.suppress_acks = sess.acked_batches
            sess.suppress_flushes = sess.acked_flushes
            sess.suppress_traces = sess.traces_emitted
            self._send_cmd(target, ("open", sess.session_id, sess.tenant, sess.config))

    async def _replay_session(
        self, sess: _RemoteSession, worker_id: int, reason: str, *, prepared: bool = False
    ) -> None:
        """Re-open the session on *worker_id* and replay its whole journal.

        Responses regenerated for work delivered before the crash are
        suppressed by count — replay is deterministic and FIFO, so the
        first ``acked_batches`` acks (and ``acked_flushes`` flush results,
        and ``traces_emitted`` trace events) are exactly the duplicates.
        With ``prepared=True`` the replay state was already installed (the
        respawn path prepares every session before the worker goes live).
        """
        from_worker = sess.worker_id
        if not prepared:
            await self._prepare_replay(sess, worker_id)
        self.tenants_migrated += 1
        self._m_migrated.inc()
        self.recorder.emit(
            ServeTenantMigrated(
                tenant=sess.tenant,
                session_id=sess.session_id,
                from_worker=from_worker,
                to_worker=worker_id,
                reason=reason,
                replayed_batches=sess.replayed_batches,
                replayed_flushes=sess.replayed_flushes,
            )
        )
        try:
            await self._pump(sess)
        except _WorkerGone:
            return  # crashed again mid-replay; the next recovery retries
        if sess.ending_reason is not None and "end" in sess.pending:
            await self._send_end_when_idle(sess)

    def _fail_session(self, sess: _RemoteSession, message: str) -> None:
        """Last resort: no worker can host the tenant any more."""
        conn = self._connections.get(sess.session_id)
        if conn is not None and not conn.ended:
            conn.queue.put_nowait(("error", message))
        for future in sess.pending.values():
            if not future.done():
                future.set_exception(ProtocolError(message))
        sess.pending.clear()
