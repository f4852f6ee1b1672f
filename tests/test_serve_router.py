"""The multi-process serving tier: ring, hash ring, routing, crash replay."""

from __future__ import annotations

import asyncio
import json
import os
import signal

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.serve import (
    AsyncServeClient,
    EventRing,
    HashRing,
    MappingServer,
    RoutedMappingServer,
    ServeConfig,
    SessionConfig,
    offline_reference,
    protocol,
    synthetic_fault_stream,
)
from repro.serve.protocol import MsgType, decode_events, decode_events_scalar


# ---------------------------------------------------------------------------
# shared-memory event ring
# ---------------------------------------------------------------------------
class TestEventRing:
    def _pair(self, capacity):
        ring = EventRing.create(capacity)
        peer = EventRing.attach(ring.name)
        return ring, peer

    def _teardown(self, ring, peer):
        peer.close()
        ring.close()
        ring.unlink()

    def test_roundtrip_across_attach(self):
        ring, peer = self._pair(1024)
        try:
            assert ring.try_push(b"hello", b" ", b"world")
            view = peer.pop()
            assert bytes(view) == b"hello world"
            del view
            peer.advance()
            assert peer.pop() is None
            assert ring.occupancy == 0
        finally:
            self._teardown(ring, peer)

    def test_fifo_order_preserved(self):
        ring, peer = self._pair(4096)
        try:
            payloads = [bytes([i]) * (i + 1) for i in range(20)]
            for p in payloads:
                assert ring.try_push(p)
            for p in payloads:
                view = peer.pop()
                assert bytes(view) == p
                del view
                peer.advance()
        finally:
            self._teardown(ring, peer)

    def test_full_ring_returns_false_then_accepts_after_drain(self):
        ring, peer = self._pair(64)
        try:
            assert ring.try_push(b"x" * 24)  # max record: 28-byte footprint
            assert ring.try_push(b"x" * 24)
            assert not ring.try_push(b"y" * 24)  # full, not an error
            view = peer.pop()
            del view
            peer.advance()
            assert ring.try_push(b"y" * 24)
        finally:
            self._teardown(ring, peer)

    def test_oversize_record_raises_protocol_error(self):
        ring, peer = self._pair(64)
        try:
            with pytest.raises(ProtocolError):
                ring.try_push(b"z" * 57)  # > capacity // 2 - 2 * 4
            assert ring.try_push(b"z" * ring.max_record_bytes())
        finally:
            self._teardown(ring, peer)

    def test_max_record_fits_at_any_tail_offset(self):
        """The record cap is position-independent (livelock regression).

        A payload in ``(capacity//2 - 8, capacity - 8]`` used to pass the
        cap yet could never fit once the tail drifted near the wrap point
        — try_push returned False forever on an otherwise-empty ring.  It
        must be rejected up front, and a cap-sized record must fit an
        empty ring regardless of where the tail sits.
        """
        ring, peer = self._pair(4096)
        try:
            with pytest.raises(ProtocolError):
                ring.try_push(b"z" * 3000)  # livelocked under the old cap
            cap = ring.max_record_bytes()
            assert cap == 4096 // 2 - 8
            for step in (1996, 1, 37, 500, cap):
                assert ring.try_push(b"s" * step)
                view = peer.pop()
                del view
                peer.advance()
                # ring now empty with the tail at an arbitrary offset
                assert ring.try_push(b"m" * cap)
                view = peer.pop()
                assert len(view) == cap
                del view
                peer.advance()
        finally:
            self._teardown(ring, peer)

    def test_no_torn_frames_at_wrap(self):
        """Records crossing the wrap point come back whole, in order."""
        ring, peer = self._pair(128)
        try:
            rng = np.random.default_rng(7)
            expected = []
            for i in range(500):
                payload = bytes([i % 251]) * int(rng.integers(1, 57))
                while not ring.try_push(payload):
                    view = peer.pop()
                    assert view is not None
                    assert bytes(view) == expected.pop(0)
                    del view
                    peer.advance()
                expected.append(payload)
            while expected:
                view = peer.pop()
                assert view is not None
                assert bytes(view) == expected.pop(0)
                del view
                peer.advance()
            assert peer.pop() is None
        finally:
            self._teardown(ring, peer)

    def test_wrap_marker_exact_boundary(self):
        """A record landing exactly at the end never splits."""
        ring, peer = self._pair(128)
        try:
            # 4-byte prefix + 28 payload = 32; four fill the ring exactly
            for _ in range(4):
                assert ring.try_push(b"a" * 28)
            view = peer.pop()
            del view
            peer.advance()
            # next record starts at offset 0 again via the implicit wrap
            assert ring.try_push(b"b" * 20)
            for _ in range(3):
                view = peer.pop()
                assert bytes(view) == b"a" * 28
                del view
                peer.advance()
            view = peer.pop()
            assert bytes(view) == b"b" * 20
            del view
            peer.advance()
        finally:
            self._teardown(ring, peer)

    def test_pop_before_advance_rejected(self):
        ring, peer = self._pair(128)
        try:
            ring.try_push(b"one")
            view = peer.pop()
            del view
            with pytest.raises(ConfigurationError):
                peer.pop()
            peer.advance()
        finally:
            self._teardown(ring, peer)

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EventRing.create(8)
        with pytest.raises(ConfigurationError):
            EventRing.create(16)  # record cap would be zero

    def test_stats_shape(self):
        ring = EventRing.create(256)
        try:
            ring.try_push(b"abcd")
            stats = ring.stats()
            assert stats["capacity"] == 256
            assert stats["occupancy"] == 8  # 4-byte prefix + 4 payload
            assert 0 < stats["fill"] < 1
        finally:
            ring.close()
            ring.unlink()


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_assignment(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for wid in range(4):
                ring.add(wid)
        for tenant in ("alpha", "beta", "gamma", "t-%d" % 7):
            assert a.assign(tenant) == b.assign(tenant)

    def test_spread_over_workers(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        owners = {ring.assign(f"tenant-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_removal_only_moves_the_retired_workers_tenants(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        tenants = [f"tenant-{i}" for i in range(300)]
        before = {t: ring.assign(t) for t in tenants}
        ring.remove(2)
        after = {t: ring.assign(t) for t in tenants}
        for t in tenants:
            if before[t] != 2:
                assert after[t] == before[t]
            else:
                assert after[t] != 2
        assert ring.workers == [0, 1, 3]

    def test_empty_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing().assign("t")
        with pytest.raises(ConfigurationError):
            HashRing(replicas=0)


# ---------------------------------------------------------------------------
# vectorised vs scalar EVENTS decode (bit parity)
# ---------------------------------------------------------------------------
class TestDecodeParity:
    @pytest.mark.parametrize("n", [0, 1, 7, 1024])
    def test_decoders_bit_identical(self, n, rng):
        vaddrs = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
        body = protocol.events_body(5, 123456789, vaddrs)
        fast = decode_events(body)
        slow = decode_events_scalar(body)
        assert fast.tid == slow.tid == 5
        assert fast.now_ns == slow.now_ns == 123456789
        assert fast.vaddrs.dtype == slow.vaddrs.dtype == np.int64
        assert np.array_equal(fast.vaddrs, slow.vaddrs)
        assert np.array_equal(fast.vaddrs, vaddrs)

    def test_decoders_accept_memoryview(self):
        body = protocol.events_body(1, 2, np.array([4096, 8192], dtype=np.int64))
        fast = decode_events(memoryview(body))
        slow = decode_events_scalar(memoryview(body))
        assert np.array_equal(fast.vaddrs, slow.vaddrs)
        assert fast.raw is None  # only a bytes body is kept verbatim

    def test_raw_body_forwarded_verbatim(self):
        body = protocol.events_body(3, 9, np.array([12345], dtype=np.int64))
        batch = decode_events(body)
        assert batch.raw == body
        assert batch.body() == body


# ---------------------------------------------------------------------------
# routed server end-to-end
# ---------------------------------------------------------------------------
def _config(**overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        metrics_port=None,
        max_sessions=8,
        max_table_mb=64.0,
        eval_every_events=4096,
        credit_window=65536,
        drain_grace_s=5.0,
        workers=2,
        ring_bytes=256 * 1024,
        worker_respawns=2,
        respawn_backoff_s=0.05,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


OVERRIDES = {"table_size": 10_000, "eval_every_events": 4096}


async def _stream_tenant(port, name, stream, n_threads=8, flush=True):
    client = await AsyncServeClient.connect(
        "127.0.0.1", port, tenant=name, n_threads=n_threads, config=OVERRIDES
    )
    for tid, now_ns, vaddrs in stream:
        await client.send_events(tid, now_ns, vaddrs)
    if flush:
        await client.flush()
    return await client.close()


class TestRoutedParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_digest_parity_with_offline_reference(self, machine, workers):
        """Any worker count serves the exact offline digests and mappings."""
        streams = {
            f"t{i}": list(synthetic_fault_stream(8, 4_000, seed=i)) for i in range(3)
        }

        async def scenario():
            async with RoutedMappingServer(
                _config(workers=workers), machine=machine
            ) as server:
                assert server.n_workers == workers
                return await asyncio.gather(
                    *(
                        _stream_tenant(server.port, name, stream)
                        for name, stream in streams.items()
                    )
                )

        summaries = asyncio.run(scenario())
        cfg = SessionConfig.from_overrides(
            SessionConfig(n_threads=8, eval_every_events=4096), OVERRIDES
        )
        for (name, stream), summary in zip(streams.items(), summaries):
            ref = offline_reference(stream, cfg, machine, flush_after=[len(stream) - 1])
            assert summary["matrix_digest"] == ref.final_digest
            assert summary["mapping"] == ref.final_mapping
            assert summary["events"] == 8 * 4_000

    def test_routed_matches_single_process_server(self, machine):
        """Routed and single-process servers are bit-identical, per tenant."""
        streams = {
            f"t{i}": list(synthetic_fault_stream(8, 3_000, seed=10 + i))
            for i in range(2)
        }

        async def run(server):
            async with server:
                return await asyncio.gather(
                    *(
                        _stream_tenant(server.port, name, stream)
                        for name, stream in streams.items()
                    )
                )

        single = asyncio.run(run(MappingServer(_config(workers=1), machine=machine)))
        routed = asyncio.run(
            run(RoutedMappingServer(_config(workers=2), machine=machine))
        )
        for s, r in zip(single, routed):
            assert s["matrix_digest"] == r["matrix_digest"]
            assert s["mapping"] == r["mapping"]
            assert s["events"] == r["events"]
            assert s["evaluations"] == r["evaluations"]
            assert s["remaps"] == r["remaps"]

    def test_credit_window_enforced_through_router(self, machine):
        """A routed client overrunning its window gets the protocol error."""

        async def scenario():
            async with RoutedMappingServer(
                _config(credit_window=512), machine=machine
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_frame(
                    writer,
                    protocol.encode(
                        MsgType.HELLO,
                        {
                            "tenant": "rude",
                            "n_threads": 4,
                            "version": protocol.PROTOCOL_VERSION,
                            "config": {"table_size": 4096},
                        },
                    ),
                )
                welcome = await protocol.read_frame(reader)
                assert welcome.type is MsgType.WELCOME
                # blast far past the window without reading CREDIT frames
                vaddrs = np.zeros(512, dtype=np.int64)
                for i in range(8):
                    await protocol.write_frame(
                        writer, protocol.encode_events(0, i, vaddrs)
                    )
                error = None
                while True:
                    frame = await protocol.read_frame(reader)
                    if frame is None:
                        break
                    if frame.type is MsgType.ERROR:
                        error = frame.payload
                        break
                writer.close()
                assert error is not None
                assert "credit window" in error["message"]

        asyncio.run(scenario())

    def test_small_window_backpressure_loses_nothing(self, machine):
        """A well-behaved client under a tiny window still lands every event."""

        async def scenario():
            async with RoutedMappingServer(
                _config(credit_window=512), machine=machine
            ) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="slow",
                    n_threads=4,
                    config={"table_size": 4096},
                )
                for tid, now_ns, vaddrs in synthetic_fault_stream(
                    4, 2_000, batch_events=256, seed=7
                ):
                    await client.send_events(tid, now_ns, vaddrs)
                summary = await client.close()
                assert summary["events"] == 8_000
                assert server.events_total == 8_000

        asyncio.run(scenario())

    def test_oversize_ring_frame_rejected_with_error_frame(self, machine):
        """A frame too large for the ring draws ERROR, not a deadlock."""

        async def scenario():
            async with RoutedMappingServer(
                _config(ring_bytes=4096, credit_window=1 << 20), machine=machine
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_frame(
                    writer,
                    protocol.encode(
                        MsgType.HELLO,
                        {
                            "tenant": "big",
                            "n_threads": 4,
                            "version": protocol.PROTOCOL_VERSION,
                            "config": {"table_size": 4096},
                        },
                    ),
                )
                welcome = await protocol.read_frame(reader)
                assert welcome.type is MsgType.WELCOME
                await protocol.write_frame(
                    writer,
                    protocol.encode_events(0, 0, np.zeros(1024, dtype=np.int64)),
                )
                frame = await protocol.read_frame(reader)
                writer.close()
                assert frame.type is MsgType.ERROR
                assert "record cap" in frame.payload["message"]

        asyncio.run(scenario())

    def test_negative_vaddr_rejected_before_the_ring(self, machine):
        """The router answers a negative vaddr with ERROR and forwards nothing."""

        async def scenario():
            async with RoutedMappingServer(_config(), machine=machine) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_frame(
                    writer,
                    protocol.encode(
                        MsgType.HELLO,
                        {
                            "tenant": "neg",
                            "n_threads": 4,
                            "version": protocol.PROTOCOL_VERSION,
                            "config": {"table_size": 4096},
                        },
                    ),
                )
                welcome = await protocol.read_frame(reader)
                assert welcome.type is MsgType.WELCOME
                await protocol.write_frame(
                    writer,
                    protocol.encode_events(
                        0, 0, np.array([4096, -1], dtype=np.int64)
                    ),
                )
                frame = await asyncio.wait_for(protocol.read_frame(reader), 10.0)
                writer.close()
                assert frame.type is MsgType.ERROR
                assert "negative vaddr" in frame.payload["message"]
                assert server.events_total == 0

        asyncio.run(scenario())

    def test_metrics_expose_per_worker_gauges(self, machine):
        """The exposition carries per-worker routed/occupancy/fold series."""

        async def scenario():
            async with RoutedMappingServer(_config(), machine=machine) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="m",
                    n_threads=4,
                    config={"table_size": 4096},
                )
                for tid, now_ns, vaddrs in synthetic_fault_stream(4, 1_000, seed=9):
                    await client.send_events(tid, now_ns, vaddrs)
                await client.flush()
                text = await client.metrics()
                await client.close()
                return text

        text = asyncio.run(scenario())
        assert 'serve_worker_events_total{worker="' in text
        assert 'serve_worker_batches_total{worker="' in text
        assert 'serve_worker_ring_occupancy_bytes{worker="' in text
        assert 'serve_worker_fold_seconds_bucket{' in text
        assert 'serve_worker_sessions{worker="' in text
        # exactly one worker ingested this tenant's 4000 events
        totals = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("serve_worker_events_total{")
        ]
        assert sum(totals) == 4000

    def test_routed_drain_trace_shape(self, machine, tmp_path):
        """Routed traces book-end with serve_start/serve_end, workers inside."""
        from repro.obs.recorder import JsonlRecorder

        path = tmp_path / "serve.jsonl"

        async def scenario():
            recorder = JsonlRecorder(path)
            server = RoutedMappingServer(
                _config(drain_grace_s=0.5), machine=machine, recorder=recorder
            )
            await server.start()
            client = await AsyncServeClient.connect(
                "127.0.0.1",
                server.port,
                tenant="open",
                n_threads=8,
                config=OVERRIDES,
            )
            for tid, now_ns, vaddrs in synthetic_fault_stream(8, 2_000, seed=11):
                await client.send_events(tid, now_ns, vaddrs)
            await server.drain("test-drain")
            await client.close()

        asyncio.run(scenario())
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [e["type"] for e in events]
        assert kinds[0] == "serve_start"
        assert kinds[-1] == "serve_end"
        assert kinds.count("serve_worker_start") == 2
        starts = [e for e in events if e["type"] == "serve_start"]
        assert starts[0]["workers"] == 2
        ends = [e for e in events if e["type"] == "serve_session_end"]
        assert len(ends) == 1 and ends[0]["reason"] == "drain"
        assert ends[0]["events"] == 16_000
        assert ends[0]["matrix_digest"]
        # per-session evaluation events were forwarded from the worker
        assert any(e["type"] == "serve_evaluation" for e in events)


# ---------------------------------------------------------------------------
# crash recovery: kill a worker mid-stream, digests must not change
# ---------------------------------------------------------------------------
class _Crasher:
    """Kills the worker hosting the first live session, once."""

    def __init__(self, server):
        self.server = server
        self.killed_pid = None

    def kill_hosting_worker(self):
        sess = next(iter(self.server._remote_sessions.values()))
        handle = self.server._workers[sess.worker_id]
        self.killed_pid = handle.sup.proc.pid
        os.kill(self.killed_pid, signal.SIGKILL)


class TestCrashRecovery:
    def _reference(self, machine, stream):
        cfg = SessionConfig.from_overrides(
            SessionConfig(n_threads=8, eval_every_events=4096), OVERRIDES
        )
        return offline_reference(stream, cfg, machine, flush_after=[len(stream) - 1])

    def _crash_run(self, machine, stream, respawns, workers=2):
        async def scenario():
            async with RoutedMappingServer(
                _config(workers=workers, worker_respawns=respawns), machine=machine
            ) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="victim",
                    n_threads=8,
                    config=OVERRIDES,
                )
                half = len(stream) // 2
                for tid, now_ns, vaddrs in stream[:half]:
                    await client.send_events(tid, now_ns, vaddrs)
                _Crasher(server).kill_hosting_worker()
                for tid, now_ns, vaddrs in stream[half:]:
                    await client.send_events(tid, now_ns, vaddrs)
                await client.flush()
                summary = await client.close()
                return summary, server.workers_crashed, server.tenants_migrated

        return asyncio.run(scenario())

    def test_respawn_replay_is_bit_identical(self, machine):
        """SIGKILL mid-stream, respawn + journal replay: same digest."""
        stream = list(synthetic_fault_stream(8, 4_000, seed=42))
        ref = self._reference(machine, stream)
        summary, crashed, migrated = self._crash_run(machine, stream, respawns=2)
        assert crashed == 1 and migrated == 1
        assert summary["matrix_digest"] == ref.final_digest
        assert summary["mapping"] == ref.final_mapping
        assert summary["events"] == 8 * 4_000

    def test_multi_tenant_crash_replay_with_concurrent_pumps(self, machine):
        """All tenants on a crashed worker recover while streaming live.

        Regression for the replay race: while one session's journal
        replays into the respawned worker, live pumps for the other
        not-yet-replayed sessions must not forward stale entries (which
        the worker would orphan-ack, crediting clients for unprocessed
        events and making the replay suppress genuine acks — silently
        dropping MAPPING updates).  Every tenant's digest must match the
        offline reference exactly.
        """
        streams = {
            f"t{i}": list(synthetic_fault_stream(8, 3_000, seed=50 + i))
            for i in range(3)
        }
        half = {name: len(s) // 2 for name, s in streams.items()}

        async def scenario():
            async with RoutedMappingServer(
                _config(workers=1, worker_respawns=2), machine=machine
            ) as server:
                clients = {
                    name: await AsyncServeClient.connect(
                        "127.0.0.1",
                        server.port,
                        tenant=name,
                        n_threads=8,
                        config=OVERRIDES,
                    )
                    for name in streams
                }
                for name, client in clients.items():
                    for tid, now_ns, vaddrs in streams[name][: half[name]]:
                        await client.send_events(tid, now_ns, vaddrs)
                _Crasher(server).kill_hosting_worker()

                async def finish(name, client):
                    for tid, now_ns, vaddrs in streams[name][half[name] :]:
                        await client.send_events(tid, now_ns, vaddrs)
                    await client.flush()
                    return await client.close()

                summaries = await asyncio.gather(
                    *(finish(name, client) for name, client in clients.items())
                )
                return summaries, server.workers_crashed, server.tenants_migrated

        summaries, crashed, migrated = asyncio.run(scenario())
        assert crashed == 1 and migrated == 3
        for (name, stream), summary in zip(streams.items(), summaries):
            ref = self._reference(machine, stream)
            assert summary["matrix_digest"] == ref.final_digest
            assert summary["mapping"] == ref.final_mapping
            assert summary["events"] == 8 * 3_000

    def test_exhausted_budget_migrates_to_surviving_worker(self, machine):
        """With zero respawns the tenant replays into the next worker."""
        stream = list(synthetic_fault_stream(8, 4_000, seed=43))
        ref = self._reference(machine, stream)
        summary, crashed, migrated = self._crash_run(machine, stream, respawns=0)
        assert crashed == 1 and migrated == 1
        assert summary["matrix_digest"] == ref.final_digest
        assert summary["mapping"] == ref.final_mapping

    def test_crash_events_fold_into_report(self, machine, tmp_path):
        """The obs report reflects spawns, crashes and migrations."""
        from repro.obs.recorder import JsonlRecorder
        from repro.obs.report import reconstruct_serves

        path = tmp_path / "serve.jsonl"
        stream = list(synthetic_fault_stream(8, 3_000, seed=44))

        async def scenario():
            recorder = JsonlRecorder(path)
            async with RoutedMappingServer(
                _config(), machine=machine, recorder=recorder
            ) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="victim",
                    n_threads=8,
                    config=OVERRIDES,
                )
                half = len(stream) // 2
                for tid, now_ns, vaddrs in stream[:half]:
                    await client.send_events(tid, now_ns, vaddrs)
                _Crasher(server).kill_hosting_worker()
                for tid, now_ns, vaddrs in stream[half:]:
                    await client.send_events(tid, now_ns, vaddrs)
                await client.close()

        asyncio.run(scenario())
        events = [json.loads(line) for line in path.read_text().splitlines()]
        reports = reconstruct_serves(events)
        assert len(reports) == 1
        report = reports[0]
        assert report.workers == 2
        assert report.worker_crashes == 1
        assert report.migrations == 1
        assert report.worker_spawns == 3  # two initial + one respawn
        migs = [e for e in events if e["type"] == "serve_tenant_migrated"]
        assert len(migs) == 1
        assert migs[0]["reason"] == "respawn"
        assert migs[0]["replayed_batches"] > 0
