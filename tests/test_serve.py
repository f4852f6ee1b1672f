"""The mapping service: protocol, sharded parity, evaluator, metrics."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.hashtable import ArrayShareTable
from repro.errors import ConfigurationError, ProtocolError
from repro.serve import (
    EvalCadence,
    EventBatch,
    MappingEvaluator,
    MetricsRegistry,
    MsgType,
    SessionConfig,
    ShardedShareTable,
    TenantSession,
    offline_reference,
    synthetic_fault_stream,
)
from repro.serve import protocol
from repro.units import MSEC, PAGE_SIZE

WINDOW = 250 * MSEC


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def _roundtrip(self, data: bytes) -> protocol.Frame:
        header = data[: protocol._HEADER.size]
        length, type_byte = protocol._HEADER.unpack(header)
        body = data[protocol._HEADER.size :]
        assert len(body) == length
        return protocol.parse_body(type_byte, body)

    def test_json_frame_roundtrip(self):
        frame = self._roundtrip(
            protocol.encode(MsgType.HELLO, {"tenant": "a", "n_threads": 4})
        )
        assert frame.type is MsgType.HELLO
        assert frame.payload == {"tenant": "a", "n_threads": 4}

    def test_events_frame_roundtrip(self):
        vaddrs = np.array([0, PAGE_SIZE, 7 * PAGE_SIZE + 123], dtype=np.int64)
        frame = self._roundtrip(protocol.encode_events(3, 42 * MSEC, vaddrs))
        assert frame.type is MsgType.EVENTS
        batch = frame.payload
        assert isinstance(batch, EventBatch)
        assert batch.tid == 3 and batch.now_ns == 42 * MSEC
        assert np.array_equal(batch.vaddrs, vaddrs)
        assert batch.n_events == 3

    def test_events_json_normalises_to_events(self):
        data = protocol.encode(
            MsgType.EVENTS_JSON, {"tid": 1, "now_ns": 5, "vaddrs": [4096, 8192]}
        )
        frame = self._roundtrip(data)
        assert frame.type is MsgType.EVENTS
        assert np.array_equal(frame.payload.vaddrs, [4096, 8192])

    def test_truncated_events_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_events(b"\x00\x01")

    def test_event_count_mismatch_rejected(self):
        body = protocol._EVENTS_HEADER.pack(0, 0, 5) + b"\x00" * 8  # claims 5, has 1
        with pytest.raises(ProtocolError):
            protocol.decode_events(body)

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_body(200, b"{}")

    def test_non_object_json_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_body(int(MsgType.HELLO), b"[1,2]")

    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_events(
                0, 0, np.zeros(protocol.MAX_FRAME_BYTES // 8 + 16, dtype=np.int64)
            )

    def test_sync_socket_roundtrip(self):
        import socket

        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, protocol.encode(MsgType.CREDIT, {"events": 9}))
            frame = protocol.recv_frame(b)
            assert frame is not None
            assert frame.type is MsgType.CREDIT and frame.payload["events"] == 9
            a.close()
            assert protocol.recv_frame(b) is None  # clean EOF
        finally:
            b.close()


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_render(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "requests", tenant="a").inc(3)
        reg.gauge("depth", "queue depth").set(2.5)
        text = reg.render()
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{tenant="a"} 3' in text
        assert "depth 2.5" in text

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_histogram_buckets_and_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5):
            h.observe(v)
        assert h.count == 4
        assert h.quantile(0.5) == 0.1
        assert h.quantile(1.0) == 1.0
        text = reg.render()
        assert 'lat_bucket{le="0.01"} 1' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text

    def test_render_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b", tenant="2").inc()
            reg.counter("b", tenant="1").inc()
            reg.gauge("a").set(1)
            return reg.render()

        assert build() == build()

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(2)
        snap = reg.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["values"][0]["value"] == 2.0


# ---------------------------------------------------------------------------
# session config + sharded table
# ---------------------------------------------------------------------------
class TestSessionConfig:
    def test_effective_table_size_rounds_up(self):
        cfg = SessionConfig(n_threads=4, table_size=10, shards=4)
        assert cfg.effective_table_size == 12

    def test_effective_table_size_exact_multiple(self):
        cfg = SessionConfig(n_threads=4, table_size=16, shards=4)
        assert cfg.effective_table_size == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(n_threads=1)
        with pytest.raises(ConfigurationError):
            SessionConfig(n_threads=4, shards=0)
        with pytest.raises(ConfigurationError):
            SessionConfig(n_threads=4, matrix_decay=0.0)

    def test_from_overrides_rejects_unknown_keys(self):
        defaults = SessionConfig(n_threads=4)
        with pytest.raises(ProtocolError):
            SessionConfig.from_overrides(defaults, {"not_a_knob": 1})

    def test_from_overrides_applies(self):
        defaults = SessionConfig(n_threads=4)
        cfg = SessionConfig.from_overrides(defaults, {"table_size": 100})
        assert cfg.table_size == 100 and cfg.n_threads == 4

    def test_memory_bytes_scales_with_table(self):
        small = SessionConfig(n_threads=4, table_size=1000)
        large = SessionConfig(n_threads=4, table_size=100000)
        assert large.memory_bytes() > small.memory_bytes()


class TestShardedShareTable:
    def test_size_must_divide(self):
        with pytest.raises(ConfigurationError):
            ShardedShareTable(10, 4, n_shards=4)

    def test_partner_events_match_unsharded(self, rng):
        """The shard partition emits the same partner multiset per batch."""
        size, n_threads = 64, 6
        sharded = ShardedShareTable(size, n_threads, n_shards=4)
        flat = ArrayShareTable(size, n_threads)
        for step in range(30):
            tid = int(rng.integers(0, n_threads))
            regions = rng.integers(0, 200, size=int(rng.integers(1, 40)))
            now = step * MSEC
            per_shard, w_sharded = sharded.touch_batch(regions, tid, now, WINDOW)
            flat_partners, w_flat = flat.touch_batch(regions, tid, now, WINDOW)
            merged = np.concatenate(
                [p for _, p in per_shard] or [np.empty(0, dtype=np.int64)]
            )
            assert sorted(merged.tolist()) == sorted(flat_partners.tolist())
            assert w_sharded == w_flat
        assert sharded.collisions == flat.collisions
        assert sharded.inserts == flat.inserts
        assert sharded.shared_region_count() == flat.shared_region_count()


# ---------------------------------------------------------------------------
# evaluator + cadence
# ---------------------------------------------------------------------------
class TestEvalCadence:
    def test_ticks_once_per_interval(self):
        cadence = EvalCadence(100)
        assert cadence.due(99) == 0
        assert cadence.due(100) == 1
        assert cadence.due(150) == 0
        assert cadence.due(450) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            EvalCadence(0)


class TestMappingEvaluator:
    def test_rejects_more_threads_than_pus(self, small_machine):
        with pytest.raises(ConfigurationError):
            MappingEvaluator(small_machine, SessionConfig(n_threads=64))

    def test_insufficient_evidence_before_quota(self, machine):
        from repro.core.commmatrix import CommunicationMatrix

        ev = MappingEvaluator(machine, SessionConfig(n_threads=4))
        verdict, update = ev.decide(
            CommunicationMatrix(4), comm_events=0, events_seen=0, now_ns=0
        )
        assert verdict == "insufficient-evidence" and update is None

    def test_force_bypasses_quota_and_cooldown(self, machine):
        from repro.core.commmatrix import CommunicationMatrix

        cfg = SessionConfig(n_threads=8)
        ev = MappingEvaluator(machine, cfg)
        matrix = CommunicationMatrix(8)
        for t in range(8):
            matrix.add(t, (t + 4) % 8, 1000.0)
        verdict, update = ev.decide(
            matrix, comm_events=8000, events_seen=8000, now_ns=0, force=True
        )
        assert verdict == "migrated"
        assert update is not None and update.mapping != list(range(8))

    def test_far_pair_pattern_migrates(self, machine):
        """The far-pair synthetic stream produces an accepted remap."""
        cfg = SessionConfig(n_threads=8, table_size=10_000, eval_every_events=4096)
        stream = list(synthetic_fault_stream(8, 10_000, seed=2))
        result = offline_reference(stream, cfg, machine)
        assert result.remaps >= 1
        migrated = [e for e in result.evaluations if e.verdict == "migrated"]
        assert migrated and migrated[0].mapping != list(range(8))


# ---------------------------------------------------------------------------
# sharded session vs offline reference: the bit-parity pin
# ---------------------------------------------------------------------------
class TestShardedParity:
    def _drive(self, cfg, stream, machine):
        session = TenantSession("t", cfg, machine)
        updates = []
        for tid, now_ns, vaddrs in stream:
            updates.extend(
                session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs))
            )
        final = session.evaluate(force=True)
        if final is not None:
            updates.append(final)
        return session, updates

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_digest_and_mapping_parity(self, machine, shards):
        cfg = SessionConfig(
            n_threads=8, table_size=10_000, shards=shards, eval_every_events=4096
        )
        stream = list(synthetic_fault_stream(8, 10_000, seed=3))
        session, updates = self._drive(cfg, stream, machine)
        reference = offline_reference(
            stream, cfg, machine, flush_after=[len(stream) - 1]
        )
        assert session.final_digest() == reference.final_digest
        assert [int(p) for p in session.evaluator.current] == reference.final_mapping
        assert session.evaluator.remaps == reference.remaps
        assert session.comm_events == reference.comm_events
        assert updates and updates[-1].mapping == reference.final_mapping

    def test_shard_count_does_not_change_results(self, machine):
        stream = list(synthetic_fault_stream(8, 8_000, seed=6))
        digests = set()
        mappings = []
        for shards in (1, 3, 4):
            cfg = SessionConfig(
                n_threads=8, table_size=9_999, shards=shards, eval_every_events=4096
            )
            # effective_table_size differs per shard count, so pin it equal
            cfg = SessionConfig(
                n_threads=8,
                table_size=10_008,  # divisible by 1, 3 and 4
                shards=shards,
                eval_every_events=4096,
            )
            session, _ = self._drive(cfg, stream, machine)
            digests.add(session.final_digest())
            mappings.append([int(p) for p in session.evaluator.current])
        assert len(digests) == 1
        assert all(m == mappings[0] for m in mappings)

    def test_evaluation_trace_matches_replay(self, machine, tmp_path):
        from repro.obs.recorder import JsonlRecorder

        cfg = SessionConfig(n_threads=8, table_size=10_000, eval_every_events=4096)
        stream = list(synthetic_fault_stream(8, 8_000, seed=4))
        path = tmp_path / "serve.jsonl"
        recorder = JsonlRecorder(path)
        session = TenantSession("t", cfg, machine, recorder=recorder)
        for tid, now_ns, vaddrs in stream:
            session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs))
        recorder.close()
        reference = offline_reference(stream, cfg, machine)
        import json

        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(events) == len(reference.evaluations)
        for ev, ref in zip(events, reference.evaluations):
            assert ev["type"] == "serve_evaluation"
            assert ev["verdict"] == ref.verdict
            assert ev["matrix_digest"] == ref.matrix_digest

    def test_ingest_rejects_out_of_range_tid(self, machine):
        cfg = SessionConfig(n_threads=4)
        session = TenantSession("t", cfg, machine)
        with pytest.raises(ProtocolError):
            session.ingest(
                EventBatch(tid=4, now_ns=0, vaddrs=np.zeros(1, dtype=np.int64))
            )

    def test_ingest_rejects_negative_vaddr(self, machine):
        """A vaddr in [-granularity, -1] would land on region -1, the empty marker."""
        session = TenantSession("t", SessionConfig(n_threads=4), machine)
        bad = np.array([PAGE_SIZE, -1, -PAGE_SIZE], dtype=np.int64)
        for _ in range(2):
            with pytest.raises(ProtocolError, match="negative vaddr"):
                session.ingest(EventBatch(tid=0, now_ns=0, vaddrs=bad))
        assert session.events_seen == 0
        assert session.table.inserts == 0
        session.ingest(EventBatch(tid=0, now_ns=0, vaddrs=np.array([0], dtype=np.int64)))
        assert session.events_seen == 1


class TestSyntheticStream:
    def test_deterministic_for_seed(self):
        a = [(t, n, v.tolist()) for t, n, v in synthetic_fault_stream(4, 1000, seed=5)]
        b = [(t, n, v.tolist()) for t, n, v in synthetic_fault_stream(4, 1000, seed=5)]
        assert a == b

    def test_exact_event_counts(self):
        totals = {}
        for tid, _, vaddrs in synthetic_fault_stream(6, 1000, batch_events=300):
            totals[tid] = totals.get(tid, 0) + len(vaddrs)
        assert totals == {t: 1000 for t in range(6)}

    def test_odd_thread_count_rejected(self):
        with pytest.raises(Exception):
            list(synthetic_fault_stream(3, 10))


# ---------------------------------------------------------------------------
# server end-to-end (asyncio.run inside sync tests)
# ---------------------------------------------------------------------------
class TestServerE2E:
    @staticmethod
    def _config(**overrides):
        from repro.serve import ServeConfig

        defaults = dict(
            host="127.0.0.1",
            port=0,
            metrics_port=None,
            max_sessions=4,
            max_table_mb=64.0,
            shards=4,
            eval_every_events=4096,
            credit_window=65536,
            drain_grace_s=5.0,
        )
        defaults.update(overrides)
        return ServeConfig(**defaults)

    def test_admission_refusals(self, machine):
        from repro.errors import AdmissionError
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(
                self._config(max_sessions=1, max_table_mb=0.01), machine=machine
            ) as server:
                port = server.port
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="t", n_threads=4
                    )
                assert exc.value.code == "too-large"
                small = {"table_size": 64}
                first = await AsyncServeClient.connect(
                    "127.0.0.1", port, tenant="a", n_threads=4, config=small
                )
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="b", n_threads=4, config=small
                    )
                assert exc.value.code == "at-capacity"
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="", n_threads=4, config=small
                    )
                # capacity is checked before hello validation; free the
                # slot to observe the bad-hello refusals
                await first.close()
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="", n_threads=4, config=small
                    )
                assert exc.value.code == "bad-hello"
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="c", n_threads=1, config=small
                    )
                assert exc.value.code == "bad-hello"
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1",
                        port,
                        tenant="d",
                        n_threads=4,
                        config={"bogus_knob": 1},
                    )
                assert exc.value.code == "bad-hello"
                assert server.sessions_refused == 6

        asyncio.run(scenario())

    def test_multi_tenant_digest_parity(self, machine):
        """Concurrent tenants each end bit-identical to their offline replay."""
        from repro.serve import AsyncServeClient, MappingServer, SessionConfig

        n_threads, per_thread = 8, 6_000
        overrides = {"table_size": 10_000, "eval_every_events": 4096}

        async def tenant(port, name, seed):
            client = await AsyncServeClient.connect(
                "127.0.0.1", port, tenant=name, n_threads=n_threads, config=overrides
            )
            stream = list(
                synthetic_fault_stream(n_threads, per_thread, seed=seed)
            )
            for tid, now_ns, vaddrs in stream:
                await client.send_events(tid, now_ns, vaddrs)
            summary = await client.close()
            return stream, summary, client.mappings

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                results = await asyncio.gather(
                    *(tenant(server.port, f"t{i}", seed=i) for i in range(3))
                )
                assert server.sessions_served == 3
            return results

        for stream, summary, mappings in asyncio.run(scenario()):
            cfg = SessionConfig.from_overrides(
                SessionConfig(n_threads=n_threads, shards=4, eval_every_events=4096),
                overrides,
            )
            ref = offline_reference(
                stream, cfg, machine, flush_after=[len(stream) - 1]
            )
            assert summary["events"] == n_threads * per_thread
            assert summary["matrix_digest"] == ref.final_digest
            assert summary["mapping"] == ref.final_mapping
            assert len(mappings) >= 1
            assert mappings[-1]["mapping"] == ref.final_mapping

    def test_small_credit_window_loses_nothing(self, machine):
        """Backpressure throttles the client; every event still lands."""
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(
                self._config(credit_window=512), machine=machine
            ) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="slow",
                    n_threads=4,
                    config={"table_size": 4096},
                )
                assert client.welcome["credits"] == 512
                sent = 0
                for tid, now_ns, vaddrs in synthetic_fault_stream(
                    4, 2_000, batch_events=256, seed=7
                ):
                    await client.send_events(tid, now_ns, vaddrs)
                    sent += len(vaddrs)
                summary = await client.close()
                assert summary["events"] == sent == 8_000
                assert server.events_total == 8_000

        asyncio.run(scenario())

    def test_flush_forces_evaluation(self, machine):
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="f",
                    n_threads=8,
                    config={"table_size": 10_000, "eval_every_events": 1 << 30},
                )
                for tid, now_ns, vaddrs in synthetic_fault_stream(8, 4_000, seed=8):
                    await client.send_events(tid, now_ns, vaddrs)
                # cadence never fires (huge eval_every); flush must
                pushed = await client.flush()
                assert pushed is not None
                assert pushed["mapping"] != list(range(8))
                summary = await client.close()
                assert summary["evaluations"] >= 1
                assert summary["remaps"] >= 1

        asyncio.run(scenario())

    def test_metrics_frame_and_http(self, machine):
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(
                self._config(metrics_port=0), machine=machine
            ) as server:
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
                assert "serve_events_total 4000" in text
                assert 'serve_sessions 1' in text
                # the plaintext HTTP endpoint serves the same exposition
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert raw.startswith(b"HTTP/1.0 200 ")
                assert b"serve_events_total 4000" in raw
                await client.close()

        asyncio.run(scenario())

    def test_drain_with_open_session_flushes_trace(self, machine, tmp_path):
        import json

        from repro.obs.recorder import JsonlRecorder
        from repro.serve import AsyncServeClient, MappingServer

        path = tmp_path / "serve.jsonl"

        async def scenario():
            recorder = JsonlRecorder(path)
            server = MappingServer(
                self._config(drain_grace_s=0.5), machine=machine, recorder=recorder
            )
            await server.start()
            client = await AsyncServeClient.connect(
                "127.0.0.1",
                server.port,
                tenant="open",
                n_threads=8,
                config={"table_size": 10_000},
            )
            for tid, now_ns, vaddrs in synthetic_fault_stream(8, 3_000, seed=10):
                await client.send_events(tid, now_ns, vaddrs)
            # session left open: drain must end it with reason="drain"
            await server.drain("test-drain")
            await client.close()

        asyncio.run(scenario())
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [e["type"] for e in events]
        assert kinds[0] == "serve_start"
        assert kinds[-1] == "serve_end"
        ends = [e for e in events if e["type"] == "serve_session_end"]
        assert len(ends) == 1 and ends[0]["reason"] == "drain"
        assert ends[0]["events"] == 24_000
        assert ends[0]["matrix_digest"]
        final = [e for e in events if e["type"] == "serve_end"][0]
        assert final["reason"] == "test-drain"
        assert final["events_total"] == 24_000

    def test_draining_server_refuses_new_sessions(self, machine):
        from repro.errors import AdmissionError
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            server = MappingServer(self._config(), machine=machine)
            await server.start()
            port = server.port
            drainer = asyncio.ensure_future(server.drain())
            await drainer
            with pytest.raises((AdmissionError, ConnectionError, OSError)):
                await AsyncServeClient.connect(
                    "127.0.0.1", port, tenant="late", n_threads=4
                )

        asyncio.run(scenario())

    def test_protocol_error_ends_session(self, machine):
        from repro.serve import MappingServer, ServeClient

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                port = server.port

                def bad_client():
                    client = ServeClient(
                        "127.0.0.1",
                        port,
                        tenant="bad",
                        n_threads=4,
                        config={"table_size": 4096},
                    )
                    try:
                        # tid out of range for the session
                        client.send_events(99, 0, np.zeros(4, dtype=np.int64))
                        with pytest.raises(Exception):
                            client.flush()
                    finally:
                        client._sock.close()

                await asyncio.get_running_loop().run_in_executor(None, bad_client)
                # give the server a beat to finish the teardown
                for _ in range(50):
                    if not server._connections:
                        break
                    await asyncio.sleep(0.02)
                assert not server._connections

        asyncio.run(scenario())
