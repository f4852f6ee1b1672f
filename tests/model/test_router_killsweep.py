"""Router crash-replay kill-sweep: SIGKILL after every forwarded index.

``tests/test_serve_router.py`` pins crash recovery at one sampled kill
point (mid-stream); this sweep proves the property at *every* batch
index k — connect, forward k batches, flush (a deterministic sync point:
the worker has processed everything forwarded so far), SIGKILL the
hosting worker, stream the remainder, and require the final digest and
mapping to equal :func:`offline_reference` exactly.  The journal replay
must therefore be exact no matter where in the stream the worker dies —
including before the first batch and after the last one.

The fast test sweeps a short stream completely; the ``slow`` variant
sweeps a longer one (more evaluation ticks and ring wraps between kills).
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.serve import (
    AsyncServeClient,
    RoutedMappingServer,
    ServeConfig,
    SessionConfig,
    offline_reference,
    synthetic_fault_stream,
)

N_THREADS = 4
OVERRIDES = {"table_size": 4096, "eval_every_events": 1024}


def _config():
    return ServeConfig(
        host="127.0.0.1",
        port=0,
        metrics_port=None,
        max_sessions=8,
        eval_every_events=1024,
        credit_window=65536,
        drain_grace_s=5.0,
        workers=1,
        ring_bytes=128 * 1024,
        worker_respawns=2,
        respawn_backoff_s=0.05,
    )


def _reference(machine, stream, flush_after):
    cfg = SessionConfig.from_overrides(
        SessionConfig(n_threads=N_THREADS, eval_every_events=1024),
        OVERRIDES,
    )
    return offline_reference(stream, cfg, machine, flush_after=flush_after)


def _kill_hosting_worker(server):
    sess = next(iter(server._remote_sessions.values()))
    handle = server._workers[sess.worker_id]
    os.kill(handle.sup.proc.pid, signal.SIGKILL)


def _run_killed_at(machine, stream, k):
    """Forward k batches, flush, SIGKILL the worker, finish the stream."""

    async def scenario():
        async with RoutedMappingServer(_config(), machine=machine) as server:
            client = await AsyncServeClient.connect(
                "127.0.0.1",
                server.port,
                tenant="victim",
                n_threads=N_THREADS,
                config=OVERRIDES,
            )
            for tid, now_ns, vaddrs in stream[:k]:
                await client.send_events(tid, now_ns, vaddrs)
            await client.flush()
            _kill_hosting_worker(server)
            for tid, now_ns, vaddrs in stream[k:]:
                await client.send_events(tid, now_ns, vaddrs)
            await client.flush()
            summary = await client.close()
            assert server.workers_crashed == 1
            return summary

    return asyncio.run(scenario())


def _sweep(machine, stream, indices):
    ref_cache = {}
    failures = []
    for k in indices:
        flush_after = sorted({k - 1, len(stream) - 1} - {-1})
        key = tuple(flush_after)
        if key not in ref_cache:
            ref_cache[key] = _reference(machine, stream, flush_after)
        ref = ref_cache[key]
        summary = _run_killed_at(machine, stream, k)
        ok = (
            summary["matrix_digest"] == ref.final_digest
            and summary["mapping"] == ref.final_mapping
            and summary["events"] == sum(b[2].size for b in stream)
        )
        if not ok:
            failures.append(
                (k, summary["matrix_digest"], ref.final_digest, summary["mapping"])
            )
    assert failures == [], f"kill indices with divergent replay: {failures}"


def test_killsweep_every_batch_index(machine):
    """Short stream, every kill index 0..n — digest-exact replay each time."""
    stream = list(
        synthetic_fault_stream(N_THREADS, 512, batch_events=256, seed=21)
    )
    assert len(stream) == 8
    _sweep(machine, stream, range(len(stream) + 1))


@pytest.mark.slow
def test_killsweep_long_stream(machine):
    """Longer stream: kills land around evaluation ticks and ring wraps."""
    stream = list(
        synthetic_fault_stream(N_THREADS, 1536, batch_events=256, seed=22)
    )
    assert len(stream) == 24
    _sweep(machine, stream, range(len(stream) + 1))
