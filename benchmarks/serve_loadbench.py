"""Load benchmark for the mapping service: the PR's acceptance scenario.

Runs a :class:`~repro.serve.MappingServer` in-process and drives it with
concurrent asyncio tenants, each streaming the far-pair synthetic fault
pattern through the credit-window protocol.  For every tenant it asserts
the service-side state is *bit-identical* to an offline replay of the same
stream (zero lost events, same matrix digest, same final mapping) and that
at least one MAPPING push arrived — correctness first, then throughput.

Reported per tenant count: aggregate ingest rate (events/s), per-batch
detection+evaluation latency p50/p99 from the server's own histogram, and
the remap count.  The acceptance row is 8 tenants x 100k events.

The routed sweep then replays the acceptance configuration through
:class:`~repro.serve.RoutedMappingServer` for worker counts {1, 2, 4},
asserting every tenant's digest is bit-identical to the single-process
row's — the router must never trade correctness for throughput.  The
>= 3x speedup gate is asserted only when the host has enough CPUs to
make a multi-process speedup physically possible (``host_cpus >=
workers + 2``, the :mod:`bench_simcore` convention); on smaller hosts
the measured rate and the protocol overhead are recorded honestly and
the 1M events/s trajectory row is labelled a projection.

Standalone on purpose: no pytest/conftest imports, so the tier-1 smoke
test can import it and CI can run it directly.  Only needs ``src`` on
``sys.path``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.machine.topology import dual_xeon_e5_2650  # noqa: E402
from repro.serve import (  # noqa: E402
    AsyncServeClient,
    MappingServer,
    RoutedMappingServer,
    ServeConfig,
    SessionConfig,
    offline_reference,
    synthetic_fault_stream,
)

N_THREADS = 8
TABLE_SIZE = 10_000
EVAL_EVERY = 8192
OVERRIDES = {"table_size": TABLE_SIZE, "eval_every_events": EVAL_EVERY}


async def _run_tenant(port: int, name: str, seed: int, events_per_thread: int):
    """Stream one tenant's synthetic load; return (stream, summary, pushes)."""
    client = await AsyncServeClient.connect(
        "127.0.0.1", port, tenant=name, n_threads=N_THREADS, config=OVERRIDES
    )
    stream = list(synthetic_fault_stream(N_THREADS, events_per_thread, seed=seed))
    for tid, now_ns, vaddrs in stream:
        await client.send_events(tid, now_ns, vaddrs)
    summary = await client.close()
    return stream, summary, list(client.mappings)


def _verify_tenant(machine, stream, summary, pushes) -> int:
    """Assert service/offline bit-parity for one tenant; return remaps."""
    cfg = SessionConfig.from_overrides(
        SessionConfig(n_threads=N_THREADS, eval_every_events=EVAL_EVERY),
        OVERRIDES,
    )
    ref = offline_reference(stream, cfg, machine, flush_after=[len(stream) - 1])
    sent = sum(len(v) for _, _, v in stream)
    assert summary["events"] == sent == ref.events, "lost events"
    assert summary["matrix_digest"] == ref.final_digest, "digest mismatch"
    assert summary["mapping"] == ref.final_mapping, "mapping mismatch"
    assert pushes, "tenant received no mapping notification"
    assert pushes[-1]["mapping"] == ref.final_mapping
    return int(summary["remaps"])


async def run_load(n_tenants: int, events_per_thread: int, workers: int = 0) -> dict:
    """One measured round: ``n_tenants`` concurrent sessions, full parity.

    ``workers=0`` runs the single-process server; ``workers>=1`` routes the
    same load through the multi-process tier.  Either way every tenant is
    verified bit-identical against the offline replay, and the row carries
    a per-tenant digest map so routed rows can also be pinned against the
    single-process row directly.
    """
    machine = dual_xeon_e5_2650()
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        metrics_port=None,
        max_sessions=max(8, n_tenants),
        max_table_mb=64.0,
        eval_every_events=EVAL_EVERY,
        credit_window=65536,
        drain_grace_s=5.0,
        workers=max(1, workers),
    )
    if workers:
        server = RoutedMappingServer(config, machine=machine)
    else:
        server = MappingServer(config, machine=machine)
    async with server:
        start = perf_counter()
        results = await asyncio.gather(
            *(
                _run_tenant(server.port, f"tenant-{i}", 100 + i, events_per_thread)
                for i in range(n_tenants)
            )
        )
        elapsed = perf_counter() - start
        total_events = server.events_total
        hist = server.metrics.histogram("serve_ingest_seconds")
        p50 = hist.quantile(0.5)
        p99 = hist.quantile(0.99)
        assert server.sessions_served == n_tenants
    remaps = sum(
        _verify_tenant(machine, stream, summary, pushes)
        for stream, summary, pushes in results
    )
    expected = n_tenants * N_THREADS * events_per_thread
    assert total_events == expected, f"server saw {total_events}, sent {expected}"
    row = {
        "tenants": n_tenants,
        "events_per_thread": events_per_thread,
        "events_total": total_events,
        "elapsed_s": elapsed,
        "events_per_s": total_events / elapsed,
        "ingest_p50_s": p50,
        "ingest_p99_s": p99,
        "remaps": remaps,
        "parity": "bit-identical",
        "digests": {
            f"tenant-{i}": summary["matrix_digest"]
            for i, (_, summary, _) in enumerate(results)
        },
    }
    if workers:
        row["workers"] = workers
    return row


def run_routed_sweep(
    single_row: dict,
    events_per_thread: int,
    worker_counts=(1, 2, 4),
    host_cpus: "int | None" = None,
) -> "tuple[list[dict], dict]":
    """The routed acceptance sweep + the 1M events/s trajectory row.

    Every routed row is digest-pinned against *single_row* (same tenants,
    same seeds), so the comparison is exact, not statistical.  The >= 3x
    gate only fires when the host could physically show the speedup.
    """
    host_cpus = host_cpus if host_cpus is not None else (os.cpu_count() or 1)
    n_tenants = single_row["tenants"]
    single_rate = single_row["events_per_s"]
    routed_rows = []
    for workers in worker_counts:
        row = asyncio.run(run_load(n_tenants, events_per_thread, workers=workers))
        assert row["digests"] == single_row["digests"], (
            f"routed workers={workers} digests diverged from single-process"
        )
        row["digest_parity_vs_single_process"] = True
        row["speedup_vs_single_process"] = row["events_per_s"] / single_rate
        gated = host_cpus >= workers + 2
        if workers >= 3 and gated:
            assert row["speedup_vs_single_process"] >= 3.0, (
                f"workers={workers} only reached "
                f"{row['speedup_vs_single_process']:.2f}x on {host_cpus} cpus"
            )
            row["speedup_gate"] = ">=3x asserted"
        elif workers >= 3:
            row["speedup_gate"] = (
                f"skipped: host_cpus={host_cpus} < workers+2={workers + 2} — "
                "all processes time-share one core, the measured ratio is "
                "protocol overhead, not scaling"
            )
        else:
            row["speedup_gate"] = "n/a (router overhead row)"
        routed_rows.append(row)
    # the 1M events/s trajectory, recorded honestly: measured when this
    # host actually demonstrated it, otherwise a projection from the
    # per-worker detection rate with the router cost already included
    best = max(routed_rows, key=lambda r: r["events_per_s"])
    one_worker = next(r for r in routed_rows if r["workers"] == 1)
    per_worker_rate = one_worker["events_per_s"]
    workers_needed = math.ceil(1_000_000 / per_worker_rate)
    if best["events_per_s"] >= 1_000_000:
        trajectory = {
            "target_events_per_s": 1_000_000,
            "status": "measured",
            "workers": best["workers"],
            "events_per_s": best["events_per_s"],
            "host_cpus": host_cpus,
        }
    else:
        trajectory = {
            "target_events_per_s": 1_000_000,
            "status": "projected",
            "basis": (
                "per-worker routed rate (router + ring overhead included), "
                "assuming linear worker scaling on a host with "
                "workers + 2 free cpus"
            ),
            "per_worker_events_per_s": per_worker_rate,
            "workers_needed": workers_needed,
            "best_measured_events_per_s": best["events_per_s"],
            "best_measured_workers": best["workers"],
            "host_cpus": host_cpus,
            "honest_note": (
                f"this host has {host_cpus} cpu(s); routed workers time-share "
                "cores with the router, so wall-clock scaling cannot appear "
                "here — digest parity is asserted, throughput is projected"
            )
            if host_cpus < 6
            else "host had enough cpus but the target was not reached",
        }
    return routed_rows, trajectory


def run_bench(
    events_per_thread: int = 100_000,
    tenant_counts=(1, 4, 8),
    worker_counts=(1, 2, 4),
) -> dict:
    """The full sweep; the last single-process row is the acceptance
    configuration and seeds the routed sweep's digest pin."""
    rows = [
        asyncio.run(run_load(n, events_per_thread)) for n in tenant_counts
    ]
    routed_rows, trajectory = run_routed_sweep(
        rows[-1], events_per_thread, worker_counts=worker_counts
    )
    return {
        "n_threads_per_tenant": N_THREADS,
        "table_size": TABLE_SIZE,
        "eval_every_events": EVAL_EVERY,
        "host_cpus": os.cpu_count() or 1,
        "rows": rows,
        "routed_rows": routed_rows,
        "trajectory_1m_events_per_s": trajectory,
    }


def _print_row(row: dict) -> None:
    label = f"workers={row['workers']}" if "workers" in row else "single   "
    print(
        f"{label}  tenants={row['tenants']:2d}  "
        f"events={row['events_total']:>9,}  "
        f"rate={row['events_per_s']:>12,.0f} ev/s  "
        f"ingest p50={row['ingest_p50_s'] * 1e3:6.2f} ms "
        f"p99={row['ingest_p99_s'] * 1e3:6.2f} ms  "
        f"remaps={row['remaps']}  {row['parity']}"
    )


def main(argv: "list[str] | None" = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    events = int(args[0]) if args else 100_000
    result = run_bench(events_per_thread=events)
    for row in result["rows"] + result["routed_rows"]:
        _print_row(row)
    trajectory = result["trajectory_1m_events_per_s"]
    print(f"1M events/s trajectory: {trajectory['status']}")
    out = REPO / "benchmarks" / "results" / "BENCH_serve.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
