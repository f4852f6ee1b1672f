"""The core-sharded parallel simulator must replay bit-identically.

Set-stripe sharding (``REPRO_SIM_SHARDS``) partitions cache lines across
worker processes by ``line & (S - 1)``.  Because the stripe bits are the
low bits of the set index at every cache level, stripes never share a
cache set, a directory entry, or an LRU ordering — so the merged shard
counters must equal the single-process counters bit for bit, for any
shard count, and even across a mid-run worker crash (the journal replay
rebuilds the dead shard's state exactly).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cachesim.stats import CacheStats
from repro.engine.parsim import ShardPool, max_shards
from repro.engine.runner import run_single
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import ConfigurationError
from repro.machine.cache_params import CacheParams
from repro.machine.topology import build_machine
from repro.units import KIB
from repro.workloads.npb import make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload


def small_machine():
    return build_machine(
        2, 2, 2,
        l1=CacheParams("L1", 2 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 8 * KIB, 2, 64, 6.0, 2),
        l3=CacheParams("L3", 16 * KIB, 4, 64, 15.0, 3),
    )


def assert_results_equal(a, b) -> None:
    for f in dataclasses.fields(CacheStats):
        assert getattr(a.stats, f.name) == getattr(b.stats, f.name), f.name
    for metric in (
        "exec_time_s",
        "l2_mpki",
        "l3_mpki",
        "c2c_transactions",
        "invalidations",
        "migrations",
        "first_touch_faults",
        "injected_faults",
    ):
        assert a.metric(metric) == b.metric(metric), metric


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_run_bit_identical(shards):
    """Every REPRO_SIM_SHARDS count equals the serial run."""
    cfg = EngineConfig(steps=12, batch_size=96)
    serial = run_single(
        ProducerConsumerWorkload, "spcd", seed=11, config=cfg, settings=RunSettings()
    )
    sharded = run_single(
        ProducerConsumerWorkload,
        "spcd",
        seed=11,
        config=cfg,
        settings=RunSettings(sim_shards=shards),
    )
    assert_results_equal(serial, sharded)


def test_sharded_npb_parity():
    """An NPB pattern (phases, rng streams) survives sharding unchanged."""
    cfg = EngineConfig(steps=10, batch_size=128)
    serial = run_single(
        lambda: make_npb("CG"), "spcd", seed=5, config=cfg, settings=RunSettings()
    )
    sharded = run_single(
        lambda: make_npb("CG"),
        "spcd",
        seed=5,
        config=cfg,
        settings=RunSettings(sim_shards=4),
    )
    assert_results_equal(serial, sharded)


def test_worker_crash_respawns_and_replays():
    """Killing a worker mid-run must not change a single counter.

    The coordinator journals every broadcast; a respawned worker replays
    the journal, deterministically rebuilding its rng streams, workload
    cursors and hierarchy state before the run continues.
    """
    cfg = EngineConfig(steps=10, batch_size=96)
    clean = run_single(
        ProducerConsumerWorkload,
        "spcd",
        seed=3,
        config=cfg,
        settings=RunSettings(sim_shards=2),
    )

    killed = {"done": False}

    def kill_one(sim, step, now_ns):
        if step == 4 and not killed["done"]:
            sim._pool._shards[1].proc.kill()
            killed["done"] = True

    sim = Simulator(
        ProducerConsumerWorkload(),
        "spcd",
        seed=3,
        config=cfg,
        settings=RunSettings(sim_shards=2),
    )
    crashed = sim.run(step_callback=kill_one)
    assert killed["done"]
    assert_results_equal(clean, crashed)


def test_shard_count_validation():
    with pytest.raises(ConfigurationError):
        RunSettings(sim_shards=3)  # not a power of two
    with pytest.raises(ConfigurationError):
        RunSettings(sim_shards=0)
    machine = small_machine()
    assert max_shards(machine) == 16  # smallest level: L1 with 16 sets
    with pytest.raises(ConfigurationError):
        ShardPool(
            machine,
            ProducerConsumerWorkload(),
            seed=0,
            n_threads=4,
            batch_size=32,
            n_shards=32,  # > max_shards: stripes would share cache sets
        )
    with pytest.raises(ConfigurationError):
        ShardPool(
            machine,
            ProducerConsumerWorkload(),
            seed=0,
            n_threads=4,
            batch_size=32,
            n_shards=1,  # pointless: the serial engine covers this
        )


def test_env_sim_shards_reaches_engine(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SHARDS", "2")
    assert RunSettings.from_env().sim_shards == 2
    cfg = EngineConfig(steps=4, batch_size=64)
    via_env = run_single(ProducerConsumerWorkload, "spcd", seed=2, config=cfg)
    via_arg = run_single(
        ProducerConsumerWorkload,
        "spcd",
        seed=2,
        config=cfg,
        settings=RunSettings(sim_shards=2),
    )
    assert_results_equal(via_env, via_arg)


def test_snapshot_matches_dataclass_field_order():
    """Shard deltas are ``snapshot()`` differences: it must track the field order."""
    stats = CacheStats(**{
        f.name: i + 1 for i, f in enumerate(dataclasses.fields(CacheStats))
    })
    assert stats.snapshot() == tuple(
        getattr(stats, f.name) for f in dataclasses.fields(CacheStats)
    )
