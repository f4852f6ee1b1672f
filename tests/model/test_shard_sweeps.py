"""Simulator shard-count invariance: digests equal for every legal count.

``parsim_result_digest`` reduces a simulator run to one string.  The fast
test sweeps the process-sharded simulator for the counts tier-1 already
spawns; the ``slow`` sweep covers every legal power-of-two up to
``max_shards``.
"""

from __future__ import annotations

import pytest

from repro.check import parsim_result_digest
from repro.engine.parsim import max_shards
from repro.engine.runner import run_single
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig
from repro.machine.cache_params import CacheParams
from repro.machine.topology import build_machine
from repro.units import KIB
from repro.workloads.producer_consumer import ProducerConsumerWorkload


def _small_machine():
    return build_machine(
        2, 2, 2,
        l1=CacheParams("L1", 2 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 8 * KIB, 2, 64, 6.0, 2),
        l3=CacheParams("L3", 16 * KIB, 4, 64, 15.0, 3),
    )


def _sim_digest(n_shards: "int | None") -> str:
    settings = RunSettings() if n_shards is None else RunSettings(sim_shards=n_shards)
    result = run_single(
        lambda: ProducerConsumerWorkload(n_threads=8),  # fill the 8-PU machine
        "spcd",
        machine=_small_machine(),
        seed=13,
        config=EngineConfig(steps=8, batch_size=64),
        settings=settings,
    )
    return parsim_result_digest(result)


def test_sim_shards_digest_invariant_small():
    """REPRO_SIM_SHARDS 2 and 4 equal the serial engine, by digest."""
    serial = _sim_digest(None)
    for shards in (2, 4):
        assert _sim_digest(shards) == serial, f"sim_shards={shards}"


@pytest.mark.slow
def test_sim_shards_digest_invariant_every_legal_count():
    """Every legal power-of-two shard count up to max_shards agrees."""
    machine = _small_machine()
    assert max_shards(machine) == 16
    serial = _sim_digest(None)
    shards = 2
    while shards <= max_shards(machine):
        assert _sim_digest(shards) == serial, f"sim_shards={shards}"
        shards *= 2
