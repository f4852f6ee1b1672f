"""Golden digests: pinned SHA-256 fingerprints of simulated behaviour.

Each case runs a fixed, seeded scenario and hashes everything it can
observe: for whole simulations, every :class:`CacheStats` counter plus
every scalar metric of the :class:`SimulationResult`; for raw access
streams, the hierarchy's complete MESI state (counters, directory,
residency, LRU-relevant hit/miss/eviction counts and dirty flags of every
cache); for thread mapping, the hierarchical mapper's thread -> PU
assignment and the blossom engine's raw ``mate`` arrays, including
degenerate all-ties inputs where only the tie-break order decides the
result.  The pins are constants captured once; nothing here regenerates
them.  A refactor meant to keep behaviour must leave every pin unchanged,
and a deliberate behaviour change updates the pins it moves and says why.

The ``REPRO_SIM_SHARDS=2`` cases rerun the simulations on the set-stripe
sharded simulator, which must reproduce the single-process pins exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.core.mapping import HierarchicalMapper
from repro.core.matching import _blossom_reference
from repro.engine.runner import run_single
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult
from repro.machine.cache_params import CacheParams
from repro.machine.topology import build_machine, dual_xeon_e5_2650
from repro.serve import EventBatch, SessionConfig, TenantSession
from repro.units import KIB, MSEC, PAGE_SIZE
from repro.workloads.npb import make_npb
from repro.workloads.patterns import mixed_pattern
from repro.workloads.producer_consumer import ProducerConsumerWorkload

#: every scalar metric of a simulation result (simulated, not host time)
RESULT_METRICS = (
    "exec_time_s",
    "instructions",
    "l2_mpki",
    "l3_mpki",
    "c2c_transactions",
    "c2c_inter",
    "invalidations",
    "proc_energy_j",
    "dram_energy_j",
    "proc_epi_nj",
    "dram_epi_nj",
    "migrations",
    "os_migrations",
    "detection_pct",
    "mapping_pct",
    "first_touch_faults",
    "injected_faults",
    "injected_ratio",
)

SERIAL = RunSettings()
SHARDED = RunSettings.from_env({"REPRO_SIM_SHARDS": "2"})

#: the paper workloads' short SPCD run (seed 99, 25 steps x 128)
FULL_CONFIG = EngineConfig(steps=25, batch_size=128)
FULL_WORKLOADS = {
    "producer_consumer": ProducerConsumerWorkload,
    "npb_sp": lambda: make_npb("SP"),
    "npb_cg": lambda: make_npb("CG"),
}
FULL_PINS = {
    "producer_consumer": "c10ad1036f356351e827f150471b852dd32a8a115f72bb08797682846d417f9b",
    "npb_sp": "776594e698089d680c3c4bc4429c653db0a251c958e4d5160ad72db9aab02832",
    "npb_cg": "a4efa133d1bdd2ab1ae8ba71af3e71109cdb20bd7b3503ae342969ca6060e756",
}

#: CG under every mapping policy, same short configuration; os and random
#: coincide because the CFS-like scheduler draws its initial placement from
#: the same rng stream and makes no migration in 25 steps
POLICY_PINS = {
    "os": "c4fa1689ea36a45850923c9b06162f421692f2606f915b0d47f92af2628fd436",
    "random": "c4fa1689ea36a45850923c9b06162f421692f2606f915b0d47f92af2628fd436",
    "oracle": "55412e07dfdfc872276c6ee051bf3fe526bc15901ab30f616ec79397c259b692",
    "spcd": "a4efa133d1bdd2ab1ae8ba71af3e71109cdb20bd7b3503ae342969ca6060e756",
}

#: Fig. 8 cells at the benchmark's sampling factor, shortened
FIG8_CONFIG = EngineConfig(steps=30, batch_size=128, time_scale=6000.0)
FIG8_SEED = 601
FIG8_PINS = {
    ("SP", "os"): "18dd766d4fbcd0b6cb073dd400822e105b00c22c64f2a3e7db06c4c7254d428a",
    ("SP", "oracle"): "8a87c084b93d10bc0d95851b0959f6c59ff1fc149d14fdb5ed1588cea32f3488",
    ("SP", "spcd"): "4dde5f9b69e92d9a90cefbe5faf3b1daae280df30e09ad0b290d7e80266b1691",
    ("EP", "os"): "72c59a1b0ca7df3bb616294dbc90e3ad39b631728b026a765688b0300cf61af0",
    ("EP", "oracle"): "11bc2b94ef646ed1794a11349a7246264f9f4d49b0cb0cc426014497723b3688",
    ("EP", "spcd"): "377c799b80d92cac36756a473c8ea1037272bd27e904cdf5f06d372385a5f008",
}

#: randomised raw access streams straight into the hierarchy
DRAIN_STREAM_PINS = {
    0.0: "6e4619cd8bc34338cffecdc8c926b08aad0fb52884f4579a56bb0230bd49878e",
    0.05: "da01035c5e276824b98a742d153f9ff97c9ea68fd8dc6b583f38bb42f2bd6faa",
    0.3: "f6ca9d0a5089c244544fe365f05d778145dd707c02ccd94402f9a17c40be0694",
}
RANDOM_STREAM_PIN = "822bfa93336f6e2de698e3767486e321d3fc0b09dfeb9f68d0a8433dd8763184"

#: (sockets, cores per socket, SMT) of the machine mapping n threads
MAPPING_MACHINES = {64: (2, 16, 2), 128: (4, 16, 2), 256: (4, 32, 2)}
#: Edmonds-grouped mappings of the detected-shape matrix (chain + background)
MIXED_MAPPING_PINS = {
    64: "7ccd8dc4d0fa56b010e90de3643d0d9026a929a7e38189de9ca53425148379f4",
    128: "cc2acb0619c2fb496e535d7caa464663d14dd4b732e14deb41081b75fcd9a478",
    256: "766ec3a4eea118a68276066ae492100840d640c30e6cc0c58b685a7b4054304f",
}
#: the same on dense uniform-random matrices (near-complete graphs)
DENSE_MAPPING_PINS = {
    64: "afcdf5679dc8ebc90b86f0a617ed6653acc689eefef3c0d3134a05cef3cb55ee",
    128: "7865a6ec3769ec6ad562a298d399eb5593aa0a867bd331d7d9738b68f06c5f53",
}

#: blossom ``mate`` arrays: 200 random integer matrices, low weight ranges
#: forcing ties, alternating the cardinality mode
RANDOM_MATE_PIN = "46db3a7c9d050e35861b5c5dba1e54eeef93f8fa622e5f110fbc8698e477d01f"
#: every weight equal, so the pairing is decided by scan order alone
ALL_TIES_MATE_PINS = {
    8: "f366d51b718610efe3f640a46db42178a60a2d723e4b1fbe39d7a2a2964303c5",
    16: "a739a134a06b3083d7480d2054151a65e7c8534c0b7132c172278ac24a0f8649",
    32: "f7910ce95ab7092d5728ba68b5df9ea7eb655575c9c0035a4350781768d4fc4b",
    64: "6f0aa815bf6cb1be50d3959b60d93bde184634192bf5e4b8c35da849025d65ca",
}
#: 60 general (non-complete) graphs, both cardinality modes each
SPARSE_MATE_PIN = "bbc49f5a465e09a450f64b09df566053255da32c3adaba40e5d565484b400898"


def digest(value) -> str:
    """SHA-256 of a canonical ``repr`` (ints, floats, bools, tuples only)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def result_digest(result: SimulationResult) -> str:
    """Digest of every cache counter and every scalar simulated metric."""
    return digest(
        (
            dataclasses.astuple(result.stats),
            tuple(result.metric(name) for name in RESULT_METRICS),
        )
    )


def hierarchy_digest(h: CoherentHierarchy) -> str:
    """Digest of everything the MESI protocol can observe."""
    caches = tuple(
        (
            cache.name,
            cache.hits,
            cache.misses,
            cache.evictions,
            tuple((line, cache.is_dirty(line)) for line in sorted(cache.resident_lines())),
        )
        for group in (h.l1, h.l2, h.l3)
        for cache in group
    )
    return digest(
        (
            dataclasses.astuple(h.stats),
            tuple(sorted(h._sharers.items())),
            tuple(sorted(h._dirty_owner.items())),
            caches,
        )
    )


@pytest.mark.parametrize("settings", [SERIAL, SHARDED], ids=["serial", "shards2"])
@pytest.mark.parametrize("name", list(FULL_PINS))
def test_full_simulation_digest(name, settings):
    result = run_single(
        FULL_WORKLOADS[name], "spcd", seed=99, config=FULL_CONFIG, settings=settings
    )
    assert result_digest(result) == FULL_PINS[name]


@pytest.mark.parametrize("policy", list(POLICY_PINS))
def test_cg_policy_digest(policy):
    result = run_single(
        lambda: make_npb("CG"), policy, seed=99, config=FULL_CONFIG, settings=SERIAL
    )
    assert result_digest(result) == POLICY_PINS[policy]


@pytest.mark.parametrize("settings", [SERIAL, SHARDED], ids=["serial", "shards2"])
@pytest.mark.parametrize("cell", list(FIG8_PINS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_fig8_cell_digest(cell, settings):
    kernel, policy = cell
    result = run_single(
        lambda: make_npb(kernel), policy, seed=FIG8_SEED, config=FIG8_CONFIG,
        settings=settings,
    )
    assert result_digest(result) == FIG8_PINS[cell]


def drain_machine():
    """Small enough to force evictions at every level."""
    return build_machine(
        2, 2, 2,
        l1=CacheParams("L1", 2 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 8 * KIB, 2, 64, 6.0, 2),
        l3=CacheParams("L3", 16 * KIB, 4, 64, 15.0, 3),
    )


def drain_stream(rng, n: int, write_p: float, lines_hi: int):
    """Same-line runs mixed with sweeps, half of them read-only re-sweeps
    of lines that fell out of L1 but not L2 (the refill shape)."""
    lines: list[int] = []
    writes: list[int] = []
    while len(lines) < n:
        mode = rng.random()
        if mode < 0.3:
            line = int(rng.integers(0, lines_hi))
            rep = int(rng.integers(1, 40))
            lines += [line] * rep
            writes += [int(rng.random() < write_p) for _ in range(rep)]
        else:
            base = int(rng.integers(0, lines_hi))
            sweep_writes = mode < 0.65
            for k in range(int(rng.integers(16, 80))):
                lines.append((base + k) % lines_hi)
                writes.append(int(rng.random() < write_p) if sweep_writes else 0)
    return lines[:n], writes[:n], [0] * n


@pytest.mark.parametrize("write_p", list(DRAIN_STREAM_PINS))
def test_drain_stream_snapshot_digest(write_p):
    rng = np.random.default_rng(int(write_p * 100) + 17)
    h = CoherentHierarchy(drain_machine())
    for _ in range(5):
        for pu in range(8):
            lines, writes, homes = drain_stream(rng, 600, write_p, 512)
            h.access_batch_pu(pu, lines, writes, homes)
    assert h.check_invariants() == []
    assert hierarchy_digest(h) == DRAIN_STREAM_PINS[write_p]


def test_random_stream_snapshot_digest():
    """Dense (hit-heavy) and sparse (miss-heavy) random batches, 4 trials."""
    machine = build_machine(
        2, 2, 2,
        l1=CacheParams("L1", 1 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 2 * KIB, 2, 64, 6.0, 2),
        l3=CacheParams("L3", 4 * KIB, 4, 64, 15.0, 3),
    )
    rng = np.random.default_rng(1234)
    digests = []
    for _ in range(4):
        h = CoherentHierarchy(machine)
        for _ in range(10):
            pu = int(rng.integers(machine.n_cores))
            n = int(rng.integers(1, 300))
            span = int(rng.choice([12, 40, 400]))
            lines = rng.integers(0, span, size=n).astype(np.int64)
            writes = rng.random(n) < 0.3
            homes = rng.integers(0, 2, size=n).astype(np.int64)
            h.access_batch_pu(pu, lines, writes, homes)
        assert h.check_invariants() == []
        digests.append(hierarchy_digest(h))
    assert digest(tuple(digests)) == RANDOM_STREAM_PIN


def random_symmetric_int(rng, n: int, hi: int) -> np.ndarray:
    m = rng.integers(0, hi, size=(n, n)).astype(float)
    m = np.triu(m, 1)
    return m + m.T


def complete_edges(m: np.ndarray) -> list:
    n = m.shape[0]
    return [(i, j, float(m[i, j])) for i in range(n) for j in range(i + 1, n)]


def mapping_digest(n: int, matrix: np.ndarray) -> str:
    machine = build_machine(*MAPPING_MACHINES[n], name=f"pin{n}")
    return digest(tuple(int(pu) for pu in HierarchicalMapper(machine).map(matrix)))


@pytest.mark.parametrize("n", list(MIXED_MAPPING_PINS))
def test_mixed_pattern_mapping_digest(n):
    detected = np.rint(mixed_pattern(n, 1000.0, 50.0))
    assert mapping_digest(n, detected) == MIXED_MAPPING_PINS[n]


@pytest.mark.parametrize("n", list(DENSE_MAPPING_PINS))
def test_dense_mapping_digest(n):
    dense = random_symmetric_int(np.random.default_rng(n), n, 1000)
    assert mapping_digest(n, dense) == DENSE_MAPPING_PINS[n]


def test_random_integer_mate_digest():
    rng = np.random.default_rng(20130520)  # paper's conference date
    mates = []
    for trial in range(200):
        n = int(rng.integers(4, 36))
        # hi=1 gives the fully degenerate all-zeros matrix; hi=2 is almost
        # all ties — the result is then decided purely by scan order.
        hi = int(rng.choice([1, 2, 3, 8, 1000]))
        edges = complete_edges(random_symmetric_int(rng, n, hi))
        mates.append(tuple(_blossom_reference(edges, bool(trial % 2))))
    assert digest(tuple(mates)) == RANDOM_MATE_PIN


@pytest.mark.parametrize("n", list(ALL_TIES_MATE_PINS))
def test_all_ties_mate_digest(n):
    m = np.full((n, n), 7.0)
    np.fill_diagonal(m, 0.0)
    mate = tuple(_blossom_reference(complete_edges(m), True))
    assert all(v >= 0 for v in mate)  # perfect
    assert digest(mate) == ALL_TIES_MATE_PINS[n]


def test_sparse_graph_mate_digest():
    rng = np.random.default_rng(99)
    mates = []
    for _ in range(60):
        n = int(rng.integers(6, 40))
        nedges = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        pairs: set = set()
        while len(pairs) < nedges:
            i, j = sorted(rng.integers(0, n, 2).tolist())
            if i != j:
                pairs.add((i, j))
        edges = [(i, j, float(rng.integers(0, 5))) for (i, j) in sorted(pairs)]
        for maxcardinality in (False, True):
            mates.append(tuple(_blossom_reference(edges, maxcardinality)))
    assert digest(tuple(mates)) == SPARSE_MATE_PIN


#: serve-session stream: 32 threads in pairs, each batch 256 pages drawn
#: with replacement from the pair's 64-page pool, so almost every event
#: repeats a slot already touched in its own batch
SERVE_THREADS = 32
SERVE_BATCH_EVENTS = 256
SERVE_POOL_PAGES = 64
SERVE_ROUND_NS = 100 * MSEC
SERVE_ROUNDS_PER_PHASE = 4
SERVE_PHASES = 4
SERVE_CONFIGS = {
    "table32768": dict(table_size=32768),
    # 64 slots for 32 pools of 64 pages: mixed slots and overwrites everywhere
    "table64": dict(table_size=64),
    "decay": dict(table_size=32768, matrix_decay=0.9),
}
#: (matrix digest, final-mapping digest, collisions, inserts, windowed_out,
#: comm_events) after the whole stream
SERVE_PINS = {
    "table32768": (
        "2a9fa4c25e808b8a",
        "8781af7b09f426140cc18014b8405c418ae572eb1a785243b1df8404f976d391",
        0, 2048, 125696, 114057,
    ),
    "table64": (
        "9a94d458c94e857f",
        "45783d6da2e84af439979b3535ae2e5ab98a8dea9fe618c82c960698a56d2abc",
        30980, 31044, 0, 4587,
    ),
    "decay": (
        "a54990d0549751b8",
        "97ac93a38c5e43b722591c4e48a4b1ca6fd6a97258342a382b20317bbf9774a7",
        0, 2048, 125696, 114057,
    ),
}


def serve_pair_stream(seed: int):
    """``(tid, now_ns, vaddrs)`` batches: a fresh random pairing per phase.

    Phases alternate between two sets of pools, so a pool revisited after a
    phase still holds the stamps of its former users, some out of window.
    """
    rng = np.random.default_rng(seed)
    pairs = SERVE_THREADS // 2
    round_index = 0
    for phase in range(SERVE_PHASES):
        order = rng.permutation(SERVE_THREADS)
        pair_of = np.empty(SERVE_THREADS, dtype=np.int64)
        pair_of[order] = np.arange(SERVE_THREADS) // 2
        for _ in range(SERVE_ROUNDS_PER_PHASE):
            now_ns = round_index * SERVE_ROUND_NS
            for tid in rng.permutation(SERVE_THREADS).tolist():
                pool = (phase % 2) * pairs + int(pair_of[tid])
                pages = rng.integers(0, SERVE_POOL_PAGES, size=SERVE_BATCH_EVENTS)
                yield tid, now_ns, (pool * SERVE_POOL_PAGES + pages) * PAGE_SIZE
            round_index += 1


@pytest.mark.parametrize("name", list(SERVE_PINS))
def test_serve_session_digest(name):
    cfg = SessionConfig(
        n_threads=SERVE_THREADS, eval_every_events=4096, **SERVE_CONFIGS[name]
    )
    session = TenantSession("pin", cfg, dual_xeon_e5_2650())
    for tid, now_ns, vaddrs in serve_pair_stream(seed=14):
        session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs))
    observed = (
        session.final_digest(),
        digest(tuple(int(p) for p in session.evaluator.current)),
        session.table.collisions,
        session.table.inserts,
        session.windowed_out,
        session.comm_events,
    )
    assert observed == SERVE_PINS[name]
