"""Shard-count invariance sweep of the core-sharded simulator.

The core-sharded simulator (``REPRO_SIM_SHARDS``) stripes cache lines
across worker processes and merges counters exactly, so its shard count
is a pure performance knob.  :func:`parsim_result_digest` reduces one run
to a canonical digest so the sweep tests can assert plain string equality
across every shard count — when the digests diverge, the differing count
*is* the counterexample.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

__all__ = ["parsim_result_digest"]


#: every scalar a sharded simulator run must reproduce bit-for-bit
_RESULT_METRICS = (
    "exec_time_s",
    "l2_mpki",
    "l3_mpki",
    "c2c_transactions",
    "invalidations",
    "migrations",
    "first_touch_faults",
    "injected_faults",
)


def parsim_result_digest(result: "object") -> str:
    """Canonical digest of a :class:`SimulationResult` for parity sweeps.

    Covers every :class:`~repro.cachesim.stats.CacheStats` field plus the
    derived metrics ``tests/test_parsim.py`` pins — the full bit-identity
    surface, reduced to one comparable string.  Floats are digested via
    ``repr`` so any bit-level drift shows.
    """
    stats = {
        f.name: getattr(result.stats, f.name)
        for f in dataclasses.fields(type(result.stats))
    }
    metrics = {name: result.metric(name) for name in _RESULT_METRICS}
    payload = json.dumps(
        {**{k: repr(v) for k, v in stats.items()},
         **{k: repr(v) for k, v in metrics.items()}},
        sort_keys=True,
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()
