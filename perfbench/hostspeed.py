"""Host-speed probe: host time expressed in seconds of a reference host.

On a shared 2-CPU host the speed of the CPUs this benchmark gets drifts by
up to 2x over tens of seconds, and identical simulations take anywhere
from 1.3 to 2.0 s; raw wall-clock metrics then spread by 20-35% between
runs, wider than any useful bound.  A fixed probe that uses no repository
code runs next to every measured operation.  A duration
*t* measured while the probe took *p* seconds is reported as
``t * REFERENCE_S / p``: the time the operation would take on a host where
the probe takes ``REFERENCE_S``.  Both runs of a comparison use the same
probe, so a code change moves the scaled times exactly as it moves the
raw ones; the raw values and the probe times are kept in every run
record.

The probe mixes interpreter-bound and memory-bound work, because the
host's other tenants slow the two differently.  A probe of Python loops,
small NumPy sorts and dict updates alone slowed 1.5x while EP simulations
and serve replays slowed 1.9x, so their scaled times drifted by 20-30%;
a random gather and scatter over a 32 MB table (larger than the caches)
alone overcorrected by 7-12%.  With the gather weighted four times the
loops, the drift between a calm and a loaded host was 2-8%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: the unit of scaled times: about the probe's time on an unloaded 2-CPU
#: Intel Xeon host (Python 3.11, NumPy 2.4)
REFERENCE_S = 0.040

_rng = np.random.default_rng(0)
_KEYS = _rng.integers(0, 1 << 20, size=100_000)
_TABLE = _rng.integers(0, 1 << 30, size=4_000_000)
_INDEX = _rng.integers(0, _TABLE.size, size=300_000)


def probe() -> float:
    """Seconds one fixed reference workload takes right now."""
    t = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(10):
        np.sort(_KEYS)
    counts: dict[int, int] = {}
    for i in range(25_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    for _ in range(12):
        _TABLE[_INDEX]
        _TABLE[_INDEX[:50_000]] += 1
    return perf_counter() - t


def slowdown(samples: "list[float]") -> float:
    """How much slower than the reference host the probes ran (median)."""
    return statistics.median(samples) / REFERENCE_S
