"""Scheduler construction by policy name — a thin shim over :mod:`repro.placement`.

New code passes a policy *name* string (``"os"``, ``"random"``,
``"oracle"``, ``"spcd"``, ``"spcd-data"``, ``"spcd-combined"``,
``"spcd-replicated"``) or a :class:`~repro.placement.policy.PlacementPolicy`
instance to :class:`~repro.engine.simulator.Simulator` and the runners,
and resolves names with :func:`repro.placement.resolve_policy`.
:func:`make_scheduler` is that resolution plus the policy's own
``make_scheduler``, so scheduler RNG streams are unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kernelsim.scheduler import Scheduler
from repro.machine.topology import Machine
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.placement.policy import PlacementPolicy


def make_scheduler(
    policy: "PlacementPolicy | str",
    machine: Machine,
    workload: Workload,
    rng: np.random.Generator,
) -> Scheduler:
    """Build the scheduler implementing *policy* for *workload*."""
    from repro.placement.policy import resolve_policy

    return resolve_policy(policy).make_scheduler(machine, workload, rng)
