"""Self-tests of the benchmark: a smoke run of every workload in both modes,
and a negative control whose corrupted digests must count as failures.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize(
    "workload, trace", [("fig8-sp", 1), ("serve-ingest", 0)]
)
def test_corrupted_digest_counts_as_failure(workload, trace):
    result = _run(workload, trace, "--corrupt-digest")
    assert not result["correct"]
    assert result["failed"] > 0
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] < 1.0
