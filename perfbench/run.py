"""The repository benchmark: Fig. 8 simulator cells and SPCD service ingest.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-sp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run's provenance (host, versions, source digest, seed, result
digests).  Spans and run records go to ``.perfbench/`` under the current
directory.  ``--smoke`` runs a tiny version of the workload for the
benchmark's own tests.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Measure defaults: no REPRO_* knob from the caller's environment (the
# server process inherits the cleaned environment too).
for _key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_key]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401  (fails early, before any output, without src/)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
OUT_DIR = Path(".perfbench")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "none"
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over every ``src`` file's path and bytes (works without git)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    """Host fingerprint, toolchain versions and the measured code's identity."""
    return {
        "cpus": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "seed": seed,
    }


def _metrics(names_units: list[dict], values: dict) -> dict:
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in names_units
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run for self-tests")
    parser.add_argument(
        "--corrupt-digest", action="store_true",
        help="negative control: corrupt every checked digest (must fail)",
    )
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload.startswith("fig8"):
        import fig8 as workload_module
    else:
        import serve_load as workload_module
    summary = workload_module.run(
        args.workload, args.seed, args.seconds, trace, args.smoke, args.corrupt_digest,
        OUT_DIR,
    )
    values = summary["end_to_end"]
    attempted, failed = summary["attempted"], summary["failed"]
    values["ok_ratio"] = (attempted - failed) / attempted
    layers = summary.get("layers", {})
    # a layer this workload does not run reports 0.0
    layer_values = {m["name"]: layers.get(m["name"], 0.0) for m in BENCHMARK["per_layer"]}

    record = {
        "workload": args.workload,
        "trace": int(trace),
        "provenance": provenance(args.seed),
        "problems": summary["problems"],
        "digests": summary["digests"],
        "end_to_end": values,
        "raw": summary["raw"],
        "per_layer": layers,
    }
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "digests": record["digests"]}))
    metrics = (
        _metrics(BENCHMARK["per_layer"], layer_values)
        if trace
        else _metrics(BENCHMARK["end_to_end"], values)
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
