"""Deterministic-counter trajectory of the throughput benchmark.

Run from the root of a checkout::

    python3 benchmarks/trajectory.py check
    python3 benchmarks/trajectory.py append --label "what changed"

Each workload of ``BENCHMARK.json`` runs once as
``perfbench/run.py --tiny --trace 1``.  Only per-layer counters that
a same-seed run repeats are kept: wall-clock figures drift too much on
a shared 2-vCPU runner to gate on.  ``check`` exits 1 when this
checkout's counters differ from the last record of
``BENCH_trajectory.jsonl``; ``append`` adds this checkout's record.

The modeled device time is a float sum of per-op times taken in the op
log's order, which follows the stream workers' thread races, so it may
move in the last bits between identical runs; it is compared to a
relative 1e-9.  The other counters must match exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
SEED = 1
COUNTERS = (
    "kernels.distance_calcs",
    "kernels.pairs",
    "batching.n_batches",
    "gpusim.d2h_bytes",
    "gpusim.modeled_device_ms",
)
#: relative tolerance per counter (0: exact)
RTOL = {"gpusim.modeled_device_ms": 1e-9}


def measure() -> dict[str, dict[str, float]]:
    """Per workload, the deterministic counters of one traced tiny run."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    out = {}
    for w in workloads:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w["name"],
             "--seed", str(SEED), "--seconds", "1", "--trace", "1", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        out[w["name"]] = {c: metrics[c]["value"] for c in COUNTERS}
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("check", "append"))
    p.add_argument("--label", default="", help="what the appended record measures")
    args = p.parse_args(argv)
    counters = measure()
    if args.mode == "append":
        record = {"label": args.label, "seed": SEED, "counters": counters}
        with TRAJECTORY.open("a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended {args.label!r} to {TRAJECTORY.name}")
        return 0
    last = json.loads(TRAJECTORY.read_text().strip().splitlines()[-1])
    diffs = []
    for w, got in counters.items():
        for c, v in got.items():
            want = last["counters"].get(w, {}).get(c)
            if want is None or not math.isclose(v, want, rel_tol=RTOL.get(c, 0.0)):
                diffs.append(f"{w}.{c}: {want} -> {v}")
    for d in diffs:
        print(d)
    print(f"{len(diffs)} counters differ from {last['label']!r}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
