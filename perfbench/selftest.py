"""Smoke test of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` untraced and traced on tiny
inputs and checks that each run exits 0, fails no operation, and prints
as its last line the result object with every named metric and its
unit.  Then checks that the benchmark, copied without the program next
to it, exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    named = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        if not trace and not m["value"] > 0:
            errors.append(f"{where}: end-to-end metric {name} is {m['value']}")
        if f"  {name} " not in proc.stdout:
            errors.append(f"{where}: {name} missing from the printed summary")
    return errors


def check_without_program() -> list[str]:
    """The benchmark alone must refuse to run and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "fit_uniform", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_without_program()
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check_result(bench, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'FAILED' if found else 'ok'}")
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
