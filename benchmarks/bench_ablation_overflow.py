"""Ablation — per-batch overflow recovery (Section VI hardening).

The paper's batching scheme under-provisions the result buffer when the
f-sample misses a dense region.  The per-batch recovery keeps every
completed batch and re-runs only the failed one (split in two, or
against a regrown buffer), so the re-work is O(failed batches).

This bench injects exactly one overflow into an 8-batch build and
compares it with the fault-free build: the recovered table must be the
fault-free table, reached with exactly one recovery action and exactly
one extra unit (the failed batch's two split halves).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bench import format_table, save_json
from repro.core import BatchConfig, BatchPlanner
from repro.core.batching import build_neighbor_table
from repro.gpusim import Device, FaultInjector
from repro.index import GridIndex

from _bench_utils import BENCH_SCALE, bench_points, recovery_summary, report

N_BATCHES = 8
FAULT_BATCH = N_BATCHES // 2
REPEATS = 3


def _setup():
    pts = bench_points("SW4")
    grid = GridIndex.build(pts, 0.3)
    # size the buffer from the true result size so only the injected
    # fault overflows; alpha=0 keeps n_b = ceil(ab / bb) exact
    probe, _ = build_neighbor_table(grid, Device())
    buf = math.ceil(probe.total_pairs / N_BATCHES * 1.6)
    return grid, probe, buf


def _run(grid, buf: int, inject: bool):
    cfg = BatchConfig(
        static_threshold=1,
        static_buffer_size=buf,
        min_buffer_size=128,
        alpha=0.0,
    )
    plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=N_BATCHES * buf)
    assert plan.n_batches == N_BATCHES
    faults = FaultInjector.overflow_at(FAULT_BATCH) if inject else None
    t0 = time.perf_counter()
    table, stats = build_neighbor_table(
        grid, Device(), config=cfg, plan=plan, faults=faults
    )
    return time.perf_counter() - t0, table, stats


def _best_of(grid, buf, inject):
    best = None
    for _ in range(REPEATS):
        wall, table, stats = _run(grid, buf, inject)
        if best is None or wall < best[0]:
            best = (wall, table, stats)
    return best


def _same_table(a, b) -> bool:
    if a.n_points != b.n_points or a.total_pairs != b.total_pairs:
        return False
    return all(
        np.array_equal(np.sort(a.neighbors(i)), np.sort(b.neighbors(i)))
        for i in range(a.n_points)
    )


def test_ablation_overflow_recovery(benchmark):
    grid, reference, buf = _setup()

    clean_wall, clean_table, _ = _best_of(grid, buf, inject=False)
    assert _same_table(clean_table, reference)

    auto_wall, auto_table, auto_stats = _best_of(grid, buf, inject=True)

    # the recovered table is byte-for-byte the fault-free result
    assert _same_table(auto_table, reference)

    # one failed batch -> exactly one recovery action, and only the
    # failed batch re-ran (as two split halves)
    assert auto_stats.recovery.recoveries == 1
    assert auto_stats.n_batches_run == N_BATCHES + 1

    benchmark.pedantic(
        lambda: _run(grid, buf, inject=True), rounds=1, iterations=1
    )

    rows = [
        ["fault-free", round(clean_wall * 1e3, 2), N_BATCHES, "clean"],
        [
            "per-batch",
            round(auto_wall * 1e3, 2),
            auto_stats.n_batches_run,
            recovery_summary(auto_stats.recovery),
        ],
    ]
    report(
        format_table(
            ["strategy", "wall ms", "batches run", "recovery"],
            rows,
            title=f"Ablation: overflow recovery (1 fault in {N_BATCHES} "
            "batches; per-batch re-work vs fault-free)",
        )
    )
    save_json(
        "ablation_overflow",
        {
            "scale": BENCH_SCALE,
            "n_batches": N_BATCHES,
            "fault_batch": FAULT_BATCH,
            "clean_wall_s": clean_wall,
            "auto_wall_s": auto_wall,
            "auto_batches_run": auto_stats.n_batches_run,
            "auto_recovery": auto_stats.recovery.as_dict(),
        },
    )
