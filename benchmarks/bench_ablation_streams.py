"""Ablation — number of CUDA streams (Section VI).

The paper uses 3 streams "as we found that more streams achieved no
performance gain".  This bench replays the batched table construction's
device operations on the simulated timeline with 1–6 streams and
reports the modeled makespan: going 1→2→3 hides transfer time behind
kernels; beyond 3 the compute engine is saturated and nothing improves.
"""

from __future__ import annotations

from repro.bench import format_table, save_json
from repro.core import BatchConfig
from repro.core.batching import build_neighbor_table
from repro.gpusim import Device
from repro.index import GridIndex

from _bench_utils import BENCH_SCALE, bench_points, report

STREAMS = [1, 2, 3, 4, 6]


def _modeled_makespan(n_streams: int) -> tuple[float, float]:
    """(makespan_ms, overlap_ms) of the batched build on the timeline."""
    pts = bench_points("SW4")
    device = Device()
    grid = GridIndex.build(pts, 0.3)
    cfg = BatchConfig(
        n_streams=n_streams,
        static_threshold=1,
        static_buffer_size=max(4096, 30 * len(pts) // n_streams * 2),
    )
    table, _ = build_neighbor_table(grid, device, config=cfg)
    table.validate()
    return device.profiler.makespan_ms(), device.profiler.overlap_ms()


def test_ablation_streams(benchmark):
    rows = []
    payload = []
    makespans = {}
    for n in STREAMS:
        makespan, overlap = _modeled_makespan(n)
        makespans[n] = makespan
        rows.append([n, round(makespan, 3), round(overlap, 3)])
        payload.append(
            {"streams": n, "makespan_ms": makespan, "overlap_ms": overlap}
        )

    # paper's finding: 3 streams beat 1; more than 3 gain little
    assert makespans[3] < makespans[1]
    assert makespans[6] > 0.9 * makespans[3]

    benchmark.pedantic(lambda: _modeled_makespan(3), rounds=1, iterations=1)

    report(
        format_table(
            ["streams", "modeled makespan ms", "hidden (overlap) ms"],
            rows,
            title="Ablation: stream count for the batched build "
            "(paper: 3 streams, more gained nothing)",
        )
    )
    save_json("ablation_streams", {"scale": BENCH_SCALE, "rows": payload})
