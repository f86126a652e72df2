#!/usr/bin/env python
"""Inside the efficient batching scheme (Section VI).

Walks through what HYBRID-DBSCAN does when the result set would exceed
GPU memory: estimate the result size from a 1% strided sample, size the
per-stream buffers, split the work into strided batches, and overlap
kernel / device sort / transfer / host table construction across 3
streams.  Prints the plan, the per-batch result sizes (showing the
strided assignment's balance), and the stream timeline's overlap.

Usage::

    python examples/batching_internals.py
"""

from repro.core import BatchConfig, BatchPlanner
from repro.core.batching import build_neighbor_table
from repro.data import make_sw
from repro.gpusim import Device
from repro.index import GridIndex


def main() -> None:
    # skewed space-weather-like data: the hard case for batching
    points = make_sw(30_000, seed=5, domain=8.0)
    eps = 0.06
    device = Device()
    grid = GridIndex.build(points, eps)

    # 1. the estimation kernel: count neighbors of a 1% strided sample
    planner = BatchPlanner(
        BatchConfig(static_threshold=1, static_buffer_size=120_000)
    )
    plan = planner.plan(grid, device)
    print("batch plan (Equation 1):")
    print(f"  e_b (sample count)     = {plan.eb}")
    print(f"  a_b (estimated total)  = {plan.ab}")
    print(f"  b_b (buffer, pairs)    = {plan.buffer_size}")
    print(f"  n_b = ceil(1.05 a_b / b_b) = {plan.n_batches}")
    print(f"  sizing rule            = {'variable' if plan.variable_buffer else 'static'}")

    # 2. run the batched build and inspect per-batch result sizes
    table, stats = build_neighbor_table(
        grid, device, config=planner.config, plan=plan
    )
    table.validate()
    sizes = stats.batch_sizes
    mean = sum(sizes) / len(sizes)
    print(f"\nper-batch |R_l| over {len(sizes)} batches "
          f"(strided assignment keeps them uniform):")
    print(f"  min {min(sizes)}  mean {mean:.0f}  max {max(sizes)}  "
          f"spread {(max(sizes) - min(sizes)) / mean:.1%} "
          f"(buffer headroom used: {max(sizes) / plan.buffer_size:.1%})")
    assert max(sizes) <= plan.buffer_size

    # 3. what the 3 streams hid: modeled device timeline
    from repro.gpusim.timeline_view import render_timeline

    prof = device.profiler
    print("\nsimulated device timeline (3 streams):")
    print(f"  serialized work  {prof.serialized_ms():8.3f} ms")
    print(f"  makespan         {prof.makespan_ms():8.3f} ms")
    print(f"  hidden by overlap{prof.overlap_ms():8.3f} ms")
    print()
    print(render_timeline(prof))

    # 4. the product: T maps every point to its eps-neighborhood
    counts = table.neighbor_counts()
    print(
        f"\nneighbor table T: {table.total_pairs} pairs; "
        f"|N_eps| mean {counts.mean():.1f}, max {counts.max()} "
        f"(skew from receiver clumps)"
    )


if __name__ == "__main__":
    main()
