"""Metric names, units and how each is computed.

End-to-end metrics come from an untraced phase on wall clock.  Per-layer
metrics come from the spans of a separate traced phase.  Per-layer times
and counts are per operation of that phase (a service write is not an
operation); ``*_p50_s`` are medians over calls; ratios and rates are
shares.  Names holding ``modeled`` are simulated clocks reported beside
the wall-clock numbers, never in their place.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from spans import SpanRecorder

END_TO_END = {
    "variants_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "index.build_s": "s",
    "index.calls": "count",
    "batching.plan_s": "s",
    "batching.build_wall_s": "s",
    "batching.n_batches": "count",
    "batching.buffer_fill": "ratio",
    "batching.recoveries": "count",
    "kernels.calc_busy_s": "s",
    "kernels.calc_launches": "count",
    "kernels.distance_calcs": "count",
    "kernels.pairs": "count",
    "kernels.hit_ratio": "ratio",
    "gpusim.sort_busy_s": "s",
    "gpusim.transfer_busy_s": "s",
    "gpusim.d2h_bytes": "B",
    "gpusim.modeled_device_ms": "ms",
    "neighbor_table.ingest_busy_s": "s",
    "neighbor_table.finalize_s": "s",
    "neighbor_table.pairs": "count",
    "table_dbscan.cluster_p50_s": "s",
    "table_dbscan.busy_s": "s",
    "table_dbscan.calls": "count",
    "sharding.plan_s": "s",
    "sharding.shard_busy_s": "s",
    "sharding.shards": "count",
    "sharding.attempts": "count",
    "sharding.halo_ratio": "ratio",
    "placement.merge_absorb_s": "s",
    "placement.merge_finalize_s": "s",
    "placement.collective_bytes": "B",
    "hostsim.modeled_makespan_s": "s",
    "service.label_hit_rate": "ratio",
    "service.table_hit_rate": "ratio",
    "service.misses": "count",
    "service.table_hit_p50_s": "s",
    "service.miss_p50_s": "s",
    "service.bump_s": "s",
    "service.modeled_latency_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Sample:
    """One operation of a measured phase."""

    key: tuple
    wall_s: float
    digest: Optional[str]
    exact: bool
    info: dict = field(default_factory=dict)
    #: set once the labels have been compared with the reference
    ok: bool = False


@dataclass
class Phase:
    """One measured phase: its operations and its wall time (writes
    included)."""

    samples: list[Sample]
    wall_s: float
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed

    @property
    def delivered(self) -> int:
        return sum(s.ok for s in self.samples)

    @property
    def variants_per_s(self) -> float:
        return self.delivered / self.wall_s

    @property
    def walls(self) -> list[float]:
        return [s.wall_s for s in self.samples]


def end_to_end(phase: Phase, setup_s: list[float], peak_rss_mb: float) -> dict:
    walls = phase.walls
    return {
        "variants_per_s": phase.variants_per_s,
        "op_p50_s": float(np.percentile(walls, 50)),
        "op_p90_s": float(np.percentile(walls, 90)),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def per_layer(rec: SpanRecorder, phase: Phase, untraced_vps: float) -> dict:
    """Per-layer metrics of a traced phase (0 for a layer its workload
    does not run)."""
    by_name: dict[str, list] = defaultdict(list)
    for sp in rec.spans:
        by_name[sp.name].append(sp)
    calc = by_name["launch:GPUCalcGlobal"] + by_name["launch:GPUCalcShared"]
    builds = by_name["build_neighbor_table"]
    n_ops = len(phase.samples)

    def per_op(x: float) -> float:
        return x / n_ops

    def busy(name: str) -> float:
        return per_op(sum(sp.dur for sp in by_name[name]))

    def attr(spans: list, key: str) -> float:
        return sum(sp.attrs[key] for sp in spans)

    def info_sum(key: str) -> float:
        return per_op(sum(s.info.get(key, 0.0) for s in phase.samples))

    pairs = attr(calc, "pairs")
    dist = attr(calc, "distance_calcs")
    slots = sum(sp.attrs["n_batches"] * sp.attrs["buffer_size"] for sp in builds)
    profilers = {id(sp.attrs["_profiler"]): sp.attrs["_profiler"] for sp in calc}
    plans = by_name["plan_shards"]
    lookups = by_name["ResultCache.get_labels"]
    n_lookups = len(lookups)
    label_hits = sum(sp.attrs["hit"] for sp in lookups)
    table_hits = sum(sp.attrs["hit"] for sp in by_name["ResultCache.get_table"])
    cache_class = [s.info.get("cache") for s in phase.samples]
    cluster = by_name["dbscan_from_table"]
    return {
        "index.build_s": busy("GridIndex.build"),
        "index.calls": per_op(len(by_name["GridIndex.build"])),
        "batching.plan_s": busy("BatchPlanner.plan"),
        "batching.build_wall_s": busy("build_neighbor_table"),
        "batching.n_batches": per_op(attr(builds, "n_batches")),
        "batching.buffer_fill": attr(builds, "pairs") / slots if slots else 0.0,
        "batching.recoveries": per_op(attr(builds, "recoveries")),
        "kernels.calc_busy_s": per_op(sum(sp.dur for sp in calc)),
        "kernels.calc_launches": per_op(len(calc)),
        "kernels.distance_calcs": per_op(dist),
        "kernels.pairs": per_op(pairs),
        "kernels.hit_ratio": pairs / dist if dist else 0.0,
        "gpusim.sort_busy_s": busy("sort_pairs"),
        "gpusim.transfer_busy_s": busy("Device.from_device"),
        "gpusim.d2h_bytes": per_op(attr(by_name["Device.from_device"], "bytes")),
        "gpusim.modeled_device_ms": per_op(
            sum(p.total_device_ms() for p in profilers.values())
        ),
        "neighbor_table.ingest_busy_s": busy("NeighborTable.add_batch"),
        "neighbor_table.finalize_s": busy("NeighborTable.finalize"),
        "neighbor_table.pairs": per_op(attr(by_name["NeighborTable.add_batch"], "pairs")),
        "table_dbscan.cluster_p50_s": _median([sp.dur for sp in cluster]),
        "table_dbscan.busy_s": busy("dbscan_from_table"),
        "table_dbscan.calls": per_op(len(cluster)),
        "sharding.plan_s": busy("plan_shards"),
        "sharding.shard_busy_s": busy("run_shard_supervised"),
        "sharding.shards": info_sum("shards"),
        "sharding.attempts": info_sum("attempts"),
        "sharding.halo_ratio": (
            attr(plans, "points_built") / attr(plans, "n_points") if plans else 0.0
        ),
        "placement.merge_absorb_s": busy("IncrementalMerger.absorb"),
        "placement.merge_finalize_s": busy("IncrementalMerger.finalize"),
        "placement.collective_bytes": per_op(attr(by_name["collective_exchange"], "bytes")),
        "hostsim.modeled_makespan_s": info_sum("modeled_makespan_s"),
        "service.label_hit_rate": label_hits / n_lookups if n_lookups else 0.0,
        "service.table_hit_rate": table_hits / n_lookups if n_lookups else 0.0,
        "service.misses": per_op(cache_class.count("miss")),
        "service.table_hit_p50_s": _median(
            [s.wall_s for s in phase.samples if s.info.get("cache") == "table_hit"]
        ),
        "service.miss_p50_s": _median(
            [s.wall_s for s in phase.samples if s.info.get("cache") == "miss"]
        ),
        "service.bump_s": busy("ClusteringService.bump_epoch"),
        "service.modeled_latency_p50_ms": _median(
            [s.info["modeled_latency_ms"] for s in phase.samples
             if "modeled_latency_ms" in s.info]
        ),
        "trace.overhead_frac": 1.0 - phase.variants_per_s / untraced_vps,
    }
