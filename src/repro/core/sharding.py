"""Sharded out-of-core HYBRID-DBSCAN.

The paper's batching scheme (Section VI) lets the *result set* exceed
GPU memory, but the dataset, grid index, and finished neighbor table
still have to fit on one device/host at once.  This module removes that
bound with a spatial sharding layer:

1. **Partition** — the spatially sorted points are split into
   ``kx × ky`` ε-aligned tiles (tile edges lie on global ε-cell
   boundaries, so a tile is a rectangle of whole grid cells);
2. **Halo exchange** — every tile is padded with an ε-wide halo (the
   one-cell ring around the tile, cells having side ε), so each shard's
   *interior* neighborhoods are complete: any point within ε of an
   interior point is in the shard's point set;
3. **Independent builds** — each shard builds its own grid index and
   neighbor table with the *unchanged* Section VI machinery
   (:func:`~repro.core.batching.build_neighbor_table`, batching,
   per-batch overflow recovery, sanitizer) on its own bounded
   :class:`~repro.gpusim.device.Device`, so per-shard device residency
   never exceeds the configured per-shard capacity;
4. **Local clustering** — the host primitive
   :func:`~repro.core.table_dbscan.cluster_edges` (or, with
   ``cluster_on="device"``, the union-find label kernels) runs per shard
   over the interior core subgraph, and the shard table is then
   *dropped*: only O(interior + halo-boundary) reduction arrays survive
   the shard;
5. **Merge** — :class:`~repro.core.placement.IncrementalMerger` unions
   shard-local components through the core–core edges whose far
   endpoint lies in a halo region as each shard completes, then
   re-attaches every border point to its lowest-id core neighbor
   *globally*, so the output is bit-identical to the single-device
   :func:`~repro.core.table_dbscan.dbscan_from_table`.

Shards execute sequentially on the host (one bounded device at a time —
the out-of-core property).  One executor places them onto
``ShardConfig.n_devices`` simulated devices and replays their
concurrency as an event simulation (:func:`repro.hostsim.schedule_devices`,
DESIGN.md §13); a single device is its one-device case, and that replay
is the run's one modeled makespan (``ShardedResult.makespan_s``).  The
per-shard reduction arrays are exactly the messages a distributed merge
would exchange.

Shard-level fault recovery
--------------------------
A shard that dies *wholesale* — device OOM under a tight
``device_mem_bytes``, a lost device, a transfer fault beyond the batch
layer's retry budget — no longer aborts the run.  Every shard runs
inside a supervised attempt loop (:func:`run_shard_supervised`):

* faults are classified (:func:`repro.gpusim.faults.classify_fault`)
  into **memory** / **transient** / **fatal**;
* a *transient* fault retries the shard on a fresh fallback device,
  bounded by ``ShardConfig.max_shard_retries``;
* a *memory* fault quad-splits the shard's ε-aligned tile
  (:func:`quad_split_shard` — children are themselves ε-aligned tiles
  with :func:`exchange_halos` halos, so every merge invariant holds) and
  enqueues the children; when the tile is unsplittable or splitting is
  disabled, it retries with an exponentially larger memory grant
  (``device_mem_bytes · mem_growth^k``);
* a *fatal* fault propagates unchanged, and an exhausted retry budget
  raises :class:`ShardFailureError` naming the shard.

Completed shards' :class:`ShardLocalResult`\\ s are never recomputed, and
the merge accepts the mixed parent/child shard set —
labels stay bit-identical to the fault-free single-device run.  Fault
injection composes through ``ShardConfig.fault_factory`` (one
deterministic, seed-derived :class:`~repro.gpusim.faults.FaultInjector`
per shard).  ``ShardedResult.events`` is the one audit trail of shard
attempts; :class:`ShardedResult.recovery` derives every attempt, split,
fallback placement, and wasted byte from it.

Why this is exact
-----------------
Every core–core ε-edge ``(u, v)`` is observed by the shard owning ``u``'s
interior (``v`` is in that shard by the halo guarantee).  A halo point
that is *locally* core is globally core (its local neighborhood is a
subset of the true one), but a locally non-core halo point may still be
globally core — therefore halo endpoints are never classified locally;
their edges are deferred to the merge and filtered against the global
core mask assembled from every shard's interior.  Border attachment
likewise combines the exact interior candidate (complete neighborhood)
with halo candidates resolved globally.  Cluster membership is then
identical to the single-device run, and
:func:`~repro.core.table_dbscan.canonicalize_labels` makes the
numbering identical too.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Literal, Optional

import numpy as np

from repro.core.batching import (
    BatchConfig,
    RecoveryStats,
    build_neighbor_table,
)
from repro.core.table_dbscan import NOISE, cluster_edges
from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.faults import (
    FaultInjector,
    FaultSpec,
    classify_fault,
    derive_seed,
)
from repro.hostsim import DeviceSchedule, schedule_devices
from repro.index.base import as_points, check_eps, check_minpts
from repro.index.grid import GridGeometry, GridIndex, point_extent

if TYPE_CHECKING:  # placement imports sharding; annotations only here
    from repro.core.placement import CollectiveExchange, DevicePlacement

__all__ = [
    "PLACEMENT_STRATEGIES",
    "ShardConfig",
    "Shard",
    "ShardPlan",
    "ShardStats",
    "ShardLocalResult",
    "ShardedResult",
    "ShardAttempt",
    "ShardRecoveryStats",
    "ShardFailureError",
    "plan_shards",
    "exchange_halos",
    "quad_split_shard",
    "run_shard",
    "run_shard_supervised",
    "make_shard_fault_factory",
    "cluster_sharded",
]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
PLACEMENT_STRATEGIES = ("locality", "round-robin")


@dataclass(frozen=True)
class ShardConfig:
    """Tunables of the sharding layer."""

    #: tile grid (kx × ky); 1 × 1 degenerates to the single-device path
    shards_x: int = 2
    shards_y: int = 2
    #: simulated bounded devices shards are placed onto (per-device
    #: pinned queues, collective halo exchange, incremental halo merge
    #: overlapped with the builds — DESIGN.md §13)
    n_devices: int = 1
    #: shard→device placement strategy (:mod:`repro.core.placement`):
    #: ``"locality"`` co-places adjacent tiles so shared halo rings stay
    #: device-local; ``"round-robin"`` is the scatter baseline
    placement: str = "locality"
    #: per-shard device global-memory capacity (None: the default
    #: :class:`~repro.gpusim.device.DeviceSpec` capacity).  This is the
    #: out-of-core knob: each shard must fit its index, grid arrays and
    #: batch buffers under this cap or its build fails with OOM.
    device_mem_bytes: Optional[int] = None

    # --- shard-level fault recovery (DESIGN.md §9) ---
    #: retry budget: a shard may be re-attempted this many times on a
    #: fresh fallback device before :class:`ShardFailureError` is raised
    max_shard_retries: int = 2
    #: quad-split the ε-aligned tile when a shard dies with a
    #: memory-shaped fault (device OOM / overflow beyond batch recovery)
    split_on_oom: bool = True
    #: bound on recursive quad-splitting (child-tile generations)
    max_split_generations: int = 4
    #: exponential fallback-grant escalation: the k-th memory-shaped
    #: retry runs under ``device_mem_bytes · mem_growth^k`` (capped at
    #: the physical :class:`~repro.gpusim.device.DeviceSpec` capacity);
    #: ignored when ``device_mem_bytes`` is None (already uncapped)
    mem_growth: float = 2.0
    #: per-shard fault-injector factory, called once per shard (parents
    #: and quad-split children alike); return ``None`` for a healthy
    #: shard.  The injector persists across that shard's retry attempts,
    #: so a bounded :class:`~repro.gpusim.faults.FaultSpec` ``times``
    #: budget spans attempts and a transient fault heals on retry.  Use
    #: :func:`make_shard_fault_factory` for deterministic derived seeds.
    fault_factory: Optional[Callable[["Shard"], Optional[FaultInjector]]] = None

    def __post_init__(self) -> None:
        if self.shards_x < 1 or self.shards_y < 1:
            raise ValueError("shard grid must be at least 1x1")
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.placement not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {self.placement!r} "
                f"(expected one of {PLACEMENT_STRATEGIES})"
            )
        if self.device_mem_bytes is not None and self.device_mem_bytes <= 0:
            raise ValueError("device_mem_bytes must be positive")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.max_split_generations < 0:
            raise ValueError("max_split_generations must be >= 0")
        if self.mem_growth < 1.0:
            raise ValueError("mem_growth must be >= 1")

    @property
    def n_tiles(self) -> int:
        return self.shards_x * self.shards_y


# ----------------------------------------------------------------------
# the plan: partitioner + halo exchange
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One tile's point sets, in *global sorted* id space."""

    #: tile coordinates in the shard grid
    tx: int
    ty: int
    #: global cell-column/row range [cx0, cx1) × [cy0, cy1) of the tile
    cx0: int
    cx1: int
    cy0: int
    cy1: int
    #: ids of points interior to the tile (each point is interior to
    #: exactly one shard)
    interior_ids: np.ndarray
    #: ids of the ε-halo: points in the one-cell ring around the tile
    halo_ids: np.ndarray
    #: quad-split depth: 0 for planner tiles, parent+1 for split
    #: children (which keep the parent's ``tx``/``ty`` as lineage)
    generation: int = 0

    @property
    def n_points(self) -> int:
        return len(self.interior_ids) + len(self.halo_ids)

    @property
    def key(self) -> str:
        """Human-readable shard identity (tile, generation, cells)."""
        return (
            f"({self.tx},{self.ty})g{self.generation}"
            f"[{self.cx0}:{self.cx1})x[{self.cy0}:{self.cy1})"
        )


@dataclass(frozen=True)
class ShardPlan:
    """Output of :func:`plan_shards` — the partition plus the global
    spatial sort that defines the shared id space."""

    eps: float
    config: ShardConfig
    #: points in global spatial sort order (the shared ``D``)
    points: np.ndarray
    #: permutation such that ``points == original[sort_order]``
    sort_order: np.ndarray
    #: global cell column / row of each point (quad-splits reuse them)
    cell_x: np.ndarray
    cell_y: np.ndarray
    #: non-empty shards only (tiles without interior points are skipped)
    shards: tuple[Shard, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def exchange_halos(
    cx: np.ndarray,
    cy: np.ndarray,
    bounds: tuple[int, int, int, int],
) -> np.ndarray:
    """Ids of the ε-halo of one tile: points whose cell lies in the
    one-cell ring around ``bounds = (cx0, cx1, cy0, cy1)``.

    Because grid cells have side ε, the ring contains every point
    within ε of the tile rectangle — the completeness guarantee the
    per-shard neighbor tables rely on.  (On a real multi-GPU system
    this is the neighbor-to-neighbor exchange step; here it is a mask
    over the shared host array.)
    """
    cx0, cx1, cy0, cy1 = bounds
    in_expanded = (
        (cx >= cx0 - 1) & (cx < cx1 + 1) & (cy >= cy0 - 1) & (cy < cy1 + 1)
    )
    in_tile = (cx >= cx0) & (cx < cx1) & (cy >= cy0) & (cy < cy1)
    return np.flatnonzero(in_expanded & ~in_tile).astype(np.int64)


def plan_shards(
    points: np.ndarray, eps: float, config: Optional[ShardConfig] = None
) -> ShardPlan:
    """Partition ``points`` into ε-aligned tiles with ε-wide halos.

    The points are first put in the same global spatial sort order the
    single-device path uses, so shard-local ids are order-preserving
    slices of one shared id space (a subsequence of a sorted array is
    sorted — each shard can build its grid with ``presorted=True``).
    """
    cfg = config or ShardConfig()
    check_eps(eps)
    pts = as_points(points)
    # the single-device grid's cells (and the contract's extent bound)
    g = GridGeometry.over(point_extent(pts), eps)
    order = GridIndex.spatial_sort_order(pts)
    spts = np.ascontiguousarray(pts[order])
    cx, cy = g.cells_of(spts)

    # ε-aligned tiles: whole-cell rectangles of ceil(n/k) cells per side
    # (tiles past the grid's edge hold no point and are dropped)
    cpt_x = -(-g.nx // cfg.shards_x)  # ceil div
    cpt_y = -(-g.ny // cfg.shards_y)
    tiles = (
        _tile(cx, cy, (
            tx * cpt_x, min((tx + 1) * cpt_x, g.nx),
            ty * cpt_y, min((ty + 1) * cpt_y, g.ny),
        ), tx, ty)
        for ty in range(cfg.shards_y)
        for tx in range(cfg.shards_x)
    )
    return ShardPlan(
        eps=float(eps),
        config=cfg,
        points=spts,
        sort_order=order,
        cell_x=cx,
        cell_y=cy,
        shards=tuple(t for t in tiles if t is not None),
    )


def _tile(
    cx: np.ndarray, cy: np.ndarray, bounds: tuple[int, ...], tx: int, ty: int, generation: int = 0
) -> Optional[Shard]:
    """Shard of the ε-aligned tile ``bounds = (cx0, cx1, cy0, cy1)``; None if no point is inside."""
    cx0, cx1, cy0, cy1 = bounds
    in_tile = (cx >= cx0) & (cx < cx1) & (cy >= cy0) & (cy < cy1)
    interior = np.flatnonzero(in_tile).astype(np.int64)
    if len(interior) == 0:
        return None
    return Shard(
        tx=tx, ty=ty,
        cx0=cx0, cx1=cx1, cy0=cy0, cy1=cy1,
        interior_ids=interior,
        halo_ids=exchange_halos(cx, cy, bounds),
        generation=generation,
    )


def _halves(lo: int, hi: int) -> list[tuple[int, int]]:
    """The cell range ``[lo, hi)`` bisected, or whole if one cell wide."""
    mid = lo + (hi - lo) // 2
    return [(lo, hi)] if hi - lo < 2 else [(lo, mid), (mid, hi)]


def quad_split_shard(plan: ShardPlan, shard: Shard) -> list[Shard]:
    """Split a failed shard's ε-aligned tile into (up to) four children.

    The tile's whole-cell rectangle is bisected along every axis that
    spans ≥ 2 cells, so each child is itself an ε-aligned tile (a
    rectangle of whole global grid cells): the child interiors partition
    the parent's interior, and each child's halo is the same one-cell
    :func:`exchange_halos` ring the planner computes — every halo
    invariant, and therefore the bit-identical-labels property of the
    merge, is preserved across the mixed
    parent/child shard set.

    Children with no interior points are dropped (same rule as
    :func:`plan_shards`).  A single-cell tile cannot be split: returns
    an empty list, and the supervisor falls back to an escalated retry.
    """
    x_ranges = _halves(shard.cx0, shard.cx1)
    y_ranges = _halves(shard.cy0, shard.cy1)
    if len(x_ranges) == len(y_ranges) == 1:
        return []
    children = (
        _tile(plan.cell_x, plan.cell_y, (cx0, cx1, cy0, cy1),
              shard.tx, shard.ty, shard.generation + 1)
        for cy0, cy1 in y_ranges
        for cx0, cx1 in x_ranges
    )
    return [c for c in children if c is not None]


# ----------------------------------------------------------------------
# per-shard execution
# ----------------------------------------------------------------------
@dataclass
class ShardStats:
    """Accounting of one shard's build + local clustering."""

    tx: int
    ty: int
    n_interior: int
    n_halo: int
    #: pairs in the shard's neighbor table
    n_pairs: int = 0
    n_batches: int = 0
    build_s: float = 0.0
    #: local components + reduction time
    reduce_s: float = 0.0
    #: peak device global-memory residency of the shard's build (bytes)
    peak_device_bytes: int = 0
    #: peak pinned staging residency of the shard's build (bytes)
    peak_pinned_bytes: int = 0
    #: batch-level recovery of the *successful* attempt only
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    #: quad-split depth of the shard that produced these stats
    generation: int = 0

    @property
    def shard_s(self) -> float:
        """Wall seconds of the whole shard task (the hostsim duration)."""
        return self.build_s + self.reduce_s

    def as_dict(self) -> dict:
        return {
            "tile": [self.tx, self.ty],
            "generation": self.generation,
            "n_interior": self.n_interior,
            "n_halo": self.n_halo,
            "n_pairs": self.n_pairs,
            "n_batches": self.n_batches,
            "build_s": round(self.build_s, 6),
            "reduce_s": round(self.reduce_s, 6),
            "peak_device_bytes": self.peak_device_bytes,
            "peak_pinned_bytes": self.peak_pinned_bytes,
            "recovery": self.recovery.as_dict(),
        }


@dataclass
class ShardLocalResult:
    """What survives a shard after its table is dropped.

    Everything is in global sorted id space and O(interior + boundary):
    the full shard neighbor table never leaves the shard.
    """

    #: the shard's interior point ids
    interior_ids: np.ndarray
    #: core mask aligned with ``interior_ids`` (globally exact: interior
    #: neighborhoods are complete)
    interior_core: np.ndarray
    #: (member, local-component-representative) edges over interior core
    #: points — the shard-local clustering result
    comp_edges: np.ndarray
    #: (interior-core, halo) candidate core–core edges; the halo
    #: endpoint's core status is resolved at merge time
    cross_edges: np.ndarray
    #: (interior-non-core, lowest *interior* core neighbor) pairs
    border_interior: np.ndarray
    #: (interior-non-core, halo neighbor) candidate attachments
    border_halo_edges: np.ndarray
    stats: ShardStats


def run_shard(
    plan: ShardPlan,
    shard: Shard,
    minpts: int,
    device: Device,
    *,
    kernel: Literal["global", "shared"] = "global",
    batch_config: Optional[BatchConfig] = None,
    backend: str = "vector",
    block_dim: int = 256,
    faults: Optional[FaultInjector] = None,
    cluster_on: Literal["host", "device"] = "host",
) -> ShardLocalResult:
    """Build one shard's table, cluster its interior, reduce, drop.

    The shard's grid and neighbor table are built with the unchanged
    Section VI machinery on ``device`` (sized by the caller — this is
    where the per-shard memory cap is enforced), then reduced to the
    O(interior + boundary) arrays of :class:`ShardLocalResult`; the
    table itself is garbage once this function returns.

    ``cluster_on="device"`` runs shard-local cluster formation (core
    flags, component representatives, interior border attachment) with
    the union-find label kernels on the shard's own bounded ``device``
    instead of :func:`~repro.core.table_dbscan.cluster_edges` — both
    return the same raw labels and attach targets, so the same
    ``ShardLocalResult`` arrays,
    bit-identical merged labels.  Cross-shard candidate edges stay
    host-computed either way (they are merge bookkeeping, not
    clustering).

    ``faults`` is this shard's fault injector (if any): it is threaded
    into the table build, where the batching layer and the device hooks
    consult it — per-batch faults recover inside the build, wholesale
    faults (device loss, OOM beyond recovery) escape to the caller.
    """
    check_minpts(minpts)
    if cluster_on not in ("host", "device"):
        raise ValueError(f"unknown cluster_on {cluster_on!r}")
    stats = ShardStats(
        tx=shard.tx,
        ty=shard.ty,
        n_interior=len(shard.interior_ids),
        n_halo=len(shard.halo_ids),
        generation=shard.generation,
    )

    t0 = time.perf_counter()
    # shard-local id space: global sorted ids, order preserved
    ids = np.sort(np.concatenate([shard.interior_ids, shard.halo_ids]))
    sub = np.ascontiguousarray(plan.points[ids])
    grid = GridIndex.build(sub, plan.eps, presorted=True)
    table, build_stats = build_neighbor_table(
        grid,
        device,
        kernel=kernel,
        config=batch_config,
        backend=backend,
        block_dim=block_dim,
        faults=faults,
    )
    stats.build_s = time.perf_counter() - t0
    stats.n_pairs = table.total_pairs
    stats.n_batches = build_stats.n_batches_run
    stats.recovery = build_stats.recovery

    t1 = time.perf_counter()
    interior_pos = np.searchsorted(ids, shard.interior_ids)
    is_interior = np.zeros(len(ids), dtype=bool)
    is_interior[interior_pos] = True
    # interior neighborhoods are complete -> exact global core status;
    # halo neighborhoods are clipped -> never classified here
    interior_core = (table.neighbor_counts() >= minpts) & is_interior
    border = is_interior & ~interior_core

    # interior rows only: every edge the reduce needs starts inside, and
    # interior–interior edges appear in both directions
    src, dst = table.edges_for(interior_pos)
    if cluster_on == "device":
        # shard-local labeling on the shard's own bounded device: the
        # eligibility mask keeps halo points out of core status
        from repro.core.device_cluster import device_cluster_table

        dres = device_cluster_table(
            table,
            minpts,
            device=device,
            backend=backend,
            block_dim=block_dim,
            eligible=is_interior,
        )
        raw, attach = dres.raw_labels, dres.attach
    else:
        raw, attach = cluster_edges(interior_core, src, dst)
    # the raw label of an interior core is the minimum *local* core id of
    # its component; local ids are sorted global ids, so mapping through
    # ``ids`` yields the lowest-global-id representative
    core_local = np.flatnonzero(interior_core)
    comp_edges = np.column_stack([ids[core_local], ids[raw[core_local]]])
    # each interior border point's lowest-id interior-core neighbor
    bl = np.flatnonzero(border & (attach >= 0))
    border_interior = np.column_stack([ids[bl], ids[attach[bl]]])
    # edges into the halo: the halo endpoint's core status is resolved
    # at merge time (merge bookkeeping, host-computed on either path)
    to_halo = ~is_interior[dst]
    xc = to_halo & interior_core[src]
    cross_edges = np.column_stack([ids[src[xc]], ids[dst[xc]]])
    bh = to_halo & border[src]
    border_halo_edges = np.column_stack([ids[src[bh]], ids[dst[bh]]])
    stats.reduce_s = time.perf_counter() - t1
    stats.peak_device_bytes = device.memory.peak_bytes
    stats.peak_pinned_bytes = device.pinned.peak_bytes

    return ShardLocalResult(
        interior_ids=shard.interior_ids,
        interior_core=interior_core[interior_pos],
        comp_edges=comp_edges,
        cross_edges=cross_edges,
        border_interior=border_interior,
        border_halo_edges=border_halo_edges,
        stats=stats,
    )


# ----------------------------------------------------------------------
# shard-level fault recovery (the supervisor)
# ----------------------------------------------------------------------
class ShardFailureError(RuntimeError):
    """A shard exhausted its recovery budget (typed, names the shard).

    Carries the failed :class:`Shard` and the number of attempts; the
    ``__cause__`` chain holds the last underlying fault.
    """

    def __init__(self, shard: Shard, attempts: int, last: BaseException):
        self.shard = shard
        self.attempts = attempts
        self.last_error = last
        super().__init__(
            f"shard {shard.key} failed after {attempts} attempt(s); "
            f"last fault: {type(last).__name__}: {last}"
        )


@dataclass
class ShardAttempt:
    """One supervised attempt at one shard (the recovery audit trail)."""

    tile: tuple[int, int]
    cells: tuple[int, int, int, int]
    generation: int
    #: 0-based attempt number within this shard's supervision
    attempt: int
    #: ``"ok"`` | ``"retry"`` | ``"split"`` | ``"failed"``
    outcome: str
    #: device the executor pinned the attempt to
    device: int = 0
    #: :func:`~repro.gpusim.faults.classify_fault` class ("" on success)
    fault: str = ""
    error: str = ""
    #: memory grant the attempt ran under (None: uncapped device)
    mem_grant_bytes: Optional[int] = None
    #: wall seconds of the attempt (wasted unless ``outcome == "ok"``)
    shard_s: float = 0.0
    #: peak device bytes the attempt allocated (wasted unless ok)
    wasted_bytes: int = 0
    #: batch-level recovery performed inside a *failed* attempt
    batch_recovery: RecoveryStats = field(default_factory=RecoveryStats)

    def as_dict(self) -> dict:
        return {
            "tile": list(self.tile),
            "cells": list(self.cells),
            "generation": self.generation,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "device": self.device,
            "fault": self.fault,
            "error": self.error,
            "mem_grant_bytes": self.mem_grant_bytes,
            "shard_s": round(self.shard_s, 6),
            "wasted_bytes": self.wasted_bytes,
            "batch_recovery": self.batch_recovery.as_dict(),
        }


@dataclass
class ShardRecoveryStats:
    """Aggregated recovery accounting of a sharded run.

    Batch-level and shard-level recovery are kept apart, and failed
    attempts apart from successful ones: ``batch`` sums the RecoveryStats
    of the attempts that produced the final labels, while recovery work
    performed inside attempts that were later thrown away is in
    ``failed_batch`` — the two never double-count.  ``as_dict`` keeps the
    flat :class:`~repro.core.batching.RecoveryStats` keys of the
    pre-recovery payload (splits, regrows, …) for the successful-side
    counters, so existing consumers of the CLI JSON keep working.
    """

    #: batch-level recovery inside the successful attempts
    batch: RecoveryStats = field(default_factory=RecoveryStats)
    #: batch-level recovery inside failed (discarded) attempts
    failed_batch: RecoveryStats = field(default_factory=RecoveryStats)
    #: supervised attempts across all shards (1 per shard when healthy)
    shard_attempts: int = 0
    #: retries placed on a fresh fallback device
    fallback_placements: int = 0
    #: ε-aligned quad-splits performed
    shard_splits: int = 0
    #: retries that escalated the per-shard memory grant
    mem_escalations: int = 0
    #: device bytes allocated by attempts that were thrown away
    wasted_work_bytes: int = 0
    #: wall seconds burned by attempts that were thrown away
    wasted_s: float = 0.0

    def as_dict(self) -> dict:
        d = self.batch.as_dict()
        d.update(
            {
                "failed_batch": self.failed_batch.as_dict(),
                "shard_attempts": self.shard_attempts,
                "fallback_placements": self.fallback_placements,
                "shard_splits": self.shard_splits,
                "mem_escalations": self.mem_escalations,
                "wasted_work_bytes": self.wasted_work_bytes,
                "wasted_s": round(self.wasted_s, 6),
            }
        )
        return d


def make_shard_fault_factory(
    specs: Iterable[FaultSpec],
    *,
    seed: int = 0,
    tiles: Optional[Iterable[tuple[int, int]]] = None,
    generations: int = 1,
) -> Callable[[Shard], Optional[FaultInjector]]:
    """Build a :attr:`ShardConfig.fault_factory` from shared fault specs.

    Every targeted shard gets its *own* :class:`FaultInjector` over the
    shared specs, seeded with :func:`~repro.gpusim.faults.derive_seed`
    from the shard's lineage tile, generation, and cell bounds —
    deterministic and independent of shard execution order.  ``tiles``
    restricts injection to the listed ``(tx, ty)`` planner tiles.

    By default only planner tiles (``generation == 0``) are injected: a
    one-shot fault fires once per lineage, the tile splits or retries,
    and its quad-split children run clean.  Raise ``generations`` to
    keep injecting into split children (each child then draws from its
    own derived-seed injector) — that exercises recursive splitting.
    """
    spec_list = tuple(specs)
    tile_set = (
        None if tiles is None else {(int(x), int(y)) for x, y in tiles}
    )

    def factory(shard: Shard) -> Optional[FaultInjector]:
        if not spec_list:
            return None
        if shard.generation >= generations:
            return None
        if tile_set is not None and (shard.tx, shard.ty) not in tile_set:
            return None
        return FaultInjector(
            spec_list,
            seed=derive_seed(
                seed,
                shard.tx, shard.ty, shard.generation,
                shard.cx0, shard.cx1, shard.cy0, shard.cy1,
            ),
        )

    return factory


def _grant_spec(
    base_spec: DeviceSpec, cfg: ShardConfig, escalations: int
) -> tuple[DeviceSpec, Optional[int]]:
    """The device spec of one attempt under the exponential grant policy.

    Escalation k grants ``device_mem_bytes · mem_growth^k``, capped at
    the physical card capacity (but never below the configured base
    grant).  With no configured cap the device is already as large as it
    gets — the fallback device is simply a fresh one.
    """
    if cfg.device_mem_bytes is None:
        return base_spec, None
    grant = int(cfg.device_mem_bytes * cfg.mem_growth**escalations)
    grant = max(
        cfg.device_mem_bytes, min(grant, base_spec.global_mem_bytes)
    )
    return replace(base_spec, global_mem_bytes=grant), grant


def run_shard_supervised(
    plan: ShardPlan,
    shard: Shard,
    minpts: int,
    cfg: ShardConfig,
    base_spec: DeviceSpec,
    *,
    kernel: Literal["global", "shared"] = "global",
    batch_config: Optional[BatchConfig] = None,
    backend: str = "vector",
    block_dim: int = 256,
    sanitize: Optional[bool] = None,
    cluster_on: Literal["host", "device"] = "host",
    events: Optional[list[ShardAttempt]] = None,
    device_id: int = 0,
) -> "ShardLocalResult | list[Shard]":
    """Supervised attempt loop for one shard — the recovery state machine.

    Returns the shard's :class:`ShardLocalResult` on success, or the
    quad-split children (to be enqueued in its place) when a
    memory-shaped fault splits the tile.  Each attempt runs on a
    **fresh** bounded device; the shard's injector (from
    ``cfg.fault_factory``) persists across attempts so bounded fault
    budgets span retries.  Fatal faults propagate unchanged; an
    exhausted retry budget raises :class:`ShardFailureError`.  Every
    attempt is appended to ``events`` (the recovery audit trail),
    stamped with ``device_id`` — the simulated device the executor
    pinned this shard to.
    """
    injector = (
        cfg.fault_factory(shard) if cfg.fault_factory is not None else None
    )
    attempt = 0
    escalations = 0
    while True:
        spec, grant = _grant_spec(base_spec, cfg, escalations)
        device = Device(spec, sanitize=sanitize)
        t0 = time.perf_counter()
        try:
            local = run_shard(
                plan,
                shard,
                minpts,
                device,
                kernel=kernel,
                batch_config=batch_config,
                backend=backend,
                block_dim=block_dim,
                faults=injector,
                cluster_on=cluster_on,
            )
        except Exception as exc:
            elapsed = time.perf_counter() - t0
            fclass = classify_fault(exc)
            bstats = getattr(exc, "build_stats", None)
            brec = (
                bstats.recovery if bstats is not None else RecoveryStats()
            )
            abytes = device.memory.peak_bytes

            def _event(outcome: str) -> ShardAttempt:
                return ShardAttempt(
                    tile=(shard.tx, shard.ty),
                    cells=(shard.cx0, shard.cx1, shard.cy0, shard.cy1),
                    generation=shard.generation,
                    attempt=attempt,
                    outcome=outcome,
                    device=device_id,
                    fault=fclass,
                    error=f"{type(exc).__name__}: {exc}",
                    mem_grant_bytes=grant,
                    shard_s=elapsed,
                    wasted_bytes=abytes,
                    batch_recovery=brec,
                )

            if fclass == "fatal":
                if events is not None:
                    events.append(_event("failed"))
                raise
            # memory-shaped: quad-split first — four quarter tiles fit
            # where the whole tile could not, and the grant need not grow
            if (
                fclass == "memory"
                and cfg.split_on_oom
                and shard.generation < cfg.max_split_generations
            ):
                children = quad_split_shard(plan, shard)
                if children:
                    if events is not None:
                        events.append(_event("split"))
                    return children
            if attempt >= cfg.max_shard_retries:
                if events is not None:
                    events.append(_event("failed"))
                raise ShardFailureError(shard, attempt + 1, exc) from exc
            if events is not None:
                events.append(_event("retry"))
            attempt += 1
            if fclass == "memory":
                escalations += 1
            continue
        finally:
            device.close()
        if events is not None:
            events.append(
                ShardAttempt(
                    tile=(shard.tx, shard.ty),
                    cells=(shard.cx0, shard.cx1, shard.cy0, shard.cy1),
                    generation=shard.generation,
                    attempt=attempt,
                    outcome="ok",
                    device=device_id,
                    mem_grant_bytes=grant,
                    shard_s=local.stats.shard_s,
                )
            )
        return local


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
@dataclass
class ShardedResult:
    """Labels (original point order) plus sharded-run accounting.

    ``shard_stats`` holds one entry per shard that produced labels (its
    successful attempt); ``events`` records every supervised attempt and
    is the source of :attr:`recovery`; ``device_schedule`` is the one
    modeled makespan (:attr:`makespan_s`).
    """

    labels: np.ndarray
    eps: float
    minpts: int
    plan: ShardPlan
    shard_stats: list[ShardStats]
    #: event-driven multi-device makespan (builds pinned to devices,
    #: merge increments overlapped, exchange prefix, finalize tail);
    #: every supervised attempt, failed ones included, occupies its
    #: device for its full duration.
    device_schedule: DeviceSchedule
    # --- multi-device placement layer (DESIGN.md §13) ---
    #: shard→device assignment (:func:`repro.core.placement.place_shards`)
    placement: "DevicePlacement"
    #: modeled collective halo exchange of that placement
    exchange: "CollectiveExchange"
    #: wall seconds of the sequential host execution
    serial_s: float = 0.0
    #: merge phase wall seconds (incremental absorbs + finalize)
    merge_s: float = 0.0
    #: the recovery audit trail: one entry per supervised shard attempt
    #: (the single record of attempts, fallbacks and wasted work)
    events: list[ShardAttempt] = field(default_factory=list)
    #: devices lost mid-run; their remaining shards were rescheduled
    #: onto the surviving devices
    lost_devices: list[int] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if (self.labels != NOISE).any() else 0

    @property
    def n_noise(self) -> int:
        return int((self.labels == NOISE).sum())

    @property
    def makespan_s(self) -> float:
        """Modeled wall time of the run: ``device_schedule.makespan_s``."""
        return self.device_schedule.makespan_s

    @property
    def max_peak_device_bytes(self) -> int:
        """Worst per-shard device residency — the out-of-core bound."""
        return max((s.peak_device_bytes for s in self.shard_stats), default=0)

    @property
    def recovery(self) -> ShardRecoveryStats:
        """Aggregated batch- and shard-level recovery accounting.

        Successful attempts' batch-level :class:`RecoveryStats` come from
        the per-shard stats; everything about failed attempts — including
        the batch recovery performed inside them before they died — comes
        from the attempt :attr:`events` alone, so failed-attempt counters
        are never double-counted with the successful attempt's.  Split
        parents (which never produce stats) are covered by their
        ``"split"`` events.
        """
        r = ShardRecoveryStats()
        for s in self.shard_stats:
            r.batch.merge(s.recovery)
        for e in self.events:
            r.shard_attempts += 1
            if e.outcome == "retry":
                r.fallback_placements += 1
                if e.fault == "memory":
                    r.mem_escalations += 1
            elif e.outcome == "split":
                r.shard_splits += 1
            if e.outcome != "ok":
                r.failed_batch.merge(e.batch_recovery)
                r.wasted_work_bytes += e.wasted_bytes
                r.wasted_s += e.shard_s
        return r


def cluster_sharded(
    points: np.ndarray,
    eps: float,
    minpts: int,
    *,
    config: Optional[ShardConfig] = None,
    kernel: Literal["global", "shared"] = "global",
    batch_config: Optional[BatchConfig] = None,
    backend: str = "vector",
    block_dim: int = 256,
    device_spec: Optional[DeviceSpec] = None,
    sanitize: Optional[bool] = None,
    cluster_on: Literal["host", "device"] = "host",
) -> ShardedResult:
    """Out-of-core HYBRID-DBSCAN over ``kx × ky`` spatial shards.

    Each shard runs on a fresh bounded :class:`Device` (capacity
    ``config.device_mem_bytes``), one at a time — the device never holds
    more than one shard's working set.  Every shard is supervised by the
    recovery state machine (:func:`run_shard_supervised`): wholesale
    shard faults retry on fallback devices or quad-split the tile, and
    completed shards are never recomputed.  ``cluster_on="device"``
    moves shard-local cluster formation onto each shard's bounded device
    (the union-find label kernels); the halo merge is unchanged.  Labels
    are bit-identical to ``HybridDBSCAN(...).fit(points, eps, minpts)``
    — with or without recovered faults, on either ``cluster_on`` path,
    at any device count.

    Shards are placed onto ``config.n_devices`` bounded devices
    (:func:`repro.core.placement.place_shards`; one device is the
    one-device case of the same executor, DESIGN.md §13), halo traffic
    is modeled as one collective all-to-all, each device drains its
    pinned queue concurrently (event simulation), and the halo merge
    runs *incrementally* — each shard's reduction arrays are absorbed
    the moment the shard completes, with only border attachment and
    canonicalization left for the serial finalize.  A ``device_lost``
    fault on one of several devices marks it dead and reschedules its
    remaining shards onto the survivors; the replay's
    ``device_schedule.makespan_s`` is the run's modeled ``makespan_s``.
    """
    cfg = config or ShardConfig()
    check_minpts(minpts)
    plan = plan_shards(points, eps, config=cfg)
    base_spec = device_spec or DeviceSpec()

    # placement imports sharding, so it is imported at call time
    from repro.core.placement import (
        IncrementalMerger,
        collective_exchange,
        place_shards,
    )

    placement = place_shards(plan, cfg.n_devices, cfg.placement)
    exchange = collective_exchange(plan, placement)
    merger = IncrementalMerger(plan.n_points)

    queues: dict[int, deque[Shard]] = {
        d: deque(plan.shards[i] for i in placement.shards_of(d))
        for d in range(cfg.n_devices)
    }
    alive = set(range(cfg.n_devices))
    clock = [0.0] * cfg.n_devices
    lost_devices: list[int] = []
    locals_: list[ShardLocalResult] = []
    events: list[ShardAttempt] = []
    merge_inc: dict[int, float] = {}  # event index -> absorb seconds
    merge_total = 0.0

    def _least_loaded(candidates: set[int]) -> int:
        return min(
            candidates,
            key=lambda d: (
                clock[d] + sum(s.n_points for s in queues[d]),
                d,
            ),
        )

    # devices are simulated (shards still execute one at a time on this
    # host); concurrency is replayed as an event simulation — the next
    # shard to run is always the head of the earliest-clock live
    # device's queue, the order a real N-device host would observe
    # completions in
    t0 = time.perf_counter()
    while True:
        ready = [d for d in alive if queues[d]]
        if not ready:
            break
        dev = min(ready, key=lambda d: (clock[d], d))
        shard = queues[dev].popleft()
        n_ev = len(events)
        outcome = run_shard_supervised(
            plan,
            shard,
            minpts,
            cfg,
            base_spec,
            kernel=kernel,
            batch_config=batch_config,
            backend=backend,
            block_dim=block_dim,
            sanitize=sanitize,
            cluster_on=cluster_on,
            events=events,
            device_id=dev,
        )
        # a lost device: everything after the loss ran on a fallback —
        # in the N-device model that fallback is a surviving device, the
        # dead one takes no further work, and its queue is redistributed
        loss_idx = next(
            (
                i
                for i in range(n_ev, len(events))
                if events[i].outcome == "retry"
                and events[i].error.startswith("DeviceLostError")
            ),
            None,
        )
        if loss_idx is not None and len(alive) > 1:
            alive.discard(dev)
            lost_devices.append(dev)
            survivor = _least_loaded(alive)
            for i in range(n_ev, loss_idx + 1):
                clock[dev] += events[i].shard_s
            for i in range(loss_idx + 1, len(events)):
                events[i].device = survivor
                clock[survivor] += events[i].shard_s
            while queues[dev]:
                queues[_least_loaded(alive)].append(queues[dev].popleft())
            dev = survivor
        else:
            for i in range(n_ev, len(events)):
                clock[dev] += events[i].shard_s
        if isinstance(outcome, ShardLocalResult):
            locals_.append(outcome)
            tm = time.perf_counter()
            merger.absorb(outcome)
            inc = time.perf_counter() - tm
            merge_inc[len(events) - 1] = inc  # the "ok" event
            merge_total += inc
        else:
            # quad-split children take the parent's place at the head
            # of the parent's (possibly reassigned) device queue
            queues[dev].extendleft(reversed(outcome))
    serial_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    labels_sorted = merger.finalize()
    labels = np.empty_like(labels_sorted)
    labels[plan.sort_order] = labels_sorted
    finalize_s = time.perf_counter() - t1

    stats = [lr.stats for lr in locals_]
    return ShardedResult(
        labels=labels,
        eps=float(eps),
        minpts=int(minpts),
        plan=plan,
        shard_stats=stats,
        serial_s=serial_s,
        merge_s=merge_total + finalize_s,
        events=events,
        placement=placement,
        exchange=exchange,
        device_schedule=schedule_devices(
            [e.shard_s for e in events],
            [e.device for e in events],
            [merge_inc.get(i, 0.0) for i in range(len(events))],
            n_devices=cfg.n_devices,
            exchange_s=exchange.modeled_s(),
            finalize_s=finalize_s,
        ),
        lost_devices=lost_devices,
    )
