"""HYBRID-DBSCAN — Algorithm 4 of the paper.

``fit`` runs the full pipeline for one ``(ε, minpts)`` variant:

1. construct the grid index ``(G, A)`` from ``D`` and ε (host);
2. launch ``GPUCalcGlobal`` (or ``GPUCalcShared``) over ``n_b`` batches
   on 3 streams, each batch device-sorted by key and staged through
   pinned memory (Sections IV–VI);
3. assemble the neighbor table ``T`` on the host;
4. run the modified DBSCAN that looks up ``T`` instead of an index.

``build_table``/``cluster_table`` expose steps 1–3 and 4 separately for
the S2 pipeline (``repro.core.pipeline``) and the S3 reuse scheme
(``repro.core.reuse``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.core.batching import (
    BatchConfig,
    RecoveryStats,
    TableBuildStats,
    build_neighbor_table,
)
from repro.core.neighbor_table import NeighborTable
from repro.core.table_dbscan import NOISE, dbscan_from_table
from repro.gpusim.device import Device
from repro.index.base import check_minpts
from repro.index.grid import GridIndex

__all__ = ["TimingBreakdown", "DBSCANResult", "HybridDBSCAN"]


@dataclass
class TimingBreakdown:
    """Timing of one HYBRID-DBSCAN run (seconds).

    ``gpu_s`` is the paper's "GPU time": the wall-clock time to produce
    ``T`` (index construction, kernels, sort, transfers, host table
    assembly) — Figure 3's green curve.  ``dbscan_s`` is the host
    clustering over ``T`` — the blue curve.  The per-phase fields
    (``kernel_s`` …) are *summed across the 3 stream workers*, so they
    can exceed wall-clock when batches overlap — that excess is exactly
    the overlap the batching scheme wins.  ``recovery`` carries the
    robustness layer's accounting (splits, regrows, retries, wasted
    kernel-seconds) from the table construction.
    """

    index_s: float = 0.0
    kernel_s: float = 0.0
    sort_s: float = 0.0
    transfer_s: float = 0.0
    table_s: float = 0.0
    dbscan_s: float = 0.0
    total_s: float = 0.0
    #: wall-clock seconds to build T (index + batched kernels + table)
    build_wall_s: float = 0.0
    #: simulated device milliseconds (profiler; not wall clock)
    device_ms: float = 0.0
    #: overflow/transfer recovery accounting of the build
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def gpu_s(self) -> float:
        """Wall-clock table-construction time (Figure 3's 'GPU time')."""
        return self.build_wall_s

    @property
    def worker_phase_sum_s(self) -> float:
        """Cross-worker sum of phase times (≥ gpu_s under overlap)."""
        return (
            self.index_s + self.kernel_s + self.sort_s
            + self.transfer_s + self.table_s
        )


@dataclass
class DBSCANResult:
    """Labels (original point order) plus run metadata."""

    labels: np.ndarray
    eps: float
    minpts: int
    timings: TimingBreakdown
    n_batches: int = 1
    total_pairs: int = 0

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if (self.labels != NOISE).any() else 0

    @property
    def n_noise(self) -> int:
        return int((self.labels == NOISE).sum())

    @property
    def recovery(self) -> RecoveryStats:
        """Overflow/transfer recovery accounting of the table build."""
        return self.timings.recovery


class HybridDBSCAN:
    """The hybrid CPU–GPU DBSCAN of Algorithm 4.

    Parameters
    ----------
    device:
        Simulated GPU; a default K20c-like device is created if omitted.
    kernel:
        ``"global"`` (GPUCalcGlobal, the paper's recommendation) or
        ``"shared"`` (GPUCalcShared).
    batch_config:
        Section VI batching tunables.
    backend:
        ``"vector"`` (scaled runs) or ``"interpreter"`` (small-input
        fidelity runs).
    cluster_on:
        ``"host"`` (the paper's Algorithm 4: DBSCAN over ``T`` on the
        CPU) or ``"device"`` (cluster formation stays on the simulated
        GPU — union-find label kernels over ``T``; see
        :mod:`repro.core.device_cluster`).  Labels are bit-identical.
    sanitize:
        Attach the gpusanitizer to the implicitly-created device
        (ignored when ``device`` is passed explicitly; ``None`` defers
        to the ``GPUSAN`` environment variable).
    """

    def __init__(
        self,
        device: Optional[Device] = None,
        *,
        kernel: Literal["global", "shared"] = "global",
        batch_config: Optional[BatchConfig] = None,
        backend: Literal["vector", "interpreter"] = "vector",
        cluster_on: Literal["host", "device"] = "host",
        block_dim: int = 256,
        sanitize: Optional[bool] = None,
    ):
        if cluster_on not in ("host", "device"):
            raise ValueError(f"unknown cluster_on {cluster_on!r}")
        self.device = device or Device(sanitize=sanitize)
        self.kernel = kernel
        self.batch_config = batch_config or BatchConfig()
        self.backend = backend
        self.cluster_on = cluster_on
        self.block_dim = block_dim

    # ------------------------------------------------------------------
    # phase 1–3: neighbor table construction
    # ------------------------------------------------------------------
    def build_table(
        self, points: np.ndarray, eps: float, *, with_distances: bool = False
    ) -> tuple[GridIndex, NeighborTable, TimingBreakdown]:
        """Construct the grid index and the neighbor table ``T``.

        ``with_distances`` builds an annotated table (global kernel
        only) usable at any ε' ≤ ε and by OPTICS.
        """
        t0 = time.perf_counter()
        grid = GridIndex.build(points, eps)
        t1 = time.perf_counter()
        table, stats = build_neighbor_table(
            grid,
            self.device,
            kernel=self.kernel,
            config=self.batch_config,
            backend=self.backend,
            block_dim=self.block_dim,
            with_distances=with_distances,
        )
        timings = TimingBreakdown(
            index_s=t1 - t0,
            kernel_s=stats.kernel_s,
            sort_s=stats.sort_s,
            transfer_s=stats.transfer_s,
            table_s=stats.host_copy_s,
            device_ms=self.device.profiler.total_device_ms(),
            recovery=stats.recovery,
        )
        timings.build_wall_s = time.perf_counter() - t0
        timings.total_s = timings.build_wall_s
        self._last_build_stats: TableBuildStats = stats
        return grid, table, timings

    # ------------------------------------------------------------------
    # phase 4: clustering from T
    # ------------------------------------------------------------------
    def cluster_table(
        self,
        grid: GridIndex,
        table: NeighborTable,
        minpts: int,
        *,
        where: Optional[Literal["host", "device"]] = None,
    ) -> np.ndarray:
        """Run the modified DBSCAN over ``T``; labels in original order.

        ``where`` overrides the instance's ``cluster_on`` for this call:
        ``"host"`` runs :func:`~repro.core.table_dbscan.dbscan_from_table`
        on the CPU, ``"device"`` runs the union-find label kernels on
        this instance's simulated device.  Both produce bit-identical
        labels.
        """
        where = self.cluster_on if where is None else where
        if where == "host":
            labels_sorted = dbscan_from_table(table, minpts)
        elif where == "device":
            from repro.core.device_cluster import dbscan_from_table_device

            labels_sorted = dbscan_from_table_device(
                table,
                minpts,
                device=self.device,
                backend=self.backend,
                block_dim=self.block_dim,
            )
        else:
            raise ValueError(f"unknown cluster_table target {where!r}")
        labels = np.empty_like(labels_sorted)
        labels[grid.sort_order] = labels_sorted
        return labels

    # ------------------------------------------------------------------
    # the whole Algorithm 4
    # ------------------------------------------------------------------
    def fit(self, points: np.ndarray, eps: float, minpts: int) -> DBSCANResult:
        """Cluster ``points`` for one variant ``(ε, minpts)``."""
        check_minpts(minpts)  # points and ε are checked by the grid build
        t0 = time.perf_counter()
        grid, table, timings = self.build_table(points, eps)
        t1 = time.perf_counter()
        labels = self.cluster_table(grid, table, minpts)
        t2 = time.perf_counter()
        timings.dbscan_s = t2 - t1
        timings.total_s = t2 - t0
        # the device cluster path adds launches after the build snapshot
        timings.device_ms = self.device.profiler.total_device_ms()
        return DBSCANResult(
            labels=labels,
            eps=float(eps),
            minpts=int(minpts),
            timings=timings,
            n_batches=self._last_build_stats.n_batches_run,
            total_pairs=table.total_pairs,
        )

    # ------------------------------------------------------------------
    # the sharded out-of-core extension
    # ------------------------------------------------------------------
    def fit_sharded(
        self, points: np.ndarray, eps: float, minpts: int, *, shard_config=None
    ):
        """Out-of-core HYBRID-DBSCAN over spatial shards.

        Partitions the dataset into ε-aligned tiles with ε-wide halos,
        builds each shard's table independently on a fresh bounded
        device (this instance's kernel/batching/backend/``cluster_on``
        settings are reused — with ``cluster_on="device"`` shard-local
        labeling runs on the shard's own bounded device too), and
        merges the shard-local clusterings into labels
        bit-identical to :meth:`fit` with the components
        implementation.  See :mod:`repro.core.sharding`.

        Shards run under the supervised recovery state machine: a shard
        that dies wholesale (OOM, device loss, transfer fault beyond
        batch recovery) is retried on a fresh fallback device with an
        exponentially escalated memory grant, or — for memory-shaped
        faults — its ε-aligned tile is quad-split and the children are
        enqueued; completed shards are never recomputed.  Tune the
        policy (retry budget, split rule, per-shard fault injection)
        through ``shard_config``; the run's recovery behavior is
        reported in ``ShardedResult.recovery`` and the per-attempt
        ``ShardedResult.events`` audit trail.

        ``shard_config.n_devices > 1`` places the shards across N
        simulated bounded devices (``shard_config.placement`` picks the
        locality or round-robin placer) with the collective halo
        exchange and the incremental merge overlapped with the builds;
        a lost device's remaining shards are rescheduled onto the
        survivors.  Labels stay bit-identical throughout (DESIGN.md
        §13).

        Returns a :class:`~repro.core.sharding.ShardedResult`.
        """
        from repro.core.sharding import cluster_sharded

        return cluster_sharded(
            points,
            eps,
            minpts,
            config=shard_config,
            kernel=self.kernel,
            batch_config=self.batch_config,
            backend=self.backend,
            block_dim=self.block_dim,
            device_spec=self.device.spec,
            sanitize=self.device.sanitizer is not None,
            cluster_on=self.cluster_on,
        )
