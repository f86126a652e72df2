"""The efficient batching scheme of Section VI.

The result set can exceed GPU global memory, so the neighbor table is
built in ``n_b`` batches:

1. a counting kernel over a uniformly distributed fraction ``f`` (1%) of
   the points yields the sample neighbor count; extrapolating gives the
   estimated total result set size — the paper's ``e_b``, held here as
   ``a_b`` (this module keeps ``e_b`` for the raw sample count);
2. with an overestimation factor ``α`` (0.05),
   ``n_b = ceil((1 + α) · a_b / b_b)``   (Equation 1);
3. the per-stream device buffer ``b_b`` is *static* when the estimated
   total result size is large (paper: ``e_b ≥ 3·10⁸ → b_b = 10⁸``,
   i.e. ``a_b ≥ 3·10⁸`` in this module's naming) and *variable*
   otherwise (``b_b = a_b (1 + 2α) / 3`` — α doubled because small
   estimates are noisier), so small workloads don't pay
   pinned-allocation time for huge buffers;
4. batch ``l`` processes points ``{g·n_b + l}`` — strided, which is
   spatially uniform because points are stored in spatial sort order —
   keeping every batch's result size ``|R_l| ≲ b_b``;
5. batches round-robin over 3 streams, overlapping kernel, device sort,
   transfer to pinned staging, and host-side table construction.

When a batch still overflows its buffer (the estimate lost to an
adversarial density), recovery is **per batch**: the failed batch is
split in two (a lone point regrows its worker's buffer instead, bounded
by the memory pool's free bytes) and re-run on the same stream while
every completed batch is kept — O(failed batches) re-work.
:class:`RecoveryStats` accounts for the recovery work (splits, regrows,
retries, wasted kernel-seconds).

At repo scale the paper's thresholds would always yield the 3-batch
minimum, so :class:`BatchConfig` defaults to 1/100-scaled thresholds;
``BatchConfig.paper()`` restores the published constants.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.faults import FaultInjector, TransferError
from repro.gpusim.launch import launch
from repro.gpusim.memory import DeviceMemoryError, ResultBufferOverflow
from repro.gpusim.thrust import sort_pairs
from repro.index.grid import GridIndex
from repro.kernels.count_kernel import NeighborCountKernel, sample_point_ids
from repro.kernels.global_kernel import GPUCalcGlobal, batch_point_ids
from repro.kernels.shared_kernel import GPUCalcShared
from repro.core.neighbor_table import NeighborTable

__all__ = [
    "BatchConfig",
    "BatchPlan",
    "BatchPlanner",
    "RecoveryStats",
    "TableBuildStats",
    "build_neighbor_table",
]

PAIR_DTYPE = np.int64
#: bytes per plain (key, value) pair; annotated (key, value, dist)
#: rows are 24 B — the 50% transfer overhead of the multi-ε extension
PAIR_BYTES = 16


@dataclass(frozen=True)
class BatchConfig:
    """Tunables of the Section VI batching scheme."""

    #: overestimation factor α of Equation 1
    alpha: float = 0.05
    #: sampling fraction f for the estimation kernel
    sample_fraction: float = 0.01
    #: CUDA streams (the paper found 3 optimal)
    n_streams: int = 3
    #: estimated total result size (paper's e_b, our a_b) above which
    #: the static buffer size is used
    static_threshold: int = 3_000_000
    #: static per-stream buffer capacity (pairs)
    static_buffer_size: int = 1_000_000
    #: hard floor so tiny datasets still get a sane buffer
    min_buffer_size: int = 1024
    #: strided (paper) or contiguous (ablation) batch assignment
    batch_order: Literal["strided", "contiguous"] = "strided"
    #: bound on recursive per-batch recovery (split depth / regrow count)
    max_recovery_depth: int = 16
    #: re-runs of a batch whose staging transfer failed
    max_transfer_retries: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must be in [0, 1)")
        if not 0 < self.sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if self.max_recovery_depth < 0:
            raise ValueError("max_recovery_depth must be >= 0")
        if self.max_transfer_retries < 0:
            raise ValueError("max_transfer_retries must be >= 0")

    @classmethod
    def paper(cls, **overrides) -> "BatchConfig":
        """The constants as published: static buffer when the estimated
        total result size reaches 3·10⁸ pairs (the paper's ``e_b ≥ 3·10⁸
        → b_b = 10⁸``; the estimate is called ``a_b`` in this module)."""
        params = dict(static_threshold=300_000_000, static_buffer_size=100_000_000)
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class BatchPlan:
    """Output of the planning phase."""

    #: raw neighbor count over the f-sample (*not* the paper's e_b)
    eb: int
    #: estimated total result set size (the paper's e_b) — eb / f
    ab: int
    #: b_b — per-stream device buffer capacity (pairs)
    buffer_size: int
    #: n_b — number of batches (Equation 1)
    n_batches: int
    #: whether the variable (small-estimate) sizing rule applied
    variable_buffer: bool
    #: wall seconds spent estimating
    estimate_s: float = 0.0


class BatchPlanner:
    """Computes a :class:`BatchPlan` for one (dataset, ε) pair."""

    def __init__(self, config: Optional[BatchConfig] = None):
        self.config = config or BatchConfig()

    def plan(
        self,
        grid: GridIndex,
        device: Device,
        *,
        backend: str = "vector",
    ) -> BatchPlan:
        cfg = self.config
        t0 = time.perf_counter()
        sample = sample_point_ids(len(grid), cfg.sample_fraction)
        kernel = NeighborCountKernel()
        res = launch(
            kernel,
            NeighborCountKernel.launch_config(len(sample)),
            device,
            backend="vector",  # the estimator itself is always cheap
            grid=grid,
            sample_ids=sample,
        )
        eb = int(res.value)
        ab = max(1, int(math.ceil(eb * len(grid) / len(sample))))
        return self.plan_from_estimate(
            eb=eb, ab=ab, estimate_s=time.perf_counter() - t0
        )

    def plan_from_estimate(
        self, *, eb: int, ab: int, estimate_s: float = 0.0
    ) -> BatchPlan:
        """Apply the buffer sizing and Equation 1 to a known estimate."""
        cfg = self.config
        if ab >= cfg.static_threshold:
            bb = cfg.static_buffer_size
            variable = False
        else:
            # variable sizing with doubled α: one batch per stream
            bb = max(
                cfg.min_buffer_size,
                int(math.ceil(ab * (1 + 2 * cfg.alpha) / cfg.n_streams)),
            )
            variable = True
        nb = max(1, math.ceil((1 + cfg.alpha) * ab / bb))
        return BatchPlan(
            eb=eb,
            ab=ab,
            buffer_size=bb,
            n_batches=nb,
            variable_buffer=variable,
            estimate_s=estimate_s,
        )


@dataclass
class RecoveryStats:
    """Accounting of the robustness layer's recovery work."""

    #: failed batches split into two sub-units
    splits: int = 0
    #: worker buffers regrown (doubled) after an overflow
    regrows: int = 0
    #: unit re-executions scheduled by recovery (split → 2, regrow → 1,
    #: transfer retry → 1)
    retries: int = 0
    #: failed staging transfers that were re-run
    transfer_retries: int = 0
    #: kernel/sort/transfer seconds discarded by failed attempts
    wasted_kernel_s: float = 0.0

    @property
    def recoveries(self) -> int:
        """Total recovery actions of any kind."""
        return self.splits + self.regrows + self.transfer_retries

    def merge(self, other: "RecoveryStats") -> None:
        self.splits += other.splits
        self.regrows += other.regrows
        self.retries += other.retries
        self.transfer_retries += other.transfer_retries
        self.wasted_kernel_s += other.wasted_kernel_s

    def as_dict(self) -> dict:
        return {
            "splits": self.splits,
            "regrows": self.regrows,
            "retries": self.retries,
            "transfer_retries": self.transfer_retries,
            "wasted_kernel_s": round(self.wasted_kernel_s, 6),
        }


@dataclass
class TableBuildStats:
    """Wall-clock and device accounting from one table construction."""

    plan: BatchPlan
    kernel_s: float = 0.0
    sort_s: float = 0.0
    transfer_s: float = 0.0
    host_copy_s: float = 0.0
    total_s: float = 0.0
    n_batches_run: int = 0
    batch_sizes: list[int] = field(default_factory=list)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)


def build_neighbor_table(
    grid: GridIndex,
    device: Device,
    *,
    kernel: Literal["global", "shared"] = "global",
    config: Optional[BatchConfig] = None,
    backend: str = "vector",
    block_dim: int = 256,
    plan: Optional[BatchPlan] = None,
    with_distances: bool = False,
    faults: Optional[FaultInjector] = None,
) -> tuple[NeighborTable, TableBuildStats]:
    """Construct the neighbor table ``T`` with the batching scheme.

    ``with_distances=True`` builds an *annotated* table whose entries
    carry dist(p, q) — 50% more result traffic, but the table can then
    be reused for any ε' ≤ ε (see :mod:`repro.core.multi_eps`) and
    drives OPTICS (:mod:`repro.core.optics`).  Requires the global
    kernel.

    Runs ``n_b`` batches over ``n_streams`` worker threads, each owning a
    device stream, a device result buffer, and a pinned host staging
    buffer.  Each worker launches the kernel for its batch, sorts the
    batch's result set by key on the device, transfers it to pinned
    memory, and ingests it into the (thread-safe) table.

    If a batch overflows its device buffer (the estimate was too low
    despite α), recovery is per batch: the failed unit is split in two
    (a lone point instead regrows its worker's buffer, bounded by the
    device pool's free bytes) and re-run on the same stream, at most
    ``config.max_recovery_depth`` deep; completed batches are kept.
    Failed staging transfers (fault injection) are retried up to
    ``config.max_transfer_retries`` times in every mode.

    When recovery is exhausted the build raises; the exception carries
    the partial :class:`TableBuildStats` as ``exc.build_stats``, with
    every kernel/sort/transfer second of the failed build charged to
    ``recovery.wasted_kernel_s``, so an outer supervisor (shard-level
    recovery) can account for the thrown-away work.

    ``faults`` (or an injector attached to the device) exercises these
    paths deterministically — see :mod:`repro.gpusim.faults`.
    """
    if with_distances and kernel != "global":
        raise ValueError("annotated tables require the global kernel")
    cfg = config or BatchConfig()
    planner = BatchPlanner(cfg)
    the_plan = plan or planner.plan(grid, device, backend=backend)
    injector = faults if faults is not None else device.faults
    # the transfer/allocation hooks live on the device, so an injector
    # passed here must be visible there too for the build's duration
    prev_faults = device.faults
    device.faults = injector
    stats = TableBuildStats(plan=the_plan)
    t_start = time.perf_counter()
    try:
        table = _run_batches(
            grid, device, the_plan, cfg, kernel, backend, block_dim,
            stats, with_distances, faults=injector,
        )
    except Exception as exc:
        # the failed build is thrown away: its completed units' phase
        # seconds join the failed units' seconds as wasted work
        stats.recovery.wasted_kernel_s += (
            stats.kernel_s + stats.sort_s + stats.transfer_s
        )
        exc.build_stats = stats  # type: ignore[attr-defined]
        raise
    finally:
        device.faults = prev_faults
    stats.total_s = time.perf_counter() - t_start
    return table.finalize(), stats


def _run_batches(
    grid: GridIndex,
    device: Device,
    plan: BatchPlan,
    cfg: BatchConfig,
    kernel_name: str,
    backend: str,
    block_dim: int,
    stats: TableBuildStats,
    with_distances: bool = False,
    faults: Optional[FaultInjector] = None,
) -> NeighborTable:
    kernel = GPUCalcGlobal() if kernel_name == "global" else GPUCalcShared()
    table = NeighborTable(len(grid), grid.eps, with_distances=with_distances)
    n_batches = plan.n_batches
    n_workers = min(cfg.n_streams, n_batches)

    # per-stream resources: device result buffer + pinned staging buffer;
    # annotated results carry a float distance column (rows are float64,
    # exact for ids below 2**53)
    width = 3 if with_distances else 2
    dtype = np.float64 if with_distances else PAIR_DTYPE
    streams = [device.new_stream(f"batch-stream{i}") for i in range(n_workers)]
    result_bufs: list = []
    pinned_bufs: list = []
    stats_lock = threading.Lock()
    ga = grid.device_arrays()

    def attempt_unit(l: int, worker: int, mask: Optional[np.ndarray]) -> None:
        """One kernel→sort→transfer→ingest pass over a batch (or a masked
        sub-unit of it); raises on overflow / injected faults."""
        stream = streams[worker]
        rbuf = result_bufs[worker]
        pinned = pinned_bufs[worker]
        rbuf.reset()
        t0 = time.perf_counter()
        try:
            if kernel_name == "global":
                cfg_launch = GPUCalcGlobal.launch_config(
                    len(grid), n_batches=n_batches, block_dim=block_dim
                )
            else:
                cfg_launch = GPUCalcShared.launch_config(grid, block_dim=block_dim)
            if backend == "vector":
                kw = dict(
                    grid=grid,
                    result=rbuf,
                    batch=l,
                    n_batches=n_batches,
                    batch_order=cfg.batch_order,
                )
                if with_distances:
                    kw["emit_distance"] = True
                if mask is not None:
                    kw["point_mask"] = mask
                launch(
                    kernel, cfg_launch, device, backend="vector",
                    stream=stream, **kw,
                )
            else:
                kwargs = dict(
                    D=ga["D"],
                    A=ga["A"],
                    G_min=ga["G_min"],
                    G_max=ga["G_max"],
                    eps=grid.eps,
                    nx=grid.nx,
                    ny=grid.ny,
                    result=rbuf,
                    batch=l,
                    n_batches=n_batches,
                )
                if kernel_name == "global":
                    kwargs.update(xmin=grid.xmin, ymin=grid.ymin)
                    if with_distances:
                        kwargs.update(emit_distance=True)
                else:
                    kwargs.update(S=GPUCalcShared.schedule(grid))
                if mask is not None:
                    kwargs.update(point_mask=mask)
                launch(
                    kernel, cfg_launch, device, backend="interpreter",
                    stream=stream, **kwargs,
                )
            if faults is not None:
                faults.check("overflow")
            t1 = time.perf_counter()
            sort_pairs(rbuf, device, stream=stream)
            t2 = time.perf_counter()
            n = rbuf.count
            staged = device.from_device(
                rbuf, out=pinned, stream=stream, pinned=True, count=n
            )
        except (ResultBufferOverflow, TransferError):
            with stats_lock:
                stats.recovery.wasted_kernel_s += time.perf_counter() - t0
            raise
        t3 = time.perf_counter()
        if with_distances:
            table.add_batch(
                staged[:n, 0].astype(np.int64),
                staged[:n, 1].astype(np.int64),
                staged[:n, 2],
            )
        else:
            table.add_batch(staged[:n, 0], staged[:n, 1])
        t4 = time.perf_counter()
        with stats_lock:
            stats.kernel_s += t1 - t0
            stats.sort_s += t2 - t1
            stats.transfer_s += t3 - t2
            stats.host_copy_s += t4 - t3
            stats.batch_sizes.append(int(n))
            stats.n_batches_run += 1

    def try_regrow(worker: int) -> bool:
        """Double the worker's result (and staging) buffer if the grown
        buffer fits the pool's free bytes; False when it cannot."""
        rbuf = result_bufs[worker]
        old_cap = rbuf.capacity
        new_cap = old_cap * 2
        new_bytes = new_cap * width * np.dtype(dtype).itemsize
        # the old buffer is freed first (its content is disposable), so
        # the bound is free bytes plus what the old buffer returns
        if new_bytes > device.memory.free_bytes + rbuf.nbytes:
            return False
        rbuf.free()
        try:
            result_bufs[worker] = device.allocate_result_buffer(
                (new_cap, width), dtype, name=f"gpuResultSet{worker}"
            )
        except DeviceMemoryError:
            # lost a race (or an injected OOM): restore the old capacity
            result_bufs[worker] = device.allocate_result_buffer(
                (old_cap, width), dtype, name=f"gpuResultSet{worker}"
            )
            return False
        # retire the old staging buffer before replacing it — pinned
        # pages are a scarce host resource and the residency accounting
        # (and sanitizer leak-at-close) must stay truthful
        pinned_bufs[worker].free()
        pinned_bufs[worker] = device.alloc_pinned((new_cap, width), dtype)
        return True

    def run_batch(l: int, worker: int) -> None:
        """Run batch ``l`` with per-unit recovery.

        Work units are (ids, depth) pairs; ``ids=None`` is the whole
        batch.  A unit that overflows is split in two (a lone point is
        retried after a buffer regrow); a failed staging transfer re-runs.
        """
        stack: list[tuple[Optional[np.ndarray], int]] = [(None, 0)]
        transfer_failures = 0
        while stack:
            ids, depth = stack.pop()
            mask = None
            if ids is not None:
                mask = np.zeros(len(grid), dtype=bool)
                mask[ids] = True
            try:
                # the scope is single-use: build one per attempt
                with faults.batch(l) if faults is not None else nullcontext():
                    attempt_unit(l, worker, mask)
                continue
            except TransferError:
                if transfer_failures >= cfg.max_transfer_retries:
                    raise
                transfer_failures += 1
                with stats_lock:
                    stats.recovery.transfer_retries += 1
                    stats.recovery.retries += 1
                stack.append((ids, depth))
                continue
            except ResultBufferOverflow:
                pass  # recovered below: split the unit or regrow the buffer
            unit_ids = (
                ids
                if ids is not None
                else batch_point_ids(len(grid), l, n_batches, cfg.batch_order)
            )
            in_depth = depth < cfg.max_recovery_depth
            if in_depth and len(unit_ids) > 1:
                mid = len(unit_ids) // 2
                with stats_lock:
                    stats.recovery.splits += 1
                    stats.recovery.retries += 2
                stack.append((unit_ids[mid:], depth + 1))
                stack.append((unit_ids[:mid], depth + 1))
                continue
            if in_depth and try_regrow(worker):
                with stats_lock:
                    stats.recovery.regrows += 1
                    stats.recovery.retries += 1
                stack.append((ids, depth + 1))
                continue
            raise ResultBufferOverflow(
                f"batch {l}: recovery exhausted at depth {depth} "
                f"(unit of {len(unit_ids)} points, "
                f"buffer {result_bufs[worker].capacity} pairs)"
            )

    def worker_loop(w: int) -> None:
        for l in range(w, n_batches, n_workers):
            run_batch(l, w)

    try:
        for i in range(n_workers):
            result_bufs.append(
                device.allocate_result_buffer(
                    (plan.buffer_size, width), dtype, name=f"gpuResultSet{i}"
                )
            )
        for _ in range(n_workers):
            pinned_bufs.append(device.alloc_pinned((plan.buffer_size, width), dtype))
        if n_workers == 1:
            worker_loop(0)
        else:
            # one long-lived task per worker so each stream's device
            # buffer and pinned buffer are never shared between threads
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(worker_loop, w) for w in range(n_workers)]
                for f in futures:
                    f.result()
    finally:
        for buf in result_bufs:
            # regrow's failed-restore path can leave an already-freed
            # buffer in the list; re-freeing would be a memcheck hit
            if not buf.freed:
                buf.free()
        for pbuf in pinned_bufs:
            if not pbuf.freed:
                pbuf.free()
    return table
