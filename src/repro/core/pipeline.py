"""The multi-clustering pipeline of Section VII-E (scenario S2).

Clustering a dataset under many variants admits producer/consumer
overlap: while DBSCAN consumes the neighbor table ``T(v_i)``, the
producer is already building ``T(v_{i+1})`` on the GPU.  The producer
itself spawns the 3 batching threads of Section VI, and up to
``n_consumers`` threads run DBSCAN on completed tables.

The non-pipelined mode executes variants strictly one after another —
the comparison Figure 4 and Table IV make.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.batching import RecoveryStats
from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.core.variants import Variant, VariantSet
from repro.hostsim import schedule_pipeline
from repro.index.base import validate_inputs

__all__ = ["VariantOutcome", "PipelineResult", "MultiClusterPipeline"]


@dataclass
class VariantOutcome:
    """Per-variant result of a pipeline run."""

    variant: Variant
    n_clusters: int
    n_noise: int
    build_s: float
    dbscan_s: float
    labels: Optional[np.ndarray] = None
    #: overflow/transfer recovery accounting of this variant's build
    recovery: RecoveryStats = field(default_factory=RecoveryStats)


@dataclass
class PipelineResult:
    """Outcome of clustering a whole variant set."""

    outcomes: list[VariantOutcome]
    total_s: float
    pipelined: bool
    #: "simulate" (modeled makespan) or "threads" (real threads)
    mode: str = "simulate"

    @property
    def sum_build_s(self) -> float:
        return sum(o.build_s for o in self.outcomes)

    @property
    def sum_dbscan_s(self) -> float:
        return sum(o.dbscan_s for o in self.outcomes)

    @property
    def recovery(self) -> RecoveryStats:
        """Aggregate recovery accounting across every variant's build."""
        total = RecoveryStats()
        for o in self.outcomes:
            total.merge(o.recovery)
        return total


class MultiClusterPipeline:
    """Throughput-oriented execution of a :class:`VariantSet`."""

    def __init__(
        self,
        hybrid: Optional[HybridDBSCAN] = None,
        *,
        n_consumers: int = 3,
        queue_depth: int = 2,
        keep_labels: bool = False,
        sanitize: Optional[bool] = None,
    ):
        if n_consumers < 1:
            raise ValueError("n_consumers must be >= 1")
        if queue_depth < 1:
            # queue.Queue(maxsize=0) would silently mean *unbounded* in
            # threads mode while the simulated model deadlocks — reject
            # the ambiguity at construction
            raise ValueError("queue_depth must be >= 1")
        self.hybrid = hybrid or HybridDBSCAN(sanitize=sanitize)
        self.n_consumers = n_consumers
        self.queue_depth = queue_depth
        self.keep_labels = keep_labels

    # ------------------------------------------------------------------
    def run(
        self,
        points: np.ndarray,
        variants: VariantSet,
        *,
        pipelined: bool = True,
        mode: str = "simulate",
    ) -> PipelineResult:
        """Cluster every variant; returns outcomes plus total time.

        ``mode="simulate"`` (default) executes variants one after the
        other — producing exact results and per-variant timings — and,
        when ``pipelined=True``, reports the producer/consumer makespan
        modeled over simulated cores (:mod:`repro.hostsim`).
        ``mode="threads"`` uses a real producer thread and consumer
        pool; meaningful only on a multicore host.
        """
        if mode not in ("simulate", "threads"):
            raise ValueError(f"unknown mode {mode!r}")
        # checked once, before any build, at the finest grid (smallest ε)
        finest = min(variants, key=lambda v: v.eps)
        points = validate_inputs(points, finest.eps, finest.minpts)
        if not pipelined:
            return self._run_sequential(points, variants)
        if mode == "simulate":
            return self._run_pipelined_simulated(points, variants)
        return self._run_pipelined(points, variants)

    def _run_pipelined_simulated(
        self, points: np.ndarray, variants: VariantSet
    ) -> PipelineResult:
        seq = self._run_sequential(points, variants)
        sched = schedule_pipeline(
            [o.build_s for o in seq.outcomes],
            [o.dbscan_s for o in seq.outcomes],
            self.n_consumers,
            queue_depth=self.queue_depth,
        )
        return PipelineResult(
            outcomes=seq.outcomes,
            total_s=sched.makespan_s,
            pipelined=True,
            mode="simulate",
        )

    # ------------------------------------------------------------------
    def _cluster(
        self,
        grid,
        table,
        variant: Variant,
        build_s: float,
        recovery: Optional[RecoveryStats] = None,
    ) -> VariantOutcome:
        t0 = time.perf_counter()
        labels = self.hybrid.cluster_table(grid, table, variant.minpts)
        dbscan_s = time.perf_counter() - t0
        return VariantOutcome(
            variant=variant,
            n_clusters=int(labels.max()) + 1 if (labels != NOISE).any() else 0,
            n_noise=int((labels == NOISE).sum()),
            build_s=build_s,
            dbscan_s=dbscan_s,
            labels=labels if self.keep_labels else None,
            recovery=recovery or RecoveryStats(),
        )

    def _run_sequential(
        self, points: np.ndarray, variants: VariantSet
    ) -> PipelineResult:
        t_start = time.perf_counter()
        outcomes = []
        for v in variants:
            t0 = time.perf_counter()
            grid, table, timings = self.hybrid.build_table(points, v.eps)
            build_s = time.perf_counter() - t0
            outcomes.append(
                self._cluster(grid, table, v, build_s, timings.recovery)
            )
        return PipelineResult(
            outcomes=outcomes,
            total_s=time.perf_counter() - t_start,
            pipelined=False,
            mode="serial",
        )

    def _run_pipelined(
        self, points: np.ndarray, variants: VariantSet
    ) -> PipelineResult:
        t_start = time.perf_counter()
        work: queue.Queue = queue.Queue(maxsize=self.queue_depth)
        outcomes: list[Optional[VariantOutcome]] = [None] * len(variants)
        errors: list[BaseException] = []
        # set on the first producer OR consumer error; every blocking
        # queue operation polls it, so a dead consumer can never leave
        # the producer stuck on a full queue (and vice versa)
        stop = threading.Event()

        def _put(item) -> bool:
            while not stop.is_set():
                try:
                    work.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def producer() -> None:
            try:
                for i, v in enumerate(variants):
                    if stop.is_set():
                        return
                    t0 = time.perf_counter()
                    grid, table, timings = self.hybrid.build_table(points, v.eps)
                    build_s = time.perf_counter() - t0
                    if not _put((i, v, grid, table, build_s, timings.recovery)):
                        return
            except BaseException as exc:  # surface in the caller
                errors.append(exc)
                stop.set()
            finally:
                for _ in range(self.n_consumers):
                    if not _put(None):
                        break

        def consumer() -> None:
            while True:
                try:
                    item = work.get(timeout=0.05)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                if item is None:
                    return
                i, v, grid, table, build_s, recovery = item
                try:
                    outcomes[i] = self._cluster(grid, table, v, build_s, recovery)
                except BaseException as exc:  # propagate, don't deadlock
                    errors.append(exc)
                    stop.set()
                    # drain pending work so the producer unblocks promptly
                    try:
                        while True:
                            work.get_nowait()
                    except queue.Empty:
                        pass
                    return

        prod = threading.Thread(target=producer, name="table-producer")
        prod.start()
        with ThreadPoolExecutor(
            max_workers=self.n_consumers, thread_name_prefix="dbscan"
        ) as pool:
            futures = [pool.submit(consumer) for _ in range(self.n_consumers)]
            for f in futures:
                f.result()
        prod.join()
        if errors:
            raise errors[0]
        assert all(o is not None for o in outcomes)
        return PipelineResult(
            outcomes=outcomes,  # type: ignore[arg-type]
            total_s=time.perf_counter() - t_start,
            pipelined=True,
            mode="threads",
        )
