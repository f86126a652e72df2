"""Neighbor-table reuse across minpts values (Section VII-F, scenario S3).

With ε fixed, the neighbor table ``T`` is independent of ``minpts``: it
is computed **once** and then consumed concurrently by up to 16 threads,
each running the table-DBSCAN for a different ``minpts`` — the paper's
largest throughput win (27×–54× over clustering each variant with the
reference implementation).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.hostsim import schedule_parallel
from repro.index.base import check_minpts

__all__ = [
    "ReuseVariantError",
    "ReuseVariantOutcome",
    "ReuseResult",
    "cluster_with_reuse",
]


class ReuseVariantError(RuntimeError):
    """One minpts variant's worker failed (``mode="threads"``).

    Carried on :attr:`ReuseVariantOutcome.error` instead of propagating,
    so one poisoned variant cannot take down the surviving 15 threads'
    results; ``cause`` is the original exception.
    """

    def __init__(self, minpts: int, cause: BaseException):
        super().__init__(f"minpts={minpts} variant failed: {cause!r}")
        self.minpts = int(minpts)
        self.cause = cause


@dataclass
class ReuseVariantOutcome:
    minpts: int
    n_clusters: int
    n_noise: int
    dbscan_s: float
    labels: Optional[np.ndarray] = None
    #: set when this variant's worker raised (mode="threads" only)
    error: Optional[ReuseVariantError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ReuseResult:
    """Outcome of one S3 run (single ε, many minpts)."""

    eps: float
    n_threads: int
    build_s: float
    cluster_s: float
    total_s: float
    outcomes: list[ReuseVariantOutcome] = field(default_factory=list)
    #: "simulate" (modeled makespan over simulated cores) or "threads"
    mode: str = "simulate"
    #: serial sum of per-variant DBSCAN times (simulate mode)
    cluster_serial_s: float = 0.0

    @property
    def minpts_values(self) -> list[int]:
        return [o.minpts for o in self.outcomes]

    @property
    def failed_minpts(self) -> list[int]:
        """Variants whose worker raised (always empty in simulate mode)."""
        return [o.minpts for o in self.outcomes if not o.ok]

    @property
    def thread_speedup(self) -> float:
        """Speedup of the concurrent clustering phase over serial."""
        return self.cluster_serial_s / self.cluster_s if self.cluster_s else 1.0


def cluster_with_reuse(
    points: np.ndarray,
    eps: float,
    minpts_values: Sequence[int],
    *,
    hybrid: Optional[HybridDBSCAN] = None,
    n_threads: int = 1,
    keep_labels: bool = False,
    mode: str = "simulate",
) -> ReuseResult:
    """Build ``T`` once, then cluster every ``minpts`` with ``n_threads``
    concurrent workers.

    ``mode="simulate"`` (default) runs every variant serially — results
    are exact — and models the concurrent clustering phase's makespan by
    list-scheduling the measured per-variant times onto ``n_threads``
    simulated cores (see :mod:`repro.hostsim`).  ``mode="threads"`` uses
    real OS threads; meaningful only on a multicore host.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    if not minpts_values:
        raise ValueError("minpts_values must be non-empty")
    for m in minpts_values:  # before the build, which checks points and ε
        check_minpts(m)
    if mode not in ("simulate", "threads"):
        raise ValueError(f"unknown mode {mode!r}")
    h = hybrid or HybridDBSCAN()
    t_start = time.perf_counter()
    grid, table, _ = h.build_table(points, eps)
    build_s = time.perf_counter() - t_start

    def one(minpts: int) -> ReuseVariantOutcome:
        t0 = time.perf_counter()
        labels = h.cluster_table(grid, table, minpts)
        dt = time.perf_counter() - t0
        return ReuseVariantOutcome(
            minpts=int(minpts),
            n_clusters=int(labels.max()) + 1 if (labels != NOISE).any() else 0,
            n_noise=int((labels == NOISE).sum()),
            dbscan_s=dt,
            labels=labels if keep_labels else None,
        )

    def one_captured(minpts: int) -> ReuseVariantOutcome:
        # threads mode: a raising variant must not poison the pool —
        # capture into the outcome so the surviving variants still
        # return (simulate mode stays strict and propagates)
        t0 = time.perf_counter()
        try:
            return one(minpts)
        except Exception as exc:
            return ReuseVariantOutcome(
                minpts=int(minpts),
                n_clusters=0,
                n_noise=0,
                dbscan_s=time.perf_counter() - t0,
                error=ReuseVariantError(minpts, exc),
            )

    t_cluster = time.perf_counter()
    if mode == "simulate":
        outcomes = [one(m) for m in minpts_values]
        sched = schedule_parallel([o.dbscan_s for o in outcomes], n_threads)
        cluster_s = sched.makespan_s
        serial_s = sched.serial_s
        total_s = build_s + cluster_s
    else:
        if n_threads == 1:
            outcomes = [one_captured(m) for m in minpts_values]
        else:
            with ThreadPoolExecutor(
                max_workers=n_threads, thread_name_prefix="reuse"
            ) as pool:
                outcomes = list(pool.map(one_captured, minpts_values))
        cluster_s = time.perf_counter() - t_cluster
        serial_s = sum(o.dbscan_s for o in outcomes)
        total_s = time.perf_counter() - t_start

    return ReuseResult(
        eps=float(eps),
        n_threads=n_threads,
        build_s=build_s,
        cluster_s=cluster_s,
        total_s=total_s,
        outcomes=outcomes,
        mode=mode,
        cluster_serial_s=serial_s,
    )
