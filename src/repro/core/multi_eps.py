"""Multi-ε reuse of one annotated neighbor table (extension).

The paper reuses ``T`` across *minpts* values (scenario S3) but rebuilds
it for every ε of a sweep (scenario S2), because ``T`` only stores
neighbor *ids*.  An **annotated** table additionally stores each
neighbor's distance, so one table built at the sweep's largest ε yields
the exact ε'-neighborhood for every smaller ε' by filtering — turning
the whole S2 sweep into a single GPU table build plus host-side
filtered clusterings.

The trade-off this module lets you measure: the annotated result set is
50% larger per entry (3 columns vs 2), and a table at ε_max is much
larger than one at a small ε — but it is built **once**.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE, dbscan_from_annotated_table
from repro.hostsim import schedule_parallel
from repro.index.base import check_eps, check_minpts

__all__ = ["EpsSweepOutcome", "EpsSweepResult", "cluster_eps_sweep"]


@dataclass
class EpsSweepOutcome:
    eps: float
    n_clusters: int
    n_noise: int
    dbscan_s: float
    labels: Optional[np.ndarray] = None


@dataclass
class EpsSweepResult:
    """Outcome of a multi-ε sweep off one annotated table."""

    eps_max: float
    minpts: int
    build_s: float
    cluster_s: float
    total_s: float
    n_threads: int
    table_pairs: int
    outcomes: list[EpsSweepOutcome] = field(default_factory=list)

    @property
    def eps_values(self) -> list[float]:
        return [o.eps for o in self.outcomes]


def cluster_eps_sweep(
    points: np.ndarray,
    eps_values: Sequence[float],
    minpts: int,
    *,
    hybrid: Optional[HybridDBSCAN] = None,
    n_threads: int = 1,
    keep_labels: bool = False,
) -> EpsSweepResult:
    """Cluster ``points`` at every ε in ``eps_values`` from ONE table.

    Builds an annotated table at ``max(eps_values)``, then runs the
    filtered DBSCAN per ε (results identical to per-ε HYBRID-DBSCAN;
    property-tested).  Like S3, the per-ε clusterings are independent,
    so the clustering phase's concurrent makespan over ``n_threads``
    simulated cores is reported alongside.
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("eps_values must be non-empty")
    # before the table build, which checks the points (at the largest ε)
    check_minpts(minpts)
    for e in eps_values:
        check_eps(e)
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    h = hybrid or HybridDBSCAN()
    if h.kernel != "global":
        raise ValueError("multi-eps reuse requires the global kernel")
    eps_max = max(eps_values)

    t0 = time.perf_counter()
    grid, table, _ = h.build_table(points, eps_max, with_distances=True)
    build_s = time.perf_counter() - t0

    outcomes: list[EpsSweepOutcome] = []
    for eps in eps_values:
        t1 = time.perf_counter()
        labels_sorted = dbscan_from_annotated_table(table, minpts, eps)
        labels = np.empty_like(labels_sorted)
        labels[grid.sort_order] = labels_sorted
        dt = time.perf_counter() - t1
        outcomes.append(
            EpsSweepOutcome(
                eps=eps,
                n_clusters=int(labels.max()) + 1 if (labels != NOISE).any() else 0,
                n_noise=int((labels == NOISE).sum()),
                dbscan_s=dt,
                labels=labels if keep_labels else None,
            )
        )

    sched = schedule_parallel([o.dbscan_s for o in outcomes], n_threads)
    return EpsSweepResult(
        eps_max=eps_max,
        minpts=int(minpts),
        build_s=build_s,
        cluster_s=sched.makespan_s,
        total_s=build_s + sched.makespan_s,
        n_threads=n_threads,
        table_pairs=table.total_pairs,
        outcomes=outcomes,
    )
