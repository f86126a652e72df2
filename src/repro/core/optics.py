"""OPTICS over an annotated neighbor table (extension).

The paper contrasts its S3 reuse with OPTICS (Ankerst et al. 1999),
"the opposite configuration, where minpts is fixed and ε is varied".
With an annotated table the same GPU-built neighborhoods drive OPTICS
directly: core-distances come from the per-neighbor distances, and the
reachability ordering is computed on the host — the natural companion
to HYBRID-DBSCAN for density scans.

``extract_dbscan`` recovers a DBSCAN clustering at any ε' ≤ ε from the
reachability plot, equivalent to DBSCAN(ε', minpts) up to the usual
border-point ambiguity (property-tested against the table DBSCAN).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.neighbor_table import NeighborTable
from repro.core.table_dbscan import NOISE, canonicalize_labels
from repro.index.base import check_eps, check_minpts

__all__ = ["OpticsResult", "optics", "core_distances", "extract_dbscan"]

UNDEFINED = np.inf


def core_distances(table: NeighborTable, minpts: int) -> np.ndarray:
    """Core-distance of every point: the ``minpts``-th smallest distance
    in its ε-neighborhood (∞ when |N_ε(p)| < minpts).

    The neighborhood includes the point itself at distance 0, as in the
    DBSCAN/OPTICS formulation.
    """
    if not table.with_distances:
        raise ValueError("requires an annotated table")
    check_minpts(minpts)
    n = table.n_points
    out = np.full(n, UNDEFINED, dtype=np.float64)
    counts = table.neighbor_counts()
    eligible = np.flatnonzero(counts >= minpts)
    for p in eligible:
        d = table.neighbor_distances(int(p))
        # minpts-th smallest (1-indexed); argpartition avoids full sort
        k = minpts - 1
        out[p] = np.partition(d, k)[k]
    return out


@dataclass
class OpticsResult:
    """Cluster-ordering output of OPTICS."""

    #: visit order of all points
    order: np.ndarray
    #: reachability-distance of each point (indexed by point id; ∞ for
    #: each expansion's starting point)
    reachability: np.ndarray
    #: core-distance of each point (∞ for non-core)
    core_distance: np.ndarray
    eps: float
    minpts: int

    def reachability_plot(self) -> np.ndarray:
        """Reachability values in visit order (the OPTICS plot)."""
        return self.reachability[self.order]


def optics(table: NeighborTable, minpts: int) -> OpticsResult:
    """Compute the OPTICS cluster ordering from an annotated table.

    ε is the table's construction ε (the generating distance); all
    neighborhoods were already materialized on the (simulated) GPU, so
    this is pure host-side ordering work.
    """
    cd = core_distances(table, minpts)
    n = table.n_points
    processed = np.zeros(n, dtype=bool)
    reach = np.full(n, UNDEFINED, dtype=np.float64)
    order: list[int] = []

    def update(p: int, seeds: list) -> None:
        """Relax reachability of p's unprocessed neighbors."""
        nbrs = table.neighbors(p)
        dists = table.neighbor_distances(p)
        unproc = ~processed[nbrs]
        new_reach = np.maximum(cd[p], dists[unproc])
        for o, r in zip(nbrs[unproc], new_reach, strict=True):
            if r < reach[o]:
                reach[o] = r
                heapq.heappush(seeds, (r, int(o)))

    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        order.append(start)
        if np.isfinite(cd[start]):
            seeds: list = []
            update(start, seeds)
            while seeds:
                r, q = heapq.heappop(seeds)
                if processed[q] or r > reach[q]:
                    continue  # stale heap entry
                processed[q] = True
                order.append(q)
                if np.isfinite(cd[q]):
                    update(q, seeds)

    return OpticsResult(
        order=np.array(order, dtype=np.int64),
        reachability=reach,
        core_distance=cd,
        eps=table.eps,
        minpts=minpts,
    )


def extract_dbscan(result: OpticsResult, eps: float) -> np.ndarray:
    """DBSCAN-equivalent labels at ``eps ≤ result.eps`` from the
    reachability ordering (ExtractDBSCAN-Clustering of the OPTICS
    paper)."""
    check_eps(eps)
    if eps > result.eps + 1e-12:
        raise ValueError(
            f"ordering was computed for eps={result.eps}; cannot extract {eps}"
        )
    n = len(result.order)
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = -1
    for p in result.order:
        if result.reachability[p] > eps:
            if result.core_distance[p] <= eps:
                cluster += 1
                labels[p] = cluster
            # else: noise (may be re-claimed as border by a later scan
            # in the original; our core-first assignment matches DBSCAN
            # up to border ambiguity)
        else:
            labels[p] = cluster
    return canonicalize_labels(labels)
