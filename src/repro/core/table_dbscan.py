"""DBSCAN over a precomputed neighbor table ``T``.

Algorithm 4 replaces the ``NeighborSearch(p, ε, I)`` calls of Algorithm 1
with lookups into ``T``, and clusters with one rule: connected components
of the core–core graph (core points adjacent iff within ε), with every
border point joining the cluster of its **lowest-id core neighbor**.

``cluster_edges``
    That rule over any symmetric edge list: vectorized min-label
    hooking with pointer jumping (:func:`union_edges`) over the
    core–core edges, then border attachment (:func:`attach_borders`).
    :func:`dbscan_from_annotated_table` (edges filtered to a sub-ε), the
    per-shard reduce in :mod:`repro.core.sharding` and the incremental
    shard merge in :mod:`repro.core.placement` build on it.

``dbscan_from_table``
    The production path, the same rule over the table's memoized
    half-edge view (:meth:`NeighborTable.half_edges`): every edge
    ``u < v`` once, in ``B`` order, with both endpoint degrees.  The
    view depends on ``T`` alone, so it is built once per table and each
    ``minpts`` (S3's variants, the service's table-tier hits) costs two
    degree comparisons per half-edge: core–core half-edges go to
    :func:`union_edges`, the two orientations of the border half-edges
    to :func:`attach_borders`.  A ``minpts`` above every degree is all
    noise and never builds the view.

``dbscan_from_table_expand``
    A faithful adaptation of Algorithm 1 — sequential seed-point loop
    with breadth-first cluster expansion.  The semantic reference and
    test oracle.

The device path (:mod:`repro.core.device_cluster`) computes the same
clustering with union-find label kernels on the simulated device.

All paths produce *bit-identical* labels.  Original DBSCAN leaves border
points that are ε-reachable from several clusters to visitation order
(Ester et al. 1996); here every implementation resolves the tie by the
lowest-id core neighbor, so the outputs can be compared with
``np.array_equal``, no label-equivalence escape hatch needed.  Labels:
``-1`` is noise, clusters are ``0..k-1``, numbered by their lowest member
point id for determinism.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.neighbor_table import NeighborTable
from repro.index.base import check_eps, check_minpts

__all__ = [
    "NOISE",
    "dbscan_from_table_expand",
    "dbscan_from_table",
    "dbscan_from_annotated_table",
    "cluster_edges",
    "union_edges",
    "attach_borders",
    "core_mask",
    "canonicalize_labels",
]

NOISE = -1


def core_mask(table: NeighborTable, minpts: int) -> np.ndarray:
    """Boolean mask of core points: ``|N_ε(p)| >= minpts``.

    Note the neighborhood includes the point itself (dist(p, p) = 0 ≤ ε),
    as in the original DBSCAN formulation.
    """
    check_minpts(minpts)
    return table.neighbor_counts() >= minpts


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber clusters by their lowest member point id (noise stays -1).

    Vectorized (this sits on the thread-scaling hot path of scenario S3,
    so it must not hold the GIL in a Python loop).
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full_like(labels, NOISE)
    mask = labels != NOISE
    vals = labels[mask]
    if len(vals) == 0:
        return out
    uniq, first_idx = np.unique(vals, return_index=True)
    # rank unique labels by their first occurrence (lowest member id)
    order = np.argsort(first_idx, kind="stable")
    new_of = np.empty(len(uniq), dtype=np.int64)
    new_of[order] = np.arange(len(uniq))
    # map each label through uniq -> new id
    pos = np.searchsorted(uniq, vals)
    out[mask] = new_of[pos]
    return out


def dbscan_from_table_expand(table: NeighborTable, minpts: int) -> np.ndarray:
    """Algorithm 1 with ``T`` lookups (sequential cluster expansion).

    Cluster expansion walks core points breadth-first; border points are
    attached in a separate pass to their lowest-id core neighbor — the
    deterministic tie-break :func:`cluster_edges` (and the device path)
    uses, rather than BFS discovery order, so all implementations agree
    bit-for-bit.
    """
    n = table.n_points
    is_core = core_mask(table, minpts)
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for p in range(n):
        if not is_core[p] or labels[p] != NOISE:
            continue
        labels[p] = cluster
        frontier = deque([p])
        while frontier:
            q = frontier.popleft()
            for r in table.neighbors(q).tolist():
                if is_core[r] and labels[r] == NOISE:
                    labels[r] = cluster
                    frontier.append(r)
        cluster += 1
    # border attachment: lowest-id core neighbor, ties never depend on
    # the expansion order above
    for p in np.flatnonzero(~is_core):
        nbrs = table.neighbors(p)
        core_nbrs = nbrs[is_core[nbrs]]
        if len(core_nbrs):
            labels[p] = labels[core_nbrs.min()]
    return canonicalize_labels(labels)


def union_edges(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Union the undirected edges ``(a[i], b[i])`` into ``parent`` in place.

    ``parent`` is a flat min-root forest: every entry is the lowest id of
    its tree, so ``parent[parent] == parent``.  Each round hooks the
    higher root of every edge that still joins two trees under the
    lowest root it meets (min-label hooking), then pointer jumping
    flattens the forest again; only the edges still joining two trees go
    on to the next round.  Hooks always point to a lower id, so no cycle
    can form, and on return every entry is the lowest id of its
    component whatever the edge order.
    """
    # index with intp: narrower ids would be converted on every gather
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    while len(a):
        hi, rb = parent[a], parent[b]
        lo = np.minimum(hi, rb)
        np.maximum(hi, rb, out=hi)  # in place: one root array fewer alive
        del rb
        # an edge inside one tree hooks its root under itself: a no-op
        np.minimum.at(parent, hi, lo)
        del hi, lo
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent[:] = jumped
        split = parent[a] != parent[b]
        a, b = a[split], b[split]


def attach_borders(
    is_core: np.ndarray, roots: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw labels from a flat core forest plus border attachment.

    A core point takes its root in ``roots``; a non-core point with a
    core neighbor along the edges ``src -> dst`` takes the root of its
    **lowest-id** core neighbor; every other point is noise.  Returns
    ``(raw, attach)``: ``attach`` holds each attached border point's
    lowest-id core neighbor and -1 elsewhere, as the device
    ``BorderAttach`` kernel records it.
    """
    n = len(is_core)
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    raw = np.where(is_core, roots, NOISE)
    b = ~is_core[src] & is_core[dst]
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, src[b], dst[b])
    attach = np.where(lowest < n, lowest, NOISE)
    border = attach >= 0
    raw[border] = roots[attach[border]]
    return raw, attach


def cluster_edges(
    is_core: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 4's clustering rule over a symmetric edge list.

    Components of the core–core edges (:func:`union_edges`; ``T`` is
    symmetric, so only the ``src < dst`` direction of each edge is
    kept), then border attachment (:func:`attach_borders`).  Returns
    ``(raw, attach)``: ``raw`` is, per point, the minimum core id of its
    component (borders take their attach core's) or -1 for noise — the
    device path's ``raw_labels`` exactly; :func:`canonicalize_labels`
    turns it into the final labels.
    """
    parent = np.arange(len(is_core), dtype=np.int64)
    cc = is_core[src] & is_core[dst] & (src < dst)
    union_edges(parent, src[cc], dst[cc])
    return attach_borders(is_core, parent, src, dst)


def dbscan_from_annotated_table(
    table: NeighborTable, minpts: int, eps: float
) -> np.ndarray:
    """DBSCAN at ``eps ≤ table.eps`` from a distance-annotated table.

    Because every entry of an annotated ``T`` carries its distance, the
    ε'-neighborhood for any ε' ≤ ε is a filtered view — one table built
    at the sweep's largest ε serves the whole S2 sweep (the multi-ε
    extension of the paper's S3 reuse idea).
    """
    if not table.with_distances:
        raise ValueError("requires a table built with_distances=True")
    check_eps(eps)
    if eps > table.eps + 1e-12:
        raise ValueError(
            f"table was built for eps={table.eps}; cannot query eps={eps}"
        )
    check_minpts(minpts)
    src, dst, pos = table.edges_with_positions()
    keep = table.distances[pos] <= eps
    src, dst = src[keep], dst[keep]
    is_core = np.bincount(src, minlength=table.n_points) >= minpts
    return canonicalize_labels(cluster_edges(is_core, src, dst)[0])


def dbscan_from_table(table: NeighborTable, minpts: int) -> np.ndarray:
    """DBSCAN over ``T`` from its half-edge view (the production path)."""
    is_core = core_mask(table, minpts)
    if not is_core.any():  # all noise: leave the half-edge view unbuilt
        return np.full(table.n_points, NOISE, dtype=np.int64)
    half = table.half_edges()
    core_u = half.deg_src >= minpts
    core_v = half.deg_dst >= minpts
    # roots in the view's narrow id type: half the bytes per union round
    parent = np.arange(table.n_points, dtype=half.src.dtype)
    cc = core_u & core_v
    union_edges(parent, half.src[cc], half.dst[cc])
    # a border half-edge joins a non-core and a core point; attach
    # wants it oriented border -> core
    to_v = core_v & ~core_u
    to_u = core_u & ~core_v
    src = np.concatenate((half.src[to_v], half.dst[to_u]))
    dst = np.concatenate((half.dst[to_v], half.src[to_u]))
    return canonicalize_labels(attach_borders(is_core, parent, src, dst)[0])
