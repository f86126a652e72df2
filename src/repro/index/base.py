"""Index protocol and the brute-force reference index."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["SpatialIndex", "BruteForceIndex", "as_points", "check_eps"]


def as_points(points: np.ndarray) -> np.ndarray:
    """Validate and normalize a 2-D point array to float64 ``(n, 2)``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return np.ascontiguousarray(pts)


def check_eps(eps: float) -> None:
    """Reject a non-finite or non-positive ``eps`` (NaN fails every
    ``eps <= 0`` guard, so finiteness is checked first)."""
    if not np.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be positive and finite, got {eps}")


@runtime_checkable
class SpatialIndex(Protocol):
    """What DBSCAN needs from an index: an ε-range query."""

    points: np.ndarray

    def range_query(self, point_id: int, eps: float) -> np.ndarray:
        """IDs of all points within ``eps`` of point ``point_id``
        (inclusive boundary, including the point itself)."""
        ...


class BruteForceIndex:
    """O(n) scan per query — the semantic ground truth.

    Used by tests to validate the grid index, the R-tree, and both GPU
    kernels; never used on the hot path.
    """

    def __init__(self, points: np.ndarray):
        self.points = as_points(points)

    def __len__(self) -> int:
        return len(self.points)

    def range_query(self, point_id: int, eps: float) -> np.ndarray:
        p = self.points[point_id]
        d2 = ((self.points - p) ** 2).sum(axis=1)
        return np.flatnonzero(d2 <= eps * eps)

    def range_query_coords(self, xy: np.ndarray, eps: float) -> np.ndarray:
        d2 = ((self.points - np.asarray(xy)) ** 2).sum(axis=1)
        return np.flatnonzero(d2 <= eps * eps)

    def all_pairs(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """All ``(i, j)`` with ``dist <= eps`` (including ``i == j``),
        sorted by key then value — the ground-truth neighbor relation."""
        pts = self.points
        d2 = (
            (pts[:, None, :] - pts[None, :, :]) ** 2
        ).sum(axis=2)
        keys, values = np.nonzero(d2 <= eps * eps)
        return keys.astype(np.int64), values.astype(np.int64)
