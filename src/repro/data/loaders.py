"""Point I/O and normalization utilities.

The SW datasets the paper uses are published as flat point files
(dbscandat.zip); these loaders accept the equivalent ``.npy``/``.csv``
layouts so real data can be dropped in for the synthetic analogues.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.index.base import as_points
from repro.index.grid import point_extent

__all__ = ["load_points", "save_points", "normalize_extent", "bounding_box"]

PathLike = Union[str, Path]


def load_points(path: PathLike) -> np.ndarray:
    """Load an ``(n, 2)`` point array from ``.npy`` or ``.csv``/``.txt``.

    CSV files may carry extra columns (the SW files carry measurement
    metadata); only the first two are used.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(p)
    if p.suffix == ".npy":
        arr = np.load(p)
    elif p.suffix in (".csv", ".txt", ".dat"):
        arr = np.loadtxt(p, delimiter="," if p.suffix == ".csv" else None, ndmin=2)
    else:
        raise ValueError(f"unsupported point file type: {p.suffix}")
    return as_points(arr[:, :2] if arr.ndim == 2 else arr)


def save_points(points: np.ndarray, path: PathLike) -> Path:
    """Save points as ``.npy`` (exact) or ``.csv``."""
    pts = as_points(points)
    p = Path(path)
    if p.suffix == ".npy":
        np.save(p, pts)
    elif p.suffix == ".csv":
        np.savetxt(p, pts, delimiter=",", fmt="%.17g")
    else:
        raise ValueError(f"unsupported point file type: {p.suffix}")
    return p


def bounding_box(points: np.ndarray) -> tuple[float, float, float, float]:
    """``(xmin, ymin, xmax, ymax)`` of a point set."""
    return point_extent(as_points(points))


def normalize_extent(points: np.ndarray, side: float = 1.0) -> np.ndarray:
    """Translate/scale points into ``[0, side]²`` preserving aspect ratio."""
    pts = as_points(points)
    xmin, ymin, xmax, ymax = bounding_box(pts)
    span = max(xmax - xmin, ymax - ymin)
    if span == 0:
        return np.zeros_like(pts)
    return (pts - np.array([xmin, ymin])) * (side / span)
