"""The neighbor table ``T`` of Sections III and V.

``T`` maps every point ``p_i`` to its ε-neighborhood as an inclusive
range ``[T_min_i, T_max_i]`` into a host value array ``B``: if ``p_j`` is
within ε of ``p_i`` then ``j ∈ {B[T_min_i], ..., B[T_max_i]}``.

The table is built incrementally from batches: each batch's result set
arrives key-sorted in a pinned staging buffer, its *values* are copied
into ``B`` (the keys are consumed as run boundaries only — the paper's
"we only copy the values" optimization), and the ranges of the keys in
that batch are set.  Every point's whole neighborhood is produced by a
single batch, so ranges never straddle batches.

The ranges tile ``B`` without gaps, so every whole-table edge
enumeration walks ``B`` in storage order: the row ids sorted by
``T_min``, each repeated over its range, pair with ``B`` itself — no
per-entry range expansion and no gather.  :meth:`NeighborTable.half_edges`
memoizes the ``u < v`` half of that enumeration with both endpoint
degrees, the ``minpts``-independent input of every table-DBSCAN call.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from repro._nputil import expand_ranges, run_boundaries

__all__ = ["HalfEdges", "NeighborTable"]


class HalfEdges(NamedTuple):
    """The edges ``u < v`` of ``T`` in ``B`` order, with the degrees
    ``|N_ε(u)|`` and ``|N_ε(v)|`` of both endpoints.

    Ids are ``int32`` (``int64`` past 2**31 points) and degrees the
    smallest unsigned type holding the largest degree: a cached table
    holds its view for as long as it serves hits.
    """

    src: np.ndarray
    dst: np.ndarray
    deg_src: np.ndarray
    deg_dst: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self)


class NeighborTable:
    """Host-side ε-neighborhood table (the paper's ``T`` and ``B``)."""

    def __init__(self, n_points: int, eps: float, *, with_distances: bool = False):
        if n_points <= 0:
            raise ValueError("n_points must be positive")
        self.n_points = int(n_points)
        self.eps = float(eps)
        #: annotated tables also carry dist(p_i, B[j]) for every entry,
        #: enabling reuse at any ε' ≤ ε and OPTICS (extension)
        self.with_distances = bool(with_distances)
        self.t_min = np.full(n_points, -1, dtype=np.int64)
        self.t_max = np.full(n_points, -1, dtype=np.int64)
        self._chunks: list[np.ndarray] = []
        self._dist_chunks: list[np.ndarray] = []
        self._cursor = 0
        self._values: Optional[np.ndarray] = None
        self._dist: Optional[np.ndarray] = None
        self._half: Optional[HalfEdges] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_batch(
        self,
        sorted_keys: np.ndarray,
        values: np.ndarray,
        distances: Optional[np.ndarray] = None,
    ) -> None:
        """Ingest one batch's key-sorted result set.

        ``sorted_keys``/``values`` come from the pinned staging buffer
        (already sorted by key on the device).  Thread-safe: batches from
        the 3 stream workers may arrive concurrently.  Annotated tables
        require the matching ``distances`` column.
        """
        if len(sorted_keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if self.with_distances:
            if distances is None or len(distances) != len(values):
                raise ValueError(
                    "annotated table requires a distances column of equal length"
                )
        elif distances is not None:
            raise ValueError("table was not created with_distances")
        if len(sorted_keys) == 0:
            return
        keys, starts, ends = run_boundaries(np.asarray(sorted_keys))
        if keys.min() < 0 or keys.max() >= self.n_points:
            raise ValueError("key out of range for this table")
        # the copy out of pinned memory the paper describes (values only)
        chunk = np.array(values, dtype=np.int64, copy=True)
        with self._lock:
            if self._values is not None:
                raise RuntimeError("table already finalized")
            if np.any(self.t_min[keys] >= 0):
                raise ValueError("a key appeared in two batches")
            offset = self._cursor
            self._cursor += len(chunk)
            self._chunks.append(chunk)
            if self.with_distances:
                self._dist_chunks.append(
                    np.array(distances, dtype=np.float64, copy=True)
                )
            self.t_min[keys] = offset + starts
            self.t_max[keys] = offset + ends - 1  # inclusive

    def finalize(self) -> "NeighborTable":
        """Assemble ``B`` from the batch chunks; idempotent."""
        with self._lock:
            if self._values is None:
                self._values = (
                    np.concatenate(self._chunks)
                    if self._chunks
                    else np.empty(0, dtype=np.int64)
                )
                self._chunks = []
                if self.with_distances:
                    self._dist = (
                        np.concatenate(self._dist_chunks)
                        if self._dist_chunks
                        else np.empty(0, dtype=np.float64)
                    )
                    self._dist_chunks = []
        return self

    @property
    def values(self) -> np.ndarray:
        """The value array ``B`` (finalizes on first access)."""
        if self._values is None:
            self.finalize()
        assert self._values is not None
        return self._values

    @property
    def distances(self) -> np.ndarray:
        """Per-entry distances aligned with ``values`` (annotated only)."""
        if not self.with_distances:
            raise ValueError("table was built without distances")
        if self._dist is None:
            self.finalize()
        assert self._dist is not None
        return self._dist

    @property
    def total_pairs(self) -> int:
        """|R| — total key/value pairs ingested."""
        return self._cursor

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        """ε-neighborhood of point ``i`` (a view into ``B``)."""
        lo = self.t_min[i]
        if lo < 0:
            return np.empty(0, dtype=np.int64)
        return self.values[lo : self.t_max[i] + 1]

    def neighbor_distances(self, i: int) -> np.ndarray:
        """Distances aligned with :meth:`neighbors` (annotated only)."""
        lo = self.t_min[i]
        if lo < 0:
            return np.empty(0, dtype=np.float64)
        return self.distances[lo : self.t_max[i] + 1]

    def neighbor_counts(self) -> np.ndarray:
        """|N_ε(p_i)| for all points, vectorized."""
        counts = self.t_max - self.t_min + 1
        counts[self.t_min < 0] = 0
        return counts

    @property
    def nbytes(self) -> int:
        """Bytes held: the ranges, ``B``, the distance column of an
        annotated table and the half-edge view once it is built."""
        arrays = [self.t_min, self.t_max, self.values]
        if self.with_distances:
            arrays.append(self.distances)
        half = self._half.nbytes if self._half is not None else 0
        return sum(a.nbytes for a in arrays) + half

    def _rows_in_b_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the points that own a range, sorted by ``T_min``,
        and their range lengths."""
        rows = np.flatnonzero(self.t_min >= 0)
        rows = rows[np.argsort(self.t_min[rows])]
        return rows, self.t_max[rows] - self.t_min[rows] + 1

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All (source, neighbor) pairs as two flat arrays, in ``B``
        order (the neighbor array is ``B`` itself: do not write to it)."""
        src, dst, _ = self.edges_with_positions()
        return src, dst

    def edges_with_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (source, neighbor, B-position) triples, in ``B`` order.

        The positions index ``B`` (and the ``distances`` column of an
        annotated table), letting callers filter edges by distance.
        """
        rows, counts = self._rows_in_b_order()
        values = self.values
        return np.repeat(rows, counts), values, np.arange(len(values))

    def half_edges(self) -> HalfEdges:
        """The memoized :class:`HalfEdges` view, built on first use.

        ``T`` is symmetric, so the ``u < v`` half holds every undirected
        edge once; the degrees let a caller select the core–core and
        border edges at any ``minpts`` with two comparisons.
        """
        values = self.values  # finalizes, under the lock, first
        with self._lock:
            if self._half is None:
                self._half = self._build_half_edges(values)
            return self._half

    def release_half_edges(self) -> None:
        """Drop the memoized view; the next :meth:`half_edges` rebuilds it."""
        with self._lock:
            self._half = None

    def _build_half_edges(self, values: np.ndarray) -> HalfEdges:
        ids = np.int32 if self.n_points <= np.iinfo(np.int32).max else np.int64
        rows, counts = self._rows_in_b_order()
        src = np.repeat(rows.astype(ids), counts)
        upper = src < values
        src, dst = src[upper], values[upper].astype(ids)
        deg = self.neighbor_counts()
        deg = deg.astype(np.min_scalar_type(int(deg.max())))
        return HalfEdges(src, dst, deg[src], deg[dst])

    def edges_for(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(source, neighbor) pairs restricted to source ids ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        src, flat = expand_ranges(ids, self.t_min[ids], self.t_max[ids])
        return src, self.values[flat]

    # ------------------------------------------------------------------
    # persistence — a built T is reusable across sessions (the paper's
    # preprocessing-for-reuse idea taken to disk)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the finalized table as ``.npz``.

        Metadata is stored as *typed* scalar entries (``n_points`` as
        int64, ``eps`` as float64, ``with_distances`` as bool) — the old
        single ``meta`` array silently upcast everything to float64,
        which loses integer exactness once ``n_points`` exceeds 2**53.
        :meth:`load` still accepts the legacy layout.
        """
        self.finalize()
        path = Path(path)
        arrays = {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "values": self.values,
            "n_points": np.int64(self.n_points),
            "eps": np.float64(self.eps),
            "with_distances": np.bool_(self.with_distances),
        }
        if self.with_distances:
            arrays["distances"] = self.distances
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NeighborTable":
        """Load a table written by :meth:`save` (validated).

        Accepts both the typed-scalar layout and the legacy float64
        ``meta`` array of earlier versions.  A file missing a required
        array (e.g. an annotated-flagged table whose ``distances`` never
        made it to disk — an interrupted save) or failing structural
        validation raises :class:`ValueError` naming the file and the
        corrupt field, not a bare ``KeyError``/``AssertionError``.
        """
        path = Path(path)
        with np.load(path) as data:
            if "n_points" in data:
                meta_missing = [
                    k for k in ("eps", "with_distances") if k not in data
                ]
                if meta_missing:
                    raise ValueError(
                        f"corrupt neighbor table {path}: missing metadata "
                        f"field(s) {meta_missing}"
                    )
                n_points = int(data["n_points"])
                eps = float(data["eps"])
                with_d = bool(data["with_distances"])
            elif "meta" in data:  # legacy: one float64 [n_points, eps, with_d]
                n_points_f, eps, with_d = data["meta"]
                n_points = int(n_points_f)
                with_d = bool(with_d)
            else:
                raise ValueError(
                    f"corrupt neighbor table {path}: neither 'n_points' "
                    f"nor legacy 'meta' metadata present"
                )
            required = ["t_min", "t_max", "values"]
            if with_d:
                required.append("distances")
            missing = [k for k in required if k not in data]
            if missing:
                raise ValueError(
                    f"corrupt neighbor table {path}: missing array(s) "
                    f"{missing}"
                    + (
                        " (with_distances is set but the distance column "
                        "was never written — interrupted save?)"
                        if "distances" in missing
                        else ""
                    )
                )
            table = cls(n_points, float(eps), with_distances=with_d)
            table.t_min = data["t_min"].astype(np.int64)
            table.t_max = data["t_max"].astype(np.int64)
            table._values = data["values"].astype(np.int64)
            table._cursor = len(table._values)
            if table.with_distances:
                table._dist = data["distances"].astype(np.float64)
        try:
            table.validate()
        except AssertionError as exc:
            raise ValueError(
                f"corrupt neighbor table {path}: {exc}"
            ) from exc
        return table

    # ------------------------------------------------------------------
    # invariants (tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        counts = self.neighbor_counts()
        assigned = self.t_min >= 0
        if np.any(self.t_max[assigned] < self.t_min[assigned]):
            raise AssertionError("t_max < t_min for an assigned point")
        if counts.sum() != len(self.values):
            raise AssertionError("range lengths do not cover B exactly")
        if np.any(assigned):
            # ranges must tile B without overlap
            order = np.argsort(self.t_min[assigned])
            mins = self.t_min[assigned][order]
            maxs = self.t_max[assigned][order]
            if mins[0] != 0 or maxs[-1] != len(self.values) - 1:
                raise AssertionError("ranges do not span B")
            if np.any(mins[1:] != maxs[:-1] + 1):
                raise AssertionError("ranges overlap or leave gaps in B")
        if len(self.values) and (
            self.values.min() < 0 or self.values.max() >= self.n_points
        ):
            raise AssertionError("neighbor id out of range")
        if self.with_distances:
            d = self.distances
            if len(d) != len(self.values):
                raise AssertionError("distance column misaligned with B")
            if len(d) and (d.min() < 0 or d.max() > self.eps + 1e-12):
                raise AssertionError("distance outside [0, eps]")
