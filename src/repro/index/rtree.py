"""An R-tree (Guttman) for the sequential reference implementation.

The paper's baseline (its reference [4]) is a sequential CPU DBSCAN over
an R-tree; Table I measures the fraction of total DBSCAN time spent in
R-tree range queries.  This is a faithful R-tree:

* **STR bulk loading** (sort-tile-recursive) for the construction path —
  the baseline builds its index once per dataset;
* **Quadratic-split insertion** for dynamic use (tested, not on the
  bench hot path);
* ε-range queries that descend only into nodes whose MBR intersects the
  query circle's bounding box, with per-leaf vectorized distance tests.

Node MBRs are stored as NumPy arrays so overlap tests inside a node are
vectorized, but the traversal itself is scalar Python — matching the
scalar nature of the paper's CPU baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.index.base import as_points

__all__ = ["RTree", "RTreeStats"]


@dataclass
class _Node:
    """One R-tree node: leaf nodes hold point ids, internal nodes hold children."""

    is_leaf: bool
    #: (n, 4) child/entry MBRs as [xmin, ymin, xmax, ymax]
    mbrs: np.ndarray
    #: leaf: (n,) point ids; internal: list of child _Node
    children: list | np.ndarray
    level: int = 0

    @property
    def mbr(self) -> np.ndarray:
        if len(self.mbrs) == 0:
            return np.array([np.inf, np.inf, -np.inf, -np.inf])
        return np.array(
            [
                self.mbrs[:, 0].min(),
                self.mbrs[:, 1].min(),
                self.mbrs[:, 2].max(),
                self.mbrs[:, 3].max(),
            ]
        )

    def __len__(self) -> int:
        return len(self.children)


@dataclass(frozen=True)
class RTreeStats:
    height: int
    n_nodes: int
    n_leaves: int
    max_entries: int


def _mbr_area(mbr: np.ndarray) -> float:
    return max(0.0, mbr[2] - mbr[0]) * max(0.0, mbr[3] - mbr[1])


def _mbr_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(
        [min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])]
    )


class RTree:
    """R-tree over 2-D points with STR bulk load and quadratic split."""

    def __init__(
        self,
        points: Optional[np.ndarray] = None,
        *,
        max_entries: int = 16,
        bulk: bool = True,
    ):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self.points = np.empty((0, 2), dtype=np.float64)
        self._root = _Node(
            is_leaf=True,
            mbrs=np.empty((0, 4), dtype=np.float64),
            children=np.empty(0, dtype=np.int64),
        )
        #: leaves visited across all queries (instrumentation)
        self.nodes_visited = 0
        self.queries = 0
        if points is not None:
            pts = as_points(points)
            if bulk:
                self._bulk_load(pts)
            else:
                for i in range(len(pts)):
                    self.insert(pts[i])

    # ------------------------------------------------------------------
    # STR bulk load
    # ------------------------------------------------------------------
    def _bulk_load(self, pts: np.ndarray) -> None:
        self.points = pts
        n = len(pts)
        ids = np.arange(n, dtype=np.int64)
        leaves = self._str_pack_leaves(ids)
        level = 1
        nodes = leaves
        while len(nodes) > 1:
            nodes = self._str_pack_internal(nodes, level)
            level += 1
        self._root = nodes[0]

    def _str_slices(self, count: int) -> int:
        """Number of vertical slabs for STR packing."""
        n_nodes = math.ceil(count / self.max_entries)
        return max(1, math.ceil(math.sqrt(n_nodes)))

    def _str_pack_leaves(self, ids: np.ndarray) -> list[_Node]:
        pts = self.points
        order_x = ids[np.argsort(pts[ids, 0], kind="stable")]
        s = self._str_slices(len(ids))
        slab_size = math.ceil(len(ids) / s)
        leaves: list[_Node] = []
        for i in range(0, len(order_x), slab_size):
            slab = order_x[i : i + slab_size]
            slab = slab[np.argsort(pts[slab, 1], kind="stable")]
            for j in range(0, len(slab), self.max_entries):
                group = slab[j : j + self.max_entries]
                xy = pts[group]
                mbrs = np.column_stack([xy, xy])  # degenerate point MBRs
                leaves.append(
                    _Node(is_leaf=True, mbrs=mbrs, children=group, level=0)
                )
        return leaves

    def _str_pack_internal(self, nodes: list[_Node], level: int) -> list[_Node]:
        centers = np.array([(n.mbr[0] + n.mbr[2]) / 2 for n in nodes])
        centers_y = np.array([(n.mbr[1] + n.mbr[3]) / 2 for n in nodes])
        order_x = np.argsort(centers, kind="stable")
        s = self._str_slices(len(nodes))
        slab_size = math.ceil(len(nodes) / s)
        out: list[_Node] = []
        for i in range(0, len(order_x), slab_size):
            slab = order_x[i : i + slab_size]
            slab = slab[np.argsort(centers_y[slab], kind="stable")]
            for j in range(0, len(slab), self.max_entries):
                group = [nodes[k] for k in slab[j : j + self.max_entries]]
                mbrs = np.array([g.mbr for g in group])
                out.append(
                    _Node(is_leaf=False, mbrs=mbrs, children=group, level=level)
                )
        return out

    # ------------------------------------------------------------------
    # dynamic insertion (Guttman, quadratic split)
    # ------------------------------------------------------------------
    def insert(self, xy: np.ndarray) -> int:
        """Insert a point; returns its id."""
        xy = np.asarray(xy, dtype=np.float64).reshape(2)
        pid = len(self.points)
        self.points = np.vstack([self.points, xy[None, :]])
        mbr = np.array([xy[0], xy[1], xy[0], xy[1]])
        split = self._insert_into(self._root, pid, mbr)
        if split is not None:
            old_root = self._root
            self._root = _Node(
                is_leaf=False,
                mbrs=np.array([old_root.mbr, split.mbr]),
                children=[old_root, split],
                level=old_root.level + 1,
            )
        return pid

    def _insert_into(
        self, node: _Node, pid: int, mbr: np.ndarray
    ) -> Optional[_Node]:
        if node.is_leaf:
            node.mbrs = np.vstack([node.mbrs, mbr[None, :]])
            node.children = np.append(node.children, pid)
            if len(node.children) > self.max_entries:
                return self._split_leaf(node)
            return None
        # choose subtree: least area enlargement (ties: smaller area)
        enlarge = np.empty(len(node.children))
        for i in range(len(node.children)):
            child_mbr = node.mbrs[i]
            enlarge[i] = _mbr_area(_mbr_union(child_mbr, mbr)) - _mbr_area(child_mbr)
        best = int(np.argmin(enlarge))
        child = node.children[best]
        split = self._insert_into(child, pid, mbr)
        node.mbrs[best] = child.mbr
        if split is not None:
            node.mbrs = np.vstack([node.mbrs, split.mbr[None, :]])
            node.children.append(split)
            if len(node.children) > self.max_entries:
                return self._split_internal(node)
        return None

    def _quadratic_seeds(self, mbrs: np.ndarray) -> tuple[int, int]:
        n = len(mbrs)
        worst, seeds = -np.inf, (0, 1)
        for i in range(n):
            for j in range(i + 1, n):
                waste = (
                    _mbr_area(_mbr_union(mbrs[i], mbrs[j]))
                    - _mbr_area(mbrs[i])
                    - _mbr_area(mbrs[j])
                )
                if waste > worst:
                    worst, seeds = waste, (i, j)
        return seeds

    def _quadratic_partition(self, mbrs: np.ndarray) -> tuple[list[int], list[int]]:
        """Quadratic-split assignment of entries to two groups."""
        i, j = self._quadratic_seeds(mbrs)
        g1, g2 = [i], [j]
        mbr1, mbr2 = mbrs[i].copy(), mbrs[j].copy()
        remaining = [k for k in range(len(mbrs)) if k not in (i, j)]
        while remaining:
            # force-assign if a group must take all remaining to reach min
            if len(g1) + len(remaining) == self.min_entries:
                g1.extend(remaining)
                break
            if len(g2) + len(remaining) == self.min_entries:
                g2.extend(remaining)
                break
            # pick entry with max preference difference
            best_k, best_diff, best_into = None, -np.inf, 1
            for k in remaining:
                d1 = _mbr_area(_mbr_union(mbr1, mbrs[k])) - _mbr_area(mbr1)
                d2 = _mbr_area(_mbr_union(mbr2, mbrs[k])) - _mbr_area(mbr2)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_k, best_diff = k, diff
                    best_into = 1 if d1 < d2 else 2
            remaining.remove(best_k)
            if best_into == 1:
                g1.append(best_k)
                mbr1 = _mbr_union(mbr1, mbrs[best_k])
            else:
                g2.append(best_k)
                mbr2 = _mbr_union(mbr2, mbrs[best_k])
        return g1, g2

    def _split_leaf(self, node: _Node) -> _Node:
        g1, g2 = self._quadratic_partition(node.mbrs)
        mbrs, ids = node.mbrs, node.children
        node.mbrs = mbrs[g1]
        node.children = ids[g1]
        return _Node(is_leaf=True, mbrs=mbrs[g2], children=ids[g2], level=0)

    def _split_internal(self, node: _Node) -> _Node:
        g1, g2 = self._quadratic_partition(node.mbrs)
        mbrs, kids = node.mbrs, node.children
        node.mbrs = mbrs[g1]
        node.children = [kids[k] for k in g1]
        return _Node(
            is_leaf=False,
            mbrs=mbrs[g2],
            children=[kids[k] for k in g2],
            level=node.level,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, point_id: int, eps: float) -> np.ndarray:
        """IDs of points within ``eps`` of point ``point_id`` (inclusive)."""
        return self.range_query_coords(self.points[point_id], eps)

    def range_query_coords(self, xy: np.ndarray, eps: float) -> np.ndarray:
        """ε-circle query around arbitrary coordinates."""
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.queries += 1
        x, y = float(xy[0]), float(xy[1])
        # The box prune must never exclude a point the leaf-level squared
        # distance test would accept.  That test works on fl(dx²+dy²),
        # which (a) rounds, and (b) underflows to 0 for |dx| below
        # ~1.5e-154 — so a point can pass ``d² <= eps²`` while lying
        # strictly outside the exact ε-box.  Pad the box accordingly.
        pad = 1.5e-154 + 1e-9 * (eps + abs(x) + abs(y))
        qbox = (x - eps - pad, y - eps - pad, x + eps + pad, y + eps + pad)
        out: list[np.ndarray] = []
        eps2 = eps * eps
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.nodes_visited += 1
            if len(node.children) == 0:
                continue
            m = node.mbrs
            hit = (
                (m[:, 0] <= qbox[2])
                & (m[:, 2] >= qbox[0])
                & (m[:, 1] <= qbox[3])
                & (m[:, 3] >= qbox[1])
            )
            if node.is_leaf:
                ids = node.children[hit]
                if len(ids):
                    pts = self.points[ids]
                    d2 = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2
                    sel = ids[d2 <= eps2]
                    if len(sel):
                        out.append(sel)
            else:
                for k in np.flatnonzero(hit):
                    stack.append(node.children[k])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(out))

    # ------------------------------------------------------------------
    # invariants / stats (used by tests)
    # ------------------------------------------------------------------
    def stats(self) -> RTreeStats:
        n_nodes = n_leaves = 0
        height = 0
        stack = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            n_nodes += 1
            height = max(height, depth)
            if node.is_leaf:
                n_leaves += 1
            else:
                stack.extend((c, depth + 1) for c in node.children)
        return RTreeStats(
            height=height,
            n_nodes=n_nodes,
            n_leaves=n_leaves,
            max_entries=self.max_entries,
        )

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        seen: list[int] = []

        def visit(node: _Node, depth: int, leaf_depths: list[int]) -> None:
            assert len(node.mbrs) == len(node.children)
            if node is not self._root:
                assert len(node.children) >= 1
            if node.is_leaf:
                leaf_depths.append(depth)
                for i, pid in enumerate(node.children):
                    xy = self.points[pid]
                    m = node.mbrs[i]
                    assert m[0] <= xy[0] <= m[2] and m[1] <= xy[1] <= m[3]
                    seen.append(int(pid))
            else:
                for i, child in enumerate(node.children):
                    cm = child.mbr
                    m = node.mbrs[i]
                    assert (
                        m[0] <= cm[0] + 1e-12
                        and m[1] <= cm[1] + 1e-12
                        and m[2] >= cm[2] - 1e-12
                        and m[3] >= cm[3] - 1e-12
                    ), "child MBR not contained in parent entry"
                    visit(child, depth + 1, leaf_depths)

        leaf_depths: list[int] = []
        visit(self._root, 1, leaf_depths)
        if leaf_depths:
            assert min(leaf_depths) == max(leaf_depths), "tree is not balanced"
        assert sorted(seen) == list(range(len(self.points))), "points missing"

    def reset_instrumentation(self) -> None:
        self.nodes_visited = 0
        self.queries = 0
