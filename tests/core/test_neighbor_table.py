"""Tests for the neighbor table T (Sections III and V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NeighborTable


def table_from_pairs(n, pairs):
    """Build a table from a full (key, value) list in one batch."""
    t = NeighborTable(n, eps=1.0)
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        t.add_batch(arr[:, 0], arr[:, 1])
    return t.finalize()


class TestConstruction:
    def test_single_batch(self):
        t = table_from_pairs(3, [(0, 0), (0, 1), (1, 1), (2, 2)])
        assert t.neighbors(0).tolist() == [0, 1]
        assert t.neighbors(1).tolist() == [1]
        assert t.neighbors(2).tolist() == [2]
        t.validate()

    def test_multi_batch_interleaved(self):
        t = NeighborTable(4, eps=1.0)
        # batch for even keys, then odd keys (strided style)
        t.add_batch(np.array([0, 0, 2]), np.array([0, 1, 2]))
        t.add_batch(np.array([1, 3, 3]), np.array([1, 2, 3]))
        t.finalize()
        assert t.neighbors(0).tolist() == [0, 1]
        assert t.neighbors(1).tolist() == [1]
        assert t.neighbors(2).tolist() == [2]
        assert t.neighbors(3).tolist() == [2, 3]
        t.validate()

    def test_point_with_no_pairs(self):
        t = table_from_pairs(3, [(0, 0)])
        assert t.neighbors(1).tolist() == []
        assert t.neighbor_counts().tolist() == [1, 0, 0]

    def test_empty_batch_ignored(self):
        t = NeighborTable(2, eps=1.0)
        t.add_batch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert t.total_pairs == 0

    def test_key_in_two_batches_rejected(self):
        t = NeighborTable(3, eps=1.0)
        t.add_batch(np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="two batches"):
            t.add_batch(np.array([0]), np.array([1]))

    def test_key_out_of_range(self):
        t = NeighborTable(3, eps=1.0)
        with pytest.raises(ValueError):
            t.add_batch(np.array([5]), np.array([0]))

    def test_length_mismatch(self):
        t = NeighborTable(3, eps=1.0)
        with pytest.raises(ValueError):
            t.add_batch(np.array([0, 1]), np.array([0]))

    def test_add_after_finalize_rejected(self):
        t = table_from_pairs(2, [(0, 0)])
        with pytest.raises(RuntimeError):
            t.add_batch(np.array([1]), np.array([1]))

    def test_finalize_idempotent(self):
        t = table_from_pairs(2, [(0, 0), (1, 1)])
        v1 = t.values
        t.finalize()
        assert t.values is v1

    def test_invalid_n_points(self):
        with pytest.raises(ValueError):
            NeighborTable(0, eps=1.0)


class TestQueries:
    def test_neighbor_counts_vectorized(self):
        t = table_from_pairs(3, [(0, 0), (0, 1), (0, 2), (2, 2)])
        assert t.neighbor_counts().tolist() == [3, 0, 1]

    def test_edges_roundtrip(self):
        pairs = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
        t = table_from_pairs(3, pairs)
        src, dst = t.edges()
        assert sorted(zip(src.tolist(), dst.tolist(), strict=True)) == sorted(pairs)

    def test_edges_walk_b_in_storage_order(self):
        # odd keys land in B before even keys, and point 4 owns no range
        t = NeighborTable(5, eps=1.0)
        t.add_batch(np.array([1, 1, 3, 3]), np.array([1, 2, 3, 2]))
        t.add_batch(np.array([0, 2, 2, 2]), np.array([0, 1, 2, 3]))
        t.finalize()
        src, dst, pos = t.edges_with_positions()
        assert pos.tolist() == list(range(t.total_pairs))
        assert np.array_equal(dst, t.values)
        rows = [(i, j) for i in range(5) for j in t.neighbors(i).tolist()]
        assert sorted(zip(src.tolist(), dst.tolist(), strict=True)) == sorted(rows)
        assert np.array_equal(src, t.edges()[0])

    def test_half_edges_hold_each_undirected_edge_once(self):
        pairs = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (2, 3), (3, 2), (3, 3)]
        t = table_from_pairs(5, pairs)
        half = t.half_edges()
        assert sorted(zip(half.src.tolist(), half.dst.tolist(), strict=True)) == [
            (0, 2), (2, 3)
        ]
        deg = t.neighbor_counts()
        assert np.array_equal(half.deg_src, deg[half.src])
        assert np.array_equal(half.deg_dst, deg[half.dst])
        assert half.src.dtype == half.dst.dtype == np.int32
        assert half.deg_src.dtype == half.deg_dst.dtype == np.uint8
        assert t.half_edges() is half  # memoized

    def test_edges_for_subset(self):
        pairs = [(0, 0), (0, 2), (1, 1), (2, 0)]
        t = table_from_pairs(3, pairs)
        src, dst = t.edges_for(np.array([0, 2]))
        assert sorted(zip(src.tolist(), dst.tolist(), strict=True)) == [(0, 0), (0, 2), (2, 0)]

    def test_total_pairs(self):
        t = table_from_pairs(3, [(0, 0), (1, 1), (1, 2)])
        assert t.total_pairs == 3


class TestPersistence:
    @given(
        spec=st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=60,
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_save_load_roundtrip(self, tmp_path_factory, spec):
        """Any table survives the .npz round trip exactly."""
        n, pairs = spec
        t = table_from_pairs(n, pairs)
        path = t.save(tmp_path_factory.mktemp("nt") / "t.npz")
        back = NeighborTable.load(path)
        assert back.n_points == t.n_points
        assert back.eps == t.eps
        assert not back.with_distances
        assert np.array_equal(back.t_min, t.t_min)
        assert np.array_equal(back.t_max, t.t_max)
        assert np.array_equal(back.values, t.values)

    def test_annotated_roundtrip(self, tmp_path):
        t = NeighborTable(3, eps=0.5, with_distances=True)
        keys = np.array([0, 0, 2])
        vals = np.array([0, 1, 2])
        dist = np.array([0.0, 0.25, 0.1])
        t.add_batch(keys, vals, distances=dist)
        path = t.save(tmp_path / "annotated.npz")
        back = NeighborTable.load(path)
        assert back.with_distances
        assert np.array_equal(back.values, t.values)
        assert np.array_equal(back.distances, dist)
        assert back.neighbor_distances(0).tolist() == [0.0, 0.25]

    def test_metadata_types_exact(self, tmp_path):
        """Regression: metadata used to be one float64 array, silently
        casting n_points/with_distances.  The typed layout keeps an
        int64 n_points exact (float64 loses integers above 2**53)."""
        t = table_from_pairs(4, [(0, 0), (3, 1)])
        path = t.save(tmp_path / "t.npz")
        with np.load(path) as data:
            assert data["n_points"].dtype == np.int64
            assert data["eps"].dtype == np.float64
            assert data["with_distances"].dtype == np.bool_
        big = (1 << 53) + 1  # not representable in float64
        assert int(np.int64(big)) == big
        assert int(np.float64(big)) != big

    def test_legacy_meta_layout_accepted(self, tmp_path):
        """Tables written by the old float64-meta format still load."""
        t = table_from_pairs(3, [(0, 0), (0, 1), (2, 2)])
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            t_min=t.t_min,
            t_max=t.t_max,
            values=t.values,
            meta=np.array([t.n_points, t.eps, 0.0]),
        )
        back = NeighborTable.load(path)
        assert back.n_points == 3
        assert back.eps == 1.0
        assert not back.with_distances
        assert back.neighbors(0).tolist() == [0, 1]
        assert back.neighbors(2).tolist() == [2]


class TestLoadCorruption:
    """Corrupt/truncated ``.npz`` files must fail with a ValueError
    naming the file and the corrupt field — not a bare KeyError from
    the array dict or an AssertionError from ``validate``."""

    def _annotated(self, tmp_path):
        t = NeighborTable(3, eps=0.5, with_distances=True)
        t.add_batch(
            np.array([0, 0, 2]),
            np.array([0, 1, 2]),
            distances=np.array([0.0, 0.25, 0.1]),
        )
        return t.save(tmp_path / "t.npz")

    def _resave_without(self, path, drop):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != drop}
        np.savez_compressed(path, **arrays)

    def test_missing_distances_is_clear_valueerror(self, tmp_path):
        """An annotated-flagged file whose distances column never hit
        the disk (interrupted save) used to die with KeyError."""
        path = self._annotated(tmp_path)
        self._resave_without(path, "distances")
        with pytest.raises(ValueError) as ei:
            NeighborTable.load(path)
        msg = str(ei.value)
        assert "distances" in msg and "t.npz" in msg

    @pytest.mark.parametrize("drop", ["t_min", "t_max", "values"])
    def test_missing_core_array(self, tmp_path, drop):
        path = self._annotated(tmp_path)
        self._resave_without(path, drop)
        with pytest.raises(ValueError, match=drop):
            NeighborTable.load(path)

    def test_missing_all_metadata(self, tmp_path):
        path = self._annotated(tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in ("t_min", "t_max", "values")}
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="meta"):
            NeighborTable.load(path)

    def test_invalid_structure_wrapped(self, tmp_path):
        """Structural validation failures surface as ValueError naming
        the file, with the AssertionError chained as the cause."""
        t = table_from_pairs(2, [(0, 0), (1, 1)])
        path = t.save(tmp_path / "bad.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["values"] = np.array([99, 1])  # id out of range
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="bad.npz") as ei:
            NeighborTable.load(path)
        assert isinstance(ei.value.__cause__, AssertionError)


class TestValidation:
    def test_validate_catches_gap(self):
        t = table_from_pairs(3, [(0, 0), (1, 1)])
        t.t_min[1] += 0  # intact
        t.validate()
        t.t_max[0] = t.t_min[0] - 0  # shrink range -> gap
        t.t_max[0] -= 1
        with pytest.raises(AssertionError):
            t.validate()

    def test_validate_catches_bad_value(self):
        t = table_from_pairs(2, [(0, 0), (1, 1)])
        t.values[0] = 99
        with pytest.raises(AssertionError):
            t.validate()

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=60,
                ),
            )
        )
    )
    @settings(max_examples=60)
    def test_property_roundtrip(self, spec):
        """Any key/value multiset survives the table round trip."""
        n, pairs = spec
        t = table_from_pairs(n, pairs)
        t.validate()
        rebuilt = []
        for i in range(n):
            rebuilt.extend((i, int(v)) for v in t.neighbors(i))
        assert sorted(rebuilt) == sorted(pairs)

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40)
    def test_property_batched_equals_single(self, n, nb):
        """Strided multi-batch ingestion builds the same table."""
        rng = np.random.default_rng(n * 31 + nb)
        pairs = [
            (int(k), int(rng.integers(0, n)))
            for k in rng.integers(0, n, 40)
        ]
        whole = table_from_pairs(n, pairs)
        t = NeighborTable(n, eps=1.0)
        for l in range(nb):
            batch = sorted(p for p in pairs if p[0] % nb == l)
            if batch:
                arr = np.array(batch, dtype=np.int64)
                t.add_batch(arr[:, 0], arr[:, 1])
        t.finalize()
        t.validate()
        for i in range(n):
            assert sorted(t.neighbors(i).tolist()) == sorted(
                whole.neighbors(i).tolist()
            )
