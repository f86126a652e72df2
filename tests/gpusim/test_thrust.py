"""Tests for the Thrust-style device primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, sort_pairs


class TestSortPairs:
    def test_basic(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.append_block(np.array([[3, 30], [1, 10], [2, 20]]))
        n = sort_pairs(buf, device)
        assert n == 3
        assert buf.view().tolist() == [[1, 10], [2, 20], [3, 30]]

    def test_stable_within_key(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.append_block(np.array([[1, 5], [0, 9], [1, 2]]))
        sort_pairs(buf, device)
        assert buf.view().tolist() == [[0, 9], [1, 5], [1, 2]]

    def test_result_buffer_prefix_only(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.append_block(np.array([[5, 50], [2, 20], [9, 90]]))
        buf.data[3:] = -1  # unfilled tail: would sort first if included
        assert sort_pairs(buf, device) == 3
        assert buf.view().tolist() == [[2, 20], [5, 50], [9, 90]]
        assert (buf.data[3:] == -1).all()

    def test_empty(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        assert sort_pairs(buf, device) == 0
        assert device.profiler.sorts[-1].n == 0

    def test_one_record_per_sort(self, device):
        buf = device.allocate_result_buffer((100, 2), np.int64)
        buf.append_block(np.zeros((100, 2), dtype=np.int64))
        s = device.new_stream("sort")
        sort_pairs(buf, device, stream=s)
        (op,) = device.profiler.ops
        assert op is device.profiler.sorts[-1]
        assert (op.name, op.engine, op.stream, op.n) == (
            "thrust::sort_by_key", "compute", "sort", 100,
        )
        assert op.modeled_ms == device.cost.sort_time_ms(100)
        assert op.end_ms - op.start_ms == pytest.approx(op.modeled_ms)
        assert device.profiler.sort_time_ms() == op.modeled_ms

    def test_wrong_shape(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        with pytest.raises(ValueError):
            sort_pairs(buf, device)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, pairs):
        device = Device()
        buf = device.allocate_result_buffer((max(len(pairs), 1), 2), np.int64)
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        if len(arr):
            buf.append_block(arr)
        sort_pairs(buf, device)
        expected = arr[np.argsort(arr[:, 0], kind="stable")] if len(arr) else arr
        assert np.array_equal(buf.view(), expected)

