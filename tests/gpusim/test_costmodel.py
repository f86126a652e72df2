"""Tests for the analytic device cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.costmodel import CostModel, KernelCounters


@pytest.fixture
def model():
    return CostModel()


class TestKernelTime:
    def test_launch_overhead_floor(self, model):
        assert model.kernel_time_ms(KernelCounters()) >= model.launch_overhead_ms

    def test_more_distance_is_slower(self, model):
        a = model.kernel_time_ms(KernelCounters(distance_calcs=10**6))
        b = model.kernel_time_ms(KernelCounters(distance_calcs=10**7))
        assert b > a

    def test_block_overhead_dominates_many_small_blocks(self, model):
        """The Table II effect: same work split over many more blocks
        costs more — this is what penalizes GPUCalcShared on uniform
        data with many nearly-empty cells."""
        work = KernelCounters(distance_calcs=10**5, blocks=100)
        fragmented = KernelCounters(distance_calcs=10**5, blocks=500_000)
        assert model.kernel_time_ms(fragmented) > 2 * model.kernel_time_ms(work)

    def test_roofline_max(self, model):
        compute_bound = KernelCounters(distance_calcs=10**8)
        memory_bound = KernelCounters(global_loads=10**10)
        both = KernelCounters(distance_calcs=10**8, global_loads=10**10)
        t_both = model.kernel_time_ms(both)
        assert t_both >= model.kernel_time_ms(compute_bound) - 1e-9
        assert t_both >= model.kernel_time_ms(memory_bound) - 1e-9

    def test_shared_memory_cheaper_than_global(self, model):
        g = model.kernel_time_ms(KernelCounters(global_loads=10**8))
        s = model.kernel_time_ms(KernelCounters(shared_loads=10**8))
        assert s < g

    def test_atomics_additive(self, model):
        base = KernelCounters(distance_calcs=10**6)
        with_atomics = KernelCounters(distance_calcs=10**6, atomics=10**7)
        assert model.kernel_time_ms(with_atomics) > model.kernel_time_ms(base)

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50)
    def test_time_is_positive_and_monotone(self, dist, loads, blocks):
        m = CostModel()
        t = m.kernel_time_ms(
            KernelCounters(distance_calcs=dist, global_loads=loads, blocks=blocks)
        )
        t2 = m.kernel_time_ms(
            KernelCounters(
                distance_calcs=dist + 1, global_loads=loads, blocks=blocks
            )
        )
        assert t > 0
        assert t2 >= t


class TestTransferTime:
    def test_pinned_faster(self, model):
        pageable = model.transfer_time_ms(10**8, pinned=False)
        pinned = model.transfer_time_ms(10**8, pinned=True)
        assert pinned < pageable

    def test_latency_floor(self, model):
        t = model.transfer_time_ms(0, pinned=True)
        assert t == pytest.approx(model.transfer_latency_ms)

    def test_bandwidth_scaling(self, model):
        t1 = model.transfer_time_ms(10**6, pinned=True)
        t2 = model.transfer_time_ms(2 * 10**6, pinned=True)
        # doubling bytes roughly doubles the bandwidth term
        assert t2 > t1
        assert t2 - model.transfer_latency_ms == pytest.approx(
            2 * (t1 - model.transfer_latency_ms)
        )

    def test_pinned_alloc_scales_with_size(self, model):
        small = model.pinned_alloc_time_ms(1024**2)
        big = model.pinned_alloc_time_ms(100 * 1024**2)
        assert big == pytest.approx(100 * small)


class TestSortTime:
    def test_empty_is_overhead_only(self, model):
        assert model.sort_time_ms(0) == model.launch_overhead_ms

    def test_superlinear_growth(self, model):
        t1 = model.sort_time_ms(10**6)
        t2 = model.sort_time_ms(10**7)
        assert t2 > 10 * (t1 - model.launch_overhead_ms)


class TestCounters:
    def test_merge(self):
        a = KernelCounters(threads=10, distance_calcs=5, atomics=1)
        b = KernelCounters(threads=20, distance_calcs=7, syncs=3)
        a.merge(b)
        assert a.threads == 30
        assert a.distance_calcs == 12
        assert a.atomics == 1
        assert a.syncs == 3

    def test_merge_identity(self):
        a = KernelCounters(threads=4)
        a.merge(KernelCounters())
        assert a.threads == 4
