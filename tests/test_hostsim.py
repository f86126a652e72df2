"""Tests for the simulated multicore host scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hostsim import schedule_devices, schedule_parallel, schedule_pipeline

durations_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=40
)


class TestScheduleParallel:
    def test_single_worker_is_serial(self):
        s = schedule_parallel([1.0, 2.0, 3.0], 1)
        assert s.makespan_s == 6.0
        assert s.speedup == 1.0

    def test_perfect_split(self):
        s = schedule_parallel([1.0] * 8, 4)
        assert s.makespan_s == 2.0
        assert s.speedup == 4.0

    def test_imbalanced_tail(self):
        # one long task dominates regardless of worker count
        s = schedule_parallel([10.0, 1.0, 1.0], 16)
        assert s.makespan_s == 10.0

    def test_in_order_dispatch(self):
        s = schedule_parallel([5.0, 1.0, 1.0], 2)
        # task 0 on w0; tasks 1, 2 share w1 -> makespan 5
        assert s.makespan_s == 5.0
        by_task = {iv.task: iv for iv in s.intervals}
        assert by_task[2].start_s == pytest.approx(1.0)

    def test_empty(self):
        assert schedule_parallel([], 4).makespan_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_parallel([1.0], 0)
        with pytest.raises(ValueError):
            schedule_parallel([-1.0], 2)

    def test_utilization_bounds(self):
        s = schedule_parallel([1.0, 2.0, 3.0], 2)
        assert 0 < s.utilization <= 1

    @given(durations_strategy, st.integers(min_value=1, max_value=20))
    @settings(max_examples=80)
    def test_property_bounds(self, ds, n):
        """Makespan is between serial/n (perfect) and serial (worst),
        and at least the longest task."""
        s = schedule_parallel(ds, n)
        serial = sum(ds)
        longest = max(ds, default=0.0)
        assert s.makespan_s <= serial + 1e-9
        assert s.makespan_s >= serial / n - 1e-9
        assert s.makespan_s >= longest - 1e-9

    @given(durations_strategy)
    @settings(max_examples=40)
    def test_property_more_workers_never_slower(self, ds):
        prev = None
        for n in (1, 2, 4, 8):
            m = schedule_parallel(ds, n).makespan_s
            if prev is not None:
                assert m <= prev + 1e-9
            prev = m


class TestSchedulePipeline:
    def test_no_overlap_single_item(self):
        s = schedule_pipeline([2.0], [3.0], 1)
        assert s.makespan_s == 5.0

    def test_full_overlap_balanced(self):
        """With equal produce/consume costs, the steady state hides all
        but the pipeline fill — the paper's S2 design point."""
        n = 10
        s = schedule_pipeline([1.0] * n, [1.0] * n, 1)
        assert s.makespan_s == pytest.approx(n + 1.0)
        assert s.speedup_vs_serial == pytest.approx(2 * n / (n + 1.0))

    def test_producer_bound(self):
        s = schedule_pipeline([2.0] * 5, [0.1] * 5, 3)
        assert s.makespan_s == pytest.approx(10.0 + 0.1)

    def test_consumer_bound_extra_consumers_help(self):
        slow = schedule_pipeline([0.1] * 6, [3.0] * 6, 1)
        fast = schedule_pipeline([0.1] * 6, [3.0] * 6, 3)
        assert fast.makespan_s < slow.makespan_s

    def test_queue_depth_backpressure(self):
        """A bounded queue stalls the producer when consumers lag."""
        free = schedule_pipeline([0.1] * 10, [5.0] * 10, 1, queue_depth=None)
        bounded = schedule_pipeline([0.1] * 10, [5.0] * 10, 1, queue_depth=2)
        # same makespan here (consumer-bound) but the producer finishes
        # later under back-pressure
        assert bounded.produce_end_s[-1] > free.produce_end_s[-1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            schedule_pipeline([1.0], [1.0, 2.0], 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_pipeline([1.0], [1.0], 0)

    def test_queue_depth_zero_rejected(self):
        # regression: depth 0 used to index intervals[i] before item i
        # existed (IndexError) — it is a deadlock, not a valid depth
        with pytest.raises(ValueError, match="queue_depth"):
            schedule_pipeline([1.0, 1.0], [1.0, 1.0], 1, queue_depth=0)
        with pytest.raises(ValueError, match="queue_depth"):
            schedule_pipeline([1.0], [1.0], 2, queue_depth=-1)

    def test_queue_depth_zero_rejected_in_pipeline_class(self):
        from repro.core import MultiClusterPipeline

        with pytest.raises(ValueError, match="queue_depth"):
            MultiClusterPipeline(queue_depth=0)

    def test_empty(self):
        assert schedule_pipeline([], [], 2).makespan_s == 0.0

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=25),
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=25),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60)
    def test_property_bounds(self, ps, cs, n):
        k = min(len(ps), len(cs))
        ps, cs = ps[:k], cs[:k]
        s = schedule_pipeline(ps, cs, n)
        serial = sum(ps) + sum(cs)
        assert s.makespan_s <= serial + 1e-9
        # cannot beat either resource's total demand
        assert s.makespan_s >= sum(ps) - 1e-9
        assert s.makespan_s >= sum(cs) / n - 1e-9
        assert s.speedup_vs_serial >= 1.0 - 1e-9


def _intervals_disjoint(ivs):
    """Per-worker intervals never overlap (half-open)."""
    by_worker = {}
    for iv in ivs:
        by_worker.setdefault(iv.worker, []).append(iv)
    for group in by_worker.values():
        group.sort(key=lambda iv: iv.start_s)
        for a, b in zip(group, group[1:]):
            if a.end_s > b.start_s + 1e-9:
                return False
    return True


devices_case = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # build
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),  # merge
    ),
    max_size=30,
)


class TestScheduleDevices:
    def test_single_device_is_serial(self):
        s = schedule_devices([1.0, 2.0, 3.0], [0, 0, 0], [0.5, 0.5, 0.5])
        # builds back to back; merge increments hide behind later builds
        # except the last one
        assert s.build_makespan_s == 6.0
        assert s.makespan_s == pytest.approx(6.5)

    def test_two_devices_overlap(self):
        s = schedule_devices([2.0, 2.0], [0, 1])
        assert s.makespan_s == pytest.approx(2.0)
        assert s.device_busy_s(0) == pytest.approx(2.0)
        assert s.device_busy_s(1) == pytest.approx(2.0)

    def test_merge_worker_is_serial_and_fifo(self):
        s = schedule_devices([1.0, 2.0], [0, 1], [5.0, 5.0])
        by_task = {iv.task: iv for iv in s.merge_intervals}
        assert by_task[0].start_s == pytest.approx(1.0)
        # task 1's merge waits for the single merge worker, not just
        # its own build
        assert by_task[1].start_s == pytest.approx(6.0)
        assert s.makespan_s == pytest.approx(11.0)

    def test_exchange_prefix_and_finalize_tail(self):
        s = schedule_devices(
            [1.0], [0], [1.0], exchange_s=0.5, finalize_s=0.25
        )
        assert s.build_intervals[0].start_s == pytest.approx(0.5)
        assert s.makespan_s == pytest.approx(0.5 + 1.0 + 1.0 + 0.25)

    def test_empty(self):
        s = schedule_devices([], [], n_devices=3)
        assert s.makespan_s == 0.0
        assert s.serial_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0], n_devices=0)
        with pytest.raises(ValueError):
            schedule_devices([1.0], [2], n_devices=2)
        with pytest.raises(ValueError):
            schedule_devices([-1.0], [0])
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0, 1])
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0], [1.0, 2.0])
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0], exchange_s=-1.0)

    @given(devices_case, st.integers(min_value=1, max_value=6))
    @settings(max_examples=80)
    def test_property_conservation_and_no_overlap(self, case, k):
        builds = [b for b, _ in case]
        merges = [m for _, m in case]
        devs = [i % k for i in range(len(case))]
        s = schedule_devices(builds, devs, merges, n_devices=k)
        # work conservation: serial_s is exactly the duration sum
        assert s.serial_s == pytest.approx(sum(builds) + sum(merges))
        # per-device build intervals never overlap; the single merge
        # worker's intervals never overlap
        assert _intervals_disjoint(s.build_intervals)
        assert _intervals_disjoint(s.merge_intervals)
        # every merge starts at/after its build completes
        ends = {iv.task: iv.end_s for iv in s.build_intervals}
        for iv in s.merge_intervals:
            assert iv.start_s >= ends[iv.task] - 1e-9

    @given(devices_case, st.integers(min_value=2, max_value=6))
    @settings(max_examples=60)
    def test_property_never_slower_than_one_device(self, case, k):
        """Any placement onto k devices beats (or ties) serializing
        everything onto one device — the overlapped-merge guarantee."""
        builds = [b for b, _ in case]
        merges = [m for _, m in case]
        one = schedule_devices(
            builds, [0] * len(case), merges, n_devices=1
        )
        for devs in (
            [i % k for i in range(len(case))],  # round-robin
            [min(i * k // max(len(case), 1), k - 1) for i in range(len(case))],
        ):  # contiguous
            s = schedule_devices(builds, devs, merges, n_devices=k)
            assert s.makespan_s <= one.makespan_s + 1e-9

    @given(devices_case)
    @settings(max_examples=40)
    def test_property_makespan_lower_bounds(self, case):
        builds = [b for b, _ in case]
        merges = [m for _, m in case]
        k = 3
        devs = [i % k for i in range(len(case))]
        s = schedule_devices(builds, devs, merges, n_devices=k)
        # cannot beat the busiest device or the merge worker's demand
        for d in range(k):
            assert s.makespan_s >= s.device_busy_s(d) - 1e-9
        assert s.makespan_s >= sum(merges) - 1e-9


class TestEndToEndModes:
    def test_reuse_simulate_speedup_monotone(self, blobs_points):
        from repro.core import cluster_with_reuse

        # one run's measured durations, scheduled at 1, 4 and 16 cores:
        # separate runs re-measure them and drift apart by more than the
        # modeled gain
        r = cluster_with_reuse(
            blobs_points, 0.5, list(range(2, 18)), n_threads=16
        )
        durations = [o.dbscan_s for o in r.outcomes]
        assert r.cluster_s == schedule_parallel(durations, 16).makespan_s
        spans = [schedule_parallel(durations, nt).makespan_s for nt in (1, 4, 16)]
        assert spans == sorted(spans, reverse=True)
        assert spans[0] == pytest.approx(r.cluster_serial_s)

    def test_pipeline_simulate_not_slower_than_serial(self, blobs_points):
        from repro.core import MultiClusterPipeline, VariantSet

        vs = VariantSet.eps_sweep([0.3, 0.4, 0.5, 0.6])
        pipe = MultiClusterPipeline()
        seq = pipe.run(blobs_points, vs, pipelined=False)
        par = pipe.run(blobs_points, vs, pipelined=True)
        # modeled pipelined makespan cannot exceed its own serial parts
        assert par.total_s <= par.sum_build_s + par.sum_dbscan_s + 1e-9


class TestWorkerPool:
    def test_quotes_now_when_idle(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        assert pool.peek_start(5.0) == 5.0

    def test_queues_when_saturated(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(1)
        w0 = pool.commit(0.0, 10.0)
        assert w0 == 0
        # worker busy until 10: arrival at 3 queues until then
        assert pool.peek_start(3.0) == 10.0
        pool.commit(10.0, 5.0)
        assert pool.peek_start(3.0) == 15.0

    def test_two_workers_interleave(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        pool.commit(0.0, 10.0)
        assert pool.peek_start(1.0) == 1.0  # second worker free
        pool.commit(1.0, 10.0)
        assert pool.peek_start(2.0) == 10.0  # both busy now

    def test_commit_validates(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(1)
        with pytest.raises(ValueError):
            pool.commit(0.0, -1.0)
        pool.commit(5.0, 1.0)
        with pytest.raises(ValueError):
            pool.commit(4.0, 1.0)  # before the quoted free instant

    def test_accounting(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        pool.commit(0.0, 4.0)
        pool.commit(0.0, 8.0)
        assert pool.busy_ms == pytest.approx(12.0)
        assert pool.makespan_ms == pytest.approx(8.0)
        assert pool.utilization == pytest.approx(12.0 / 16.0)
