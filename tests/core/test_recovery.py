"""Per-batch overflow recovery: acceptance, accounting, and properties."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchConfig, BatchPlanner
from repro.core.batching import build_neighbor_table
from repro.gpusim import Device, FaultInjector, FaultSpec, TransferError
from repro.gpusim.memory import ResultBufferOverflow
from repro.index import GridIndex

N_BATCHES = 8
BUFFER = 800


def _points():
    rng = np.random.default_rng(42)
    return rng.random((400, 2)) * 6.0


def _grid():
    return GridIndex.build(_points(), 0.4)


def _cfg(**overrides):
    params = dict(
        static_threshold=1,
        static_buffer_size=BUFFER,
        min_buffer_size=128,
        alpha=0.0,
    )
    params.update(overrides)
    return BatchConfig(**params)


def _plan(cfg, n_batches=N_BATCHES):
    return BatchPlanner(cfg).plan_from_estimate(eb=1, ab=n_batches * BUFFER)


def _neighbors(table):
    return [sorted(table.neighbors(i).tolist()) for i in range(table.n_points)]


DENSE_N = 200
DENSE_BUFFER = 128


def _dense_grid():
    """DENSE_N copies of one point: each neighborhood (DENSE_N pairs)
    exceeds a DENSE_BUFFER-pair buffer, so splitting bottoms out at a
    single point and only a buffer regrow recovers it."""
    return GridIndex.build(np.ones((DENSE_N, 2)), 0.5)


def _dense_cfg():
    return BatchConfig(
        static_threshold=1,
        static_buffer_size=DENSE_BUFFER,
        min_buffer_size=DENSE_BUFFER,
        alpha=0.0,
        n_streams=1,
    )


def _dense_plan(cfg):
    """Four batches of DENSE_N / 4 points."""
    return BatchPlanner(cfg).plan_from_estimate(eb=1, ab=4 * DENSE_BUFFER)


DENSE_REFERENCE = [list(range(DENSE_N))] * DENSE_N


@pytest.fixture(scope="module")
def reference():
    """Fault-free build of the shared scenario (and its plan shape)."""
    cfg = _cfg()
    plan = _plan(cfg)
    assert plan.n_batches == N_BATCHES
    table, stats = build_neighbor_table(_grid(), Device(), config=cfg, plan=plan)
    assert stats.recovery.recoveries == 0
    return _neighbors(table)


class TestAcceptance:
    """ISSUE acceptance: 1 fault in >= 6 batches -> completed batches
    kept, identical table, exactly one recovery action."""

    def test_single_fault_recovers_without_restart(self, reference):
        cfg = _cfg()
        plan = _plan(cfg)
        faults = FaultInjector.overflow_at(3)
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan, faults=faults
        )
        assert faults.total_injected == 1
        # completed batches were kept: only the failed batch re-ran,
        # as two split halves
        assert stats.n_batches_run == plan.n_batches + 1
        assert stats.recovery.splits + stats.recovery.regrows == 1
        assert stats.recovery.wasted_kernel_s > 0
        assert _neighbors(table) == reference

    def test_regrow_strategy_single_fault(self):
        """A single point whose neighborhood overflows the buffer cannot
        be split: its worker's buffer regrows once, and every later unit
        fits the grown buffer (or splits into ones that do)."""
        cfg = _dense_cfg()
        table, stats = build_neighbor_table(
            _dense_grid(), Device(), config=cfg, plan=_dense_plan(cfg)
        )
        assert stats.recovery.regrows == 1
        assert stats.recovery.splits >= 1
        assert _neighbors(table) == DENSE_REFERENCE

    def test_injector_attached_to_device_is_used(self, reference):
        cfg = _cfg()
        plan = _plan(cfg)
        device = Device(faults=FaultInjector.overflow_at(2))
        table, stats = build_neighbor_table(
            _grid(), device, config=cfg, plan=plan
        )
        assert stats.recovery.recoveries == 1
        assert _neighbors(table) == reference

    def test_transfer_fault_retried(self, reference):
        cfg = _cfg()
        plan = _plan(cfg)
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan,
            faults=FaultInjector.transfer_at(1),
        )
        assert stats.recovery.transfer_retries == 1
        assert stats.recovery.splits == stats.recovery.regrows == 0
        assert _neighbors(table) == reference

    def test_transfer_retries_bounded(self):
        cfg = _cfg(max_transfer_retries=2)
        plan = _plan(cfg)
        faults = FaultInjector(
            [FaultSpec("transfer", frozenset({1}), times=None)]
        )
        with pytest.raises(TransferError):
            build_neighbor_table(
                _grid(), Device(), config=cfg, plan=plan, faults=faults
            )


class TestRegrowBounds:
    def test_regrow_respects_free_bytes(self):
        """A pool too small to double the buffer refuses the regrow and
        the overflow surfaces instead of OOM-ing the device."""
        from repro.gpusim import DeviceSpec

        pts = np.ones((500, 2))  # every point has 500 neighbors > buffer
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(
            static_threshold=1, static_buffer_size=400, min_buffer_size=400,
            alpha=0.0, n_streams=1,
        )
        plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=400)
        # 10 KB pool: the (400, 2) int64 buffer (6400 B) fits, the
        # doubled one (12800 B) exceeds free + freed-old bytes
        small = Device(DeviceSpec(global_mem_bytes=10 * 1024))
        used_before = small.memory.used_bytes
        with pytest.raises(ResultBufferOverflow):
            build_neighbor_table(grid, small, config=cfg, plan=plan)
        assert small.memory.used_bytes == used_before

    def test_regrow_depth_bounded(self):
        """max_recovery_depth caps how often one unit may regrow: batches
        of one point whose 8 neighbors need two doublings of a 2-pair
        buffer."""
        grid = GridIndex.build(np.ones((8, 2)), 0.5)
        for depth, regrows in ((1, 1), (2, 2)):
            cfg = BatchConfig(
                static_threshold=1, static_buffer_size=2, min_buffer_size=2,
                alpha=0.0, n_streams=1, max_recovery_depth=depth,
            )
            plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=16)
            assert plan.n_batches == 8
            if depth == 1:
                with pytest.raises(ResultBufferOverflow) as ei:
                    build_neighbor_table(grid, Device(), config=cfg, plan=plan)
                stats = ei.value.build_stats
            else:
                table, stats = build_neighbor_table(
                    grid, Device(), config=cfg, plan=plan
                )
                assert table.total_pairs == 64
            assert stats.recovery.regrows == regrows
            assert stats.recovery.splits == 0


class TestPinnedAccounting:
    def test_regrow_releases_old_pinned_staging(self, reference):
        """Regression: regrow used to orphan the pre-grow pinned staging
        buffer — the teardown freed only the current generation, so the
        pinned pool reported phantom residency forever after.  A forced
        regrow must leave zero live pinned buffers and a leak-free
        sanitized close."""
        cfg = _dense_cfg()
        device = Device(sanitize=True)
        table, stats = build_neighbor_table(
            _dense_grid(), device, config=cfg, plan=_dense_plan(cfg)
        )
        assert stats.recovery.regrows == 1
        assert _neighbors(table) == DENSE_REFERENCE
        assert device.pinned.live_count == 0
        assert device.pinned.used_bytes == 0
        assert device.pinned.peak_bytes > 0
        assert device.memory.used_bytes == 0
        report = device.close()  # sanitizer leak check (device + pinned)
        assert report.clean, report.render()

    def test_fault_free_build_releases_pinned(self):
        cfg = _cfg()
        device = Device(sanitize=True)
        build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
        assert device.pinned.live_count == 0
        assert device.close().clean


class TestStatsReset:
    @pytest.fixture
    def fake_clock(self, monkeypatch):
        """A clock ticking +1 per reading: every completed unit then
        contributes exactly 1 to each timed phase, and a unit that fails
        contributes the ticks it read before failing."""
        import repro.core.batching as batching

        ticks = itertools.count()
        monkeypatch.setattr(
            batching, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )

    def test_failed_unit_excluded_from_phase_stats(self, reference, fake_clock):
        """Regression: phase seconds must count only completed units; the
        failed unit's seconds land in ``wasted_kernel_s`` alone."""
        cfg = _cfg(n_streams=1)
        plan = _plan(cfg, n_batches=4)
        # batch 2 overflows after its kernel (1 tick) and splits in two;
        # batches 0, 1, 3 and both halves complete
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan,
            faults=FaultInjector.overflow_at(2),
        )
        assert stats.recovery.splits == 1
        assert stats.n_batches_run == 5
        assert stats.kernel_s == stats.n_batches_run
        assert stats.sort_s == stats.n_batches_run
        assert stats.transfer_s == stats.n_batches_run
        assert stats.host_copy_s == stats.n_batches_run
        assert stats.recovery.wasted_kernel_s == 1
        assert _neighbors(table) == reference

    def test_exhausted_transfer_retries_charge_the_failed_build(
        self, fake_clock
    ):
        """A build that gives up raises with its partial stats attached;
        every kernel, sort and transfer second of the thrown-away build
        is charged to ``wasted_kernel_s``."""
        cfg = _cfg(n_streams=1, max_transfer_retries=2)
        plan = _plan(cfg, n_batches=4)
        faults = FaultInjector(
            [FaultSpec("transfer", frozenset({2}), times=None)]
        )
        with pytest.raises(TransferError) as ei:
            build_neighbor_table(
                _grid(), Device(), config=cfg, plan=plan, faults=faults
            )
        stats = ei.value.build_stats
        assert stats.n_batches_run == 2
        assert stats.recovery.transfer_retries == 2
        # 3 failed transfers x 3 ticks (kernel, sort, failed transfer),
        # plus batches 0 and 1 x 3 timed phases (kernel, sort, transfer)
        assert stats.recovery.wasted_kernel_s == 3 * 3 + 2 * 3


FAULT_KINDS = st.sampled_from(["overflow", "transfer"])


class TestRecoveryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(min_value=0, max_value=N_BATCHES - 1),
        kind=FAULT_KINDS,
        times=st.integers(min_value=1, max_value=2),
    )
    def test_recovered_table_equals_fault_free(
        self, reference, batch, kind, times
    ):
        """Whatever single fault is injected, the recovered table is the
        fault-free table."""
        cfg = _cfg()
        plan = _plan(cfg)
        if kind == "transfer" and times > cfg.max_transfer_retries:
            times = cfg.max_transfer_retries
        faults = FaultInjector(
            [FaultSpec(kind, frozenset({batch}), times=times)]
        )
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan, faults=faults
        )
        assert faults.total_injected >= 1
        assert stats.recovery.recoveries >= 1
        assert _neighbors(table) == reference

    @settings(max_examples=10, deadline=None)
    @given(
        batches=st.sets(
            st.integers(min_value=0, max_value=N_BATCHES - 1),
            min_size=2,
            max_size=4,
        )
    )
    def test_multiple_faulted_batches_recover(self, reference, batches):
        cfg = _cfg()
        plan = _plan(cfg)
        faults = FaultInjector(
            [FaultSpec("overflow", frozenset(batches), times=len(batches))]
        )
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan, faults=faults
        )
        assert stats.recovery.recoveries >= 1
        assert _neighbors(table) == reference
